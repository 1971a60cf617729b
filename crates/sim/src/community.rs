//! Community abundance profiles.

use crate::error::SimError;
use fc_rng::Rng;

/// Relative abundances over the genera of a taxonomy.
///
/// ```
/// use fc_sim::CommunityProfile;
/// let c = CommunityProfile::from_weights(&[3.0, 1.0]).unwrap();
/// assert_eq!(c.abundance(0), 0.75);
/// assert_eq!(c.read_counts(100), vec![75, 25]);
/// ```
///
/// Microbial communities typically have strongly skewed abundance
/// distributions; we draw abundances from a log-normal-like model (exp of a
/// normal via sums of uniforms) and normalise. Each of the paper-analogue
/// data sets D1–D3 uses a different seed, giving the distinct community
/// compositions visible across the three heat maps of Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityProfile {
    abundances: Vec<f64>,
}

impl CommunityProfile {
    /// Uniform community over `n` genera.
    pub fn uniform(n: usize) -> CommunityProfile {
        assert!(n > 0, "community needs at least one genus");
        CommunityProfile {
            abundances: vec![1.0 / n as f64; n],
        }
    }

    /// Skewed community over `n` genera, deterministic in `seed`.
    ///
    /// `sigma` controls skew: 0 gives a uniform community, ~1 gives realistic
    /// order-of-magnitude spreads.
    pub fn log_normal(n: usize, sigma: f64, seed: u64) -> CommunityProfile {
        assert!(n > 0, "community needs at least one genus");
        let mut rng = Rng::new(seed);
        let mut abundances: Vec<f64> = (0..n)
            .map(|_| {
                // Approximate a standard normal with the sum of 12 uniforms.
                let z: f64 = (0..12).map(|_| rng.f64()).sum::<f64>() - 6.0;
                (sigma * z).exp()
            })
            .collect();
        let total: f64 = abundances.iter().sum();
        for a in &mut abundances {
            *a /= total;
        }
        CommunityProfile { abundances }
    }

    /// Explicit abundances (normalised by this constructor).
    pub fn from_weights(weights: &[f64]) -> Result<CommunityProfile, SimError> {
        let config = |message: &str| SimError::Config {
            parameter: "weights",
            message: message.to_string(),
        };
        if weights.is_empty() {
            return Err(config("community needs at least one genus"));
        }
        if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return Err(config("weights must be finite and non-negative"));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(config("weights must not all be zero"));
        }
        Ok(CommunityProfile {
            abundances: weights.iter().map(|w| w / total).collect(),
        })
    }

    /// Number of genera.
    pub fn len(&self) -> usize {
        self.abundances.len()
    }

    /// True if the profile covers no genera (never constructible).
    pub fn is_empty(&self) -> bool {
        self.abundances.is_empty()
    }

    /// Normalised abundance of genus `i`.
    pub fn abundance(&self, i: usize) -> f64 {
        self.abundances[i]
    }

    /// All abundances.
    pub fn as_slice(&self) -> &[f64] {
        &self.abundances
    }

    /// Samples a genus index proportional to abundance using `u ∈ [0, 1)`.
    pub fn sample_index(&self, u: f64) -> usize {
        let mut acc = 0.0;
        for (i, &a) in self.abundances.iter().enumerate() {
            acc += a;
            if u < acc {
                return i;
            }
        }
        self.abundances.len() - 1
    }

    /// Splits `total_reads` across genera proportional to abundance, with
    /// rounding corrected so the counts sum exactly to `total_reads`.
    pub fn read_counts(&self, total_reads: usize) -> Vec<usize> {
        let mut counts: Vec<usize> = self
            .abundances
            .iter()
            .map(|a| (a * total_reads as f64).floor() as usize)
            .collect();
        let mut assigned: usize = counts.iter().sum();
        // Hand out the remainder to the largest fractional parts.
        let mut fracs: Vec<(usize, f64)> = self
            .abundances
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a * total_reads as f64 - counts[i] as f64))
            .collect();
        fracs.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut next = 0;
        while assigned < total_reads {
            counts[fracs[next % fracs.len()].0] += 1;
            assigned += 1;
            next += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sums_to_one() {
        let c = CommunityProfile::uniform(4);
        assert!((c.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(c.abundance(0), 0.25);
    }

    #[test]
    fn log_normal_is_normalised_and_deterministic() {
        let a = CommunityProfile::log_normal(10, 1.0, 7);
        let b = CommunityProfile::log_normal(10, 1.0, 7);
        assert_eq!(a, b);
        assert!((a.as_slice().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // With sigma=1 the spread should be non-trivial.
        let max = a.as_slice().iter().cloned().fold(0.0, f64::max);
        let min = a.as_slice().iter().cloned().fold(1.0, f64::min);
        assert!(max / min > 1.5, "skew too small: {min}..{max}");
    }

    #[test]
    fn from_weights_normalises_and_validates() {
        let c = CommunityProfile::from_weights(&[1.0, 3.0]).unwrap();
        assert!((c.abundance(1) - 0.75).abs() < 1e-12);
        assert!(CommunityProfile::from_weights(&[]).is_err());
        assert!(CommunityProfile::from_weights(&[-1.0, 2.0]).is_err());
        assert!(CommunityProfile::from_weights(&[0.0, 0.0]).is_err());
        assert!(CommunityProfile::from_weights(&[f64::NAN]).is_err());
    }

    #[test]
    fn sample_index_respects_cumulative_ranges() {
        let c = CommunityProfile::from_weights(&[1.0, 1.0, 2.0]).unwrap();
        assert_eq!(c.sample_index(0.0), 0);
        assert_eq!(c.sample_index(0.26), 1);
        assert_eq!(c.sample_index(0.6), 2);
        assert_eq!(c.sample_index(0.999_999), 2);
    }

    #[test]
    fn read_counts_sum_exactly() {
        let c = CommunityProfile::log_normal(7, 1.0, 3);
        for total in [0usize, 1, 97, 1000] {
            let counts = c.read_counts(total);
            assert_eq!(counts.iter().sum::<usize>(), total, "total={total}");
        }
    }
}
