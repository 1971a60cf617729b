//! Community abundance profiles.

use fc_rng::Rng;

/// Relative abundances over the genera of a taxonomy.
///
/// ```
/// use fc_sim::CommunityProfile;
/// let c = CommunityProfile::uniform(4);
/// assert_eq!(c.abundance(0), 0.25);
/// assert_eq!(c.read_counts(100), vec![25; 4]);
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
    fn read_counts_sum_exactly() {
        let c = CommunityProfile::log_normal(7, 1.0, 3);
        for total in [0usize, 1, 97, 1000] {
            let counts = c.read_counts(total);
            assert_eq!(counts.iter().sum::<usize>(), total, "total={total}");
        }
    }
}
