//! Shotgun read simulation with an Illumina-like error/quality model.

use crate::error::SimError;
use fc_rng::Rng;
use fc_seq::{DnaString, QualityScores, Read};

/// Ground truth for one simulated read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOrigin {
    /// Index of the source genus/genome.
    pub genus: u32,
    /// 0-based start position on the forward strand of the source genome.
    pub position: u32,
    /// True if the read was sampled from the reverse strand.
    pub reverse: bool,
}

/// Read simulator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSimConfig {
    /// Read length in bases (the paper's data sets use 100 bp).
    pub read_len: usize,
    /// Substitution error probability at the 5' end.
    pub error_rate_5p: f64,
    /// Substitution error probability at the 3' end; the rate ramps linearly
    /// from `error_rate_5p`, matching Illumina's 3'-degradation pattern and
    /// giving the quality trimmer something real to do.
    pub error_rate_3p: f64,
    /// Probability that a read gets a corrupted low-quality 3' tail
    /// (`tail_len` bases at very high error), exercising §II-A trimming.
    pub bad_tail_probability: f64,
    /// Length of a corrupted tail.
    pub bad_tail_len: usize,
    /// Probability of sampling the reverse strand.
    pub reverse_strand_probability: f64,
}

impl Default for ReadSimConfig {
    fn default() -> ReadSimConfig {
        ReadSimConfig {
            read_len: 100,
            error_rate_5p: 0.002,
            error_rate_3p: 0.01,
            bad_tail_probability: 0.05,
            bad_tail_len: 15,
            reverse_strand_probability: 0.5,
        }
    }
}

impl ReadSimConfig {
    /// Validates probability ranges and lengths.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.read_len == 0 {
            return Err(SimError::Config {
                parameter: "read_len",
                message: "must be > 0".to_string(),
            });
        }
        for (name, v) in [
            ("error_rate_5p", self.error_rate_5p),
            ("error_rate_3p", self.error_rate_3p),
            ("bad_tail_probability", self.bad_tail_probability),
            (
                "reverse_strand_probability",
                self.reverse_strand_probability,
            ),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(SimError::Config {
                    parameter: name,
                    message: format!("must be in [0,1], got {v}"),
                });
            }
        }
        Ok(())
    }

    /// Substitution probability at read position `i`.
    fn error_rate_at(&self, i: usize) -> f64 {
        if self.read_len <= 1 {
            return self.error_rate_5p;
        }
        let t = i as f64 / (self.read_len - 1) as f64;
        self.error_rate_5p + t * (self.error_rate_3p - self.error_rate_5p)
    }
}

/// Simulates `count` reads from `genome` (genus index `genus`), appending to
/// `reads` and `origins`. Deterministic in `seed`.
///
/// Positions are uniform over valid start sites; strand is chosen per
/// `reverse_strand_probability`. Each emitted base may be substituted with a
/// position-dependent probability, and quality scores reflect the actual
/// error model (Phred of the local error rate, with noise).
#[allow(clippy::too_many_arguments)] // a flat sampler API beats a one-use builder here
pub fn simulate_reads(
    genome: &DnaString,
    genus: u32,
    count: usize,
    config: &ReadSimConfig,
    seed: u64,
    name_prefix: &str,
    reads: &mut Vec<Read>,
    origins: &mut Vec<ReadOrigin>,
) -> Result<(), SimError> {
    simulate_reads_to(genome, genus, count, config, seed, name_prefix, &mut |r, o| {
        reads.push(r);
        origins.push(o);
        Ok(())
    })
}

/// Sink-based core of [`simulate_reads`]: every simulated read is handed to
/// `sink` and then dropped, so a caller that writes reads straight to disk
/// holds at most one read in memory. The RNG stream is identical to
/// [`simulate_reads`] — collecting the sink's arguments reproduces its
/// output byte for byte.
#[allow(clippy::too_many_arguments)]
pub fn simulate_reads_to(
    genome: &DnaString,
    genus: u32,
    count: usize,
    config: &ReadSimConfig,
    seed: u64,
    name_prefix: &str,
    sink: &mut dyn FnMut(Read, ReadOrigin) -> Result<(), SimError>,
) -> Result<(), SimError> {
    config.validate()?;
    if genome.len() < config.read_len {
        return Err(SimError::GenomeTooShort {
            genome_len: genome.len(),
            read_len: config.read_len,
        });
    }
    let mut rng = Rng::new(seed);
    let max_start = genome.len() - config.read_len;
    for r in 0..count {
        let position = rng.range(0..=max_start);
        let reverse = rng.bool(config.reverse_strand_probability);
        let template = {
            let fwd = genome.slice(position, position + config.read_len);
            if reverse {
                fwd.reverse_complement()
            } else {
                fwd
            }
        };
        let bad_tail = rng.bool(config.bad_tail_probability);
        let mut seq = DnaString::with_capacity(config.read_len);
        let mut quals = Vec::with_capacity(config.read_len);
        for i in 0..config.read_len {
            let in_tail =
                bad_tail && i + config.bad_tail_len.min(config.read_len) >= config.read_len;
            let err = if in_tail {
                0.5
            } else {
                config.error_rate_at(i)
            };
            let base = template.get(i);
            if err > 0.0 && rng.bool(err) {
                let others = base.others();
                seq.push(others[rng.range(0..3)]);
            } else {
                seq.push(base);
            }
            // Phred of the modelled error rate, with +-2 jitter.
            let q = fc_seq::quality::error_probability_to_phred(err.max(1e-4)) as i32
                + rng.range(-2..=2);
            quals.push(q.clamp(2, 41) as u8);
        }
        sink(
            Read::with_quality(
                format!("{name_prefix}_{r}"),
                seq,
                QualityScores::from_phred(quals),
            ),
            ReadOrigin {
                genus,
                position: position as u32,
                reverse,
            },
        )?;
    }
    Ok(())
}

/// Counts mismatches between a simulated read and its genome template —
/// a test helper validating the error model.
pub fn mismatches_vs_template(genome: &DnaString, read: &Read, origin: &ReadOrigin) -> usize {
    let len = read.len();
    let fwd = genome.slice(origin.position as usize, origin.position as usize + len);
    let template = if origin.reverse {
        fwd.reverse_complement()
    } else {
        fwd
    };
    (0..len)
        .filter(|&i| template.get(i) != read.seq.get(i))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{random_genome, GenomeConfig};

    fn genome() -> DnaString {
        random_genome(
            &GenomeConfig {
                length: 5_000,
                ..Default::default()
            },
            17,
        )
    }

    fn simulate(config: &ReadSimConfig, seed: u64) -> (Vec<Read>, Vec<ReadOrigin>) {
        let g = genome();
        let mut reads = Vec::new();
        let mut origins = Vec::new();
        simulate_reads(&g, 3, 200, config, seed, "t", &mut reads, &mut origins).unwrap();
        (reads, origins)
    }

    #[test]
    fn produces_requested_reads_with_metadata() {
        let (reads, origins) = simulate(&ReadSimConfig::default(), 1);
        assert_eq!(reads.len(), 200);
        assert_eq!(origins.len(), 200);
        for (read, origin) in reads.iter().zip(&origins) {
            assert_eq!(read.len(), 100);
            assert_eq!(origin.genus, 3);
            assert!(origin.position as usize + 100 <= 5_000);
            assert_eq!(read.qual.as_ref().unwrap().len(), 100);
        }
    }

    #[test]
    fn error_free_config_reproduces_genome_slices() {
        let config = ReadSimConfig {
            error_rate_5p: 0.0,
            error_rate_3p: 0.0,
            bad_tail_probability: 0.0,
            ..Default::default()
        };
        let g = genome();
        let mut reads = Vec::new();
        let mut origins = Vec::new();
        simulate_reads(&g, 0, 50, &config, 5, "t", &mut reads, &mut origins).unwrap();
        for (read, origin) in reads.iter().zip(&origins) {
            assert_eq!(mismatches_vs_template(&g, read, origin), 0);
        }
    }

    #[test]
    fn error_rates_scale_mismatch_counts() {
        let low = ReadSimConfig {
            error_rate_5p: 0.001,
            error_rate_3p: 0.001,
            bad_tail_probability: 0.0,
            ..Default::default()
        };
        let high = ReadSimConfig {
            error_rate_5p: 0.05,
            error_rate_3p: 0.05,
            bad_tail_probability: 0.0,
            ..Default::default()
        };
        let g = genome();
        let count_mismatches = |config: &ReadSimConfig| {
            let mut reads = Vec::new();
            let mut origins = Vec::new();
            simulate_reads(&g, 0, 300, config, 9, "t", &mut reads, &mut origins).unwrap();
            reads
                .iter()
                .zip(&origins)
                .map(|(r, o)| mismatches_vs_template(&g, r, o))
                .sum::<usize>()
        };
        assert!(count_mismatches(&high) > 5 * count_mismatches(&low));
    }

    #[test]
    fn bad_tails_have_low_quality() {
        let config = ReadSimConfig {
            bad_tail_probability: 1.0,
            bad_tail_len: 10,
            ..Default::default()
        };
        let (reads, _) = simulate(&config, 2);
        for read in &reads {
            let q = read.qual.as_ref().unwrap().as_slice();
            let mean = |s: &[u8]| s.iter().map(|&x| f64::from(x)).sum::<f64>() / s.len() as f64;
            let (tail_mean, head_mean) = (mean(&q[90..100]), mean(&q[0..10]));
            assert!(
                tail_mean < head_mean,
                "tail {tail_mean} !< head {head_mean}"
            );
            assert!(
                tail_mean < 10.0,
                "tail quality should be terrible: {tail_mean}"
            );
        }
    }

    #[test]
    fn reverse_strand_reads_match_rc_template() {
        let config = ReadSimConfig {
            error_rate_5p: 0.0,
            error_rate_3p: 0.0,
            bad_tail_probability: 0.0,
            reverse_strand_probability: 1.0,
            ..Default::default()
        };
        let g = genome();
        let mut reads = Vec::new();
        let mut origins = Vec::new();
        simulate_reads(&g, 0, 20, &config, 3, "t", &mut reads, &mut origins).unwrap();
        for (read, origin) in reads.iter().zip(&origins) {
            assert!(origin.reverse);
            assert_eq!(mismatches_vs_template(&g, read, origin), 0);
            // And it is genuinely the RC, not the forward slice.
            let fwd = g.slice(origin.position as usize, origin.position as usize + 100);
            assert_ne!(read.seq, fwd);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (a, _) = simulate(&ReadSimConfig::default(), 42);
        let (b, _) = simulate(&ReadSimConfig::default(), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_short_genome_and_bad_config() {
        let g: DnaString = "ACGT".parse().unwrap();
        let mut reads = Vec::new();
        let mut origins = Vec::new();
        assert!(simulate_reads(
            &g,
            0,
            1,
            &ReadSimConfig::default(),
            1,
            "t",
            &mut reads,
            &mut origins
        )
        .is_err());
        assert!(ReadSimConfig {
            read_len: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ReadSimConfig {
            error_rate_3p: 2.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
