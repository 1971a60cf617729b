//! Read trimming (paper §II-A).
//!
//! Two trimming stages run on every read before alignment:
//!
//! 1. **Fixed trimming** removes a user-specified number of bases from the 5'
//!    and 3' ends (tags/adaptors).
//! 2. **Quality trimming** slides a window of length `window_len` from the 3'
//!    end towards the 5' end in steps of `step`; at each position the mean
//!    Phred score of the window is computed. The first time the mean exceeds
//!    `min_quality`, everything from the right end of that window to the 3'
//!    end of the read is cut off. If no window qualifies, the whole read is
//!    discarded (trimmed to zero length).

use crate::error::SeqError;
use std::ops::Range;

/// Parameters for the two-stage trimming of §II-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrimConfig {
    /// Bases removed unconditionally from the 5' end.
    pub trim_5prime: usize,
    /// Bases removed unconditionally from the 3' end.
    pub trim_3prime: usize,
    /// Sliding-window length `l`.
    pub window_len: usize,
    /// Window step size `k` (towards the 5' end).
    pub step: usize,
    /// Minimum mean Phred score `q` for a window to stop the trimming scan.
    pub min_quality: f64,
    /// Reads shorter than this after trimming are dropped by the store.
    pub min_read_len: usize,
}

impl Default for TrimConfig {
    fn default() -> TrimConfig {
        TrimConfig {
            trim_5prime: 0,
            trim_3prime: 0,
            window_len: 10,
            step: 1,
            min_quality: 20.0,
            min_read_len: 40,
        }
    }
}

impl TrimConfig {
    /// Validates parameter sanity (non-zero window and step).
    pub fn validate(&self) -> Result<(), SeqError> {
        if self.window_len == 0 {
            return Err(SeqError::Config {
                parameter: "window_len",
                message: "must be > 0",
            });
        }
        if self.step == 0 {
            return Err(SeqError::Config {
                parameter: "step",
                message: "must be > 0",
            });
        }
        Ok(())
    }
}

/// The range of a read's `len` bases that survives fixed 5'/3' trimming
/// followed by sliding-window quality trimming over `qual`, its Phred
/// scores (one per base) — the qualities are consumed here, and nothing
/// downstream reads a name.
///
/// Reads without quality scores (FASTA input) only receive the fixed
/// trimming. The caller decides whether the range is long enough to keep
/// (see [`TrimConfig::min_read_len`]).
pub fn keep_range(len: usize, qual: Option<&[u8]>, config: &TrimConfig) -> Range<usize> {
    let start = config.trim_5prime.min(len);
    let mut end = len.saturating_sub(config.trim_3prime).max(start);
    if let Some(q) = qual {
        end = start + quality_keep_len(&q[start..end], config);
    }
    start..end
}

/// Returns how many 5'-side bases survive the sliding-window scan.
///
/// Windows are anchored at the 3' end and move towards the 5' end in `step`
/// increments. The first window whose mean quality exceeds `min_quality`
/// determines the cut: the read keeps bases `0..right_end_of_window`.
fn quality_keep_len(scores: &[u8], config: &TrimConfig) -> usize {
    let n = scores.len();
    if n < config.window_len {
        // Too short for a full window: keep iff the whole read qualifies.
        let sum: u32 = scores.iter().map(|&q| q as u32).sum();
        if n > 0 && sum as f64 / n as f64 > config.min_quality {
            return n;
        }
        return 0;
    }
    let mut window_end = n;
    loop {
        let window_start = window_end - config.window_len;
        let sum: u32 = scores[window_start..window_end]
            .iter()
            .map(|&q| q as u32)
            .sum();
        let mean = sum as f64 / config.window_len as f64;
        if mean > config.min_quality {
            return window_end;
        }
        if window_start < config.step {
            // The next slide would run past the 5' end: no window qualified.
            return 0;
        }
        window_end -= config.step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::DnaString;
    use crate::quality::QualityScores;
    use crate::read::Read;

    /// The bases of `read` that [`keep_range`] keeps.
    pub(super) fn trim_read(read: &Read, config: &TrimConfig) -> DnaString {
        let qual = read.qual.as_ref().map(QualityScores::as_slice);
        let kept = keep_range(read.len(), qual, config);
        read.seq.slice(kept.start, kept.end)
    }

    fn read_with_quals(seq: &str, quals: Vec<u8>) -> Read {
        Read::with_quality("r", seq.parse().unwrap(), QualityScores::from_phred(quals))
    }

    #[test]
    fn fixed_trim_both_ends() {
        let read = Read::new("r", "AACCGGTT".parse().unwrap());
        let config = TrimConfig {
            trim_5prime: 2,
            trim_3prime: 3,
            ..TrimConfig::default()
        };
        let out = trim_read(&read, &config);
        assert_eq!(out.to_string(), "CCG");
    }

    #[test]
    fn fixed_trim_larger_than_read_empties_it() {
        let read = Read::new("r", "ACGT".parse().unwrap());
        let config = TrimConfig {
            trim_5prime: 3,
            trim_3prime: 3,
            ..TrimConfig::default()
        };
        assert!(trim_read(&read, &config).is_empty());
    }

    #[test]
    fn quality_trim_cuts_low_quality_tail() {
        // 6 good bases (q=30) then 4 bad ones (q=2); window 4, step 1, q>20.
        let read = read_with_quals("ACGTACGTAC", vec![30, 30, 30, 30, 30, 30, 2, 2, 2, 2]);
        let config = TrimConfig {
            window_len: 4,
            step: 1,
            min_quality: 20.0,
            ..TrimConfig::default()
        };
        let out = trim_read(&read, &config);
        // The first (rightmost) window whose mean exceeds 20 is scores[3..7]
        // = (30+30+30+2)/4 = 23 -> keep 0..7.
        assert_eq!(out.to_string(), "ACGTACG");
    }

    #[test]
    fn quality_trim_scans_only_what_the_fixed_trim_kept() {
        // The fixed trim drops one base at each end; the bad 3' base of the
        // remainder is then quality-trimmed, the good trimmed-off ones not.
        let read = read_with_quals("GACGTAC", vec![2, 30, 30, 30, 30, 2, 40]);
        let config = TrimConfig {
            trim_5prime: 1,
            trim_3prime: 1,
            window_len: 1,
            step: 1,
            min_quality: 20.0,
            ..TrimConfig::default()
        };
        assert_eq!(trim_read(&read, &config).to_string(), "ACGT");
    }

    #[test]
    fn quality_trim_keeps_whole_good_read() {
        let read = read_with_quals("ACGTACGT", vec![35; 8]);
        let config = TrimConfig {
            window_len: 4,
            step: 2,
            min_quality: 20.0,
            ..TrimConfig::default()
        };
        assert_eq!(trim_read(&read, &config).len(), 8);
    }

    #[test]
    fn quality_trim_discards_hopeless_read() {
        let read = read_with_quals("ACGTACGT", vec![2; 8]);
        let config = TrimConfig {
            window_len: 4,
            step: 1,
            min_quality: 20.0,
            ..TrimConfig::default()
        };
        assert!(trim_read(&read, &config).is_empty());
    }

    #[test]
    fn short_read_handled_without_full_window() {
        let good = read_with_quals("ACG", vec![30, 30, 30]);
        let bad = read_with_quals("ACG", vec![2, 2, 2]);
        let config = TrimConfig {
            window_len: 10,
            step: 1,
            min_quality: 20.0,
            ..TrimConfig::default()
        };
        assert_eq!(trim_read(&good, &config).len(), 3);
        assert!(trim_read(&bad, &config).is_empty());
    }

    #[test]
    fn fasta_read_only_gets_fixed_trim() {
        let read = Read::new("r", "AACCGGTT".parse().unwrap());
        let config = TrimConfig {
            trim_5prime: 1,
            ..TrimConfig::default()
        };
        assert_eq!(trim_read(&read, &config).to_string(), "ACCGGTT");
    }

    #[test]
    fn validate_rejects_zero_window_or_step() {
        assert!(TrimConfig {
            window_len: 0,
            ..TrimConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrimConfig {
            step: 0,
            ..TrimConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrimConfig::default().validate().is_ok());
    }

    #[test]
    fn step_larger_than_one_respected() {
        // 12 scores: last 6 bad, first 6 good. window 4, step 3.
        let read = read_with_quals(
            "ACGTACGTACGT",
            vec![30, 30, 30, 30, 30, 30, 2, 2, 2, 2, 2, 2],
        );
        let config = TrimConfig {
            window_len: 4,
            step: 3,
            min_quality: 20.0,
            ..TrimConfig::default()
        };
        let out = trim_read(&read, &config);
        // Windows end at 12 (mean 2), 9 (mean (30+2+2+2)/4=9), 6 (mean 30) -> keep 6.
        assert_eq!(out.len(), 6);
    }
}

#[cfg(test)]
mod props {
    use super::tests::trim_read;
    use super::*;
    use crate::quality::QualityScores;
    use crate::read::Read;
    use fc_rng::{cases, Rng};

    fn arb_read(rng: &mut Rng) -> Read {
        let pairs = rng.vec(0..150, |r| (r.range(0u8..4), r.range(0u8..42)));
        let seq: crate::DnaString = pairs
            .iter()
            .map(|&(b, _)| crate::Base::from_code(b))
            .collect();
        let quals = QualityScores::from_phred(pairs.iter().map(|&(_, q)| q).collect());
        Read::with_quality("p", seq, quals)
    }

    fn arb_config(rng: &mut Rng) -> TrimConfig {
        TrimConfig {
            trim_5prime: rng.range(0..20),
            trim_3prime: rng.range(0..20),
            window_len: rng.range(1..15),
            step: rng.range(1..6),
            min_quality: 40.0 * rng.f64(),
            min_read_len: 0,
        }
    }

    /// Trimming never grows a read, and what survives is the contiguous
    /// slice starting where the fixed 5' trim ends.
    #[test]
    fn trim_shrinks_to_a_contiguous_slice() {
        cases(256, |rng| {
            let (read, config) = (arb_read(rng), arb_config(rng));
            let out = trim_read(&read, &config);
            assert!(out.len() <= read.len());
            let start = config.trim_5prime.min(read.len());
            for i in 0..out.len() {
                assert_eq!(out.get(i), read.seq.get(start + i));
            }
        });
    }

    /// Trimming is idempotent for pure quality trimming (no fixed
    /// trim): re-trimming the output, with its scores, changes nothing,
    /// because the surviving window already passed the threshold.
    #[test]
    fn quality_trim_idempotent() {
        cases(256, |rng| {
            let read = arb_read(rng);
            let config = TrimConfig {
                trim_5prime: 0,
                trim_3prime: 0,
                ..arb_config(rng)
            };
            let once = trim_read(&read, &config);
            let scores = read.qual.as_ref().unwrap().as_slice()[..once.len()].to_vec();
            let again = Read::with_quality("p", once.clone(), QualityScores::from_phred(scores));
            assert_eq!(trim_read(&again, &config), once);
        });
    }
}
