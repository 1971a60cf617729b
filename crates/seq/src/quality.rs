//! Phred quality scores.

use crate::error::SeqError;

/// FASTQ Phred+33 encoding offset (Sanger / Illumina 1.8+).
pub const PHRED_OFFSET: u8 = 33;

/// Highest Phred score representable in the Sanger encoding.
pub const MAX_PHRED: u8 = 93;

/// Per-base Phred quality scores for one read.
///
/// Scores are stored as raw Phred values (0–93), not ASCII. The paper's
/// preprocessing step (§II-A) trims reads from the 3' end using a sliding
/// window over these values; see [`crate::trim`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QualityScores {
    scores: Vec<u8>,
}

impl QualityScores {
    /// Wraps raw Phred scores, clamping each to [`MAX_PHRED`].
    pub fn from_phred(scores: Vec<u8>) -> QualityScores {
        QualityScores {
            scores: scores.into_iter().map(|q| q.min(MAX_PHRED)).collect(),
        }
    }

    /// Decodes a FASTQ quality line (Phred+33 ASCII).
    pub fn from_fastq_line(line: &[u8]) -> Result<QualityScores, SeqError> {
        let mut scores = Vec::with_capacity(line.len());
        for (i, &c) in line.iter().enumerate() {
            if !(PHRED_OFFSET..=PHRED_OFFSET + MAX_PHRED).contains(&c) {
                return Err(SeqError::InvalidBase {
                    position: i,
                    byte: c,
                });
            }
            scores.push(c - PHRED_OFFSET);
        }
        Ok(QualityScores { scores })
    }

    /// Encodes as a FASTQ quality line (Phred+33 ASCII).
    pub fn to_fastq_line(&self) -> Vec<u8> {
        self.scores.iter().map(|&q| q + PHRED_OFFSET).collect()
    }

    /// Number of scores.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True if there are no scores.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Raw Phred values.
    pub fn as_slice(&self) -> &[u8] {
        &self.scores
    }

    /// Score at position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> u8 {
        self.scores[i]
    }

    /// Mean score over `range`, or `None` for an empty range.
    pub fn window_mean(&self, start: usize, end: usize) -> Option<f64> {
        if start >= end || end > self.scores.len() {
            return None;
        }
        let sum: u32 = self.scores[start..end].iter().map(|&q| q as u32).sum();
        Some(sum as f64 / (end - start) as f64)
    }
}

/// Converts a Phred score to its error probability `10^(-q/10)`.
pub fn phred_to_error_probability(q: u8) -> f64 {
    10f64.powf(-(q as f64) / 10.0)
}

/// Converts an error probability to the nearest Phred score, clamped to 0–93.
pub fn error_probability_to_phred(p: f64) -> u8 {
    if p <= 0.0 {
        return MAX_PHRED;
    }
    let q = -10.0 * p.log10();
    q.round().clamp(0.0, MAX_PHRED as f64) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastq_line_round_trip() {
        let line = b"IIIIHHH###";
        let q = QualityScores::from_fastq_line(line).unwrap();
        assert_eq!(q.to_fastq_line(), line.to_vec());
        assert_eq!(q.get(0), b'I' - 33);
    }

    #[test]
    fn rejects_out_of_range_ascii() {
        assert!(QualityScores::from_fastq_line(b"II\x1fII").is_err());
    }

    #[test]
    fn window_mean_basic_and_empty() {
        let q = QualityScores::from_phred(vec![10, 20, 30, 40]);
        assert_eq!(q.window_mean(0, 4), Some(25.0));
        assert_eq!(q.window_mean(1, 3), Some(25.0));
        assert_eq!(q.window_mean(2, 2), None);
        assert_eq!(q.window_mean(0, 5), None);
    }

    #[test]
    fn phred_probability_round_trip() {
        for q in [0u8, 10, 20, 30, 40] {
            let p = phred_to_error_probability(q);
            assert_eq!(error_probability_to_phred(p), q);
        }
        assert_eq!(error_probability_to_phred(0.0), MAX_PHRED);
    }

    #[test]
    fn from_phred_clamps() {
        let q = QualityScores::from_phred(vec![200]);
        assert_eq!(q.get(0), MAX_PHRED);
    }
}
