//! Phred quality scores.

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
    fn fastq_line_is_phred_plus_33() {
        let q = QualityScores::from_phred(vec![40, 40, 39, 2]);
        assert_eq!(q.to_fastq_line(), b"IIH#".to_vec());
    }

    #[test]
    fn phred_probability_round_trip() {
        for q in [0u8, 10, 20, 30, 40] {
            let p = 10f64.powf(-f64::from(q) / 10.0);
            assert_eq!(error_probability_to_phred(p), q);
        }
        assert_eq!(error_probability_to_phred(0.0), MAX_PHRED);
    }

    #[test]
    fn from_phred_clamps() {
        let q = QualityScores::from_phred(vec![200]);
        assert_eq!(q.as_slice(), &[MAX_PHRED]);
    }
}
