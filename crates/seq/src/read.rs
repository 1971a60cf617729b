//! Sequencing reads.

use crate::dna::DnaString;
use crate::error::SeqError;
use crate::quality::QualityScores;

/// Identifier of a read within a [`crate::ReadStore`].
///
/// Read ids are dense indices assigned in insertion order; the overlap graph
/// uses them directly as node ids, so they are kept as a newtype to avoid
/// mixing them up with node or partition indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReadId(pub u32);

impl ReadId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One sequencing read: a name, its bases and (for FASTQ input) per-base
/// quality scores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    /// Record name (FASTA/FASTQ header without the leading marker).
    pub name: String,
    /// The bases.
    pub seq: DnaString,
    /// Per-base Phred scores; `None` for FASTA input.
    pub qual: Option<QualityScores>,
}

impl Read {
    /// Creates a read without quality scores.
    pub fn new(name: impl Into<String>, seq: DnaString) -> Read {
        Read {
            name: name.into(),
            seq,
            qual: None,
        }
    }

    /// Creates a read with quality scores.
    ///
    /// # Panics
    /// Panics if the quality length differs from the sequence length; callers
    /// parsing untrusted input should validate first (the FASTQ parser does).
    pub fn with_quality(name: impl Into<String>, seq: DnaString, qual: QualityScores) -> Read {
        assert_eq!(seq.len(), qual.len(), "quality/sequence length mismatch");
        Read {
            name: name.into(),
            seq,
            qual: Some(qual),
        }
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if the read has no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Approximate resident bytes of this read (struct plus heap), rounded
    /// *up*: the memory-budget ledger charges this estimate before the data
    /// exists, so overestimating is safe (spill a little early) while
    /// underestimating would let a capped run overshoot its budget.
    pub fn approx_bytes(&self) -> usize {
        // One Vec header per heap block (name, packed words, qualities).
        const VEC_HEADER: usize = 3 * std::mem::size_of::<usize>();
        let packed_words = self.seq.len().div_ceil(32) * 8;
        std::mem::size_of::<Read>()
            + (self.name.len() + VEC_HEADER)
            + (packed_words + VEC_HEADER)
            + self.qual.as_ref().map_or(0, |q| q.len() + VEC_HEADER)
    }
}

/// One FASTA/FASTQ record, borrowed from its reader's buffers until the
/// next: name, checked ASCII bases and, for FASTQ, Phred scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Header without its marker, trimmed.
    pub name: &'a str,
    /// One ASCII byte (`ACGTacgt`) a base.
    pub bases: &'a [u8],
    /// Per-base Phred scores (no `+33`); `None` for FASTA.
    pub qual: Option<&'a [u8]>,
}

impl Record<'_> {
    /// An owned [`Read`] of the record.
    pub fn to_read(&self) -> Result<Read, SeqError> {
        let mut seq = DnaString::with_capacity(self.bases.len());
        seq.extend_from_ascii(self.bases)?;
        Ok(Read {
            name: self.name.to_string(),
            seq,
            qual: self.qual.map(|q| QualityScores::from_phred(q.to_vec())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn with_quality_rejects_mismatched_lengths() {
        let seq: DnaString = "AACG".parse().unwrap();
        let qual = QualityScores::from_phred(vec![10]);
        let _ = Read::with_quality("r1", seq, qual);
    }

    #[test]
    fn read_id_index() {
        assert_eq!(ReadId(7).index(), 7);
    }
}
