//! 2-bit packed DNA sequences.

use crate::alphabet::{Base, ASCII_CODES, NOT_A_BASE};
use crate::error::SeqError;
use std::fmt;
use std::str::FromStr;

const BASES_PER_WORD: usize = 32;

/// A DNA sequence packed at two bits per base (32 bases per `u64` word).
///
/// ```
/// use fc_seq::DnaString;
/// let s: DnaString = "ACGTT".parse().unwrap();
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.reverse_complement().to_string(), "AACGT");
/// assert_eq!(s.slice(1, 4).to_string(), "CGT");
/// ```
///
/// `DnaString` is the workhorse sequence type of the assembler: genomes,
/// reads and contigs are all stored in this representation. Besides the 4x
/// memory saving over byte strings, the packed form makes
/// [`reverse_complement`](DnaString::reverse_complement) and k-mer extraction
/// cheap, which matters because the paper's preprocessing step doubles the
/// read set with reverse complements (§II-A).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaString {
    words: Vec<u64>,
    len: usize,
}

impl DnaString {
    /// Creates an empty sequence.
    pub fn new() -> DnaString {
        DnaString::default()
    }

    /// Creates an empty sequence with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> DnaString {
        DnaString {
            words: Vec::with_capacity(capacity.div_ceil(BASES_PER_WORD)),
            len: 0,
        }
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the sequence contains no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let (word, shift) = (self.len / BASES_PER_WORD, (self.len % BASES_PER_WORD) * 2);
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= (base.code() as u64) << shift;
        self.len += 1;
    }

    /// Base at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Base {
        assert!(
            i < self.len,
            "index {i} out of bounds for length {}",
            self.len
        );
        let word = self.words[i / BASES_PER_WORD];
        Base::from_code(((word >> ((i % BASES_PER_WORD) * 2)) & 0b11) as u8)
    }

    /// Overwrites the base at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, base: Base) {
        assert!(
            i < self.len,
            "index {i} out of bounds for length {}",
            self.len
        );
        let shift = (i % BASES_PER_WORD) * 2;
        let word = &mut self.words[i / BASES_PER_WORD];
        *word = (*word & !(0b11 << shift)) | ((base.code() as u64) << shift);
    }

    /// Iterates over all bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// A zero-copy word-level view of the packed representation, for
    /// word-at-a-time consumers (bit-parallel aligners, packed compares).
    #[inline]
    pub fn packed(&self) -> crate::packed::PackedView<'_> {
        crate::packed::PackedView::new(&self.words, self.len)
    }

    /// Copies the bases in `range` into a new sequence.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> DnaString {
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds"
        );
        DnaString {
            words: self.packed().range_words(start, end).collect(),
            len: end - start,
        }
    }

    /// The reverse complement of this sequence.
    pub fn reverse_complement(&self) -> DnaString {
        DnaString {
            words: self.packed().reverse_complement_words().collect(),
            len: self.len,
        }
    }

    /// Appends ASCII bases (`ACGTacgt`), a packed word per 32 of them —
    /// the one ASCII-to-base loop (`ascii_word`), under `FromStr`, both
    /// readers and the read store. The first other byte is an
    /// [`SeqError::InvalidBase`] at its offset in `ascii`, and `self` is
    /// then to be discarded.
    pub fn extend_from_ascii(&mut self, ascii: &[u8]) -> Result<(), SeqError> {
        let words = (self.len + ascii.len()).div_ceil(BASES_PER_WORD);
        self.words.reserve(words.saturating_sub(self.words.len()));
        for (c, chunk) in ascii.chunks(BASES_PER_WORD).enumerate() {
            let word = ascii_word(chunk, c * BASES_PER_WORD)?;
            // Bits past `len` are zero, so the word ORs into the partly
            // filled last one and its overflow starts the next.
            let shift = (self.len % BASES_PER_WORD) * 2;
            match self.words.last_mut() {
                Some(last) if shift != 0 => {
                    *last |= word << shift;
                    if shift + 2 * chunk.len() > 64 {
                        self.words.push(word >> (64 - shift));
                    }
                }
                _ => self.words.push(word),
            }
            self.len += chunk.len();
        }
        Ok(())
    }

    /// Empties the sequence, keeping its words' allocation.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends all bases of `other`.
    pub fn extend_from(&mut self, other: &DnaString) {
        for b in other.iter() {
            self.push(b);
        }
    }

    /// Packs the k-mer starting at `pos` into the low `2k` bits of a `u64`
    /// (first base in the lowest bits). Returns `None` if the k-mer would run
    /// off the end or `k` exceeds 32.
    #[inline]
    pub fn kmer_u64(&self, pos: usize, k: usize) -> Option<u64> {
        if k == 0 || k > 32 || pos + k > self.len {
            return None;
        }
        Some(self.packed().window(pos) & u64::MAX >> (64 - 2 * k))
    }

    /// Iterates over all `(position, packed k-mer)` pairs of the sequence.
    pub fn kmers(&self, k: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let end = if k == 0 || k > 32 || k > self.len {
            0
        } else {
            self.len - k + 1
        };
        (0..end).filter_map(move |pos| Some((pos, self.kmer_u64(pos, k)?)))
    }

    /// Decodes to an ASCII byte string (`A`/`C`/`G`/`T`).
    pub fn to_ascii(&self) -> Vec<u8> {
        self.iter().map(Base::to_ascii).collect()
    }

    /// Bytes of heap the packed words hold.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Number of positions at which `self` and `other` differ, comparing the
    /// first `min(len, other.len)` bases plus the length difference.
    pub fn hamming_distance(&self, other: &DnaString) -> usize {
        let shared = self.len.min(other.len);
        self.packed().mismatches(0, &other.packed(), 0, shared) + self.len.abs_diff(other.len)
    }
}

/// Packs up to 32 ASCII bases (`ACGTacgt`) into one word, the first base
/// in the lowest bits. The first other byte is an
/// [`SeqError::InvalidBase`] at its offset plus `offset`.
#[inline]
pub(crate) fn ascii_word(chunk: &[u8], offset: usize) -> Result<u64, SeqError> {
    debug_assert!(chunk.len() <= BASES_PER_WORD);
    let (mut word, mut seen) = (0u64, 0u8);
    for (j, &byte) in chunk.iter().enumerate() {
        let code = ASCII_CODES[usize::from(byte)];
        seen |= code;
        word |= u64::from(code & 0b11) << (2 * j);
    }
    if seen & NOT_A_BASE != 0 {
        let j = chunk.iter().position(|&b| Base::from_ascii(b).is_none());
        let (position, byte) = j.map_or((0, 0), |j| (offset + j, chunk[j]));
        return Err(SeqError::InvalidBase { position, byte });
    }
    Ok(word)
}

/// An owned copy of a view's bases.
impl From<crate::packed::PackedView<'_>> for DnaString {
    fn from(view: crate::packed::PackedView<'_>) -> DnaString {
        DnaString {
            words: view.words().to_vec(),
            len: view.len(),
        }
    }
}

impl FromStr for DnaString {
    type Err = SeqError;

    fn from_str(s: &str) -> Result<DnaString, SeqError> {
        let mut out = DnaString::with_capacity(s.len());
        out.extend_from_ascii(s.as_bytes())?;
        Ok(out)
    }
}

impl fmt::Display for DnaString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for DnaString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 60 {
            write!(f, "DnaString(\"{self}\")")
        } else {
            write!(f, "DnaString(len={}, \"{}…\")", self.len, self.slice(0, 60))
        }
    }
}

impl fc_ckpt::Codec for DnaString {
    fn encode(&self, w: &mut fc_ckpt::Writer) {
        w.put_u64(self.len as u64);
        w.put_u64(self.words.len() as u64);
        for &word in &self.words {
            w.put_u64(word);
        }
    }

    fn decode(r: &mut fc_ckpt::Reader<'_>) -> Result<DnaString, fc_ckpt::CkptError> {
        let decode_err = |detail: String| fc_ckpt::CkptError::Decode { detail };
        let len = usize::try_from(r.u64()?)
            .map_err(|_| decode_err("DnaString length overflows usize".to_string()))?;
        let word_count = r.seq_len(8)?;
        if word_count != len.div_ceil(BASES_PER_WORD) {
            return Err(decode_err(format!(
                "DnaString of {len} bases cannot have {word_count} words"
            )));
        }
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(r.u64()?);
        }
        // Padding bits beyond `len` must be zero: push/set never leave them
        // dirty, and Eq/Hash compare the raw words.
        let tail_bases = len % BASES_PER_WORD;
        if tail_bases != 0 {
            let last = words[word_count - 1];
            if last >> (tail_bases * 2) != 0 {
                return Err(decode_err(
                    "DnaString has non-zero padding bits past its length".to_string(),
                ));
            }
        }
        Ok(DnaString { words, len })
    }
}

impl FromIterator<Base> for DnaString {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> DnaString {
        let mut out = DnaString::new();
        for b in iter {
            out.push(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_across_word_boundary() {
        let mut s = DnaString::new();
        let pattern = [Base::A, Base::C, Base::G, Base::T];
        for i in 0..100 {
            s.push(pattern[i % 4]);
        }
        assert_eq!(s.len(), 100);
        for i in 0..100 {
            assert_eq!(s.get(i), pattern[i % 4], "position {i}");
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        let text = "ACGTTGCAACGT";
        let s: DnaString = text.parse().unwrap();
        assert_eq!(s.to_string(), text);
    }

    #[test]
    fn parse_rejects_ambiguity_codes() {
        let err = "ACGNT".parse::<DnaString>().unwrap_err();
        match err {
            SeqError::InvalidBase { position, byte } => {
                assert_eq!(position, 3);
                assert_eq!(byte, b'N');
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// The word-at-a-time packer against `push`, appended at every offset
    /// within a word, and its error offset against the first bad byte.
    #[test]
    fn extend_from_ascii_matches_push_at_every_alignment() {
        let mut rng = fc_rng::Rng::new(7);
        for head in 0..40 {
            for len in [0usize, 1, 31, 32, 33, 64, 70] {
                let ascii: Vec<u8> = (0..len).map(|_| b"ACGTacgt"[rng.range(0..8)]).collect();
                let start: DnaString = (0..head).map(|i| Base::from_code(i as u8)).collect();
                let mut packed = start.clone();
                packed.extend_from_ascii(&ascii).unwrap();
                let mut pushed = start.clone();
                for &c in &ascii {
                    pushed.push(Base::from_ascii(c).unwrap());
                }
                assert_eq!(packed, pushed, "head {head}, len {len}");
                if len > 0 {
                    let bad = rng.range(0..len);
                    let mut broken = ascii.clone();
                    broken[bad] = b'N';
                    let err = start.clone().extend_from_ascii(&broken).unwrap_err();
                    assert!(matches!(
                        err,
                        SeqError::InvalidBase { position, byte: b'N' } if position == bad
                    ));
                }
            }
        }
    }

    #[test]
    fn reverse_complement_known_value() {
        let s: DnaString = "AACGTT".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "AACGTT");
        let s: DnaString = "ACGT".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "ACGT");
        let s: DnaString = "AAAC".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "GTTT");
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut s: DnaString = "AAAA".parse().unwrap();
        s.set(2, Base::G);
        assert_eq!(s.to_string(), "AAGA");
    }

    #[test]
    fn slice_bounds_and_content() {
        let s: DnaString = "ACGTACGT".parse().unwrap();
        assert_eq!(s.slice(2, 6).to_string(), "GTAC");
        assert_eq!(s.slice(0, 0).len(), 0);
        assert_eq!(s.slice(8, 8).len(), 0);
    }

    #[test]
    fn kmer_packing_matches_manual() {
        let s: DnaString = "ACGT".parse().unwrap();
        // A=0 at bits 0-1, C=1 at bits 2-3, G=2 at bits 4-5, T=3 at bits 6-7.
        assert_eq!(s.kmer_u64(0, 4), Some(0b11_10_01_00));
        assert_eq!(s.kmer_u64(1, 4), None);
        assert_eq!(s.kmer_u64(0, 33), None);
    }

    /// The packed-window read against the per-base loop it replaced, at
    /// every position and every k, on lengths around the 32-base word.
    #[test]
    fn kmer_packing_matches_the_per_base_loop() {
        let mut rng = fc_rng::Rng::new(32);
        for len in [1usize, 31, 32, 33, 63, 64, 65, 100] {
            let s: DnaString = (0..len).map(|_| Base::from_code(rng.range(0..4))).collect();
            for k in 1..=32 {
                for pos in 0..=len {
                    let per_base = (pos + k <= len).then(|| {
                        (0..k).fold(0, |kmer, i| {
                            kmer | (s.get(pos + i).code() as u64) << (2 * i)
                        })
                    });
                    assert_eq!(s.kmer_u64(pos, k), per_base, "len {len}, pos {pos}, k {k}");
                }
            }
            assert_eq!(s.kmer_u64(0, 0), None);
            assert_eq!(s.kmer_u64(0, 33), None);
        }
    }

    #[test]
    fn kmers_iterator_counts() {
        let s: DnaString = "ACGTAC".parse().unwrap();
        assert_eq!(s.kmers(3).count(), 4);
        assert_eq!(s.kmers(6).count(), 1);
        assert_eq!(s.kmers(7).count(), 0);
        assert_eq!(s.kmers(0).count(), 0);
    }

    #[test]
    fn checkpoint_codec_round_trips_and_rejects_dirty_padding() {
        let s: DnaString = "ACGTTGCAACGTACGTACGTACGTACGTACGTACGTA".parse().unwrap();
        let bytes = fc_ckpt::encode_to_vec(&s);
        let back: DnaString = fc_ckpt::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, s);
        // A word with bits set past the sequence length must be rejected.
        let mut w = fc_ckpt::Writer::new();
        w.put_u64(3); // 3 bases
        w.put_u64(1); // 1 word
        w.put_u64(u64::MAX);
        assert!(fc_ckpt::decode_from_slice::<DnaString>(&w.into_bytes()).is_err());
    }

    #[test]
    fn hamming_distance_counts_mismatches_and_length_gap() {
        let a: DnaString = "ACGT".parse().unwrap();
        let b: DnaString = "ACCT".parse().unwrap();
        assert_eq!(a.hamming_distance(&b), 1);
        let c: DnaString = "ACGTAA".parse().unwrap();
        assert_eq!(a.hamming_distance(&c), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }
}
