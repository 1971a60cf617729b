//! Fixed-width little-endian binary serialisation and the [`Codec`] trait.
//!
//! The encoding is deliberately boring: every integer is unsigned and
//! little-endian fixed width, sequences are a `u64` length followed by the
//! elements, and a tuple is its fields in order; no payload needs more.
//! Two encodes of equal values are byte-identical, which is what lets the
//! chaos harness byte-compare checkpoints from interrupted and
//! uninterrupted runs.

use crate::error::CkptError;

/// An append-only encode buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` length, then each element: the encoding of a
    /// `Vec<T>` holding `items`, written without one.
    pub fn put_seq<T: Codec>(&mut self, items: &[T]) {
        self.put_u64(items.len() as u64);
        for item in items {
            item.encode(self);
        }
    }
}

/// A bounds-checked decode cursor over an encoded byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn truncated(what: &'static str) -> CkptError {
    CkptError::Decode {
        detail: format!("truncated payload: expected {what}"),
    }
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(truncated(what));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a sequence length, rejecting lengths the remaining input
    /// cannot possibly hold (`min_element_size` bytes per element) so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn seq_len(&mut self, min_element_size: usize) -> Result<usize, CkptError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| truncated("sequence length in range"))?;
        if len.saturating_mul(min_element_size.max(1)) > self.remaining() {
            return Err(CkptError::Decode {
                detail: format!(
                    "sequence length {len} exceeds remaining payload ({} bytes)",
                    self.remaining()
                ),
            });
        }
        Ok(len)
    }

    /// Asserts the whole input was consumed (trailing garbage is corruption).
    pub fn finish(&self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Decode {
                detail: format!("{} trailing bytes after payload", self.remaining()),
            })
        }
    }
}

/// A type that round-trips through the checkpoint wire format.
///
/// Implementations live next to the type definitions (they need access to
/// private fields); the contract is `decode(encode(x)) == x` and that
/// `decode` never panics on arbitrary input — it returns
/// [`CkptError::Decode`] instead.
pub trait Codec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decodes one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError>;
}

/// Encodes a value to a standalone byte vector.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from a standalone byte vector, requiring full
/// consumption.
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> Result<T, CkptError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

impl Codec for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.u8()
    }
}

impl Codec for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.u32()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.u64()
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        usize::try_from(r.u64()?).map_err(|_| CkptError::Decode {
            detail: "usize out of range for this platform".to_string(),
        })
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let len = r.seq_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).expect("round trip decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip((7u8, vec![(1u32, 2usize)]));
        round_trip((1u32, u64::MAX, vec![vec![0u8, 255]]));
    }

    /// Little-endian fixed width, a sequence its `u64` length first, a
    /// tuple its fields in order.
    #[test]
    fn the_layout_is_little_endian_fixed_width() {
        let mut w = Writer::new();
        w.put_seq(&[0x0102_0304u32]);
        w.put_u8(9);
        assert_eq!(w.len(), 8 + 4 + 1);
        assert_eq!(
            w.into_bytes(),
            encode_to_vec(&(vec![0x0102_0304u32], 9u8)),
            "put_seq writes what a Vec encodes"
        );
        assert_eq!(
            encode_to_vec(&(0x0102_0304u32, 5usize)),
            [4, 3, 2, 1, 5, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn truncated_input_is_a_decode_error_not_a_panic() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r: Result<Vec<u64>, _> = decode_from_slice(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        assert!(decode_from_slice::<u32>(&bytes).is_err());
    }

    #[test]
    fn absurd_sequence_length_is_rejected_without_allocating() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // claims 2^64-1 elements
        let bytes = w.into_bytes();
        assert!(decode_from_slice::<Vec<u64>>(&bytes).is_err());
    }
}
