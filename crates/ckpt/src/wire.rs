//! Fixed-width little-endian binary serialisation and the [`Codec`] trait.
//!
//! The encoding is deliberately boring: every integer is little-endian
//! fixed width, floats are their IEEE-754 bit patterns, sequences are a
//! `u64` length followed by the elements. Two encodes of equal values are
//! byte-identical, which is what lets the chaos harness byte-compare
//! checkpoints from interrupted and uninterrupted runs.

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

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
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

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CkptError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| truncated("byte length in range"))?;
        self.take(len, "length-prefixed bytes")
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

impl Codec for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_i64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.i64()
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        r.f64()
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Decode {
                detail: format!("invalid bool byte {other:#04x}"),
            }),
        }
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let bytes = r.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CkptError::Decode {
            detail: "string is not valid UTF-8".to_string(),
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

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CkptError::Decode {
                detail: format!("invalid option tag {other:#04x}"),
            }),
        }
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
        round_trip(i64::MIN);
        round_trip(-0.5f64);
        round_trip(f64::INFINITY);
        round_trip(true);
        round_trip(false);
        round_trip("héllo\nworld".to_string());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((1u32, -2i64, "x".to_string()));
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let bytes = encode_to_vec(&f64::NAN);
        let back: f64 = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
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

    #[test]
    fn invalid_tags_are_decode_errors() {
        assert!(decode_from_slice::<bool>(&[2]).is_err());
        assert!(decode_from_slice::<Option<u8>>(&[9, 0]).is_err());
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        assert!(decode_from_slice::<String>(&w.into_bytes()).is_err());
    }
}
