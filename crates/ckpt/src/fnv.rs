//! FNV-1a (64-bit) — the one fingerprint fold of the workspace: the
//! checkpoint's config fingerprint and input digest, and the job server's
//! input and tenant digests.

/// The FNV-1a offset basis: the hash of no bytes, where a fold starts.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into `hash`, one FNV-1a step a byte. Start from
/// [`FNV1A_OFFSET`]; a digest fed in pieces equals one fed the pieces
/// back to back.
pub fn fnv1a(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV1A_OFFSET, []), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, *b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, *b"foobar"), 0x8594_4171_f739_67e8);
        let split = fnv1a(fnv1a(FNV1A_OFFSET, *b"foo"), *b"bar");
        assert_eq!(split, fnv1a(FNV1A_OFFSET, *b"foobar"));
    }
}
