//! The `FCKP` checkpoint container format.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FCKP"
//! 4       4     format version (u32 LE)
//! 8       4     phase id (u32 LE)
//! 12      8     config fingerprint (u64 LE)
//! 20      8     input digest (u64 LE)
//! 28      8     record count (u64 LE)
//! ...           per record: length (u64 LE), payload bytes, CRC32 (u32 LE)
//! last 4        CRC32 of everything before it (u32 LE)
//! ```
//!
//! Validation is defence in depth: the whole-file CRC catches any damage,
//! the per-record CRCs additionally localise it (and catch damage in a
//! record even if an attacker-grade coincidence fixed the outer CRC).
//! Every failure is a typed [`CkptError::Corrupt`] naming the check.

use crate::crc::crc32;
use crate::error::CkptError;
use std::path::Path;

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"FCKP";

/// Current format version; bumped on any layout change — of the container
/// or of a payload `Codec` — so a build refuses files of another layout
/// instead of misreading them. Version 2: fc-align's `PairStats` records
/// lost their ninth counter. Version 3: fc-graph's `DiEdge` records lost
/// their `identity` field. Version 4: fc-graph's `LevelGraph` adjacency
/// entries went from 12 to 8 bytes and its node weights from 8 to 4.
/// Version 5: fc-seq's `ReadStore` holds bases only, no names or qualities.
/// Version 6: fc-align's `Overlap` records carry `matches: u32` in place of
/// `identity: f64`.
pub const FORMAT_VERSION: u32 = 6;

/// A decoded checkpoint container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFile {
    /// Which pipeline phase this checkpoint captured.
    pub phase_id: u32,
    /// Fingerprint of the configuration that produced it.
    pub config_fingerprint: u64,
    /// Digest of the input reads it was computed from.
    pub input_digest: u64,
    /// Opaque payload records (the phase output, plus any sidecars such as
    /// the cumulative metrics snapshot).
    pub records: Vec<Vec<u8>>,
}

/// Header bytes before the first record.
const HEADER_LEN: usize = 4 + 4 + 4 + 8 + 8 + 8;

impl CheckpointFile {
    /// Serialises the container, computing all checksums, into one buffer
    /// sized up front: one pass over each record for its CRC, one over the
    /// whole file for the trailer.
    pub fn encode(&self) -> Vec<u8> {
        let framed: usize = self.records.iter().map(|r| 8 + r.len() + 4).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + framed + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.phase_id.to_le_bytes());
        out.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        out.extend_from_slice(&self.input_digest.to_le_bytes());
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for record in &self.records {
            out.extend_from_slice(&(record.len() as u64).to_le_bytes());
            out.extend_from_slice(record);
            out.extend_from_slice(&crc32(record).to_le_bytes());
        }
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out
    }

    /// Parses and fully validates a container read from `path` (the path
    /// is only used in error messages).
    pub fn decode(bytes: &[u8], path: &Path) -> Result<CheckpointFile, CkptError> {
        let corrupt = |detail: String| CkptError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        if bytes.len() < HEADER_LEN + 4 {
            return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
        }
        // Whole-file CRC first: it covers everything, including the header
        // fields we are about to interpret.
        let body_len = bytes.len() - 4;
        let mut trailer = [0u8; 4];
        trailer.copy_from_slice(&bytes[body_len..]);
        let stored_crc = u32::from_le_bytes(trailer);
        let actual_crc = crc32(&bytes[..body_len]);
        if stored_crc != actual_crc {
            return Err(corrupt(format!(
                "file CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )));
        }
        if bytes[..4] != MAGIC {
            return Err(corrupt("bad magic (not an FCKP file)".to_string()));
        }
        let u32_at = |off: usize| {
            u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
        };
        let u64_at = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(b)
        };
        let version = u32_at(4);
        if version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let phase_id = u32_at(8);
        let config_fingerprint = u64_at(12);
        let input_digest = u64_at(20);
        let record_count = u64_at(28);
        let record_count = usize::try_from(record_count)
            .ok()
            .filter(|&n| n <= body_len)
            .ok_or_else(|| corrupt(format!("implausible record count {record_count}")))?;

        let mut records = Vec::with_capacity(record_count);
        let mut pos = HEADER_LEN;
        for i in 0..record_count {
            if body_len - pos < 8 {
                return Err(corrupt(format!("record {i}: truncated length field")));
            }
            let len = u64_at(pos);
            pos += 8;
            let len = usize::try_from(len)
                .ok()
                .filter(|&n| n <= body_len - pos)
                .ok_or_else(|| corrupt(format!("record {i}: implausible length {len}")))?;
            let payload = &bytes[pos..pos + len];
            pos += len;
            if body_len - pos < 4 {
                return Err(corrupt(format!("record {i}: truncated CRC field")));
            }
            let stored = u32_at(pos);
            pos += 4;
            let actual = crc32(payload);
            if stored != actual {
                return Err(corrupt(format!(
                    "record {i}: CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
                )));
            }
            records.push(payload.to_vec());
        }
        if pos != body_len {
            return Err(corrupt(format!(
                "{} trailing bytes after last record",
                body_len - pos
            )));
        }
        Ok(CheckpointFile {
            phase_id,
            config_fingerprint,
            input_digest,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> CheckpointFile {
        CheckpointFile {
            phase_id: 3,
            config_fingerprint: 0xDEAD_BEEF_0123_4567,
            input_digest: 0x0FEE_0BAA_7654_3210,
            records: vec![b"first record".to_vec(), Vec::new(), vec![0u8; 300]],
        }
    }

    fn p() -> PathBuf {
        PathBuf::from("test.ckpt")
    }

    #[test]
    fn encode_decode_round_trips() {
        let file = sample();
        let bytes = file.encode();
        let back = CheckpointFile::decode(&bytes, &p()).expect("valid file decodes");
        assert_eq!(back, file);
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                CheckpointFile::decode(&bad, &p()).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                CheckpointFile::decode(&bytes[..cut], &p()).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut file = sample();
        file.records.clear();
        let mut bytes = file.encode();
        // Patch the version and re-seal the file CRC so only the version
        // check can fire.
        bytes[4] = FORMAT_VERSION as u8 + 1;
        let body = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&crc);
        let err = CheckpointFile::decode(&bytes, &p()).expect_err("version skew rejected");
        assert!(err.to_string().contains("version"));
    }

    /// A version-6 container sealed with the bytewise reference CRC: the
    /// sliced CRC must verify it and seal a re-encode with the same trailer.
    const GOLDEN_HEX: &str = concat!(
        "46434b500600000007000000efcdab89674523011032547698badcfe03000000",
        "000000000d00000000000000676f6c64656e207265636f7264c4b82e92000000",
        "0000000000000000002800000000000000000102030405060708090a0b0c0d0e",
        "0f101112131415161718191a1b1c1d1e1f20212223242526273c2ea60d6e3e20",
        "fa",
    );

    #[test]
    fn golden_container_decodes_and_re_encodes_byte_for_byte() {
        let golden: Vec<u8> = (0..GOLDEN_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).unwrap())
            .collect();
        let file = CheckpointFile::decode(&golden, &p()).expect("golden container verifies");
        assert_eq!(
            file,
            CheckpointFile {
                phase_id: 7,
                config_fingerprint: 0x0123_4567_89AB_CDEF,
                input_digest: 0xFEDC_BA98_7654_3210,
                records: vec![b"golden record".to_vec(), Vec::new(), (0u8..40).collect()],
            }
        );
        assert_eq!(file.encode(), golden);
    }

    #[test]
    fn empty_input_is_corrupt_not_a_panic() {
        assert!(CheckpointFile::decode(&[], &p()).is_err());
        assert!(CheckpointFile::decode(b"FCKP", &p()).is_err());
    }

    /// Hostile framing past the file CRC. From the three-record sample, 1–8
    /// edits — set bytes, truncate, insert bytes, or write a random `u64`
    /// over the record count or a record length — then the trailing CRC is
    /// re-sealed, so every case reaches the header and record parsing. Each
    /// must end in `Ok` or `Corrupt`, never a panic, and an `Ok` must
    /// re-encode to the bytes it was decoded from. (`cases` runs 8 under
    /// Miri.)
    #[test]
    fn resealed_mutations_decode_or_are_corrupt() {
        let file = sample();
        let valid = file.encode();
        // Offsets of the record count and of each record's length field.
        let mut fields = vec![HEADER_LEN - 8];
        let mut pos = HEADER_LEN;
        for record in &file.records {
            fields.push(pos);
            pos += 8 + record.len() + 4;
        }
        let (mut ok, mut corrupt) = (0, 0);
        fc_rng::cases(2_000, |rng| {
            let mut bytes = valid[..valid.len() - 4].to_vec();
            for _ in 0..rng.range(1..=8usize) {
                let len = bytes.len();
                match rng.range(0..4u8) {
                    0 if len > 0 => {
                        let at = rng.range(0..len);
                        for b in &mut bytes[at..len.min(at + rng.range(1..=4usize))] {
                            *b = rng.range(0..=255u8);
                        }
                    }
                    1 => bytes.truncate(rng.range(0..=len)),
                    2 => {
                        let at = rng.range(0..=len);
                        let insert = rng.vec(1..=16, |r| r.range(0..=255u8));
                        bytes.splice(at..at, insert);
                    }
                    _ => {
                        let at = fields[rng.range(0..fields.len())];
                        let value = if rng.bool(0.5) {
                            rng.next_u64()
                        } else {
                            rng.range(0..=len as u64 + 16)
                        };
                        if at + 8 <= len {
                            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                        }
                    }
                }
            }
            let crc = crc32(&bytes).to_le_bytes();
            bytes.extend_from_slice(&crc);
            match CheckpointFile::decode(&bytes, &p()) {
                Ok(decoded) => {
                    assert_eq!(decoded.encode(), bytes, "{decoded:?}");
                    ok += 1;
                }
                Err(CkptError::Corrupt { .. }) => corrupt += 1,
                Err(other) => panic!("not a corruption verdict: {other}"),
            }
        });
        // Edits inside the phase, fingerprint and digest fields still
        // decode; the rest are caught.
        if !cfg!(miri) {
            assert!(ok > 0 && corrupt > 0, "{ok} ok, {corrupt} corrupt");
        }
    }
}
