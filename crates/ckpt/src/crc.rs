//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every checkpoint record and file.
//!
//! Slice-by-16: table `k` holds the CRC contribution of a byte followed by
//! `k` zero bytes, so one step folds 16 input bytes with 16 independent
//! table loads instead of a chain of 16 dependent ones. The tables (16 KiB)
//! are built at compile time from the bytewise table `TABLES[0]`; the value
//! is the bytewise CRC's, so every stored checksum keeps its meaning.

/// Bytes folded per step.
const STRIDE: usize = 16;

const fn build_tables() -> [[u32; 256]; STRIDE] {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < STRIDE {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; STRIDE] = build_tables();

/// One byte through the bytewise table.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][usize::from(crc as u8 ^ byte)]
}

/// CRC32 of `bytes` (IEEE, the variant used by zip/gzip/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(STRIDE);
    for chunk in &mut blocks {
        let mut block = [0u8; STRIDE];
        block.copy_from_slice(chunk);
        for (b, c) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        // Byte 0 is followed by 15 more, so it takes the last table.
        crc = block
            .iter()
            .zip(TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    !blocks.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one byte at a time through the bytewise table.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| step(crc, b))
    }

    #[test]
    fn matches_known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Every length that exercises the block loop, the tail loop or both,
    /// at every start offset within an 8-byte word.
    #[test]
    fn sliced_equals_bytewise_on_every_short_unaligned_slice() {
        let buf: Vec<u8> = (0u32..80)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_random_buffers() {
        fc_rng::cases(64, |rng| {
            let len = rng.range(0usize..=64 * 1024);
            let buf = rng.vec(len..=len, |r| r.range(0u8..=255));
            let start = rng.range(0..=len.min(15));
            assert_eq!(
                crc32(&buf[start..]),
                crc32_bytewise(&buf[start..]),
                "len {len}"
            );
        });
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let data = b"the checkpoint payload under test".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
