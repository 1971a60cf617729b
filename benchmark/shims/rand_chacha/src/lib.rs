//! Offline stand-in for `rand_chacha` 0.3, patched in by
//! `benchmark/Cargo.toml`. `ChaCha8Rng` here is SplitMix64: seeded,
//! deterministic and well mixed, but not the ChaCha stream.

use rand::{RngCore, SeedableRng};

#[derive(Debug, Clone)]
pub struct ChaCha8Rng(u64);

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng(seed)
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
