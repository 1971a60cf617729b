//! Deterministic filesystem fault injection for the checkpoint layer.
//!
//! [`FsFaultPlan`] extends the distributed stage's seeded `FaultPlan`
//! idea to checkpoint I/O: faults are scheduled against the *n*-th write
//! or read operation the [`CheckpointStore`](crate::store::CheckpointStore)
//! performs, so a run with the same plan replays the same damage
//! bit-for-bit. The injected failure modes are the ones real filesystems
//! produce:
//!
//! * **torn write** — the file appears under its final name with only a
//!   prefix of the data (a non-atomic writer died mid-write, or the
//!   kernel tore the write across a crash);
//! * **bit flip** — one bit of the stored file differs (media decay,
//!   controller bugs);
//! * **ENOSPC** — the write fails because the disk filled up;
//! * **short read** — a read returns fewer bytes than the file holds.

use fc_rng::Rng;
use std::collections::BTreeMap;

/// A fault applied to one checkpoint *write* operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteFault {
    /// Persist only the first half of the encoded bytes, directly under
    /// the final name (simulating a non-atomic writer crashing mid-write).
    /// The store reports success; the damage must be caught at load time.
    Torn,
    /// Flip one bit (index taken modulo the file's bit length) before the
    /// otherwise-normal atomic write.
    BitFlip {
        /// Absolute bit index to flip (wrapped to the encoded length).
        bit: u64,
    },
    /// Fail the write with an out-of-space I/O error.
    Enospc,
}

/// A fault applied to one checkpoint *read* operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadFault {
    /// Return only the first half of the file's bytes.
    Short,
    /// Flip one bit (index wrapped to the data length) in the bytes read.
    BitFlip {
        /// Absolute bit index to flip (wrapped to the data length).
        bit: u64,
    },
}

/// Per-operation fault probabilities for [`FsFaultPlan::random`]; all
/// zero by default (no faults).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FsFaultRates {
    /// Probability a write is torn.
    pub torn_write: f64,
    /// Probability a write lands with one flipped bit.
    pub write_bit_flip: f64,
    /// Probability a write fails with ENOSPC.
    pub enospc: f64,
    /// Probability a read comes back short.
    pub short_read: f64,
    /// Probability a read comes back with one flipped bit.
    pub read_bit_flip: f64,
}

/// A deterministic schedule of filesystem faults, keyed by operation
/// sequence number. The store numbers its write and read operations
/// independently from zero; a fault registered for an operation fires
/// exactly once when that operation runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FsFaultPlan {
    writes: BTreeMap<u64, WriteFault>,
    reads: BTreeMap<u64, ReadFault>,
    write_ops: u64,
    read_ops: u64,
}

impl FsFaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn none() -> FsFaultPlan {
        FsFaultPlan::default()
    }

    /// Registers `fault` against the `op`-th write (0-based), replacing
    /// any previous registration for that operation.
    pub fn fail_write(mut self, op: u64, fault: WriteFault) -> FsFaultPlan {
        self.writes.insert(op, fault);
        self
    }

    /// Registers `fault` against the `op`-th read (0-based).
    pub fn fail_read(mut self, op: u64, fault: ReadFault) -> FsFaultPlan {
        self.reads.insert(op, fault);
        self
    }

    /// Samples a random plan over the first `ops` write and read
    /// operations. Same `(seed, ops, rates)` ⇒ the identical plan. At most
    /// one fault per operation; the kinds are tried in a fixed order.
    pub fn random(seed: u64, ops: u64, rates: &FsFaultRates) -> FsFaultPlan {
        let mut plan = FsFaultPlan::none();
        let mut rng = Rng::new(seed ^ 0xC3A5_C85C_97CB_3127);
        for op in 0..ops {
            if rng.bool(rates.torn_write) {
                plan.writes.insert(op, WriteFault::Torn);
            } else if rng.bool(rates.write_bit_flip) {
                let bit = (rng.f64() * 1e6) as u64;
                plan.writes.insert(op, WriteFault::BitFlip { bit });
            } else if rng.bool(rates.enospc) {
                plan.writes.insert(op, WriteFault::Enospc);
            }
            if rng.bool(rates.short_read) {
                plan.reads.insert(op, ReadFault::Short);
            } else if rng.bool(rates.read_bit_flip) {
                let bit = (rng.f64() * 1e6) as u64;
                plan.reads.insert(op, ReadFault::BitFlip { bit });
            }
        }
        plan
    }

    /// True when no fault is registered.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty() && self.reads.is_empty()
    }

    /// Number of faults still registered (unfired).
    pub fn pending(&self) -> usize {
        self.writes.len() + self.reads.len()
    }

    /// Advances the write-operation counter and returns the fault (if any)
    /// scheduled for the operation that just started.
    pub fn next_write(&mut self) -> Option<WriteFault> {
        let op = self.write_ops;
        self.write_ops += 1;
        self.writes.remove(&op)
    }

    /// Advances the read-operation counter and returns the fault (if any)
    /// scheduled for the operation that just started.
    pub fn next_read(&mut self) -> Option<ReadFault> {
        let op = self.read_ops;
        self.read_ops += 1;
        self.reads.remove(&op)
    }
}

/// Applies a [`WriteFault::BitFlip`] / [`ReadFault::BitFlip`] index to a
/// buffer in place (no-op on an empty buffer).
pub fn flip_bit(bytes: &mut [u8], bit: u64) {
    if bytes.is_empty() {
        return;
    }
    let total_bits = bytes.len() as u64 * 8;
    let bit = bit % total_bits;
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_at_their_scheduled_op() {
        let mut plan = FsFaultPlan::none()
            .fail_write(1, WriteFault::Torn)
            .fail_read(0, ReadFault::Short);
        assert_eq!(plan.next_write(), None); // op 0
        assert_eq!(plan.next_write(), Some(WriteFault::Torn)); // op 1
        assert_eq!(plan.next_write(), None); // op 2
        assert_eq!(plan.next_read(), Some(ReadFault::Short)); // op 0
        assert_eq!(plan.next_read(), None);
        assert!(plan.is_empty());
    }

    #[test]
    fn random_plans_are_deterministic_per_seed() {
        let rates = FsFaultRates {
            torn_write: 0.3,
            write_bit_flip: 0.3,
            enospc: 0.2,
            short_read: 0.3,
            read_bit_flip: 0.3,
        };
        let a = FsFaultPlan::random(7, 50, &rates);
        let b = FsFaultPlan::random(7, 50, &rates);
        let c = FsFaultPlan::random(8, 50, &rates);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ at these rates");
        assert!(!a.is_empty());
    }

    #[test]
    fn zero_rates_produce_the_empty_plan() {
        let plan = FsFaultPlan::random(1, 100, &FsFaultRates::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn flip_bit_wraps_and_is_an_involution() {
        let mut data = vec![0u8; 4];
        flip_bit(&mut data, 35); // 35 % 32 = 3
        assert_eq!(data, vec![0b1000, 0, 0, 0]);
        flip_bit(&mut data, 3);
        assert_eq!(data, vec![0; 4]);
        flip_bit(&mut [], 7); // no-op, no panic
    }
}
