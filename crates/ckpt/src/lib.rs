//! # fc-ckpt — durable checkpoint/resume for the Focus pipeline
//!
//! Every pipeline phase output can be serialised to a versioned,
//! CRC32-verified checkpoint file and read back on a later run, so a
//! process killed at any phase boundary resumes instead of restarting
//! from zero. The crate is pure `std` plus the workspace generator (fc-rng):
//!
//! * [`wire`] — fixed-width little-endian binary encoding and the
//!   [`Codec`] trait the phase payload types implement;
//! * [`crc`] — the CRC32 (IEEE) checksum guarding every record and file;
//! * [`fnv`] — FNV-1a, the fold behind every fingerprint and digest;
//! * [`file`](mod@file) — the `FCKP` container format (magic, version, phase id,
//!   config/input fingerprints, checksummed records);
//! * [`fault`] — [`FsFaultPlan`], deterministic injection of torn writes,
//!   short reads, bit-flips and ENOSPC into the checkpoint I/O;
//! * [`store`] — [`CheckpointStore`], the save/load front door with
//!   atomic temp-file + rename writes and graceful degradation.
//!
//! Durability argument: a checkpoint only becomes visible under its final
//! name via `rename(2)` after the temp file was fully written and synced,
//! so a crash mid-write leaves at most a stale temp file, never a
//! truncated checkpoint under a valid name. Corruption that bypasses the
//! writer (torn writes injected directly, media bit-flips) is caught by
//! the per-record and whole-file CRCs at load time and reported as
//! [`CkptError::Corrupt`] — the caller recomputes the phase, never
//! trusting a damaged file.

#![forbid(unsafe_code)]

pub mod crc;
pub mod error;
pub mod fault;
pub mod file;
pub mod fnv;
pub mod store;
pub mod wire;

pub use crc::crc32;
pub use error::CkptError;
pub use fault::{FsFaultPlan, FsFaultRates, ReadFault, WriteFault};
pub use file::{CheckpointFile, FORMAT_VERSION, MAGIC};
pub use fnv::{fnv1a, FNV1A_OFFSET};
pub use store::{write_atomic, CheckpointStore, LoadOutcome};
pub use wire::{decode_from_slice, encode_to_vec, Codec, Reader, Writer};
