//! Offline stand-in for `parking_lot` 0.12, patched in by
//! `benchmark/Cargo.toml`. fc-dist lists the crate as a dependency and
//! uses no item of it, so this is empty.
