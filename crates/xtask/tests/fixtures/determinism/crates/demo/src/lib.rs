//! Seeded determinism violations for the analyzer's integration tests: each
//! `FC00x:` marker below must be flagged, each `NOT flagged` case stay clean.

use std::collections::{BTreeMap, HashMap};

/// FC007: hash-order iteration on a data path.
pub fn hash_iteration(counts: &HashMap<String, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for v in counts.values() {
        out.push(*v);
    }
    out
}

/// Canonicalized by an adjacent sort: NOT flagged.
pub fn sorted_iteration(weights: &HashMap<String, u32>) -> Vec<(String, u32)> {
    let mut pairs: Vec<(String, u32)> = weights.iter().map(|(k, v)| (k.clone(), *v)).collect();
    pairs.sort_unstable();
    pairs
}

/// Ordered container: NOT flagged.
pub fn btree_iteration(depths: &BTreeMap<String, u32>) -> u32 {
    depths.values().sum()
}
