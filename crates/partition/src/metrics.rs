//! Partition quality metrics (edge cut, balance) and validity checks.

use crate::error::PartitionError;
use fc_graph::LevelGraph;

/// Total weight of edges whose endpoints lie in different partitions
/// (Table II's metric).
pub fn edge_cut(g: &LevelGraph, parts: &[u32]) -> u64 {
    assert_eq!(parts.len(), g.node_count(), "partition length mismatch");
    g.edges()
        .filter(|&(u, v, _)| parts[u as usize] != parts[v as usize])
        .map(|(_, _, w)| u64::from(w))
        .sum()
}

/// Node-weight of each partition.
pub fn partition_weights(g: &LevelGraph, parts: &[u32], k: usize) -> Vec<u64> {
    let mut weights = vec![0u64; k];
    for v in 0..g.node_count() {
        weights[parts[v] as usize] += u64::from(g.node_weight(v as u32));
    }
    weights
}

/// Balance factor: heaviest partition weight divided by the ideal
/// (total / k). 1.0 is perfect; the paper's algorithms aim for ≤ ~1.03 per
/// bisection.
pub fn partition_balance(g: &LevelGraph, parts: &[u32], k: usize) -> f64 {
    let weights = partition_weights(g, parts, k);
    let total: u64 = weights.iter().sum();
    if total == 0 || k == 0 {
        return 1.0;
    }
    let ideal = total as f64 / k as f64;
    weights.iter().copied().max().unwrap_or(0) as f64 / ideal
}

/// Checks that `parts` is a valid `k`-partition assignment: in range, and
/// (when the graph has at least `k` weighted nodes) every partition
/// non-empty.
pub fn validate_partition(g: &LevelGraph, parts: &[u32], k: usize) -> Result<(), PartitionError> {
    if parts.len() != g.node_count() {
        return Err(PartitionError::LengthMismatch {
            got: parts.len(),
            expected: g.node_count(),
        });
    }
    let mut seen = vec![false; k];
    for (v, &p) in parts.iter().enumerate() {
        if p as usize >= k {
            return Err(PartitionError::PartOutOfRange {
                node: v,
                part: p,
                k,
            });
        }
        seen[p as usize] = true;
    }
    if g.node_count() >= k && !seen.iter().all(|&s| s) {
        let missing: Vec<usize> = seen
            .iter()
            .enumerate()
            .filter(|(_, &s)| !s)
            .map(|(i, _)| i)
            .collect();
        return Err(PartitionError::EmptyParts { missing });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> LevelGraph {
        LevelGraph::from_edges(vec![1; 4], &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)])
    }

    #[test]
    fn edge_cut_counts_crossing_weight() {
        let g = square();
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 2 + 4);
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 10);
    }

    #[test]
    fn balance_of_even_split_is_one() {
        let g = square();
        assert!((partition_balance(&g, &[0, 0, 1, 1], 2) - 1.0).abs() < 1e-12);
        assert!((partition_balance(&g, &[0, 0, 0, 1], 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_problems() {
        let g = square();
        assert!(validate_partition(&g, &[0, 0, 1, 1], 2).is_ok());
        assert!(validate_partition(&g, &[0, 0, 2, 1], 2).is_err()); // out of range
        assert!(validate_partition(&g, &[0, 0, 0, 0], 2).is_err()); // empty part
        assert!(validate_partition(&g, &[0, 0, 1], 2).is_err()); // wrong length
    }

    #[test]
    fn partition_weights_sum_to_total() {
        let g = square();
        let w = partition_weights(&g, &[0, 1, 1, 0], 2);
        assert_eq!(w, vec![2, 2]);
    }
}
