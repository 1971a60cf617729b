//! Distributed transitive edge reduction (paper §V-A, after Myers' string
//! graph construction).
//!
//! Each worker owns one partition and scans its nodes: an edge `v → w` is
//! transitive when some two-hop path `v → u → w` explains it (the shifts
//! compose within a small tolerance, i.e. the same genomic placement).
//! Workers record transitive edges; the master removes them. An edge whose
//! endpoints straddle two partitions is recorded by both owners — the
//! master's removal set deduplicates, exactly as in the paper.

use fc_graph::{DiGraph, NodeId};

/// Indel slack when testing whether two shifts compose to a third.
const SHIFT_TOLERANCE: i64 = 4;

/// One worker's scan over its partition. Returns the recorded transitive
/// edges and the work performed (edge pairs examined).
pub fn worker_scan(g: &DiGraph, nodes: &[NodeId], work: &mut u64) -> Vec<(NodeId, NodeId)> {
    let mut recorded = Vec::new();
    for &v in nodes {
        if g.is_removed(v) {
            continue;
        }
        let out = g.out_edges(v);
        for e_vw in out {
            // Is there u with v->u and u->w such that
            // shift(v,u) + shift(u,w) ≈ shift(v,w)?
            let mut transitive = false;
            for e_vu in out {
                if e_vu.to == e_vw.to {
                    continue;
                }
                *work += 1;
                if let Some(e_uw) = g.edge(e_vu.to, e_vw.to) {
                    let composed = e_vu.shift as i64 + e_uw.shift as i64;
                    if (composed - e_vw.shift as i64).abs() <= SHIFT_TOLERANCE {
                        transitive = true;
                        break;
                    }
                }
            }
            if transitive {
                recorded.push((v, e_vw.to));
            }
        }
    }
    recorded
}

/// Master-side removal of the recorded edges (deduplicated). Returns the
/// number of edges actually removed and adds the removal work to `work`.
///
/// # Invariants
///
/// Only the recorded edges are removed, each at most once no matter how many
/// workers recorded it; nodes and all other edges stay untouched, so the
/// graph remains a valid overlap DAG minus exactly the returned edge count.
pub fn master_remove(
    g: &mut DiGraph,
    recorded: impl IntoIterator<Item = (NodeId, NodeId)>,
    work: &mut u64,
) -> usize {
    // Sorted dedup, not a HashSet: removal is commutative but the work
    // trace and any tie-broken downstream pass must see one fixed order.
    let mut unique: Vec<(NodeId, NodeId)> = recorded.into_iter().collect();
    unique.sort_unstable();
    unique.dedup();
    let mut removed = 0;
    for (v, w) in unique {
        *work += 1;
        if g.remove_edge(v, w) {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_graph::DiEdge;

    fn edge(to: NodeId, shift: u32, len: u32) -> DiEdge {
        DiEdge { to, len, shift }
    }

    /// 0 → 1 → 2 with the transitive shortcut 0 → 2.
    fn triangle() -> DiGraph {
        DiGraph::from_edges(
            3,
            &[
                (0, edge(1, 50, 50)),
                (1, edge(2, 50, 50)),
                (0, edge(2, 100, 10)),
            ],
        )
    }

    #[test]
    fn detects_and_removes_shortcut() {
        let mut g = triangle();
        let mut work = 0;
        let recorded = worker_scan(&g, &[0, 1, 2], &mut work);
        assert_eq!(recorded, vec![(0, 2)]);
        let removed = master_remove(&mut g, recorded, &mut work);
        assert_eq!(removed, 1);
        assert!(g.edge(0, 2).is_none());
        assert!(g.edge(0, 1).is_some());
        assert!(g.edge(1, 2).is_some());
    }

    #[test]
    fn preserves_reachability() {
        let mut g = triangle();
        let mut work = 0;
        let recorded = worker_scan(&g, &[0, 1, 2], &mut work);
        master_remove(&mut g, recorded, &mut work);
        assert!(g.is_reachable(0, 2));
    }

    #[test]
    fn non_composing_shifts_are_kept() {
        let g = DiGraph::from_edges(
            3,
            &[
                (0, edge(1, 50, 50)),
                (1, edge(2, 50, 50)),
                // Shift 60 ≠ 100: a genuinely different placement (repeat), kept.
                (0, edge(2, 60, 40)),
            ],
        );
        let mut work = 0;
        let recorded = worker_scan(&g, &[0, 1, 2], &mut work);
        assert!(recorded.is_empty());
    }

    #[test]
    fn cross_partition_edges_recorded_by_both_workers() {
        let g = triangle();
        let mut work = 0;
        // Partition {0} and {1, 2}: the shortcut 0->2 crosses. Only the
        // owner of node 0 can see it as an out-edge; worker({1,2}) sees
        // nothing, and dedup still yields one removal.
        let r0 = worker_scan(&g, &[0], &mut work);
        let r1 = worker_scan(&g, &[1, 2], &mut work);
        let mut g2 = g.clone();
        let removed = master_remove(&mut g2, r0.into_iter().chain(r1), &mut work);
        assert_eq!(removed, 1);
        assert!(g2.edge(0, 2).is_none());
    }

    #[test]
    fn tolerates_small_indel_drift() {
        let g = DiGraph::from_edges(
            3,
            &[
                (0, edge(1, 50, 50)),
                (1, edge(2, 50, 50)),
                (0, edge(2, 98, 10)), // 2 off from 100: within tolerance
            ],
        );
        let mut work = 0;
        let recorded = worker_scan(&g, &[0, 1, 2], &mut work);
        assert_eq!(recorded, vec![(0, 2)]);
    }

    #[test]
    fn chain_of_length_three_reduces_all_shortcuts() {
        let mut edges = Vec::new();
        for i in 0..3u32 {
            edges.push((i, edge(i + 1, 40, 60)));
        }
        edges.push((0, edge(2, 80, 20)));
        edges.push((1, edge(3, 80, 20)));
        edges.push((0, edge(3, 120, 5)));
        let g = DiGraph::from_edges(4, &edges);
        let mut work = 0;
        let recorded = worker_scan(&g, &[0, 1, 2, 3], &mut work);
        let mut g2 = g.clone();
        master_remove(&mut g2, recorded, &mut work);
        // All three shortcuts go; note 0->3 composes via 0->2->3 too.
        assert!(g2.edge(0, 2).is_none());
        assert!(g2.edge(1, 3).is_none());
        assert!(g2.edge(0, 3).is_none());
        assert_eq!(g2.edge_count(), 3);
        assert!(g2.is_reachable(0, 3));
    }
}
