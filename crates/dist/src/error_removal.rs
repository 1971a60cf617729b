//! Dead-end path trimming and bubble popping (paper §V-C; techniques from
//! Velvet).
//!
//! Workers explore their own partitions: a **dead end** is a short chain of
//! nodes hanging off a junction and terminating in a tip; a **bubble** is a
//! pair of short unary chains that diverge at one node and reconverge at
//! another, of which the lighter branch is redundant (a sequencing-error
//! variant). Workers record the victim nodes; the master removes them.

use fc_graph::{DiGraph, NodeId};

/// Maximum nodes in a removable dead-end chain: what counts as a "short"
/// dead end.
const MAX_TIP_LEN: usize = 3;

/// Maximum nodes in one bubble branch: what counts as a "short" bubble.
const MAX_BUBBLE_LEN: usize = 6;

/// Node weights used to pick a bubble's survivor (read support per node).
pub type NodeSupport<'a> = &'a [u64];

/// One worker's dead-end scan over its partition. A chain is a dead end
/// when it starts at a tip (no in-edges or no out-edges), is unary, has at
/// most `MAX_TIP_LEN` nodes, and attaches to a junction that retains other
/// continuations (so removal cannot disconnect a real path).
pub fn worker_dead_ends(g: &DiGraph, nodes: &[NodeId], work: &mut u64) -> Vec<NodeId> {
    let mut recorded = Vec::new();
    for &v in nodes {
        if g.is_removed(v) {
            continue;
        }
        *work += 1;
        // Forward tip: v has no in-edges; walk forward through unary nodes.
        if g.in_degree(v) == 0 && g.out_degree(v) > 0 {
            if let Some(chain) = tip_chain(g, v, Direction::Forward, MAX_TIP_LEN, work) {
                recorded.extend(chain);
            }
        }
        // Backward tip: v has no out-edges; walk backwards.
        if g.out_degree(v) == 0 && g.in_degree(v) > 0 {
            if let Some(chain) = tip_chain(g, v, Direction::Backward, MAX_TIP_LEN, work) {
                recorded.extend(chain);
            }
        }
    }
    recorded
}

enum Direction {
    Forward,
    Backward,
}

/// Walks from tip `v` along unary nodes up to `max_len`; the chain is
/// removable when it reaches a junction carrying a *strictly deeper*
/// alternative branch (the majority branch wins, as in Velvet's tip
/// clipping — a tip as deep as its alternative could be the true sequence,
/// so ties are conservative and keep both).
fn tip_chain(
    g: &DiGraph,
    v: NodeId,
    dir: Direction,
    max_len: usize,
    work: &mut u64,
) -> Option<Vec<NodeId>> {
    let mut chain = vec![v];
    let mut cur = v;
    loop {
        *work += 1;
        let next = match dir {
            Direction::Forward => {
                if g.out_degree(cur) != 1 {
                    return None; // tip ends in a junction/tip itself: not a simple spur
                }
                g.out_edges(cur)[0].to
            }
            Direction::Backward => {
                if g.in_degree(cur) != 1 {
                    return None;
                }
                g.in_neighbors(cur)[0]
            }
        };
        // Did we reach the junction the spur hangs off?
        let junction_degree = match dir {
            Direction::Forward => g.in_degree(next),
            Direction::Backward => g.out_degree(next),
        };
        if junction_degree >= 2 {
            // Compare against the deepest alternative branch entering the
            // junction from the same side.
            let alt = alternative_depth(g, next, cur, &dir, max_len + 1, work);
            return (alt > chain.len()).then_some(chain);
        }
        chain.push(next);
        if chain.len() > max_len {
            return None; // too long to be an error artifact
        }
        cur = next;
    }
}

/// Depth (in nodes, capped at `cap`) of the deepest branch other than the
/// one through `via` entering `junction` from the tip's side.
fn alternative_depth(
    g: &DiGraph,
    junction: NodeId,
    via: NodeId,
    dir: &Direction,
    cap: usize,
    work: &mut u64,
) -> usize {
    let starts: Vec<NodeId> = match dir {
        Direction::Forward => g
            .in_neighbors(junction)
            .iter()
            .copied()
            .filter(|&u| u != via)
            .collect(),
        Direction::Backward => g
            .out_edges(junction)
            .iter()
            .map(|e| e.to)
            .filter(|&u| u != via)
            .collect(),
    };
    let mut best = 0usize;
    for start in starts {
        let mut depth = 1usize;
        let mut cur = start;
        while depth < cap {
            *work += 1;
            let prev = match dir {
                Direction::Forward => {
                    if g.in_degree(cur) != 1 || g.out_degree(cur) != 1 {
                        break;
                    }
                    g.in_neighbors(cur)[0]
                }
                Direction::Backward => {
                    if g.out_degree(cur) != 1 || g.in_degree(cur) != 1 {
                        break;
                    }
                    g.out_edges(cur)[0].to
                }
            };
            depth += 1;
            cur = prev;
        }
        best = best.max(depth);
    }
    best
}

/// One worker's bubble scan. For each node with out-degree ≥ 2, pairs of
/// branches are followed through unary chains; if two branches reconverge on
/// the same node, the branch with less total support is recorded.
pub fn worker_bubbles(
    g: &DiGraph,
    nodes: &[NodeId],
    support: NodeSupport<'_>,
    work: &mut u64,
) -> Vec<NodeId> {
    let mut recorded = Vec::new();
    for &v in nodes {
        if g.is_removed(v) || g.out_degree(v) < 2 {
            continue;
        }
        // Follow each branch through its unary chain.
        let mut branches: Vec<(NodeId, Vec<NodeId>)> = Vec::new(); // (endpoint, interior)
        for e in g.out_edges(v) {
            *work += 1;
            let mut interior = Vec::new();
            let mut cur = e.to;
            let mut steps = 0;
            // Walk while the chain is strictly unary (in-deg 1, out-deg 1).
            while g.in_degree(cur) == 1 && g.out_degree(cur) == 1 && steps < MAX_BUBBLE_LEN {
                interior.push(cur);
                cur = g.out_edges(cur)[0].to;
                steps += 1;
            }
            branches.push((cur, interior));
        }
        // Reconverging pairs form bubbles; drop the lighter interior.
        for i in 0..branches.len() {
            for j in i + 1..branches.len() {
                *work += 1;
                let (end_i, int_i) = &branches[i];
                let (end_j, int_j) = &branches[j];
                if end_i != end_j || int_i.is_empty() && int_j.is_empty() {
                    continue;
                }
                let weight = |interior: &[NodeId]| -> u64 {
                    interior.iter().map(|&n| support[n as usize]).sum()
                };
                let (wi, wj) = (weight(int_i), weight(int_j));
                let loser = if wi < wj || (wi == wj && int_i.len() <= int_j.len()) {
                    int_i
                } else {
                    int_j
                };
                recorded.extend(loser.iter().copied());
            }
        }
    }
    recorded
}

/// Master-side removal of recorded error nodes. Returns how many were
/// removed.
///
/// # Invariants
///
/// Each recorded node is removed at most once (records are deduplicated and
/// already-removed nodes skipped); removal detaches the node's incident
/// edges but never touches nodes outside the recorded set.
pub fn master_remove(
    g: &mut DiGraph,
    recorded: impl IntoIterator<Item = NodeId>,
    work: &mut u64,
) -> usize {
    let mut unique: Vec<NodeId> = recorded.into_iter().collect();
    unique.sort_unstable();
    unique.dedup();
    let mut removed = 0;
    for v in unique {
        *work += 1;
        if !g.is_removed(v) {
            g.remove_node(v);
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_graph::DiEdge;

    fn edge(to: NodeId) -> DiEdge {
        DiEdge {
            to,
            len: 50,
            shift: 50,
        }
    }

    /// Backbone 0→1→2→3→4 with a one-node spur 5→2.
    fn spur_graph() -> DiGraph {
        let mut edges = Vec::new();
        for i in 0..4u32 {
            edges.push((i, edge(i + 1)));
        }
        edges.push((5, edge(2)));
        DiGraph::from_edges(6, &edges)
    }

    #[test]
    fn forward_spur_trimmed_backbone_kept() {
        let mut g = spur_graph();
        let all: Vec<NodeId> = (0..6).collect();
        let mut work = 0;
        let recorded = worker_dead_ends(&g, &all, &mut work);
        // The spur [5] loses to the deeper backbone branch [0,1]; the
        // backbone head survives because its alternative (the spur) is
        // shallower.
        assert_eq!(recorded, vec![5]);
        assert_eq!(master_remove(&mut g, recorded, &mut work), 1);
        assert!(g.is_removed(5));
        assert!(g.is_reachable(0, 4));
    }

    #[test]
    fn equal_depth_tips_are_both_kept() {
        // Two one-node branches into the same junction: a tie. Clipping
        // either would be a coin flip on the true sequence, so both stay.
        let g = DiGraph::from_edges(4, &[(0, edge(2)), (1, edge(2)), (2, edge(3))]);
        let mut work = 0;
        let recorded = worker_dead_ends(&g, &[0, 1, 2, 3], &mut work);
        assert!(recorded.is_empty(), "tied tips trimmed: {recorded:?}");
    }

    #[test]
    fn long_dead_end_kept() {
        // A spur of 5 nodes exceeds MAX_TIP_LEN = 3 and survives; the
        // 2-node branch it out-competes at the junction is clipped instead.
        let mut edges = Vec::new();
        for i in 0..4u32 {
            edges.push((i, edge(i + 1)));
        }
        // Spur: 5→6→7→8→9→2.
        for i in 5..9u32 {
            edges.push((i, edge(i + 1)));
        }
        edges.push((9, edge(2)));
        let g = DiGraph::from_edges(10, &edges);
        let all: Vec<NodeId> = (0..10).collect();
        let mut work = 0;
        let recorded = worker_dead_ends(&g, &all, &mut work);
        assert!(
            recorded.iter().all(|&v| v < 5),
            "long spur trimmed: {recorded:?}"
        );
        assert_eq!(recorded, vec![0, 1]);
    }

    /// Diamond bubble: 0→{1,2}, 1→3, 2→3, 3→4; support favors branch 1.
    fn bubble_graph() -> (DiGraph, Vec<u64>) {
        let g = DiGraph::from_edges(
            5,
            &[
                (0, edge(1)),
                (0, edge(2)),
                (1, edge(3)),
                (2, edge(3)),
                (3, edge(4)),
            ],
        );
        (g, vec![10, 8, 2, 10, 10])
    }

    #[test]
    fn bubble_pops_lighter_branch() {
        let (mut g, support) = bubble_graph();
        let all: Vec<NodeId> = (0..5).collect();
        let mut work = 0;
        let recorded = worker_bubbles(&g, &all, &support, &mut work);
        assert_eq!(recorded, vec![2]);
        master_remove(&mut g, recorded, &mut work);
        assert!(g.is_removed(2));
        assert!(g.is_reachable(0, 4));
    }

    #[test]
    fn non_reconverging_branches_kept() {
        let g = DiGraph::from_edges(
            5,
            &[
                (0, edge(1)),
                (0, edge(2)),
                (1, edge(3)),
                (2, edge(4)), // different endpoints: a real fork
            ],
        );
        let support = vec![1u64; 5];
        let mut work = 0;
        let recorded = worker_bubbles(&g, &[0], &support, &mut work);
        assert!(recorded.is_empty());
    }

    #[test]
    fn oversized_bubble_kept() {
        // Branch interiors of 7 nodes exceed MAX_BUBBLE_LEN = 6.
        let mut edges = Vec::new();
        edges.push((0, edge(1)));
        edges.push((0, edge(9)));
        let mut prev = 1u32;
        for i in 2..9u32 {
            edges.push((prev, edge(i)));
            prev = i;
        }
        edges.push((prev, edge(17)));
        let mut prev = 9u32;
        for i in 10..17u32 {
            edges.push((prev, edge(i)));
            prev = i;
        }
        edges.push((prev, edge(17)));
        let g = DiGraph::from_edges(20, &edges);
        let support = vec![1u64; 20];
        let mut work = 0;
        let recorded = worker_bubbles(&g, &[0], &support, &mut work);
        assert!(recorded.is_empty(), "oversized bubble popped: {recorded:?}");
    }
}
