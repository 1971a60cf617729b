//! Containment removal and false-positive edge removal (paper §V-B).
//!
//! Workers re-examine their partition's nodes against neighboring contigs:
//! a contig fully contained in a neighbor's contig is redundant and its node
//! is recorded for removal; an edge whose verified contig overlap is shorter
//! than 50 bp is a false positive and is recorded for removal. The master
//! applies both removal sets.

use fc_graph::{DiGraph, NodeId};
use fc_seq::DnaString;

/// Minimum verified contig overlap (bases); below this an edge is a false
/// positive (paper: 50 bp).
pub const MIN_CONTIG_OVERLAP: u32 = 50;

/// Minimum identity of the compared overlap region for an edge to survive.
pub const MIN_OVERLAP_IDENTITY: f64 = 0.85;

/// One worker's simplification scan. `contigs[v]` is the contig sequence of
/// hybrid node `v`. Returns `(nodes to remove, edges to remove)`.
pub fn worker_scan(
    g: &DiGraph,
    nodes: &[NodeId],
    contigs: &[DnaString],
    work: &mut u64,
) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
    let mut drop_nodes = Vec::new();
    let mut drop_edges = Vec::new();
    for &v in nodes {
        if g.is_removed(v) {
            continue;
        }
        let v_len = contigs[v as usize].len() as i64;
        let mut contained = false;

        // Containment against successors: edge v -> t places contig(t) at
        // +shift; v is contained in t when t covers v entirely (shift would
        // have to be <= 0, which dovetail edges exclude) — so only check the
        // incoming side: edge u -> v places v at +shift inside u.
        for &u in g.in_neighbors(v) {
            *work += 1;
            let Some(e) = g.edge(u, v) else { continue };
            let u_len = contigs[u as usize].len() as i64;
            if e.shift as i64 + v_len <= u_len {
                // Verify the claim on actual sequence.
                if overlap_identity(
                    &contigs[u as usize],
                    e.shift as usize,
                    &contigs[v as usize],
                    0,
                    v_len as usize,
                    work,
                ) >= MIN_OVERLAP_IDENTITY
                {
                    contained = true;
                    break;
                }
            }
        }
        if contained {
            drop_nodes.push(v);
            continue;
        }

        // False-positive edges: verify each out-edge's overlap region.
        for e in g.out_edges(v) {
            *work += 1;
            let claimed = (v_len - e.shift as i64)
                .min(contigs[e.to as usize].len() as i64)
                .max(0) as u32;
            if claimed < MIN_CONTIG_OVERLAP {
                drop_edges.push((v, e.to));
                continue;
            }
            let identity = overlap_identity(
                &contigs[v as usize],
                e.shift as usize,
                &contigs[e.to as usize],
                0,
                claimed as usize,
                work,
            );
            if identity < MIN_OVERLAP_IDENTITY {
                drop_edges.push((v, e.to));
            }
        }
    }
    (drop_nodes, drop_edges)
}

/// Fraction of matching bases between `a[a_from..a_from+len]` and
/// `b[b_from..b_from+len]` (positional comparison; the overlap regions were
/// already aligned by shift).
fn overlap_identity(
    a: &DnaString,
    a_from: usize,
    b: &DnaString,
    b_from: usize,
    len: usize,
    work: &mut u64,
) -> f64 {
    let len = len
        .min(a.len().saturating_sub(a_from))
        .min(b.len().saturating_sub(b_from));
    if len == 0 {
        return 0.0;
    }
    *work += len as u64;
    let matches = (0..len)
        .filter(|&i| a.get(a_from + i) == b.get(b_from + i))
        .count();
    matches as f64 / len as f64
}

/// Master-side application of recorded removals. Returns
/// `(nodes removed, edges removed)`.
///
/// # Invariants
///
/// Removals are applied idempotently after deduplication: an edge or node
/// recorded by several workers is removed (and counted) once, nodes already
/// removed are skipped, and no other part of the graph is touched. `work`
/// grows by exactly one unit per deduplicated record.
pub fn master_apply(
    g: &mut DiGraph,
    drop_nodes: impl IntoIterator<Item = NodeId>,
    drop_edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    work: &mut u64,
) -> (usize, usize) {
    let mut edges: Vec<(NodeId, NodeId)> = drop_edges.into_iter().collect();
    edges.sort_unstable();
    edges.dedup();
    let mut edges_removed = 0;
    for (v, w) in edges {
        *work += 1;
        if g.remove_edge(v, w) {
            edges_removed += 1;
        }
    }
    let mut nodes: Vec<NodeId> = drop_nodes.into_iter().collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut nodes_removed = 0;
    for v in nodes {
        *work += 1;
        if !g.is_removed(v) {
            g.remove_node(v);
            nodes_removed += 1;
        }
    }
    (nodes_removed, edges_removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_graph::DiEdge;

    fn seq(s: &str) -> DnaString {
        s.parse().unwrap()
    }

    /// Random-ish 200-base sequence.
    fn long_seq() -> DnaString {
        (0..200)
            .map(|i| fc_seq::Base::from_code(((i * 2654435761usize) >> 9) as u8 & 3))
            .collect()
    }

    #[test]
    fn contained_contig_node_removed() {
        let outer = long_seq();
        let inner = outer.slice(40, 160);
        let contigs = vec![outer, inner];
        let mut g = DiGraph::from_edges(
            2,
            &[(
                0,
                DiEdge {
                    to: 1,
                    len: 120,
                    shift: 40,
                },
            )],
        );
        let mut work = 0;
        let (nodes, edges) = worker_scan(&g, &[0, 1], &contigs, &mut work);
        assert_eq!(nodes, vec![1]);
        assert!(edges.is_empty());
        let (nr, _) = master_apply(&mut g, nodes, edges, &mut work);
        assert_eq!(nr, 1);
        assert!(g.is_removed(1));
    }

    #[test]
    fn short_overlap_edge_removed() {
        let a = long_seq();
        let b = long_seq();
        let contigs = vec![a, b];
        let mut g = DiGraph::from_edges(
            2,
            &[
                // Claims only 30 bases of overlap (< 50): false positive.
                (
                    0,
                    DiEdge {
                        to: 1,
                        len: 30,
                        shift: 170,
                    },
                ),
            ],
        );
        let mut work = 0;
        let (nodes, edges) = worker_scan(&g, &[0, 1], &contigs, &mut work);
        assert!(nodes.is_empty());
        assert_eq!(edges, vec![(0, 1)]);
        let (_, er) = master_apply(&mut g, nodes, edges, &mut work);
        assert_eq!(er, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn genuine_overlap_survives() {
        let genome = long_seq();
        let a = genome.slice(0, 140);
        let b = genome.slice(80, 200);
        let contigs = vec![a, b];
        let g = DiGraph::from_edges(
            2,
            &[(
                0,
                DiEdge {
                    to: 1,
                    len: 60,
                    shift: 80,
                },
            )],
        );
        let mut work = 0;
        let (nodes, edges) = worker_scan(&g, &[0, 1], &contigs, &mut work);
        assert!(nodes.is_empty(), "unexpected node removals: {nodes:?}");
        assert!(edges.is_empty(), "unexpected edge removals: {edges:?}");
    }

    #[test]
    fn mismatched_overlap_region_removed() {
        // Edge claims a 100-base overlap but the sequences disagree there.
        let a = long_seq();
        let b = a.reverse_complement(); // very different content
        let contigs = vec![a, b];
        let g = DiGraph::from_edges(
            2,
            &[(
                0,
                DiEdge {
                    to: 1,
                    len: 100,
                    shift: 100,
                },
            )],
        );
        let mut work = 0;
        let (_, edges) = worker_scan(&g, &[0, 1], &contigs, &mut work);
        assert_eq!(edges, vec![(0, 1)]);
    }

    #[test]
    fn overlap_identity_basics() {
        let mut work = 0;
        let a = seq("ACGTACGT");
        assert_eq!(overlap_identity(&a, 0, &a, 0, 8, &mut work), 1.0);
        let b = seq("ACGAACGA");
        assert_eq!(overlap_identity(&a, 0, &b, 0, 8, &mut work), 0.75);
        assert_eq!(overlap_identity(&a, 8, &b, 0, 4, &mut work), 0.0); // empty
    }
}
