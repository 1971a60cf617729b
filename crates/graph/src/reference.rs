//! The graphs as they were before the flat layout: one `Vec` per node, edges
//! pushed one at a time, removals by `Vec::retain`. Kept as the oracle the
//! differential tests below compare [`crate::LevelGraph`] and
//! [`crate::DiGraph`] against — row by row, order included, because every
//! tie-break downstream reads rows in that order.

use crate::digraph::DiEdge;
use crate::level::NodeId;

/// The undirected graph as symmetric adjacency lists.
pub(crate) struct LevelGraph {
    adj: Vec<Vec<(NodeId, u32)>>,
}

impl LevelGraph {
    pub(crate) fn with_nodes(n: usize) -> LevelGraph {
        LevelGraph {
            adj: vec![Vec::new(); n],
        }
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    pub(crate) fn neighbors(&self, v: NodeId) -> &[(NodeId, u32)] {
        &self.adj[v as usize]
    }

    /// Adds an undirected edge, accumulating weight (saturating) if it
    /// already exists. Self-loops are ignored.
    pub(crate) fn add_edge(&mut self, u: NodeId, v: NodeId, w: u32) {
        if u == v {
            return;
        }
        for (a, b) in [(u, v), (v, u)] {
            match self.adj[a as usize].iter_mut().find(|(n, _)| *n == b) {
                Some(slot) => slot.1 = slot.1.saturating_add(w),
                None => self.adj[a as usize].push((b, w)),
            }
        }
    }

    pub(crate) fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&&(v, _)| (u as NodeId) < v)
                .map(move |&(v, w)| (u as NodeId, v, w))
        })
    }
}

/// The directed graph with out- and in-lists.
pub(crate) struct DiGraph {
    out: Vec<Vec<DiEdge>>,
    inc: Vec<Vec<NodeId>>,
    removed_nodes: Vec<bool>,
}

impl DiGraph {
    pub(crate) fn with_nodes(n: usize) -> DiGraph {
        DiGraph {
            out: vec![Vec::new(); n],
            inc: vec![Vec::new(); n],
            removed_nodes: vec![false; n],
        }
    }

    pub(crate) fn live_node_count(&self) -> usize {
        self.removed_nodes.iter().filter(|&&r| !r).count()
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Adds a directed edge. Duplicate edges (same endpoints) keep the one
    /// with the greater alignment length.
    pub(crate) fn add_edge(&mut self, from: NodeId, edge: DiEdge) {
        if from == edge.to {
            return;
        }
        if let Some(existing) = self.out[from as usize].iter_mut().find(|e| e.to == edge.to) {
            if edge.len > existing.len {
                *existing = edge;
            }
            return;
        }
        self.out[from as usize].push(edge);
        self.inc[edge.to as usize].push(from);
    }

    pub(crate) fn out_edges(&self, v: NodeId) -> &[DiEdge] {
        &self.out[v as usize]
    }

    pub(crate) fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.inc[v as usize]
    }

    pub(crate) fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let out = &mut self.out[from as usize];
        let before = out.len();
        out.retain(|e| e.to != to);
        if out.len() == before {
            return false;
        }
        self.inc[to as usize].retain(|&s| s != from);
        true
    }

    pub(crate) fn remove_node(&mut self, v: NodeId) {
        if self.removed_nodes[v as usize] {
            return;
        }
        let outs: Vec<NodeId> = self.out[v as usize].iter().map(|e| e.to).collect();
        for t in outs {
            self.inc[t as usize].retain(|&s| s != v);
        }
        let ins: Vec<NodeId> = self.inc[v as usize].clone();
        for s in ins {
            self.out[s as usize].retain(|e| e.to != v);
        }
        self.out[v as usize].clear();
        self.inc[v as usize].clear();
        self.removed_nodes[v as usize] = true;
    }
}

// Repeated although lib.rs gates the whole file: `cargo xtask analyze` reads
// one file at a time and learns here that what follows is test code.
#[cfg(test)]
mod differential {
    use super::{DiEdge, NodeId};
    use fc_rng::{cases, Rng};

    /// `add_edge` with repeats and self-loops, then every observable of the
    /// flat graph against the list graph's. One weight in eight is within
    /// a few units of `u32::MAX`, so repeats saturate as well as add.
    #[test]
    fn level_graph_matches_reference() {
        cases(256, |rng| {
            let n = rng.range(0usize..24);
            let weights: Vec<u32> = (0..n).map(|_| rng.range(1u32..9)).collect();
            // Few distinct endpoints, so repeats and self-loops are common.
            let edges: Vec<_> = (0..count(rng, n, 80))
                .map(|_| {
                    let w = match rng.range(0u8..8) {
                        0 => u32::MAX - rng.range(0u32..4),
                        _ => rng.range(1u32..50),
                    };
                    (node(rng, n), node(rng, n), w)
                })
                .collect();
            let mut reference = super::LevelGraph::with_nodes(n);
            for &(u, v, w) in &edges {
                reference.add_edge(u, v, w);
            }
            let flat = crate::LevelGraph::from_edges(weights.clone(), &edges);
            assert_eq!(flat.node_count(), n);
            for v in 0..n as NodeId {
                assert_eq!(flat.neighbors(v), reference.neighbors(v), "row {v}");
                assert_eq!(flat.node_weight(v), weights[v as usize]);
            }
            assert_eq!(flat.edge_count(), reference.edge_count());
            assert!(flat.edges().eq(reference.edges()));
            flat.check_invariants().unwrap();
        });
    }

    /// However the graph of no nodes is made, it is the same graph.
    #[test]
    fn empty_graphs_are_equal_however_made() {
        let empty = crate::LevelGraph::default();
        assert_eq!(empty, crate::LevelGraph::from_edges(vec![], &[]));
        assert_eq!((empty.node_count(), empty.edge_count()), (0, 0));
        let built = crate::DiGraph::from_edges(0, &[]);
        assert_eq!((built.node_count(), built.edge_count()), (0, 0));
        assert_eq!(built.heap_bytes(), crate::DiGraph::default().heap_bytes());
    }

    fn assert_same(flat: &crate::DiGraph, reference: &super::DiGraph, n: usize) {
        for v in 0..n as NodeId {
            assert_eq!(flat.out_edges(v), reference.out_edges(v), "out row {v}");
            assert_eq!(
                flat.in_neighbors(v),
                reference.in_neighbors(v),
                "in row {v}"
            );
        }
        assert_eq!(flat.edge_count(), reference.edge_count());
        assert_eq!(flat.live_node_count(), reference.live_node_count());
        flat.check_invariants().unwrap();
    }

    fn node(rng: &mut Rng, n: usize) -> NodeId {
        rng.range(0..n) as NodeId
    }

    /// How many operations to draw, below `max`: none on the graph of no
    /// nodes, which has no [`node`] to name.
    fn count(rng: &mut Rng, n: usize, max: usize) -> usize {
        if n == 0 {
            0
        } else {
            rng.range(0..max)
        }
    }

    /// Duplicate and self edges going in, then `remove_edge`/`remove_node`
    /// interleaved — absent edges and already-removed nodes included — with
    /// every row compared after every step.
    #[test]
    fn digraph_matches_reference_under_removals() {
        cases(256, |rng| {
            let n = rng.range(0usize..16);
            let edges: Vec<_> = (0..count(rng, n, 60))
                .map(|_| {
                    let edge = DiEdge {
                        to: node(rng, n),
                        len: rng.range(1u32..6),
                        shift: rng.range(0u32..100),
                    };
                    (node(rng, n), edge)
                })
                .collect();
            let mut reference = super::DiGraph::with_nodes(n);
            for &(from, edge) in &edges {
                reference.add_edge(from, edge);
            }
            let mut flat = crate::DiGraph::from_edges(n, &edges);
            assert_same(&flat, &reference, n);
            let built = flat.heap_bytes();
            for _ in 0..count(rng, n, 30) {
                if rng.bool(0.7) {
                    let (from, to) = (node(rng, n), node(rng, n));
                    assert_eq!(flat.remove_edge(from, to), reference.remove_edge(from, to));
                } else {
                    let v = node(rng, n);
                    flat.remove_node(v);
                    reference.remove_node(v);
                }
                assert_same(&flat, &reference, n);
            }
            // Removals free nothing.
            assert_eq!(flat.heap_bytes(), built);
        });
    }
}
