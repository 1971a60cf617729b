//! Directed overlap graphs for assembly traversal.

use crate::csr::{Csr, LiveCsr};
use crate::error::GraphError;
use crate::level::NodeId;

/// A directed overlap edge: the suffix of the source aligns to the prefix of
/// the target.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiEdge {
    /// Target node.
    pub to: NodeId,
    /// Alignment length in columns (edge weight, paper §II-C).
    pub len: u32,
    /// Offset of the target's first base relative to the source's first base
    /// on the common layout.
    pub shift: u32,
}

/// A directed graph with both out- and in-adjacency, supporting the removals
/// the distributed simplification stage performs (§V). Built once from an
/// edge list; after that rows only shrink, inside the fixed extents of
/// the `csr` module, so a clone is seven `memcpy`s.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    out: LiveCsr<DiEdge>,
    inc: LiveCsr<NodeId>,
    removed_nodes: Vec<bool>,
}

impl DiGraph {
    /// Builds a graph over `n` nodes from `(source, edge)` pairs. Of edges
    /// with the same endpoints the one with the greater alignment length is
    /// kept (the first of equals), in the position of the first; self-edges
    /// are ignored. Out- and in-rows are in first-insertion order.
    pub fn from_edges(n: usize, edges: &[(NodeId, DiEdge)]) -> DiGraph {
        DiGraph::scatter(n, edges.iter().copied())
    }

    /// The builder under [`DiGraph::from_edges`], for edge lists this crate
    /// derives and need not store: `edges` is walked four times, to count
    /// and to place each view.
    pub(crate) fn scatter(
        n: usize,
        edges: impl Iterator<Item = (NodeId, DiEdge)> + Clone,
    ) -> DiGraph {
        let edges = edges.filter(|&(from, e)| from != e.to);
        let out = Csr::build(n, edges.clone(), |held, new| {
            let same = held.to == new.to;
            if same && new.len > held.len {
                *held = *new;
            }
            same
        });
        let inc = Csr::build(n, edges.map(|(from, e)| (e.to, from)), |held, new| {
            held == new
        });
        DiGraph {
            out: LiveCsr::new(out),
            inc: LiveCsr::new(inc),
            removed_nodes: vec![false; n],
        }
    }

    /// Number of nodes ever created (including removed ones).
    pub fn node_count(&self) -> usize {
        self.removed_nodes.len()
    }

    /// Number of live (not removed) nodes.
    pub fn live_node_count(&self) -> usize {
        self.removed_nodes.iter().filter(|&&r| !r).count()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.live()
    }

    /// Out-edges of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[DiEdge] {
        self.out.row(v)
    }

    /// Sources of in-edges of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.inc.row(v)
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// True if `v` has been removed.
    pub fn is_removed(&self, v: NodeId) -> bool {
        self.removed_nodes[v as usize]
    }

    /// Live node ids.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as NodeId).filter(move |&v| !self.removed_nodes[v as usize])
    }

    /// Removes the directed edge `from -> to`; returns whether it existed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if !self.out.retain(from, |e| e.to != to) {
            return false;
        }
        self.inc.retain(to, |&s| s != from);
        true
    }

    /// Removes a node and all its incident edges.
    pub fn remove_node(&mut self, v: NodeId) {
        if self.removed_nodes[v as usize] {
            return;
        }
        for e in self.out.row(v) {
            self.inc.retain(e.to, |&s| s != v);
        }
        for &s in self.inc.row(v) {
            self.out.retain(s, |e| e.to != v);
        }
        self.out.retain(v, |_| false);
        self.inc.retain(v, |_| false);
        self.removed_nodes[v as usize] = true;
    }

    /// The edge `from -> to`, if present.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<&DiEdge> {
        self.out_edges(from).iter().find(|e| e.to == to)
    }

    /// Bytes this graph holds on the heap: 12 per out-edge and 4 per in-edge
    /// of the graph as built, 17 per node, 8 for the closing offsets.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.inc.heap_bytes() + self.removed_nodes.capacity()
    }

    /// Checks out/in adjacency consistency.
    pub fn check_invariants(&self) -> Result<(), GraphError> {
        let fail = |message: String| Err(GraphError::invariant("DiGraph", message));
        for v in 0..self.node_count() as NodeId {
            for e in self.out_edges(v) {
                if !self.in_neighbors(e.to).contains(&v) {
                    return fail(format!("missing in-edge record {v}->{}", e.to));
                }
                if self.is_removed(v) || self.is_removed(e.to) {
                    return fail(format!("edge touches removed node: {v}->{}", e.to));
                }
            }
            for &s in self.in_neighbors(v) {
                if self.edge(s, v).is_none() {
                    return fail(format!("missing out-edge record {s}->{v}"));
                }
            }
        }
        Ok(())
    }

    /// True if the graph (restricted to live nodes) is reachable from `from`
    /// to `to` along directed edges. Used by transitive-reduction tests.
    pub fn is_reachable(&self, from: NodeId, to: NodeId) -> bool {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![from];
        seen[from as usize] = true;
        while let Some(v) = stack.pop() {
            if v == to {
                return true;
            }
            for e in self.out_edges(v) {
                if !seen[e.to as usize] {
                    seen[e.to as usize] = true;
                    stack.push(e.to);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(to: NodeId, len: u32) -> DiEdge {
        DiEdge { to, len, shift: 10 }
    }

    fn path_graph() -> DiGraph {
        DiGraph::from_edges(4, &[(0, edge(1, 50)), (1, edge(2, 60)), (2, edge(3, 70))])
    }

    #[test]
    fn adjacency_bookkeeping() {
        let g = path_graph();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.in_neighbors(2), &[1]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_edge_keeps_longer() {
        let g = DiGraph::from_edges(2, &[(0, edge(1, 50)), (0, edge(1, 80)), (0, edge(1, 60))]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(0, 1).unwrap().len, 80);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn self_edges_ignored() {
        let g = DiGraph::from_edges(1, &[(0, edge(0, 50))]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn remove_edge_updates_both_sides() {
        let mut g = path_graph();
        assert!(g.remove_edge(1, 2));
        assert!(!g.remove_edge(1, 2));
        assert_eq!(g.out_degree(1), 0);
        assert_eq!(g.in_degree(2), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_node_detaches_everything() {
        let mut g = path_graph();
        g.remove_node(1);
        assert!(g.is_removed(1));
        assert_eq!(g.live_node_count(), 3);
        assert_eq!(g.out_degree(0), 0);
        assert_eq!(g.in_degree(2), 0);
        g.check_invariants().unwrap();
        // Idempotent.
        g.remove_node(1);
        assert_eq!(g.live_node_count(), 3);
    }

    #[test]
    fn reachability() {
        let g = path_graph();
        assert!(g.is_reachable(0, 3));
        assert!(!g.is_reachable(3, 0));
        let mut g2 = g.clone();
        g2.remove_edge(1, 2);
        assert!(!g2.is_reachable(0, 3));
    }
}
