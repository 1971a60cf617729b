//! Induced subgraphs with dense local ids.
//!
//! Recursive bisection repeatedly works on the subgraph induced by one
//! partition's nodes. Extracting it into dense local ids keeps the greedy
//! growing and KL inner loops cache-friendly and index-based: their queues,
//! lock marks, Fenwick tree and weight row are all plain vectors over
//! `0..len()`.
//!
//! The rows are stored compressed (CSR: one `offsets` array, one `edges`
//! array), each row in the order of the level's own adjacency with the
//! neighbors outside the subset dropped — the order the dense per-node rows
//! this replaced had, which the tie-breaks of growing and KL depend on.
//! Nodes come in ascending id, so a neighbor's local id is its rank in
//! `nodes`: [`LocalGraph::extract`] finds it by binary search, and
//! recursive bisection hands `LocalGraph::extract_with` the part buckets
//! and ranks each recursion step computes once for all of its tasks.
//! Neither fills a map as long as the level: on the hybrid set a task sees
//! a sliver of a mostly isolated level, and such a map costs more than the
//! rows. Extraction is not part of the paper's algorithm and charges no
//! `work`.

use fc_graph::{LevelGraph, NodeId};

/// An induced subgraph with dense local node ids.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    /// Local id → global node id, ascending.
    pub nodes: Vec<NodeId>,
    /// Row `v` of the adjacency is `edges[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Local adjacency: `(local neighbor, weight)`; only edges with both
    /// endpoints inside the subset are kept.
    edges: Vec<(u32, u64)>,
    /// Local node weights.
    pub node_w: Vec<u64>,
}

impl LocalGraph {
    /// Extracts the subgraph of `g` induced by `nodes`.
    ///
    /// # Panics
    ///
    /// If `nodes` is not strictly ascending: a neighbor's local id is found
    /// by binary search in it.
    pub fn extract(g: &LevelGraph, nodes: &[NodeId]) -> LocalGraph {
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "extract needs strictly ascending node ids"
        );
        LocalGraph::extract_with(g, nodes, |u| {
            nodes.binary_search(&u).ok().map(|lu| lu as u32)
        })
    }

    /// [`LocalGraph::extract`] with the caller's lookup: `local_id(u)` is
    /// `u`'s index in `nodes`, or `None` when `u` is outside the subset.
    /// Recursive bisection answers it from the part buckets and ranks it
    /// already shares among a step's tasks.
    pub(crate) fn extract_with(
        g: &LevelGraph,
        nodes: &[NodeId],
        local_id: impl Fn(NodeId) -> Option<u32>,
    ) -> LocalGraph {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "extract needs ascending node ids"
        );
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0);
        let mut edges = Vec::new();
        for &v in nodes {
            for &(u, w) in g.neighbors(v) {
                if let Some(lu) = local_id(u) {
                    debug_assert_eq!(nodes[lu as usize], u);
                    edges.push((lu, u64::from(w)));
                }
            }
            offsets.push(edges.len());
        }
        let node_w = nodes.iter().map(|&v| u64::from(g.node_weight(v))).collect();
        LocalGraph {
            nodes: nodes.to_vec(),
            offsets,
            edges,
            node_w,
        }
    }

    /// Number of local nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The neighbors of local node `v` inside the subset, as `(local
    /// neighbor, weight)`.
    pub fn adj(&self, v: u32) -> &[(u32, u64)] {
        &self.edges[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Total node weight.
    pub fn total_node_weight(&self) -> u64 {
        self.node_w.iter().sum()
    }

    /// Weighted degree of local node `v`.
    pub fn weighted_degree(&self, v: u32) -> u64 {
        self.adj(v).iter().map(|&(_, w)| w).sum()
    }

    /// The cut weight of a two-sided assignment (`side[v]` ∈ {false, true}).
    pub fn cut(&self, side: &[bool]) -> u64 {
        let mut cut = 0;
        for v in 0..self.len() as u32 {
            for &(u, w) in self.adj(v) {
                if u > v && side[v as usize] != side[u as usize] {
                    cut += w;
                }
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> LevelGraph {
        // 0-1-2
        // |   |
        // 3-4-5
        LevelGraph::from_edges(
            vec![1; 6],
            &[
                (0, 1, 2),
                (1, 2, 3),
                (0, 3, 4),
                (2, 5, 5),
                (3, 4, 6),
                (4, 5, 7),
            ],
        )
    }

    #[test]
    fn extract_keeps_internal_edges_only() {
        let g = grid();
        let local = LocalGraph::extract(&g, &[0, 1, 3]);
        assert_eq!(local.len(), 3);
        // Edges inside {0,1,3}: 0-1 (2) and 0-3 (4).
        let total: u64 = (0..3).map(|v| local.weighted_degree(v)).sum();
        assert_eq!(total, 2 * (2 + 4));
        assert_eq!(local.total_node_weight(), 3);
    }

    #[test]
    fn cut_counts_cross_side_weight_once() {
        let g = grid();
        let local = LocalGraph::extract(&g, &[0, 1, 2, 3, 4, 5]);
        // Split top row vs bottom row: cut edges 0-3 (4) and 2-5 (5).
        let side = vec![false, false, false, true, true, true];
        assert_eq!(local.cut(&side), 9);
        // Everything on one side: no cut.
        assert_eq!(local.cut(&[false; 6]), 0);
    }

    #[test]
    fn empty_subset() {
        let g = grid();
        let local = LocalGraph::extract(&g, &[]);
        assert!(local.is_empty());
        assert_eq!(local.cut(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn extract_refuses_unsorted_nodes() {
        LocalGraph::extract(&grid(), &[0, 3, 1]);
    }
}

/// Extraction as it was before the rows went into CSR: a dense global →
/// local map over the whole level, allocated and filled for every call, and
/// one `Vec` per row. Kept as the oracle [`differential`] compares
/// [`LocalGraph::extract`] against.
#[cfg(test)]
mod reference {
    use fc_graph::{LevelGraph, NodeId};

    /// The induced subgraph with one adjacency `Vec` per local node.
    pub(super) struct DenseLocal {
        pub(super) nodes: Vec<NodeId>,
        pub(super) adj: Vec<Vec<(u32, u64)>>,
        pub(super) node_w: Vec<u64>,
    }

    /// Extracts the subgraph of `g` induced by `nodes`.
    pub(super) fn extract(g: &LevelGraph, nodes: &[NodeId]) -> DenseLocal {
        // Dense global → local id map; `ABSENT` marks nodes outside the subset.
        const ABSENT: u32 = u32::MAX;
        let mut global_to_local = vec![ABSENT; g.node_count()];
        for (li, &v) in nodes.iter().enumerate() {
            global_to_local[v as usize] = li as u32;
        }
        let adj = nodes
            .iter()
            .map(|&v| {
                g.neighbors(v)
                    .iter()
                    .filter_map(|&(u, w)| match global_to_local[u as usize] {
                        ABSENT => None,
                        lu => Some((lu, u64::from(w))),
                    })
                    .collect()
            })
            .collect();
        let node_w = nodes.iter().map(|&v| u64::from(g.node_weight(v))).collect();
        DenseLocal {
            nodes: nodes.to_vec(),
            adj,
            node_w,
        }
    }
}

#[cfg(test)]
mod differential {
    use super::*;
    use crate::testgen;
    use fc_rng::Rng;

    /// Extracts random ascending subsets of every family member of a size
    /// in `sizes` — the whole level, none of it, and three densities — by
    /// binary search and by a rank lookup, and holds the CSR rows to the
    /// dense-map rows element by element.
    fn check_sizes(sizes: std::ops::RangeInclusive<usize>) {
        for (family, n, seed, g) in testgen::cases().filter(|c| sizes.contains(&c.1)) {
            let mut rng = Rng::new(seed ^ 0xE7AC);
            let subsets = [
                (0..n as u32).collect::<Vec<_>>(),
                Vec::new(),
                (0..n as u32).filter(|_| rng.bool(0.1)).collect(),
                (0..n as u32).filter(|_| rng.bool(0.5)).collect(),
                (0..n as u32).filter(|_| rng.bool(0.9)).collect(),
            ];
            for (si, nodes) in subsets.iter().enumerate() {
                let dense = reference::extract(&g, nodes);
                // The rank lookup recursive bisection hands `extract_with`.
                let mut rank = vec![None; n];
                for (li, &v) in nodes.iter().enumerate() {
                    rank[v as usize] = Some(li as u32);
                }
                let by_rank = LocalGraph::extract_with(&g, nodes, |u| rank[u as usize]);
                for (lookup, local) in [
                    ("search", LocalGraph::extract(&g, nodes)),
                    ("rank", by_rank),
                ] {
                    let case = format!("{family:?} n={n} seed={seed} subset={si} {lookup}");
                    assert_eq!(local.nodes, dense.nodes, "nodes differ: {case}");
                    assert_eq!(local.node_w, dense.node_w, "weights differ: {case}");
                    assert_eq!(local.offsets.len(), dense.adj.len() + 1, "{case}");
                    for (v, row) in dense.adj.iter().enumerate() {
                        assert_eq!(local.adj(v as u32), &row[..], "row {v} differs: {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn extract_matches_reference_on_every_family() {
        check_sizes(0..=300);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn extract_matches_reference_on_every_family_at_2000_nodes() {
        check_sizes(301..=usize::MAX);
    }
}
