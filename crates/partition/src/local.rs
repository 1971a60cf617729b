//! Dense induced subgraphs.
//!
//! Recursive bisection repeatedly works on the subgraph induced by one
//! partition's nodes. Extracting it into dense local ids keeps the greedy
//! growing and KL inner loops cache-friendly and index-based: their queues,
//! lock marks, Fenwick tree and weight row are all plain vectors over
//! `0..len()`. Extraction itself maps global to local ids through a dense
//! vector over the level's nodes. It is not part of the paper's algorithm
//! and charges no `work`.

use fc_graph::{LevelGraph, NodeId};

/// An induced subgraph with dense local node ids.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    /// Local id → global node id.
    pub nodes: Vec<NodeId>,
    /// Local adjacency: `(local neighbor, weight)`; only edges with both
    /// endpoints inside the subset are kept.
    pub adj: Vec<Vec<(u32, u64)>>,
    /// Local node weights.
    pub node_w: Vec<u64>,
}

impl LocalGraph {
    /// Extracts the subgraph of `g` induced by `nodes`.
    pub fn extract(g: &LevelGraph, nodes: &[NodeId]) -> LocalGraph {
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
        LocalGraph {
            nodes: nodes.to_vec(),
            adj,
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

    /// Total node weight.
    pub fn total_node_weight(&self) -> u64 {
        self.node_w.iter().sum()
    }

    /// Weighted degree of local node `v`.
    pub fn weighted_degree(&self, v: u32) -> u64 {
        self.adj[v as usize].iter().map(|&(_, w)| w).sum()
    }

    /// The cut weight of a two-sided assignment (`side[v]` ∈ {false, true}).
    pub fn cut(&self, side: &[bool]) -> u64 {
        let mut cut = 0;
        for (v, nbrs) in self.adj.iter().enumerate() {
            for &(u, w) in nbrs {
                if (u as usize) > v && side[v] != side[u as usize] {
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
}
