//! Undirected weighted level graphs and graph sets.
//!
//! Every level of the multilevel set `{G0 … Gn}` and of the hybrid set
//! `{G'0 … G'n}` is a [`LevelGraph`]: an undirected graph whose node weights
//! count represented reads and whose edge weights are accumulated alignment
//! lengths (paper §II-C). A [`GraphSet`] bundles the levels with the
//! fine→coarse node maps used by partition projection (§IV-C).

use crate::csr::{distinct, vec_bytes, Csr};
use crate::error::GraphError;
use fc_exec::Pool;
use fc_obs::Recorder;
use std::sync::Arc;

/// Index of a node within one level graph.
pub type NodeId = u32;

/// An undirected weighted graph stored as symmetric adjacency rows in one
/// flat array (the `csr` module). Immutable once built, and a clone shares the
/// arrays: the multilevel set's level 0 *is* `OverlapGraph::undirected`.
///
/// Weights are `u32` (alignment lengths, read counts), as METIS fixes a 32-bit
/// `idx_t` for this scheme: 8 bytes an adjacency entry, 8 a node. Folding
/// parallel edges saturates at `u32::MAX` (G0 on `meta-clean` carries 11.6 M
/// bp, 370× under it); every sum over a graph is taken in `u64`/`i64`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelGraph(Arc<Level>);

#[derive(Debug, Default, PartialEq, Eq)]
struct Level {
    /// Row `v` holds `(neighbor, edge weight)` pairs; every edge appears in
    /// both endpoint rows with the same weight.
    adj: Csr<(NodeId, u32)>,
    /// Node weights (number of reads represented).
    node_weight: Vec<u32>,
}

impl LevelGraph {
    /// Builds a graph over `node_weight.len()` nodes from undirected
    /// `(u, v, weight)` edges. A repeated edge accumulates weight into the
    /// entry its first occurrence made, so every row is in first-insertion
    /// order, its weight saturating at `u32::MAX`. Self-loops are ignored
    /// (coarsening folds them into node weight).
    pub fn from_edges(node_weight: Vec<u32>, edges: &[(NodeId, NodeId, u32)]) -> LevelGraph {
        LevelGraph::scatter(node_weight, edges.iter().copied(), |held, new| {
            let same = held.0 == new.0;
            if same {
                held.1 = held.1.saturating_add(new.1);
            }
            same
        })
    }

    /// The builder under [`LevelGraph::from_edges`], for edge lists this
    /// crate derives and need not store: `edges` is walked twice, to count
    /// and to place. Where a list cannot repeat an edge, `merge` is
    /// [`distinct`].
    pub(crate) fn scatter(
        node_weight: Vec<u32>,
        edges: impl Iterator<Item = (NodeId, NodeId, u32)> + Clone,
        merge: impl FnMut(&mut (NodeId, u32), &(NodeId, u32)) -> bool,
    ) -> LevelGraph {
        // Each endpoint's row is filled independently: the rows stay
        // symmetric by construction.
        let items = edges
            .filter(|&(u, v, _)| u != v)
            .flat_map(|(u, v, w)| [(u, (v, w)), (v, (u, w))]);
        let adj = Csr::build(node_weight.len(), items, merge);
        LevelGraph(Arc::new(Level { adj, node_weight }))
    }

    /// A graph of rows already built, each edge in both endpoints' rows.
    pub(crate) fn from_rows(node_weight: Vec<u32>, adj: Csr<(NodeId, u32)>) -> LevelGraph {
        LevelGraph(Arc::new(Level { adj, node_weight }))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.0.node_weight.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.0.adj.entries().len() / 2
    }

    /// Weight of node `v`.
    #[inline]
    pub fn node_weight(&self, v: NodeId) -> u32 {
        self.0.node_weight[v as usize]
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> u64 {
        self.0.node_weight.iter().map(|&w| u64::from(w)).sum()
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> u64 {
        let weights = self.0.adj.entries().iter().map(|&(_, w)| u64::from(w));
        weights.sum::<u64>() / 2
    }

    /// Neighbors of `v` with edge weights, in first-insertion order.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, u32)] {
        self.0.adj.row(v)
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Weight of the edge `(u, v)`, or `None` if absent.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.neighbors(u)
            .iter()
            .find(|(n, _)| *n == v)
            .map(|&(_, w)| w)
    }

    /// Iterates every undirected edge once as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        (0..self.node_count() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&(v, _)| u < v)
                .map(move |&(v, w)| (u, v, w))
        })
    }

    /// Contracts the graph through `map` (node → coarse node) onto coarse
    /// nodes of the given weights: parallel coarse edges accumulate weight
    /// (saturating), edges inside a coarse node fold away, and every coarse
    /// row lists its neighbours ascending. Row by row, with no edge list: a
    /// counting sort buckets the fine nodes by coarse node, each coarse row
    /// sums its members' rows into a stamped accumulator, and only the
    /// neighbours that row touched are sorted. The rows are built on `pool`
    /// by blocks ([`Csr::build_blocked`]), each worker with its own
    /// accumulator.
    pub(crate) fn contracted(
        &self,
        map: &[NodeId],
        node_weight: Vec<u32>,
        pool: &Pool,
        rec: &Recorder,
    ) -> LevelGraph {
        let entries = self.0.adj.entries().len();
        let rows = |v: NodeId, (): &mut (), sums: &mut RowSums<'_>| {
            for &(u, w) in self.neighbors(v) {
                sums.add(u, w);
            }
        };
        LevelGraph::contract_links(map, node_weight, entries, pool, rec, || (), rows)
    }

    /// The contraction under [`LevelGraph::contracted`], of a fine graph
    /// given by its links rather than its rows: `links(v, scratch, sums)`
    /// adds every edge of fine node `v` to `sums`, once from each end, with
    /// the worker's `scratch`. `entries` is about how many that is over
    /// all fine nodes, what sizes a block's array.
    pub(crate) fn contract_links<S>(
        map: &[NodeId],
        node_weight: Vec<u32>,
        entries: usize,
        pool: &Pool,
        rec: &Recorder,
        scratch: impl Fn() -> S + Sync,
        links: impl Fn(NodeId, &mut S, &mut RowSums<'_>) + Sync,
    ) -> LevelGraph {
        let n = node_weight.len();
        let members = map.iter().enumerate().map(|(v, &c)| (c, v as NodeId));
        let members = Csr::build(n, members, distinct);
        let accumulator = || {
            let sums = RowSums {
                map,
                row: 0,
                stamp: vec![NodeId::MAX; n],
                sum: vec![0u32; n],
                touched: Vec::new(),
            };
            (sums, scratch())
        };
        // A coarse row holds at most its members' entries; a block is sized
        // to the fine graph's mean per coarse row, and grows if it must.
        let mean = entries.div_ceil(n.max(1));
        let adj = Csr::build_blocked(
            n,
            pool,
            rec,
            accumulator,
            |_| mean,
            |row, (sums, scratch), out| {
                sums.row = row;
                for &v in members.row(row) {
                    links(v, scratch, sums);
                }
                let RowSums { sum, touched, .. } = sums;
                touched.sort_unstable();
                out.extend(touched.drain(..).map(|c| (c, sum[c as usize])));
            },
        );
        LevelGraph::from_rows(node_weight, adj)
    }

    /// Bytes this graph holds on the heap — 8 per adjacency entry, 8 per
    /// node, 4 for the closing offset — however many clones share them.
    pub fn heap_bytes(&self) -> usize {
        self.0.adj.heap_bytes() + vec_bytes(&self.0.node_weight)
    }

    /// Checks structural invariants (symmetry, no self-loops, weights > 0);
    /// used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), GraphError> {
        let fail = |message: String| Err(GraphError::invariant("LevelGraph", message));
        for u in 0..self.node_count() as NodeId {
            let mut seen = std::collections::HashSet::new();
            for &(v, w) in self.neighbors(u) {
                if v == u {
                    return fail(format!("self-loop at {u}"));
                }
                if !seen.insert(v) {
                    return fail(format!("duplicate edge {u}-{v}"));
                }
                if w == 0 {
                    return fail(format!("zero-weight edge {u}-{v}"));
                }
                match self.edge_weight(v, u) {
                    Some(bw) if bw == w => {}
                    Some(_) => return fail(format!("asymmetric weight on {u}-{v}")),
                    None => return fail(format!("missing back edge {v}-{u}")),
                }
            }
        }
        Ok(())
    }
}

/// One coarse row's running sums in a contraction: the fine edges its
/// members reach, summed by the coarse node at their other end.
pub(crate) struct RowSums<'m> {
    map: &'m [NodeId],
    row: NodeId,
    /// `stamp[c] == row` once the row has reached coarse neighbour `c`,
    /// and `sum[c]` then holds the weight summed so far.
    stamp: Vec<NodeId>,
    sum: Vec<u32>,
    /// The coarse neighbours reached, in first-reach order.
    touched: Vec<NodeId>,
}

impl RowSums<'_> {
    /// Adds a fine edge to fine node `u` of weight `w`; one inside the row's
    /// own coarse node folds away.
    #[inline]
    pub(crate) fn add(&mut self, u: NodeId, w: u32) {
        let c = self.map[u as usize];
        if c == self.row {
            return;
        }
        let at = c as usize;
        if self.stamp[at] == self.row {
            self.sum[at] = self.sum[at].saturating_add(w);
        } else {
            (self.stamp[at], self.sum[at]) = (self.row, w);
            self.touched.push(c);
        }
    }
}

/// The ancestor at `target_level` of `node` of `level`, through the
/// fine→coarse maps of a hierarchy: [`GraphSet::ancestor`] without the
/// level graphs, which hybrid selection does not hold.
pub(crate) fn ancestor(
    fine_to_coarse: &[Vec<NodeId>],
    level: usize,
    node: NodeId,
    target_level: usize,
) -> NodeId {
    let maps = &fine_to_coarse[level..target_level];
    maps.iter().fold(node, |v, map| map[v as usize])
}

/// A hierarchy of level graphs with fine→coarse node maps.
///
/// `levels[0]` is the finest graph; `fine_to_coarse[i][v]` is the node of
/// `levels[i + 1]` that `v` of `levels[i]` merges into. Both the multilevel
/// set (§II-C) and the hybrid set (§II-D) are `GraphSet`s, so the
/// partitioner (fc-partition) treats them uniformly.
#[derive(Debug, Clone, Default)]
pub struct GraphSet {
    /// Graphs from finest (`levels[0]`) to coarsest.
    pub levels: Vec<LevelGraph>,
    /// `fine_to_coarse[i]` maps nodes of `levels[i]` to nodes of
    /// `levels[i + 1]`; length is `levels.len() - 1`.
    pub fine_to_coarse: Vec<Vec<NodeId>>,
}

impl GraphSet {
    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The finest graph.
    pub fn finest(&self) -> &LevelGraph {
        &self.levels[0]
    }

    /// The coarsest graph.
    ///
    /// # Panics
    /// Panics on an empty set; every builder ([`crate::MultilevelSet::build`],
    /// [`crate::HybridSet::build`]) produces at least one level.
    #[expect(
        clippy::expect_used,
        reason = "every GraphSet builder pushes level 0 before returning, so a built set \
                  is never empty; the empty Default is a test-only convenience"
    )]
    pub fn coarsest(&self) -> &LevelGraph {
        self.levels
            .last()
            .expect("graph set has at least one level")
    }

    /// Maps a node of `levels[level]` to its ancestor at `target_level`
    /// (≥ `level`).
    pub fn ancestor(&self, level: usize, node: NodeId, target_level: usize) -> NodeId {
        assert!(target_level >= level && target_level < self.levels.len());
        ancestor(&self.fine_to_coarse, level, node, target_level)
    }

    /// Whether `levels[level + 1]` is a copy of `levels[level]`: the map
    /// between them is the identity and the two graphs are equal. The
    /// hybrid set repeats a level wherever every best representative sits
    /// at or above it (fc-partition refines such a run once).
    pub fn is_copy(&self, level: usize) -> bool {
        let identity = self.fine_to_coarse[level]
            .iter()
            .enumerate()
            .all(|(v, &c)| c as usize == v);
        identity && self.levels[level] == self.levels[level + 1]
    }

    /// Bytes the levels and maps hold on the heap. Levels sharing their
    /// arrays with a graph held elsewhere are counted here all the same.
    pub fn heap_bytes(&self) -> usize {
        let levels: usize = self.levels.iter().map(LevelGraph::heap_bytes).sum();
        let maps: usize = self.fine_to_coarse.iter().map(vec_bytes).sum();
        levels + maps
    }

    /// Checks cross-level invariants: map lengths, weight conservation, and
    /// that edge weight + folded self-loop weight is conserved level to
    /// level (merging can only fold weight inwards, never lose it to
    /// nothing).
    pub fn check_invariants(&self) -> Result<(), GraphError> {
        let fail = |message: String| Err(GraphError::invariant("GraphSet", message));
        if self.fine_to_coarse.len() + 1 != self.levels.len() {
            return fail("map count must be level count - 1".to_string());
        }
        for (i, map) in self.fine_to_coarse.iter().enumerate() {
            let fine = &self.levels[i];
            let coarse = &self.levels[i + 1];
            if map.len() != fine.node_count() {
                return fail(format!("map {i} length mismatch"));
            }
            if map.iter().any(|&c| c as usize >= coarse.node_count()) {
                return fail(format!("map {i} points past coarse graph"));
            }
            // Node weight conservation per coarse node.
            let mut acc = vec![0u64; coarse.node_count()];
            for (v, &c) in map.iter().enumerate() {
                acc[c as usize] += u64::from(fine.node_weight(v as NodeId));
            }
            for (c, &w) in acc.iter().enumerate() {
                if w != u64::from(coarse.node_weight(c as NodeId)) {
                    return fail(format!(
                        "level {}: node {c} weight {} != accumulated {w}",
                        i + 1,
                        coarse.node_weight(c as NodeId)
                    ));
                }
            }
            fine.check_invariants()?;
            coarse.check_invariants()?;
            if coarse.total_edge_weight() > fine.total_edge_weight() {
                return fail(format!("level {} gained edge weight", i + 1));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> LevelGraph {
        LevelGraph::from_edges(vec![1; 3], &[(0, 1, 5), (1, 2, 7), (2, 0, 11)])
    }

    #[test]
    fn edge_accounting() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.total_edge_weight(), 23);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), Some(5));
        assert_eq!(g.edge_weight(0, 0), None);
        g.check_invariants().unwrap();
    }

    #[test]
    fn parallel_edges_accumulate() {
        let g = LevelGraph::from_edges(vec![1; 2], &[(0, 1, 3), (1, 0, 4)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(7));
        g.check_invariants().unwrap();
    }

    #[test]
    fn parallel_edges_saturate_instead_of_wrapping() {
        let heavy = 3_000_000_000;
        let g = LevelGraph::from_edges(vec![1; 2], &[(0, 1, heavy), (1, 0, heavy)]);
        assert_eq!(g.edge_weight(0, 1), Some(u32::MAX));
        assert_eq!(g.edge_weight(1, 0), Some(u32::MAX));
        assert_eq!(g.total_edge_weight(), u64::from(u32::MAX));
        g.check_invariants().unwrap();
    }

    #[test]
    fn totals_are_summed_wide() {
        let w = u32::MAX;
        let g = LevelGraph::from_edges(vec![w; 3], &[(0, 1, w), (1, 2, w)]);
        assert_eq!(g.total_node_weight(), 3 * u64::from(w));
        assert_eq!(g.total_edge_weight(), 2 * u64::from(w));
    }

    /// 8 bytes an adjacency entry (4 + 4, no padding), 8 a node (offset +
    /// weight), 4 for the closing offset.
    #[test]
    fn entry_and_node_sizes() {
        assert_eq!(std::mem::size_of::<(NodeId, u32)>(), 8);
        let g = triangle();
        let (n, entries) = (g.node_count(), 2 * g.edge_count());
        assert_eq!(g.heap_bytes(), 8 * entries + 8 * n + 4);
    }

    #[test]
    fn self_loops_ignored() {
        let g = LevelGraph::from_edges(vec![1; 2], &[(0, 0, 9)]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn edges_iterator_lists_each_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    fn graph_set_ancestor_walks_maps() {
        let g0 = LevelGraph::from_edges(vec![1; 4], &[]);
        let g1 = LevelGraph::from_edges(vec![2, 2], &[]);
        let g2 = LevelGraph::from_edges(vec![4], &[]);
        let set = GraphSet {
            levels: vec![g0, g1, g2],
            fine_to_coarse: vec![vec![0, 0, 1, 1], vec![0, 0]],
        };
        assert_eq!(set.ancestor(0, 3, 2), 0);
        assert_eq!(set.ancestor(0, 3, 1), 1);
        assert_eq!(set.ancestor(1, 1, 1), 1);
        set.check_invariants().unwrap();
    }

    /// A two-level set whose level 1 is `coarse` under `map`.
    fn two_levels(coarse: LevelGraph, map: Vec<NodeId>) -> GraphSet {
        GraphSet {
            levels: vec![triangle(), coarse],
            fine_to_coarse: vec![map],
        }
    }

    #[test]
    fn a_copy_is_an_identity_map_onto_an_equal_graph() {
        // Equal contents, separate arrays.
        assert!(two_levels(triangle(), vec![0, 1, 2]).is_copy(0));
        // Shared arrays.
        let g = triangle();
        let shared = GraphSet {
            levels: vec![g.clone(), g],
            fine_to_coarse: vec![vec![0, 1, 2]],
        };
        assert!(shared.is_copy(0));
        let edge_weight = LevelGraph::from_edges(vec![1; 3], &[(0, 1, 5), (1, 2, 7), (2, 0, 12)]);
        assert!(!two_levels(edge_weight, vec![0, 1, 2]).is_copy(0));
        let node_weight =
            LevelGraph::from_edges(vec![1, 2, 1], &[(0, 1, 5), (1, 2, 7), (2, 0, 11)]);
        assert!(!two_levels(node_weight, vec![0, 1, 2]).is_copy(0));
        // A permuting map onto the same graph is no copy: node ids move.
        assert!(!two_levels(triangle(), vec![1, 2, 0]).is_copy(0));
    }

    #[test]
    fn graph_set_invariants_catch_weight_mismatch() {
        let g0 = LevelGraph::from_edges(vec![1; 2], &[]);
        let g1 = LevelGraph::from_edges(vec![3], &[]); // should be 2
        let set = GraphSet {
            levels: vec![g0, g1],
            fine_to_coarse: vec![vec![0, 0]],
        };
        assert!(set.check_invariants().is_err());
    }
}
