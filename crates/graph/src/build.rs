//! Building the level-0 overlap graph `G0` from verified overlaps.

use crate::csr::{vec_bytes, Csr};
use crate::digraph::{DiEdge, DiGraph};
use crate::level::{LevelGraph, NodeId, RowSums};
use fc_align::{Overlap, OverlapKind};
use fc_exec::Pool;
use fc_obs::Recorder;
use fc_seq::ReadStore;

/// The level-0 overlap graph in both views the assembler needs.
///
/// Node ids coincide with store read ids (each strand is its own node,
/// paper §II-A/C). The undirected view carries alignment lengths as edge
/// weights and is what coarsening/partitioning consume; the directed view
/// drives simplification and traversal. Containment relations are kept
/// separately: the simplification stage (§V-B) removes contained reads.
#[derive(Debug, Clone)]
pub struct OverlapGraph {
    /// Undirected weighted view (edge weight = alignment length).
    pub undirected: LevelGraph,
    /// Directed dovetail view.
    pub directed: DiGraph,
    /// `(outer, inner)` containment pairs discovered during alignment.
    pub containments: Vec<(NodeId, NodeId)>,
}

impl OverlapGraph {
    /// Builds `G0` over all reads of `store` from `overlaps` in the calling
    /// thread: the two halves below back to back, on one worker. A caller
    /// owning the list frees it in between.
    pub fn build(store: &ReadStore, overlaps: &[Overlap]) -> OverlapGraph {
        let (pool, rec) = (Pool::serial(), Recorder::disabled());
        let (directed, containments) = OverlapGraph::directed_view(store, overlaps, &pool, &rec);
        OverlapGraph::from_directed(directed, containments, &pool, &rec)
    }

    /// What `G0` reads from the overlap list: the directed view, by counting
    /// and scatter with no edge list in between, its out view and its in
    /// view two tasks on `pool`; then the containments.
    pub fn directed_view(
        store: &ReadStore,
        overlaps: &[Overlap],
        pool: &Pool,
        rec: &Recorder,
    ) -> (DiGraph, Vec<(NodeId, NodeId)>) {
        let dovetails = overlaps
            .iter()
            .filter(|o| o.kind == OverlapKind::SuffixPrefix)
            .map(|o| {
                let edge = DiEdge {
                    to: o.b.0,
                    len: o.len,
                    shift: o.shift,
                };
                (o.a.0, edge)
            });
        let directed = DiGraph::scatter(store.len(), dovetails, pool, rec);
        let containments = overlaps
            .iter()
            .filter_map(|o| match o.kind {
                OverlapKind::SuffixPrefix => None,
                OverlapKind::ContainsB => Some((o.a.0, o.b.0)),
                OverlapKind::ContainedInB => Some((o.b.0, o.a.0)),
            })
            .collect();
        (directed, containments)
    }

    /// `G0` completed by its undirected view, derived from the directed one
    /// by blocks of rows on `pool`.
    ///
    /// Undirected weights come from the deduplicated directed edges, so a
    /// dovetail discovered twice (once per strand pairing) is not double
    /// counted; an antiparallel pair is listed from its lower end only, so
    /// no edge repeats. A row holds what listing every such link source by
    /// source, each source's out-edges in order, into both endpoints' rows
    /// would put there: the links from lower sources (ascending), then the
    /// node's own, then those from higher sources (ascending).
    pub fn from_directed(
        directed: DiGraph,
        containments: Vec<(NodeId, NodeId)>,
        pool: &Pool,
        rec: &Recorder,
    ) -> OverlapGraph {
        let di = &directed;
        let n = di.node_count();
        let degree = |v: NodeId| di.out_degree(v) + di.in_degree(v);
        let adj = Csr::build_blocked(n, pool, rec, Vec::new, degree, |v, sources, row| {
            undirected_links(di, v, sources, |u, w| row.push((u, w)));
        });
        OverlapGraph {
            undirected: LevelGraph::from_rows(vec![1; n], adj),
            directed,
            containments,
        }
    }

    /// `G'0` straight from the directed view: the undirected view
    /// [`OverlapGraph::from_directed`] would derive, contracted through
    /// `map` onto coarse nodes of weights `node_weight` by blocks of coarse
    /// rows on `pool`, without the undirected view ever being built. Equal
    /// to `undirected.contracted(map, node_weight)`; each incoming link's
    /// length is looked up in its source's out-row.
    pub(crate) fn contracted_from_directed(
        directed: &DiGraph,
        map: &[NodeId],
        node_weight: Vec<u32>,
        pool: &Pool,
        rec: &Recorder,
    ) -> LevelGraph {
        let entries = 2 * directed.edge_count();
        let links = |v: NodeId, sources: &mut Vec<NodeId>, sums: &mut RowSums<'_>| {
            undirected_links(directed, v, sources, |u, w| sums.add(u, w));
        };
        LevelGraph::contract_links(map, node_weight, entries, pool, rec, Vec::new, links)
    }

    /// Bytes every field holds on the heap: both views and the containments.
    pub fn heap_bytes(&self) -> usize {
        self.undirected.heap_bytes() + self.directed.heap_bytes() + vec_bytes(&self.containments)
    }

    /// Node count (= store read count).
    pub fn node_count(&self) -> usize {
        self.undirected.node_count()
    }
}

/// The listed-once rule: calls `link(u, length)` for every undirected link
/// of `v` in `di`, in the order of `v`'s undirected row — the links from
/// lower sources (ascending), then `v`'s own, then those from higher
/// sources (ascending); `sources` is the caller's buffer.
///
/// Whether a link is listed turns on its reverse edge, which `v`'s own
/// views hold: `s → v` is left out when `v < s` and `v → s` exists,
/// `v → t` when `t < v` and `t → v` exists. Only the incoming links'
/// lengths are read from other rows.
fn undirected_links(
    di: &DiGraph,
    v: NodeId,
    sources: &mut Vec<NodeId>,
    mut link: impl FnMut(NodeId, u32),
) {
    let (out, inc) = (di.out_edges(v), di.in_neighbors(v));
    sources.clear();
    sources.extend(
        inc.iter()
            .filter(|&&s| s < v || !out.iter().any(|e| e.to == s)),
    );
    sources.sort_unstable();
    let lower = sources.partition_point(|&s| s < v);
    let length = |s: NodeId| di.edge(s, v).map_or(0, |e| e.len);
    for &s in &sources[..lower] {
        link(s, length(s));
    }
    for e in out.iter().filter(|e| v < e.to || !inc.contains(&e.to)) {
        link(e.to, e.len);
    }
    for &s in &sources[lower..] {
        link(s, length(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_seq::{Read, ReadId};

    fn store(n: usize) -> ReadStore {
        let reads: Vec<Read> = (0..n)
            .map(|i| Read::new(format!("r{i}"), "ACGTACGTACGTACGT".parse().unwrap()))
            .collect();
        ReadStore::from_reads(reads)
    }

    fn dovetail(a: u32, b: u32, len: u32) -> Overlap {
        Overlap {
            a: ReadId(a),
            b: ReadId(b),
            kind: OverlapKind::SuffixPrefix,
            shift: 4,
            len,
            matches: len,
        }
    }

    #[test]
    fn builds_both_views() {
        let store = store(4);
        let overlaps = vec![
            dovetail(0, 1, 50),
            dovetail(1, 2, 60),
            Overlap {
                a: ReadId(3),
                b: ReadId(2),
                kind: OverlapKind::ContainedInB,
                shift: 2,
                len: 40,
                matches: 40,
            },
        ];
        let g = OverlapGraph::build(&store, &overlaps);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.directed.edge_count(), 2);
        assert_eq!(g.undirected.edge_count(), 2);
        assert_eq!(g.undirected.edge_weight(0, 1), Some(50));
        assert_eq!(g.containments, vec![(2, 3)]);
        g.undirected.check_invariants().unwrap();
        g.directed.check_invariants().unwrap();
    }

    /// The halves compose to `build`, and `heap_bytes` counts every field:
    /// both views and 8 B a containment.
    #[test]
    fn halves_compose_and_heap_bytes_counts_every_field() {
        let store = store(5);
        let contained = |a: u32, b: u32| Overlap {
            kind: OverlapKind::ContainsB,
            ..dovetail(a, b, 30)
        };
        let overlaps = vec![
            dovetail(0, 1, 50),
            dovetail(1, 0, 50),
            dovetail(1, 2, 60),
            contained(2, 3),
            contained(2, 4),
        ];
        let g = OverlapGraph::build(&store, &overlaps);
        let (pool, rec) = (Pool::new(3), Recorder::disabled());
        let (directed, containments) = OverlapGraph::directed_view(&store, &overlaps, &pool, &rec);
        let halves = OverlapGraph::from_directed(directed, containments, &pool, &rec);
        assert_eq!(halves.undirected, g.undirected);
        assert_eq!(halves.containments, g.containments);
        let expected =
            g.undirected.heap_bytes() + g.directed.heap_bytes() + 8 * g.containments.capacity();
        assert!(g.containments.capacity() >= 2);
        assert_eq!(g.heap_bytes(), expected);
    }

    #[test]
    fn antiparallel_dovetails_not_double_counted() {
        // Both directions present (0->1 and 1->0, e.g. via RC symmetry):
        // the undirected view must carry one edge with the single length.
        let store = store(2);
        let overlaps = vec![dovetail(0, 1, 50), dovetail(1, 0, 50)];
        let g = OverlapGraph::build(&store, &overlaps);
        assert_eq!(g.directed.edge_count(), 2);
        assert_eq!(g.undirected.edge_count(), 1);
        assert_eq!(g.undirected.edge_weight(0, 1), Some(50));
    }

    #[test]
    fn empty_overlaps_give_edgeless_graph() {
        let g = OverlapGraph::build(&store(3), &[]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.undirected.edge_count(), 0);
        assert_eq!(g.directed.edge_count(), 0);
        assert!(g.containments.is_empty());
    }
}
