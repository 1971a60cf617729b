//! Best-representative selection and the hybrid graph set (paper §II-D, §III).
//!
//! A *best representative* is a node taken from the most reduced graph
//! possible whose read cluster assembles into one contiguous contig
//! ([`crate::layout`]). Selection descends the multilevel hierarchy from the
//! coarsest level: a node whose cluster passes the contiguity test becomes a
//! representative; otherwise its children are examined. Level-0 nodes always
//! pass, so the representatives partition the read set exactly.
//!
//! The hybrid graph `G'0` has one node per representative; the hybrid graph
//! *set* `{G'0 … G'n}` re-uses the multilevel ancestry: at hybrid level `i`,
//! representatives that share a level-`i` ancestor in the multilevel set
//! merge. Partitioning this set only needs to un-coarsen down to `G'0`
//! instead of `G0` — that is the paper's "biological knowledge" saving.
//!
//! Selection reads the multilevel set's ancestry alone (each level's node
//! count and the fine→coarse maps), `G0`'s directed view with its
//! containments, and the store. `G'0` is `G0`'s undirected view contracted
//! through `rep_of_node`, but contracted straight from the directed view by
//! the same listed-once rule that derives the undirected view
//! (`OverlapGraph::contracted_from_directed`), so no level graph and no
//! undirected `G0` need be alive while it runs.

use crate::build::OverlapGraph;
use crate::coarsen::MultilevelSet;
use crate::csr::{blocks, distinct, vec_bytes, Csr};
use crate::digraph::{DiEdge, DiGraph};
use crate::layout::{layout_cluster, ClusterLayout, LayoutConfig, LayoutScratch};
use crate::level::{ancestor, GraphSet, NodeId};
use fc_exec::Pool;
use fc_obs::Recorder;
use fc_seq::{DnaString, ReadStore};
use std::collections::HashMap;

/// A selected best-representative node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Representative {
    /// Multilevel level the node was taken from (0 = finest).
    pub level: usize,
    /// Node id within that level.
    pub node: NodeId,
}

/// The hybrid graph set and everything needed to use it downstream.
#[derive(Debug, Clone)]
pub struct HybridSet {
    /// The representatives, in hybrid-node-id order (`G'0` node `i` is
    /// `reps[i]`).
    pub reps: Vec<Representative>,
    /// The verified layout of each representative's cluster: its level-0
    /// (read) nodes with their offsets. A cluster's size is its layout's
    /// length, which is also its `G'0` node weight.
    pub layouts: Vec<ClusterLayout>,
    /// Maps each level-0 node to its representative (hybrid node id).
    pub rep_of_node: Vec<u32>,
    /// The hybrid graph set `{G'0 … G'n}` (finest first).
    pub set: GraphSet,
    /// Directed hybrid graph over `G'0` for simplification and traversal,
    /// with contig-level shifts.
    pub directed: DiGraph,
    /// Length of each representative's contig in bases.
    pub contig_lens: Vec<u32>,
}

impl HybridSet {
    /// Builds the hybrid set from a multilevel set over `g0`. The
    /// contiguity test has no parameters: `_layout` is field-less and stays
    /// only while `benchmark/` passes it.
    pub fn build(
        ml: &MultilevelSet,
        g0: &OverlapGraph,
        store: &ReadStore,
        _layout: &LayoutConfig,
    ) -> HybridSet {
        HybridSet::build_obs(ml, g0, store, &LayoutConfig, &Recorder::disabled())
    }

    /// [`HybridSet::build_on`] on one worker.
    pub fn build_obs(
        ml: &MultilevelSet,
        g0: &OverlapGraph,
        store: &ReadStore,
        _layout: &LayoutConfig,
        rec: &Recorder,
    ) -> HybridSet {
        let node_counts: Vec<usize> = ml.set.levels.iter().map(|g| g.node_count()).collect();
        let maps = &ml.set.fine_to_coarse;
        let (directed, containments) = (&g0.directed, &g0.containments);
        let pool = Pool::serial();
        HybridSet::build_on(
            &node_counts,
            maps,
            directed,
            containments,
            store,
            &pool,
            rec,
        )
    }

    /// [`HybridSet::build`] on `pool`, with selection metrics recorded into
    /// `rec`: contiguity-test outcomes (via `layout.*`), the representative
    /// count and level distribution, and hybrid graph sizes.
    ///
    /// It reads only what selection uses of the multilevel set — each
    /// level's node count and the fine→coarse maps, no level graph — and of
    /// `G0` only its directed view `g0` and its containments: `G'0` is
    /// contracted straight from the directed view. A caller can free every
    /// level graph, and `G0`'s undirected view, before this runs.
    ///
    /// Selection descends from each coarsest node in turn, and the clusters
    /// one root yields are its own reads, so the roots are cut into
    /// `ROW_BLOCKS` (8) blocks of about equal read count, each a task with
    /// layout buffers over its own reads; the blocks' representatives are
    /// concatenated in root order. The hybrid levels' contractions run by
    /// blocks of rows too. Selection is fully deterministic, so the set and
    /// every metric are thread-count-invariant.
    pub fn build_on(
        node_counts: &[usize],
        fine_to_coarse: &[Vec<NodeId>],
        g0: &DiGraph,
        containments: &[(NodeId, NodeId)],
        store: &ReadStore,
        pool: &Pool,
        rec: &Recorder,
    ) -> HybridSet {
        let n_levels = node_counts.len();
        let _span = rec.span_args("graph", "hybrid.build", &[("levels", n_levels as i64)]);
        let children = children_lists(node_counts, fine_to_coarse);
        let mut containments = containments.to_vec();
        containments.sort_unstable();

        // --- Representative selection: descend from the coarsest level. ---
        // Reads are ranked root by root, so a block of roots owns a range
        // of ranks; `first[r]` is root r's first rank.
        let top = n_levels - 1;
        let roots = node_counts[top] as NodeId;
        let mut rank = vec![0u32; node_counts[0]];
        let mut first = Vec::with_capacity(roots as usize + 1);
        let mut stack = Vec::new();
        first.push(0usize);
        for root in 0..roots {
            let mut next = first[first.len() - 1];
            stack.push((top, root));
            while let Some((level, v)) = stack.pop() {
                if level == 0 {
                    rank[v as usize] = next as u32;
                    next += 1;
                } else {
                    stack.extend(children[level].row(v).iter().map(|&c| (level - 1, c)));
                }
            }
            first.push(next);
        }
        let tasks: Vec<_> = blocks(&first).collect();
        let selected = pool.map_items(
            tasks,
            rec,
            || (),
            |_, block, ()| {
                let ranks = first[block.start] as u32..first[block.end] as u32;
                let mut scratch = LayoutScratch::new(&rank, ranks);
                let mut stack: Vec<(usize, NodeId)> =
                    block.rev().map(|root| (top, root as NodeId)).collect();
                let (mut cluster, mut descent) = (Vec::new(), Vec::new());
                let mut found = (Vec::new(), Vec::new());
                while let Some((level, node)) = stack.pop() {
                    expand_to_level0(&children, level, node, &mut descent, &mut cluster);
                    match layout_cluster(&cluster, g0, &containments, store, &mut scratch, rec) {
                        Some(layout) => {
                            found.0.push(Representative { level, node });
                            found.1.push(layout);
                        }
                        None => {
                            debug_assert!(level > 0, "level-0 nodes are always contiguous");
                            for &child in children[level].row(node).iter().rev() {
                                stack.push((level - 1, child));
                            }
                        }
                    }
                }
                found
            },
        );
        let (mut reps, mut layouts) = (Vec::new(), Vec::new());
        for (r, l) in selected {
            reps.extend(r);
            layouts.extend(l);
        }

        // --- rep_of_node over G0, in the rank array. ---
        let mut rep_of_node = rank;
        rep_of_node.fill(u32::MAX);
        for (ri, layout) in layouts.iter().enumerate() {
            for &(v, _) in &layout.order {
                debug_assert_eq!(
                    rep_of_node[v as usize],
                    u32::MAX,
                    "clusters must be disjoint"
                );
                rep_of_node[v as usize] = ri as u32;
            }
        }
        debug_assert!(
            rep_of_node.iter().all(|&r| r != u32::MAX),
            "clusters must cover G0"
        );

        // --- Hybrid G'0: G0's undirected view contracted, straight from
        // the directed view. ---
        let g0h = OverlapGraph::contracted_from_directed(
            g0,
            &rep_of_node,
            layouts.iter().map(|l| l.len() as u32).collect(),
            pool,
            rec,
        );

        // --- Contig lengths and the directed hybrid graph. ---
        let contig_lens: Vec<u32> = layouts.iter().map(|l| l.span(store) as u32).collect();
        // Offset of each read within its rep's contig: every read is in one
        // layout.
        let mut read_offset = vec![0i64; rep_of_node.len()];
        for layout in &layouts {
            let base = layout.order.first().map_or(0, |&(_, o)| o);
            for &(v, o) in &layout.order {
                read_offset[v as usize] = o - base;
            }
        }
        let mut contig_edges: Vec<(NodeId, DiEdge)> = Vec::new();
        for u in g0.live_nodes() {
            for e in g0.out_edges(u) {
                let (ru, rv) = (rep_of_node[u as usize], rep_of_node[e.to as usize]);
                if ru == rv {
                    continue;
                }
                // Contig-level shift: where contig(rv) starts relative to
                // contig(ru).
                let shift = read_offset[u as usize] + e.shift as i64 - read_offset[e.to as usize];
                let a_len = contig_lens[ru as usize] as i64;
                if shift <= 0 || shift >= a_len {
                    continue; // not a proper contig dovetail
                }
                let overlap = (a_len - shift).min(contig_lens[rv as usize] as i64) as u32;
                let edge = DiEdge {
                    to: rv,
                    len: overlap,
                    shift: shift as u32,
                };
                contig_edges.push((ru, edge));
            }
        }
        let directed = DiGraph::from_edges(reps.len(), &contig_edges);

        // --- Hybrid levels G'1 … G'n via multilevel ancestry. ---
        let mut levels = vec![g0h];
        let mut maps: Vec<Vec<NodeId>> = Vec::new();
        // Group key of rep r at hybrid level i.
        let key_at = |r: &Representative, i: usize| -> (usize, NodeId) {
            if i <= r.level {
                (r.level, r.node)
            } else {
                (i, ancestor(fine_to_coarse, r.level, r.node, i))
            }
        };
        let mut prev_assign: Vec<NodeId> = (0..reps.len() as NodeId).collect();
        for i in 1..n_levels {
            let mut group_ids: HashMap<(usize, NodeId), NodeId> = HashMap::new();
            let mut assign = vec![0 as NodeId; reps.len()];
            let mut weights: Vec<u32> = Vec::new();
            for (ri, r) in reps.iter().enumerate() {
                let key = key_at(r, i);
                let next_id = group_ids.len() as NodeId;
                let id = *group_ids.entry(key).or_insert(next_id);
                if id as usize == weights.len() {
                    weights.push(0);
                }
                weights[id as usize] += layouts[ri].len() as u32;
                assign[ri] = id;
            }
            // fine→coarse between hybrid level i-1 and i.
            let prev_count = levels[i - 1].node_count();
            let mut map = vec![NodeId::MAX; prev_count];
            for ri in 0..reps.len() {
                map[prev_assign[ri] as usize] = assign[ri];
            }
            debug_assert!(map.iter().all(|&m| m != NodeId::MAX));
            // Every representative its own group: level i repeats level
            // i - 1, as every level below it repeats G'0, and shares its
            // arrays. Otherwise contract G'0 edges through `assign`.
            let coarse = if assign.iter().enumerate().all(|(r, &a)| a as usize == r) {
                levels[i - 1].clone()
            } else {
                levels[0].contracted(&assign, weights, pool, rec)
            };
            levels.push(coarse);
            maps.push(map);
            prev_assign = assign;
        }

        if rec.is_enabled() {
            rec.add("hybrid.reps", reps.len() as u64);
            for r in &reps {
                rec.observe("hybrid.rep_level", r.level as u64);
            }
            rec.gauge("hybrid.g0_nodes", levels[0].node_count() as i64);
            rec.gauge("hybrid.g0_edges", levels[0].edge_count() as i64);
            rec.gauge("hybrid.directed_edges", directed.edge_count() as i64);
        }
        HybridSet {
            reps,
            layouts,
            rep_of_node,
            set: GraphSet {
                levels,
                fine_to_coarse: maps,
            },
            directed,
            contig_lens,
        }
    }

    /// Number of hybrid nodes (representatives).
    pub fn node_count(&self) -> usize {
        self.reps.len()
    }

    /// Bytes every field holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        let layouts: usize = self.layouts.iter().map(|l| vec_bytes(&l.order)).sum();
        let per_rep = vec_bytes(&self.reps) + vec_bytes(&self.layouts);
        let per_read = layouts + vec_bytes(&self.rep_of_node);
        let graphs = self.set.heap_bytes() + self.directed.heap_bytes();
        graphs + per_rep + per_read + vec_bytes(&self.contig_lens)
    }

    /// Every hybrid node's contig sequence, in node-id order: the
    /// per-column majority consensus of its cluster's layout. The nodes are
    /// cut into `ROW_BLOCKS` (8) blocks of about equal contig length, one
    /// task on `pool` each, counting through its worker's one buffer.
    pub fn contigs(&self, store: &ReadStore, pool: &Pool, rec: &Recorder) -> Vec<DnaString> {
        let mut first = Vec::with_capacity(self.contig_lens.len() + 1);
        first.push(0usize);
        for &len in &self.contig_lens {
            first.push(first[first.len() - 1] + len as usize);
        }
        let tasks: Vec<_> = blocks(&first).collect();
        let per_block = pool.map_items(tasks, rec, Vec::new, |_, nodes, counts| {
            let span = |v: usize| self.contig_lens[v] as usize;
            let layouts = self.layouts[nodes.clone()].iter().zip(nodes.map(span));
            layouts
                .map(|(layout, span)| layout.consensus_with(store, span, counts))
                .collect::<Vec<_>>()
        });
        let mut contigs = Vec::with_capacity(self.layouts.len());
        for block in per_block {
            contigs.extend(block);
        }
        contigs
    }

    /// Projects a partition assignment on `G'0` down to level-0 nodes
    /// (reads): every read inherits its representative's partition.
    pub fn project_partition_to_reads(&self, hybrid_parts: &[u32]) -> Vec<u32> {
        self.rep_of_node
            .iter()
            .map(|&r| hybrid_parts[r as usize])
            .collect()
    }
}

/// `children[level].row(node)` = nodes of `level - 1` merging into `node`,
/// ascending. `children[0]` is empty.
fn children_lists(node_counts: &[usize], fine_to_coarse: &[Vec<NodeId>]) -> Vec<Csr<NodeId>> {
    let mut out = vec![Csr::default()];
    for (i, map) in fine_to_coarse.iter().enumerate() {
        let coarse_n = node_counts[i + 1];
        let members = map.iter().enumerate().map(|(fine, &c)| (c, fine as NodeId));
        out.push(Csr::build(coarse_n, members, distinct));
    }
    out
}

/// All level-0 descendants of `node` at `level`, ascending, into `out`
/// (cleared first); `stack` is the descent's buffer.
fn expand_to_level0(
    children: &[Csr<NodeId>],
    level: usize,
    node: NodeId,
    stack: &mut Vec<(usize, NodeId)>,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    stack.clear();
    stack.push((level, node));
    while let Some((l, v)) = stack.pop() {
        if l == 0 {
            out.push(v);
        } else {
            stack.extend(children[l].row(v).iter().map(|&c| (l - 1, c)));
        }
    }
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::CoarsenConfig;
    use fc_align::{Overlap, OverlapKind};
    use fc_seq::{DnaString, Read, ReadId};

    /// A linear genome tiling: reads every `stride` bases, overlaps between
    /// consecutive reads. Returns (store, overlap graph).
    fn linear_case(n_reads: usize) -> (ReadStore, OverlapGraph) {
        linear_case_with(n_reads, &[])
    }

    /// [`linear_case`] with `extra` overlaps appended to the tiling's.
    fn linear_case_with(n_reads: usize, extra: &[Overlap]) -> (ReadStore, OverlapGraph) {
        let read_len = 100usize;
        let stride = 50usize;
        let genome: DnaString = (0..(n_reads * stride + read_len))
            .map(|i| fc_seq::Base::from_code(((i * 2654435761usize) >> 7) as u8 & 3))
            .collect();
        let reads: Vec<Read> = (0..n_reads)
            .map(|i| {
                Read::new(
                    format!("r{i}"),
                    genome.slice(i * stride, i * stride + read_len),
                )
            })
            .collect();
        let store = ReadStore::from_reads(reads);
        let overlaps: Vec<Overlap> = (0..n_reads - 1)
            .map(|i| Overlap {
                a: ReadId(i as u32),
                b: ReadId(i as u32 + 1),
                kind: OverlapKind::SuffixPrefix,
                shift: stride as u32,
                len: (read_len - stride) as u32,
                matches: (read_len - stride) as u32,
            })
            .chain(extra.iter().copied())
            .collect();
        let g = OverlapGraph::build(&store, &overlaps);
        (store, g)
    }

    fn build_hybrid(n_reads: usize) -> (ReadStore, OverlapGraph, MultilevelSet, HybridSet) {
        let (store, g) = linear_case(n_reads);
        let ml = MultilevelSet::build(
            g.undirected.clone(),
            &CoarsenConfig {
                min_nodes: 4,
                ..Default::default()
            },
        );
        let hs = HybridSet::build(&ml, &g, &store, &LayoutConfig);
        (store, g, ml, hs)
    }

    #[test]
    fn linear_graph_collapses_to_few_representatives() {
        let (_, _, ml, hs) = build_hybrid(64);
        assert!(ml.level_count() > 2);
        // A perfectly linear tiling is contiguous at every level, so the
        // representatives should come from the coarsest level.
        assert!(
            hs.node_count() <= ml.set.coarsest().node_count() + 2,
            "expected near-coarsest hybrid size, got {} vs coarsest {}",
            hs.node_count(),
            ml.set.coarsest().node_count()
        );
    }

    /// Up to the lowest representative's level every representative is its
    /// own group: those hybrid levels repeat G'0 under identity maps, equal
    /// to contracting G'0 again.
    #[test]
    fn levels_up_to_the_lowest_representative_repeat_g0() {
        let (_, _, _, hs) = build_hybrid(64);
        let lowest = hs.reps.iter().map(|r| r.level).min().unwrap();
        assert!(lowest > 0, "the tiling should collapse above G0");
        let g0h = hs.set.finest();
        let nodes = 0..hs.node_count() as NodeId;
        let identity: Vec<NodeId> = nodes.clone().collect();
        let weights = nodes.map(|v| g0h.node_weight(v)).collect();
        let fresh = g0h.contracted(&identity, weights, &Pool::serial(), &Recorder::disabled());
        for level in 0..lowest {
            assert!(hs.set.is_copy(level), "level {}", level + 1);
            assert_eq!(hs.set.levels[level + 1], fresh);
        }
        if lowest + 1 < hs.set.level_count() {
            assert!(!hs.set.is_copy(lowest), "level {}", lowest + 1);
        }
    }

    #[test]
    fn clusters_partition_the_read_set() {
        let (store, _, _, hs) = build_hybrid(40);
        let mut seen = vec![false; store.len()];
        for layout in &hs.layouts {
            for &(v, _) in &layout.order {
                assert!(!seen[v as usize], "node {v} in two clusters");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some node in no cluster");
        assert_eq!(hs.rep_of_node.len(), store.len());
    }

    #[test]
    fn hybrid_set_invariants_hold() {
        let (_, _, ml, hs) = build_hybrid(48);
        hs.set.check_invariants().unwrap();
        assert_eq!(hs.set.level_count(), ml.level_count());
        // Hybrid levels never have more nodes than multilevel levels.
        for (h, m) in hs.set.levels.iter().zip(&ml.set.levels) {
            assert!(h.node_count() <= m.node_count());
        }
    }

    #[test]
    fn contigs_reconstruct_genome_pieces() {
        let (store, _, _, hs) = build_hybrid(32);
        // Total contig length must be >= genome span covered (contigs from a
        // perfect tiling reproduce consecutive slices).
        let total: u64 = hs.contig_lens.iter().map(|&l| l as u64).sum();
        assert!(total as usize >= 32 * 50 + 50, "contigs too short: {total}");
        let contigs = hs.contigs(&store, &Pool::new(3), &Recorder::disabled());
        for (contig, &len) in contigs.iter().zip(&hs.contig_lens) {
            assert_eq!(contig.len(), len as usize);
        }
    }

    #[test]
    fn directed_hybrid_edges_chain_contigs() {
        let (_, _, _, hs) = build_hybrid(32);
        if hs.node_count() > 1 {
            assert!(hs.directed.edge_count() > 0, "hybrid contigs should chain");
            for v in hs.directed.live_nodes() {
                for e in hs.directed.out_edges(v) {
                    assert!(e.shift > 0);
                    assert!((e.shift as i64) < hs.contig_lens[v as usize] as i64);
                    assert!(e.len > 0);
                }
            }
        }
    }

    /// Every field's capacity, at its element size: 16 a representative
    /// (`usize` + `u32`, padded), 24 a `Vec` header, 16 a layout entry
    /// (`u32` + `i64`, padded), 4 a `rep_of_node` entry and 4 a contig
    /// length.
    #[test]
    fn heap_bytes_counts_every_field() {
        let (_, _, _, hs) = build_hybrid(48);
        let entries: usize = hs.layouts.iter().map(|l| 16 * l.order.capacity()).sum();
        let expected = hs.set.heap_bytes()
            + hs.directed.heap_bytes()
            + 16 * hs.reps.capacity()
            + 24 * hs.layouts.capacity()
            + entries
            + 4 * hs.rep_of_node.capacity()
            + 4 * hs.contig_lens.capacity();
        assert!(entries > 0);
        assert_eq!(hs.heap_bytes(), expected);
    }

    #[test]
    fn partition_projection_reaches_every_read() {
        let (_, _, _, hs) = build_hybrid(24);
        let parts: Vec<u32> = (0..hs.node_count() as u32).map(|i| i % 4).collect();
        let read_parts = hs.project_partition_to_reads(&parts);
        for (v, &p) in read_parts.iter().enumerate() {
            assert_eq!(p, parts[hs.rep_of_node[v] as usize]);
        }
    }

    #[test]
    fn obs_layout_counters_are_consistent() {
        let (store, g) = linear_case(48);
        let ml = MultilevelSet::build(
            g.undirected.clone(),
            &CoarsenConfig {
                min_nodes: 4,
                ..Default::default()
            },
        );
        let rec = fc_obs::Recorder::new(fc_obs::ObsOptions::logical());
        let hs = HybridSet::build_obs(&ml, &g, &store, &LayoutConfig, &rec);
        let snapshot = rec.snapshot();
        let get = |name| snapshot.counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            get("layout.contiguous") + get("layout.non_contiguous"),
            get("layout.clusters_tested")
        );
        // Every representative passed the contiguity test exactly once.
        assert_eq!(get("layout.contiguous"), hs.node_count() as u64);
        assert_eq!(get("hybrid.reps"), hs.node_count() as u64);
        assert_eq!(
            snapshot.histograms.get("hybrid.rep_level").map(|h| h.count),
            Some(hs.node_count() as u64)
        );
        // Instrumentation does not change the result.
        let plain = HybridSet::build(&ml, &g, &store, &LayoutConfig);
        assert_eq!(plain.reps, hs.reps);
        assert_eq!(plain.layouts, hs.layouts);
    }

    /// Selection by blocks of roots, the hybrid contractions by blocks of
    /// rows and the contigs by blocks of nodes give the same set, logical
    /// snapshot and contigs at 1 and 3 threads — on a clean tiling and on
    /// one whose bogus overlaps make selection descend — and every contig
    /// is its layout's own consensus.
    #[test]
    fn build_on_is_thread_count_invariant() {
        let bogus = |a: u32, b: u32| Overlap {
            a: ReadId(a),
            b: ReadId(b),
            kind: OverlapKind::SuffixPrefix,
            shift: 50,
            len: 50,
            matches: 48,
        };
        for (extra, min_nodes) in [(vec![], 16), (vec![bogus(0, 20), bogus(41, 7)], 12)] {
            let (store, g) = linear_case_with(96, &extra);
            let config = CoarsenConfig {
                min_nodes,
                ..Default::default()
            };
            let ml = MultilevelSet::build(g.undirected.clone(), &config);
            assert!(ml.set.coarsest().node_count() >= 8);
            let run = |threads: usize| {
                let (pool, rec) = (
                    Pool::new(threads),
                    Recorder::new(fc_obs::ObsOptions::logical()),
                );
                let counts: Vec<usize> = ml.set.levels.iter().map(|l| l.node_count()).collect();
                let maps = &ml.set.fine_to_coarse;
                let (directed, contained) = (&g.directed, &g.containments);
                let hs =
                    HybridSet::build_on(&counts, maps, directed, contained, &store, &pool, &rec);
                let contigs = hs.contigs(&store, &pool, &rec);
                let directed: Vec<_> = (0..hs.node_count() as NodeId)
                    .map(|v| hs.directed.out_edges(v).to_vec())
                    .collect();
                let HybridSet {
                    reps,
                    layouts,
                    rep_of_node,
                    set,
                    contig_lens,
                    ..
                } = hs;
                let graphs = (set.levels, set.fine_to_coarse, directed);
                let selection = (reps, layouts, rep_of_node, contig_lens);
                (selection, graphs, contigs, rec.snapshot_json())
            };
            let serial = run(1);
            assert_eq!(run(3), serial, "min_nodes {min_nodes}");
            let layouts = &serial.0 .1;
            assert!(layouts.len() > 8);
            for (layout, contig) in layouts.iter().zip(&serial.2) {
                assert_eq!(*contig, layout.consensus_sequence(&store));
            }
        }
    }

    #[test]
    fn repeat_conflated_cluster_descends_to_children() {
        // Build a graph where two distant regions get cross-linked by a
        // bogus edge, making coarse clusters non-contiguous: selection must
        // fall back to finer levels and still cover everything.
        // Inconsistent extra overlap: claims read 0 overlaps read 20.
        let bogus = Overlap {
            a: ReadId(0),
            b: ReadId(20),
            kind: OverlapKind::SuffixPrefix,
            shift: 50,
            len: 50,
            matches: 48,
        };
        let (store, g) = linear_case_with(30, &[bogus]);
        // Coarsen all the way down to one node so the conflated pair is
        // guaranteed to share a coarse cluster.
        let ml = MultilevelSet::build(
            g.undirected.clone(),
            &CoarsenConfig {
                min_nodes: 1,
                max_levels: 16,
            },
        );
        let hs = HybridSet::build(&ml, &g, &store, &LayoutConfig);
        let mut covered = vec![false; store.len()];
        for layout in &hs.layouts {
            for &(v, _) in &layout.order {
                covered[v as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        // The conflated region forces at least one rep below the coarsest
        // level.
        let max_level = ml.level_count() - 1;
        assert!(
            hs.reps.iter().any(|r| r.level < max_level),
            "expected descent below coarsest level"
        );
    }
}
