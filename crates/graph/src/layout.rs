//! Read-cluster layout and the contiguity test.
//!
//! A node of a coarse graph represents a cluster of reads. The hybrid graph
//! (paper §II-D) keeps a coarse node only if its cluster "assembles into a
//! contiguous contig". We operationalise that test by laying the cluster
//! out: dovetail edges carry relative offsets (`shift`), so a BFS over the
//! cluster's induced directed subgraph assigns each read a coordinate. The
//! cluster is contiguous iff
//!
//! 1. the induced subgraph is connected,
//! 2. every edge agrees with the assigned coordinates (within a small indel
//!    tolerance — disagreement means the cluster conflates repeat copies),
//! 3. the reads tile an interval without gaps.
//!
//! The same layout orders the reads for contig-sequence construction.

use crate::digraph::DiGraph;
use crate::level::NodeId;
use fc_obs::Recorder;
use fc_seq::{Base, DnaString, ReadId, ReadStore};

/// Maximum disagreement (bases) between an edge's shift and the layout
/// coordinates before the cluster is declared non-contiguous.
pub(crate) const OFFSET_TOLERANCE: i64 = 4;

/// Two cluster reads whose layout intervals overlap by at least this many
/// bases must be linked by a verified overlap (a dovetail edge or a
/// recorded containment); otherwise the cluster stacked different sequences
/// at the same place — distinct alleles or repeat copies — and is not
/// contiguous. Linkage is demanded only for near-complete co-location
/// (≥ 95 of 100 bp reads): that is the signature of an allele stack, while
/// partial co-location without an edge routinely happens to honest
/// clusters when one read's end grazes a diverged neighborhood.
pub(crate) const MIN_UNLINKED_OVERLAP: i64 = 95;

/// Number of unlinked co-located pairs tolerated before the cluster is
/// declared non-contiguous. Zero is strict — any stacked pair without a
/// verified overlap splits the cluster — because tolerance lets allele
/// mixtures assemble piecewise: small conflated clusters absorb one or two
/// unlinked pairs each and then merge. Raise only for data whose aligner
/// misses overlaps at a known rate.
pub(crate) const MAX_UNLINKED_PAIRS: usize = 0;

/// The layout/contiguity test's parameters: none, since they are the
/// constants above. The type stays because `benchmark/` still passes one to
/// [`crate::HybridSet::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutConfig;

/// A successful layout: cluster reads with coordinates, sorted by offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterLayout {
    /// `(node, offset)` pairs sorted by offset (ties by node id).
    pub order: Vec<(NodeId, i64)>,
}

impl ClusterLayout {
    /// Number of reads in the layout.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the layout is empty (the contiguity test never produces one).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Builds the contig sequence by per-column majority vote over all
    /// reads covering each position — the error-correcting construction a
    /// production assembler uses. Ties resolve to the smallest base code
    /// for determinism. Costs one pass over every read base.
    pub fn consensus_sequence(&self, store: &ReadStore) -> DnaString {
        self.consensus_with(store, self.span(store), &mut Vec::new())
    }

    /// Bases the layout covers: from its first read's start to the furthest
    /// read end.
    pub(crate) fn span(&self, store: &ReadStore) -> usize {
        let base = self.order.first().map_or(0, |&(_, o)| o);
        let ends = self
            .order
            .iter()
            .map(|&(v, o)| (o - base) + store.get(ReadId(v)).len() as i64);
        ends.max().unwrap_or(0).max(0) as usize
    }

    /// [`ClusterLayout::consensus_sequence`] over the layout's known
    /// [`span`](ClusterLayout::span), counting into `counts`, which callers
    /// reuse across layouts. Each read's bases are counted 32 to a packed
    /// word.
    pub(crate) fn consensus_with(
        &self,
        store: &ReadStore,
        span: usize,
        counts: &mut Vec<[u32; 4]>,
    ) -> DnaString {
        let Some(&(_, base_off)) = self.order.first() else {
            return DnaString::new();
        };
        counts.clear();
        counts.resize(span, [0; 4]);
        for &(v, o) in &self.order {
            let read = store.get(ReadId(v));
            let columns = &mut counts[(o - base_off) as usize..][..read.len()];
            for (columns, &word) in columns
                .chunks_mut(fc_seq::packed::BASES_PER_WORD)
                .zip(read.words())
            {
                let mut word = word;
                for column in columns {
                    column[(word & 0b11) as usize] += 1;
                    word >>= 2;
                }
            }
        }
        let mut out = DnaString::with_capacity(span);
        for column in counts.iter() {
            let mut best = 0usize;
            for c in 1..4 {
                if column[c] > column[best] {
                    best = c;
                }
            }
            out.push(Base::from_code(best as u8));
        }
        out
    }

    /// Builds the contig sequence for this layout: reads are merged in
    /// coordinate order, each read contributing the bases past the current
    /// contig end (first-wins merging; with ≥ 90 % identity overlaps the
    /// differences are single bases and do not affect contig metrics).
    pub fn contig_sequence(&self, store: &ReadStore) -> DnaString {
        let mut contig = DnaString::new();
        let base = self.order.first().map_or(0, |&(_, o)| o);
        let mut covered_to: i64 = 0; // exclusive end, relative to base
        for &(node, offset) in &self.order {
            let read = store.get(ReadId(node));
            let rel = offset - base;
            let read_end = rel + read.len() as i64;
            if read_end <= covered_to {
                continue; // contained within what we already emitted
            }
            let from = (covered_to - rel).max(0) as usize;
            for i in from..read.len() {
                contig.push(Base::from_code(read.code(i)));
            }
            covered_to = read_end;
        }
        contig
    }
}

/// The buffers of [`layout_cluster`] over a range of reads: membership and
/// placement stamps, layout offsets, and the BFS queue. Reads are numbered
/// by `rank`, a map over all of G0, and the scratch holds slots for the
/// ranks `lo..lo + stamp.len()` only — one hybrid selection task's reads
/// (8(f): the tasks together hold one slot per read, not one per read each).
/// Every cluster laid out through it must lie in that range.
#[derive(Debug)]
pub(crate) struct LayoutScratch<'r> {
    /// Each G0 node's rank.
    rank: &'r [u32],
    /// The first rank with a slot.
    lo: u32,
    /// `stamp[i] == epoch` while the read of slot `i` is an unplaced member
    /// of the cluster under test and `epoch + 1` once it is placed; any
    /// smaller value leaves it outside. Each cluster opens a fresh epoch,
    /// so nothing is ever cleared.
    stamp: Vec<u32>,
    epoch: u32,
    /// Layout coordinate of each placed member, by slot.
    offset: Vec<i64>,
    /// The BFS queue. A member enters it once, when placed, so the queue
    /// ends as the list of placed members.
    queue: Vec<NodeId>,
}

impl<'r> LayoutScratch<'r> {
    /// Buffers for clusters of the reads ranked `ranks`.
    pub(crate) fn new(rank: &'r [u32], ranks: std::ops::Range<u32>) -> LayoutScratch<'r> {
        let slots = ranks.len();
        LayoutScratch {
            rank,
            lo: ranks.start,
            stamp: vec![0; slots],
            epoch: 0,
            offset: vec![0; slots],
            queue: Vec::new(),
        }
    }

    /// `v`'s slot, if its rank has one.
    #[inline]
    fn slot(&self, v: NodeId) -> Option<usize> {
        let i = self.rank[v as usize].wrapping_sub(self.lo) as usize;
        (i < self.stamp.len()).then_some(i)
    }

    /// The slot of `v`, a read of the range.
    #[inline]
    fn own(&self, v: NodeId) -> usize {
        (self.rank[v as usize] - self.lo) as usize
    }

    /// Opens an epoch and stamps `nodes` as its unplaced members.
    fn open(&mut self, nodes: &[NodeId]) {
        match self.epoch.checked_add(2) {
            Some(epoch) if epoch < u32::MAX => self.epoch = epoch,
            _ => {
                self.stamp.fill(0);
                self.epoch = 2;
            }
        }
        for &v in nodes {
            let i = self.own(v);
            self.stamp[i] = self.epoch;
        }
        self.queue.clear();
    }

    /// Whether `v` belongs to the cluster under test.
    #[inline]
    fn is_member(&self, v: NodeId) -> bool {
        self.slot(v).is_some_and(|i| self.stamp[i] >= self.epoch)
    }

    /// The coordinate of placed member `v`.
    #[inline]
    fn offset_of(&self, v: NodeId) -> i64 {
        self.offset[self.own(v)]
    }

    /// Places member `v` at `at` if it is unplaced, queueing it; otherwise
    /// checks `at` against its coordinate. False on a disagreement beyond
    /// [`OFFSET_TOLERANCE`].
    #[inline]
    fn place(&mut self, v: NodeId, at: i64) -> bool {
        let i = self.own(v);
        if self.stamp[i] == self.epoch {
            (self.stamp[i], self.offset[i]) = (self.epoch + 1, at);
            self.queue.push(v);
            true
        } else {
            (self.offset[i] - at).abs() <= OFFSET_TOLERANCE
        }
    }
}

/// Lays out the cluster `nodes` over the directed overlap graph `g`.
///
/// Returns the layout if the cluster is contiguous per the module rules,
/// `None` otherwise. `read_len` lookups come from `store`. `containments`
/// holds, sorted, the `(outer, inner)` read pairs whose overlap was verified
/// as a containment (such pairs are linked even without a dovetail edge).
/// Contiguity-test metrics are recorded into `rec`:
/// `layout.clusters_tested`, `layout.contiguous` / `layout.non_contiguous`,
/// and a cluster-size histogram.
pub(crate) fn layout_cluster(
    nodes: &[NodeId],
    g: &DiGraph,
    containments: &[(NodeId, NodeId)],
    store: &ReadStore,
    scratch: &mut LayoutScratch<'_>,
    rec: &Recorder,
) -> Option<ClusterLayout> {
    let out = layout_cluster_inner(nodes, g, containments, store, scratch);
    if rec.is_enabled() {
        rec.add("layout.clusters_tested", 1);
        rec.observe("layout.cluster_size", nodes.len() as u64);
        if out.is_some() {
            rec.add("layout.contiguous", 1);
        } else {
            rec.add("layout.non_contiguous", 1);
        }
    }
    out
}

fn layout_cluster_inner(
    nodes: &[NodeId],
    g: &DiGraph,
    containments: &[(NodeId, NodeId)],
    store: &ReadStore,
    scratch: &mut LayoutScratch<'_>,
) -> Option<ClusterLayout> {
    if nodes.is_empty() {
        return None;
    }
    if nodes.len() == 1 {
        return Some(ClusterLayout {
            order: vec![(nodes[0], 0)],
        });
    }
    scratch.open(nodes);

    // BFS from the first node, walking dovetail edges in both directions.
    scratch.place(nodes[0], 0);
    let mut head = 0;
    while let Some(&v) = scratch.queue.get(head) {
        head += 1;
        let v_off = scratch.offset_of(v);
        for e in g.out_edges(v) {
            if scratch.is_member(e.to) && !scratch.place(e.to, v_off + e.shift as i64) {
                return None; // inconsistent layout (repeat conflation)
            }
        }
        for &u in g.in_neighbors(v) {
            if !scratch.is_member(u) {
                continue;
            }
            let Some(edge) = g.edge(u, v) else { continue };
            if !scratch.place(u, v_off - edge.shift as i64) {
                return None;
            }
        }
    }
    if scratch.queue.len() != nodes.len() {
        return None; // induced subgraph disconnected
    }

    let mut order: Vec<(NodeId, i64)> = scratch
        .queue
        .iter()
        .map(|&v| (v, scratch.offset_of(v)))
        .collect();
    order.sort_unstable_by_key(|&(v, o)| (o, v));

    // Tiling check: every read must start at or before the current end.
    let mut covered_to = order[0].1 + store.get(ReadId(order[0].0)).len() as i64;
    for &(v, o) in &order[1..] {
        if o > covered_to {
            return None; // gap in coverage
        }
        covered_to = covered_to.max(o + store.get(ReadId(v)).len() as i64);
    }

    // Linkage check: co-located reads must carry a verified overlap.
    // Two reads may legitimately share coordinates without an edge when
    // their overlap is short (below the aligner's threshold); beyond
    // `MIN_UNLINKED_OVERLAP`, a missing link means the cluster stacked
    // different sequences at the same place (alleles, repeat copies).
    let linked = |a: NodeId, b: NodeId| -> bool {
        g.edge(a, b).is_some()
            || g.edge(b, a).is_some()
            || containments.binary_search(&(a, b)).is_ok()
            || containments.binary_search(&(b, a)).is_ok()
    };
    let mut unlinked_pairs = 0usize;
    for (i, &(v, ov)) in order.iter().enumerate() {
        let v_end = ov + store.get(ReadId(v)).len() as i64;
        for &(u, ou) in &order[i + 1..] {
            if v_end - ou < MIN_UNLINKED_OVERLAP {
                break; // later reads start even further right
            }
            let u_end = ou + store.get(ReadId(u)).len() as i64;
            let shared = v_end.min(u_end) - ou;
            if shared >= MIN_UNLINKED_OVERLAP && !linked(v, u) {
                unlinked_pairs += 1;
            }
        }
    }
    // A fixed absolute tolerance: isolated alignment misses are rare even in
    // deep clusters, while an allele stack leaves unlinked pairs in
    // proportion to its coverage — far above any small constant.
    if unlinked_pairs > MAX_UNLINKED_PAIRS {
        return None;
    }
    Some(ClusterLayout { order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiEdge;
    use fc_seq::Read;

    /// Store of `n` reads tiling `genome` every `stride` bases (no RCs, so
    /// node ids equal tile indices).
    fn tiling(genome: &DnaString, read_len: usize, stride: usize) -> (ReadStore, DiGraph) {
        tiling_with(genome, read_len, stride, None)
    }

    /// [`tiling`] plus one `extra` edge out of node 0, added last.
    fn tiling_with(
        genome: &DnaString,
        read_len: usize,
        stride: usize,
        extra: Option<DiEdge>,
    ) -> (ReadStore, DiGraph) {
        let mut reads = Vec::new();
        let mut start = 0;
        while start + read_len <= genome.len() {
            reads.push(Read::new(
                format!("r{start}"),
                genome.slice(start, start + read_len),
            ));
            start += stride;
        }
        let n = reads.len();
        let store = ReadStore::from_reads(reads);
        let chain = (0..n - 1).map(|i| {
            let edge = DiEdge {
                to: (i + 1) as NodeId,
                len: (read_len - stride) as u32,
                shift: stride as u32,
            };
            (i as NodeId, edge)
        });
        let edges: Vec<_> = chain.chain(extra.map(|e| (0, e))).collect();
        let g = DiGraph::from_edges(n, &edges);
        (store, g)
    }

    /// `layout_cluster` with no containments and no recorder.
    fn layout_of(nodes: &[NodeId], di: &DiGraph, store: &ReadStore) -> Option<ClusterLayout> {
        let ranks: Vec<u32> = (0..store.len() as u32).collect();
        let mut scratch = LayoutScratch::new(&ranks, 0..store.len() as u32);
        layout_cluster(nodes, di, &[], store, &mut scratch, &Recorder::disabled())
    }

    fn genome(len: usize) -> DnaString {
        // Deterministic pseudo-random content.
        (0..len)
            .map(|i| fc_seq::Base::from_code(((i * 2654435761usize) >> 8) as u8 & 3))
            .collect()
    }

    /// Epochs that run out restart from cleared stamps: no member of an
    /// earlier cluster reads as a member of a later one.
    #[test]
    fn stamps_survive_epoch_wraparound() {
        let g = genome(500);
        let (store, di) = tiling(&g, 100, 50);
        let ranks: Vec<u32> = (0..store.len() as u32).collect();
        let mut scratch = LayoutScratch::new(&ranks, 0..store.len() as u32);
        scratch.epoch = u32::MAX - 4;
        let rec = Recorder::disabled();
        for _ in 0..4 {
            // Every node placed, then a disconnected pair: a stale stamp
            // would connect it.
            let all: Vec<NodeId> = (0..store.len() as NodeId).collect();
            assert!(layout_cluster(&all, &di, &[], &store, &mut scratch, &rec).is_some());
            assert!(layout_cluster(&[0, 4], &di, &[], &store, &mut scratch, &rec).is_none());
        }
        assert!(scratch.epoch < 16, "epoch {}", scratch.epoch);
    }

    #[test]
    fn linear_tiling_is_contiguous_and_reconstructs_genome() {
        let g = genome(300);
        let (store, di) = tiling(&g, 100, 50);
        let nodes: Vec<NodeId> = (0..store.len() as NodeId).collect();
        let layout = layout_of(&nodes, &di, &store).expect("tiling must be contiguous");
        assert_eq!(layout.len(), store.len());
        let contig = layout.contig_sequence(&store);
        // Tiles cover positions 0..(last_start + 100).
        let expected = g.slice(0, 100 + 50 * (store.len() - 1));
        assert_eq!(contig, expected);
    }

    #[test]
    fn single_node_cluster_is_trivially_contiguous() {
        let g = genome(120);
        let (store, di) = tiling(&g, 100, 10);
        let layout = layout_of(&[1], &di, &store).unwrap();
        assert_eq!(layout.order, vec![(1, 0)]);
        assert_eq!(
            layout.contig_sequence(&store).packed(),
            store.get(ReadId(1))
        );
    }

    #[test]
    fn disconnected_cluster_rejected() {
        let g = genome(500);
        let (store, di) = tiling(&g, 100, 50);
        // Nodes 0 and 4 are not connected within the cluster {0, 4}.
        assert!(layout_of(&[0, 4], &di, &store).is_none());
    }

    #[test]
    fn gap_in_tiling_rejected() {
        let g = genome(500);
        // Connect 0 -> 4 with a bogus long-range edge (shift 300 creates a
        // consistent offset but a coverage gap between read 0 end (100) and
        // read 4 start (300)).
        let extra = DiEdge {
            to: 4,
            len: 10,
            shift: 300,
        };
        let (store, di) = tiling_with(&g, 100, 50, Some(extra));
        assert!(layout_of(&[0, 4], &di, &store).is_none());
    }

    #[test]
    fn inconsistent_offsets_rejected() {
        let g = genome(300);
        // A conflicting edge claims node 2 is only 10 bases right of node 0,
        // but via node 1 it is 100 bases right.
        let extra = DiEdge {
            to: 2,
            len: 90,
            shift: 10,
        };
        let (store, di) = tiling_with(&g, 100, 50, Some(extra));
        assert!(layout_of(&[0, 1, 2], &di, &store).is_none());
    }

    #[test]
    fn small_offset_disagreement_tolerated() {
        let g = genome(300);
        // Claims shift 102 where the layout says 100 — within tolerance 4.
        let extra = DiEdge {
            to: 2,
            len: 90,
            shift: 102,
        };
        let (store, di) = tiling_with(&g, 100, 50, Some(extra));
        let layout = layout_of(&[0, 1, 2], &di, &store);
        assert!(layout.is_some());
    }

    #[test]
    fn consensus_outvotes_single_read_errors() {
        let g = genome(200);
        // Three reads covering [0,100), [0,100), [50,150): corrupt one base
        // in the first read; the column has 2:1 votes for the truth.
        let mut r0 = g.slice(0, 100);
        r0.set(70, r0.get(70).complement());
        let r1 = g.slice(0, 100);
        let r2 = g.slice(50, 150);
        let store = ReadStore::from_reads(vec![
            Read::new("r0", r0),
            Read::new("r1", r1),
            Read::new("r2", r2),
        ]);
        let layout = ClusterLayout {
            order: vec![(0, 0), (1, 0), (2, 50)],
        };
        let consensus = layout.consensus_sequence(&store);
        assert_eq!(consensus, g.slice(0, 150));
        // First-wins would have kept the error.
        assert_ne!(layout.contig_sequence(&store), g.slice(0, 150));
    }

    #[test]
    fn consensus_has_same_span_as_first_wins() {
        let g = genome(300);
        let (store, di) = tiling(&g, 100, 40);
        let nodes: Vec<NodeId> = (0..store.len() as NodeId).collect();
        let layout = layout_of(&nodes, &di, &store).expect("tiling is contiguous");
        assert_eq!(
            layout.consensus_sequence(&store).len(),
            layout.contig_sequence(&store).len()
        );
        // Error-free input: both constructions agree exactly.
        assert_eq!(
            layout.consensus_sequence(&store),
            layout.contig_sequence(&store)
        );
    }

    #[test]
    fn contained_read_does_not_break_contig() {
        let g = genome(200);
        let long = Read::new("long", g.slice(0, 150));
        let inner = Read::new("inner", g.slice(20, 120));
        let store = ReadStore::from_reads(vec![long, inner]);
        let edge = DiEdge {
            to: 1,
            len: 100,
            shift: 20,
        };
        let di = DiGraph::from_edges(2, &[(0, edge)]);
        let layout = layout_of(&[0, 1], &di, &store).unwrap();
        assert_eq!(layout.contig_sequence(&store), g.slice(0, 150));
    }
}
