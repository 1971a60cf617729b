//! The graphs as they were before the flat layout: one `Vec` per node, edges
//! pushed one at a time, removals by `Vec::retain`. Kept as the oracle the
//! differential tests below compare [`crate::LevelGraph`] and
//! [`crate::DiGraph`] against — row by row, order included, because every
//! tie-break downstream reads rows in that order. Beside them, the kernels
//! as they were before stamp arrays and packed words: contraction through
//! one sorted edge list, the layout over hash maps, and consensus base by
//! base.

use crate::digraph::DiEdge;
use crate::layout::{ClusterLayout, MAX_UNLINKED_PAIRS, MIN_UNLINKED_OVERLAP, OFFSET_TOLERANCE};
use crate::level::NodeId;
use fc_seq::{DnaString, ReadId, ReadStore};
use std::collections::HashMap;

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

/// [`crate::LevelGraph`]'s contraction through one list of every crossing
/// edge, sorted by `(min, max)` and merged, then scattered into rows.
pub(crate) fn contracted(
    g: &crate::LevelGraph,
    map: &[NodeId],
    node_weight: Vec<u32>,
) -> crate::LevelGraph {
    let mut edges: Vec<_> = g
        .edges()
        .map(|(u, v, w)| (map[u as usize], map[v as usize], w))
        .filter(|&(cu, cv, _)| cu != cv)
        .map(|(cu, cv, w)| (cu.min(cv), cu.max(cv), w))
        .collect();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    edges.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 = kept.2.saturating_add(next.2);
        }
        same
    });
    crate::LevelGraph::scatter(node_weight, edges.iter().copied(), crate::csr::distinct)
}

/// Why [`layout_cluster`] rejected a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rejection {
    Empty,
    OffsetConflict,
    Disconnected,
    Gap,
    Unlinked,
}

/// The contiguity test over hash maps: the cluster's layout and how many
/// co-located pairs only a containment linked, or why it was rejected.
pub(crate) fn layout_cluster(
    nodes: &[NodeId],
    g: &crate::DiGraph,
    containments: &HashMap<(NodeId, NodeId), ()>,
    store: &ReadStore,
) -> Result<(ClusterLayout, usize), Rejection> {
    if nodes.is_empty() {
        return Err(Rejection::Empty);
    }
    if nodes.len() == 1 {
        return Ok((
            ClusterLayout {
                order: vec![(nodes[0], 0)],
            },
            0,
        ));
    }
    let in_cluster: HashMap<NodeId, ()> = nodes.iter().map(|&v| (v, ())).collect();
    let mut offset: HashMap<NodeId, i64> = HashMap::with_capacity(nodes.len());
    let start = nodes[0];
    offset.insert(start, 0);
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        let v_off = offset[&v];
        for e in g.out_edges(v) {
            if !in_cluster.contains_key(&e.to) {
                continue;
            }
            let proposed = v_off + e.shift as i64;
            match offset.get(&e.to) {
                Some(&existing) => {
                    if (existing - proposed).abs() > OFFSET_TOLERANCE {
                        return Err(Rejection::OffsetConflict);
                    }
                }
                None => {
                    offset.insert(e.to, proposed);
                    queue.push_back(e.to);
                }
            }
        }
        for &u in g.in_neighbors(v) {
            if !in_cluster.contains_key(&u) {
                continue;
            }
            let Some(edge) = g.edge(u, v) else { continue };
            let proposed = v_off - edge.shift as i64;
            match offset.get(&u) {
                Some(&existing) => {
                    if (existing - proposed).abs() > OFFSET_TOLERANCE {
                        return Err(Rejection::OffsetConflict);
                    }
                }
                None => {
                    offset.insert(u, proposed);
                    queue.push_back(u);
                }
            }
        }
    }
    if offset.len() != nodes.len() {
        return Err(Rejection::Disconnected);
    }
    let mut order: Vec<(NodeId, i64)> = offset.into_iter().collect();
    order.sort_unstable_by_key(|&(v, o)| (o, v));
    let len = |v: NodeId| store.get(ReadId(v)).len() as i64;
    let mut covered_to = order[0].1 + len(order[0].0);
    for &(v, o) in &order[1..] {
        if o > covered_to {
            return Err(Rejection::Gap);
        }
        covered_to = covered_to.max(o + len(v));
    }
    let edge_linked = |a, b| g.edge(a, b).is_some() || g.edge(b, a).is_some();
    let contained = |a, b| containments.contains_key(&(a, b)) || containments.contains_key(&(b, a));
    let (mut unlinked_pairs, mut contained_links) = (0usize, 0usize);
    for (i, &(v, ov)) in order.iter().enumerate() {
        let v_end = ov + len(v);
        for &(u, ou) in &order[i + 1..] {
            if v_end - ou < MIN_UNLINKED_OVERLAP {
                break;
            }
            let shared = v_end.min(ou + len(u)) - ou;
            if shared >= MIN_UNLINKED_OVERLAP && !edge_linked(v, u) {
                if contained(v, u) {
                    contained_links += 1;
                } else {
                    unlinked_pairs += 1;
                }
            }
        }
    }
    if unlinked_pairs > MAX_UNLINKED_PAIRS {
        return Err(Rejection::Unlinked);
    }
    Ok((ClusterLayout { order }, contained_links))
}

/// The majority consensus of `layout`, base by base: ties to the smallest
/// code.
pub(crate) fn consensus(layout: &ClusterLayout, store: &ReadStore) -> DnaString {
    let Some(&(_, base_off)) = layout.order.first() else {
        return DnaString::new();
    };
    let span = layout
        .order
        .iter()
        .map(|&(v, o)| (o - base_off) + store.get(ReadId(v)).len() as i64)
        .max()
        .unwrap_or(0)
        .max(0) as usize;
    let mut counts = vec![[0u32; 4]; span];
    for &(v, o) in &layout.order {
        let rel = (o - base_off) as usize;
        let read = store.get(ReadId(v));
        for i in 0..read.len() {
            counts[rel + i][read.code(i) as usize] += 1;
        }
    }
    counts
        .iter()
        .map(|column| {
            let mut best = 0usize;
            for c in 1..4 {
                if column[c] > column[best] {
                    best = c;
                }
            }
            fc_seq::Base::from_code(best as u8)
        })
        .collect()
}

mod differential {
    use super::{ClusterLayout, DiEdge, DnaString, HashMap, NodeId, ReadStore};
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

    /// The undirected view by blocks of rows, at 1 and 3 threads, against
    /// listing every dovetail from its lower end (an antiparallel pair
    /// once), source by source, into both endpoints' rows: random digraphs
    /// with repeated, antiparallel and self edges. Equal graphs: every
    /// row, in order.
    #[test]
    fn undirected_view_matches_the_link_list() {
        cases(256, |rng| {
            let n = rng.range(0usize..40);
            let edges: Vec<_> = (0..count(rng, n, 120))
                .map(|_| {
                    let edge = DiEdge {
                        to: node(rng, n),
                        len: rng.range(1u32..90),
                        shift: rng.range(0u32..100),
                    };
                    (node(rng, n), edge)
                })
                .collect();
            let di = crate::DiGraph::from_edges(n, &edges);
            let links = (0..n as NodeId).flat_map(|v| {
                let di = &di;
                di.out_edges(v)
                    .iter()
                    .filter(move |e| v < e.to || di.edge(e.to, v).is_none())
                    .map(move |e| (v, e.to, e.len))
            });
            let expected = crate::LevelGraph::scatter(vec![1; n], links, crate::csr::distinct);
            for threads in [1, 3] {
                let (pool, rec) = (fc_exec::Pool::new(threads), fc_obs::Recorder::disabled());
                let g0 = crate::OverlapGraph::from_directed(di.clone(), Vec::new(), &pool, &rec);
                assert_eq!(g0.undirected, expected, "{threads} threads");
            }
        });
    }

    /// `G'0` contracted straight from the directed view equals the
    /// undirected view contracted, at 1 and 3 threads: random digraphs
    /// whose last nodes take no edge, with repeated, antiparallel (a
    /// quarter of the edges mirror one already drawn) and self edges,
    /// under random, identity and all-in-one maps. Equal graphs: every row,
    /// in order.
    #[test]
    fn contraction_from_the_directed_view_matches_the_undirected_one() {
        cases(256, |rng| {
            let n = rng.range(0usize..40);
            let linked = n - rng.range(0..=n.min(4));
            let mut edges: Vec<(NodeId, DiEdge)> = Vec::new();
            for _ in 0..count(rng, linked, 120) {
                let mirror = !edges.is_empty() && rng.bool(0.25);
                let (from, to) = match mirror {
                    true => {
                        let (from, e) = edges[rng.range(0..edges.len())];
                        (e.to, from)
                    }
                    false => (node(rng, linked), node(rng, linked)),
                };
                let edge = DiEdge {
                    to,
                    len: weight(rng),
                    shift: rng.range(0u32..100),
                };
                edges.push((from, edge));
            }
            let di = crate::DiGraph::from_edges(n, &edges);
            let (coarse, map): (usize, Vec<NodeId>) = match rng.range(0u8..4) {
                0 => (n, (0..n as NodeId).collect()),
                1 => (n.min(1), vec![0; n]),
                _ => {
                    let coarse = rng.range(1..=n.max(1));
                    (
                        coarse,
                        (0..n).map(|_| rng.range(0..coarse) as NodeId).collect(),
                    )
                }
            };
            let mut node_weight = vec![0u32; coarse];
            for &c in &map {
                node_weight[c as usize] += 1;
            }
            for threads in [1, 3] {
                let (pool, rec) = (fc_exec::Pool::new(threads), fc_obs::Recorder::disabled());
                let g0 = crate::OverlapGraph::from_directed(di.clone(), Vec::new(), &pool, &rec);
                let expected = g0
                    .undirected
                    .contracted(&map, node_weight.clone(), &pool, &rec);
                let direct = crate::OverlapGraph::contracted_from_directed(
                    &di,
                    &map,
                    node_weight.clone(),
                    &pool,
                    &rec,
                );
                assert_eq!(direct, expected, "{threads} threads");
                direct.check_invariants().unwrap();
            }
        });
    }

    /// A weight; one in eight within a few units of `u32::MAX`, so parallel
    /// coarse edges saturate as well as add.
    fn weight(rng: &mut Rng) -> u32 {
        match rng.range(0u8..8) {
            0 => u32::MAX - rng.range(0u32..4),
            _ => rng.range(1u32..50),
        }
    }

    /// Contraction by blocks of coarse rows, at 1 and 3 threads, against
    /// the sorted edge list: random graphs with isolated nodes and
    /// saturating weights, under random, identity and all-in-one maps.
    /// Equal graphs: every row, in order.
    #[test]
    fn contraction_matches_reference() {
        cases(256, |rng| {
            let n = rng.range(0usize..30);
            // The last nodes take no edge.
            let linked = n - rng.range(0..=n.min(4));
            let edges: Vec<_> = (0..count(rng, linked, 90))
                .map(|_| (node(rng, linked), node(rng, linked), weight(rng)))
                .collect();
            let weights: Vec<u32> = (0..n).map(|_| rng.range(1u32..9)).collect();
            let g = crate::LevelGraph::from_edges(weights.clone(), &edges);
            let (coarse, map): (usize, Vec<NodeId>) = match rng.range(0u8..4) {
                0 => (n, (0..n as NodeId).collect()),
                1 => (n.min(1), vec![0; n]),
                _ => {
                    let coarse = rng.range(1..=n.max(1));
                    (
                        coarse,
                        (0..n).map(|_| rng.range(0..coarse) as NodeId).collect(),
                    )
                }
            };
            let mut node_weight = vec![0u32; coarse];
            for (v, &c) in map.iter().enumerate() {
                node_weight[c as usize] += weights[v];
            }
            let expected = super::contracted(&g, &map, node_weight.clone());
            for threads in [1, 3] {
                let pool = fc_exec::Pool::new(threads);
                let rec = fc_obs::Recorder::disabled();
                let flat = g.contracted(&map, node_weight.clone(), &pool, &rec);
                assert_eq!(flat, expected, "{threads} threads");
                flat.check_invariants().unwrap();
            }
        });
    }

    /// Reads on a line, some stacked within a few bases of each other; a
    /// dovetail edge for most overlapping pairs, its shift now and then off
    /// by up to 4 (tolerated) or by more (a conflict); containments for
    /// some stacked pairs; and now and then an edge across a gap. Node ids
    /// are a shuffle of the reads' order on the line.
    fn layout_case(rng: &mut Rng) -> (ReadStore, crate::DiGraph, Vec<(NodeId, NodeId)>) {
        let m = rng.range(2usize..12);
        let mut pos = vec![0i64; m];
        for i in 1..m {
            pos[i] = pos[i - 1]
                + match rng.range(0u8..20) {
                    0..=3 => rng.range(0i64..=5),
                    4 => rng.range(130i64..200),
                    _ => rng.range(10i64..70),
                };
        }
        let lens: Vec<i64> = (0..m)
            .map(|_| {
                if rng.bool(0.7) {
                    100
                } else {
                    rng.range(80i64..=120)
                }
            })
            .collect();
        let mut id: Vec<NodeId> = (0..m as NodeId).collect();
        rng.shuffle(&mut id);
        let (mut edges, mut containments) = (Vec::new(), Vec::new());
        for i in 0..m {
            for j in i + 1..m {
                let shift = pos[j] - pos[i];
                let shared = (pos[i] + lens[i]).min(pos[j] + lens[j]) - pos[j];
                if shared <= 0 {
                    if rng.bool(0.02) {
                        edges.push((id[i], edge(id[j], shift)));
                    }
                    continue;
                }
                if shared >= 95 && rng.bool(0.5) {
                    containments.push((id[i], id[j]));
                }
                if rng.bool(if shared >= 95 { 0.4 } else { 0.75 }) {
                    let noise = match rng.range(0u8..20) {
                        0..=1 => rng.range(-4i64..=4),
                        2 => rng.range(5i64..30) * if rng.bool(0.5) { 1 } else { -1 },
                        _ => 0,
                    };
                    edges.push((id[i], edge(id[j], (shift + noise).max(0))));
                }
            }
        }
        let mut reads: Vec<(NodeId, fc_seq::Read)> = (0..m)
            .map(|i| {
                let seq: DnaString = (0..lens[i])
                    .map(|_| fc_seq::Base::from_code(rng.range(0u8..4)))
                    .collect();
                (id[i], fc_seq::Read::new(format!("r{i}"), seq))
            })
            .collect();
        reads.sort_unstable_by_key(|&(v, _)| v);
        let store = ReadStore::from_reads(reads.into_iter().map(|(_, r)| r).collect());
        (store, crate::DiGraph::from_edges(m, &edges), containments)
    }

    fn edge(to: NodeId, shift: i64) -> DiEdge {
        DiEdge {
            to,
            len: 50,
            shift: shift as u32,
        }
    }

    /// The layout over stamp arrays against the one over hash maps, on
    /// clusters that are the whole line, a window of it or a random subset
    /// (in random order), several per scratch. Every rejection occurs, and
    /// so do accepted clusters whose stacked pairs only a containment links.
    #[test]
    fn layout_matches_reference() {
        use super::Rejection;
        let mut seen: Vec<Result<(), Rejection>> = Vec::new();
        let mut contained_accepts = 0;
        cases(512, |rng| {
            let (store, g, containments) = layout_case(rng);
            let m = store.len();
            let mut sorted = containments.clone();
            sorted.sort_unstable();
            let map: HashMap<(NodeId, NodeId), ()> =
                containments.iter().map(|&p| (p, ())).collect();
            let ranks: Vec<u32> = (0..m as u32).collect();
            let mut scratch = crate::layout::LayoutScratch::new(&ranks, 0..m as u32);
            for _ in 0..4 {
                let mut nodes: Vec<NodeId> = match rng.range(0u8..3) {
                    0 => (0..m as NodeId).collect(),
                    1 => {
                        let start = rng.range(0..m);
                        (start as NodeId..rng.range(start + 1..=m) as NodeId).collect()
                    }
                    _ => (0..m as NodeId).filter(|_| rng.bool(0.7)).collect(),
                };
                rng.shuffle(&mut nodes);
                let rec = fc_obs::Recorder::disabled();
                let got =
                    crate::layout::layout_cluster(&nodes, &g, &sorted, &store, &mut scratch, &rec);
                let want = super::layout_cluster(&nodes, &g, &map, &store);
                assert_eq!(
                    got.as_ref(),
                    want.as_ref().ok().map(|(l, _)| l),
                    "cluster {nodes:?}"
                );
                if let Ok((_, contained)) = want {
                    contained_accepts += usize::from(contained > 0);
                }
                seen.push(want.map(|_| ()));
            }
        });
        if !cfg!(miri) {
            for outcome in [
                Ok(()),
                Err(Rejection::OffsetConflict),
                Err(Rejection::Disconnected),
                Err(Rejection::Gap),
                Err(Rejection::Unlinked),
            ] {
                assert!(seen.contains(&outcome), "no {outcome:?}");
            }
            assert!(contained_accepts > 0, "no accepted containment-linked pair");
        }
    }

    /// Packed-word consensus against base-by-base consensus: reads of
    /// lengths around the word boundaries at random offsets, and stacks of
    /// two and four reads whose columns split 1–1 and 1–1–1–1, through one
    /// count buffer. Both tie kinds occur.
    #[test]
    fn packed_consensus_matches_per_base() {
        const LENS: [usize; 7] = [1, 31, 32, 33, 64, 65, 100];
        let (mut two_way, mut four_way) = (0, 0);
        let mut counts = Vec::new();
        cases(128, |rng| {
            let len = LENS[rng.range(0..LENS.len())];
            let codes: Vec<Vec<u8>> = match rng.range(0u8..3) {
                // A stack: read i is the first read's codes plus i.
                0 => {
                    let first: Vec<u8> = (0..len).map(|_| rng.range(0u8..4)).collect();
                    let depth = if rng.bool(0.5) { 2 } else { 4 };
                    (0..depth)
                        .map(|i| first.iter().map(|&c| (c + i) % 4).collect())
                        .collect()
                }
                _ => (0..rng.range(1..7))
                    .map(|_| {
                        let len = LENS[rng.range(0..LENS.len())];
                        (0..len).map(|_| rng.range(0u8..4)).collect()
                    })
                    .collect(),
            };
            let reads: Vec<fc_seq::Read> = codes
                .iter()
                .map(|c| {
                    let seq = c.iter().map(|&b| fc_seq::Base::from_code(b)).collect();
                    fc_seq::Read::new("r", seq)
                })
                .collect();
            let store = ReadStore::from_reads(reads);
            let stacked = codes.iter().all(|c| c.len() == len) && rng.bool(0.5);
            let mut order: Vec<(NodeId, i64)> = (0..codes.len() as NodeId)
                .map(|v| (v, if stacked { 7 } else { rng.range(-20i64..40) }))
                .collect();
            order.sort_unstable_by_key(|&(v, o)| (o, v));
            let layout = ClusterLayout { order };
            let want = super::consensus(&layout, &store);
            assert_eq!(layout.consensus_sequence(&store), want);
            assert_eq!(
                layout.consensus_with(&store, layout.span(&store), &mut counts),
                want
            );
            // The ties the columns held.
            for column in &counts {
                let top = column.iter().max().copied().unwrap_or(0);
                match column.iter().filter(|&&c| c == top).count() {
                    2 => two_way += 1,
                    4 => four_way += 1,
                    _ => {}
                }
            }
        });
        if !cfg!(miri) {
            assert!(
                two_way > 0 && four_way > 0,
                "ties: {two_way} two-way, {four_way} four-way"
            );
        }
    }
}
