//! Cross-crate invariant tests on realistic pipeline artifacts.

mod common;

use focus_assembler::align::{Overlap, Overlapper, PairStats, Pool};
use focus_assembler::dist::traverse::check_path_cover;
use focus_assembler::dist::{DistributedConfig, DistributedHybrid, FaultPlan, FaultRates, PhaseId};
use focus_assembler::focus::{FocusAssembler, FocusConfig, Prepared, Recorder, Stages};
use focus_assembler::graph::{coarsen, CoarsenConfig, GraphSet, LevelGraph, MultilevelSet};
use focus_assembler::obs::ObsOptions;
use focus_assembler::partition::recursive::TaskKind;
use focus_assembler::partition::{
    edge_cut, partition_balance, partition_graph_set, partition_graph_set_obs, validate_partition,
    PartitionConfig, PartitionResult,
};
use focus_assembler::seq::Read;
use focus_assembler::sim::{generate_dataset, DatasetConfig};
use std::sync::{Arc, OnceLock};

/// The verified overlaps G0 was built from, and their work summed over the
/// subset pairs, as `overlap_all` computes them for `config`'s store split
/// and thread count.
fn overlaps_of(s: &Stages, config: &FocusConfig) -> (Vec<Overlap>, PairStats) {
    let overlapper = Overlapper::new(&s.store, config.overlap).unwrap();
    let subsets = s.store.split_subsets(config.subsets);
    let pool = Pool::new(config.threads);
    let (overlaps, pairs) = overlapper
        .overlap_all(&subsets, &pool, &Recorder::disabled())
        .unwrap();
    let mut total = PairStats::default();
    for (_, _, stats) in &pairs {
        total.merge(stats);
    }
    (overlaps, total)
}

/// The one prepared metagenome every test here reads, built once, with
/// every stage kept.
fn stages() -> &'static Stages {
    static STAGES: OnceLock<Stages> = OnceLock::new();
    STAGES.get_or_init(|| stages_at(FocusConfig::default()))
}

/// Stages 1–5 of the seeded metagenome under `config`.
fn stages_at(config: FocusConfig) -> Stages {
    static READS: OnceLock<Vec<Read>> = OnceLock::new();
    let reads = READS.get_or_init(|| {
        // Denser than `test_scale`: ~15x coverage keeps the overlap graph
        // connected, which is what balance/cut invariants assume.
        let mut config = DatasetConfig::test_scale();
        config.total_reads = 1800;
        generate_dataset("inv", &config, 13).unwrap().reads
    });
    let assembler = FocusAssembler::new(config).unwrap();
    assembler.prepare_stages(reads).unwrap()
}

/// What stage 6 reads of [`stages`].
fn prepared() -> &'static Prepared {
    &stages().prepared
}

#[test]
fn graph_sets_satisfy_structural_invariants() {
    let (s, p) = (stages(), prepared());
    s.graph.undirected.check_invariants().unwrap();
    s.graph.directed.check_invariants().unwrap();
    s.multilevel.set.check_invariants().unwrap();
    p.hybrid.set.check_invariants().unwrap();
    // The hybrid graph is a compression: never more nodes than G0.
    assert!(p.hybrid.node_count() <= s.graph.undirected.node_count());
    // Node weight (reads represented) is conserved by the hybrid mapping.
    assert_eq!(
        p.hybrid.set.finest().total_node_weight() as usize,
        s.store.len()
    );
}

#[test]
fn hybrid_partition_projection_is_consistent() {
    let (s, p) = (stages(), prepared());
    for k in [2usize, 4, 8] {
        let result = partition_graph_set(&p.hybrid.set, &PartitionConfig::new(k, 3)).unwrap();
        validate_partition(p.hybrid.set.finest(), result.finest(), k).unwrap();
        let read_parts = p.hybrid.project_partition_to_reads(result.finest());
        assert_eq!(read_parts.len(), s.store.len());
        // Every read in a cluster inherits its representative's partition.
        for (node, &rep) in p.hybrid.rep_of_node.iter().enumerate() {
            assert_eq!(read_parts[node], result.finest()[rep as usize]);
        }
        // Partition ids stay in range after projection.
        assert!(read_parts.iter().all(|&q| (q as usize) < k));
    }
}

#[test]
fn partition_balance_and_cut_are_sane_across_k() {
    let (s, p) = (stages(), prepared());
    let total_weight = s.graph.undirected.total_edge_weight();
    // Balance bounds are the smallest round values HEAD passes, not targets.
    // Measured on this fixture (136 hybrid nodes, 3 600 reads, heaviest node
    // 391 reads): 1.002, 1.960, 2.189 and — against an ideal share of 225 and
    // a floor of 391 / 225 = 1.74 — 4.080 at k = 16. KL and k-way do not
    // weigh nodes. ROADMAP item 11: ≤ 1.10 or within 3 % of the floor.
    for (k, max_balance) in [(2usize, 1.01), (4, 2.0), (8, 2.2), (16, 4.1)] {
        let result = partition_graph_set(&p.hybrid.set, &PartitionConfig::new(k, 9)).unwrap();
        let read_parts = p.hybrid.project_partition_to_reads(result.finest());
        let cut = edge_cut(&s.graph.undirected, &read_parts);
        assert!(
            cut <= total_weight / 10,
            "k={k}: cut {cut} is more than 10% of total weight {total_weight}"
        );
        let balance = partition_balance(p.hybrid.set.finest(), result.finest(), k);
        assert!(
            balance <= max_balance,
            "k={k}: balance {balance} > {max_balance}"
        );
    }
}

/// A graph set shaped like the hybrid set: `n` nodes of which about 95 %
/// have no edge, the rest in scattered chains of 2–6, coarsened by
/// heavy-edge matching while edges remain, so that every level keeps
/// nearly all of its nodes.
fn hybrid_like_set(n: usize, seed: u64) -> GraphSet {
    let mut rng = fc_rng::Rng::new(seed);
    let mut edges = Vec::new();
    let mut v = 0;
    while v < n {
        if rng.range(0..80) == 0 {
            let len = rng.range(2..7).min(n - v);
            for i in 1..len {
                edges.push(((v + i - 1) as u32, (v + i) as u32, rng.range(20..100)));
            }
            v += len;
        } else {
            v += 1;
        }
    }
    let mut levels = vec![LevelGraph::from_edges(vec![1; n], &edges)];
    let mut fine_to_coarse = Vec::new();
    for round in 0..8 {
        let current = levels.last().unwrap();
        if current.edge_count() == 0 {
            break;
        }
        let mate = coarsen::heavy_edge_matching(current, seed + round);
        let (coarse, map) = coarsen::contract(current, &mate);
        levels.push(coarse);
        fine_to_coarse.push(map);
    }
    GraphSet {
        levels,
        fine_to_coarse,
    }
}

/// `set` with its level 0 repeated `copies` times right above it, under
/// identity maps: the shape the hybrid set takes wherever every best
/// representative sits above level 0.
fn with_copies_of_level_0(set: &GraphSet, copies: usize) -> GraphSet {
    let n = set.finest().node_count() as u32;
    let mut levels = vec![set.finest().clone(); copies];
    levels.extend(set.levels.iter().cloned());
    let mut fine_to_coarse = vec![(0..n).collect::<Vec<u32>>(); copies];
    fine_to_coarse.extend(set.fine_to_coarse.iter().cloned());
    GraphSet {
        levels,
        fine_to_coarse,
    }
}

/// A weighted path of `n` nodes, coarsened down to 16 nodes.
fn path_set(n: usize) -> GraphSet {
    let path: Vec<_> = (0..n - 1).map(|i| (i as u32, i as u32 + 1, 50)).collect();
    let config = CoarsenConfig {
        min_nodes: 16,
        ..Default::default()
    };
    MultilevelSet::build(LevelGraph::from_edges(vec![1; n], &path), &config).set
}

/// FNV-1a's offset basis, and one step of it over `x`'s little-endian bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
fn fnv1a(hash: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(hash, |h, &byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over every level's assignment and every task record.
fn partition_digest(result: &PartitionResult) -> u64 {
    let mut hash = FNV_BASIS;
    let mut eat = |x: u64| hash = fnv1a(hash, x);
    for assignment in &result.parts_per_level {
        eat(assignment.len() as u64);
        for &p in assignment {
            eat(u64::from(p));
        }
    }
    for task in &result.tasks {
        match task.kind {
            TaskKind::Bisect { step, part } => {
                eat(0);
                eat(step as u64);
                eat(u64::from(part));
            }
            TaskKind::KwayLevel { level } => {
                eat(1);
                eat(level as u64);
            }
        }
        eat(task.work);
    }
    hash
}

/// The partitioner's assignments and task logs pinned bit for bit: one
/// digest per `(set, k)`, equal at 1 and 4 threads. The constants of the
/// first two sets were captured on the commit before KL's queues,
/// projection and extraction were rewritten to cost edges rather than
/// nodes, and that rewrite left every one of them unchanged. The last two
/// sets hold copy levels (identity map, equal graph), which the partitioner
/// refines once; their digests and k-way metrics (`partition.kway_passes`
/// and an FNV-1a digest of the `partition.kway_pass_gain` histogram, from a
/// logical recorder) were captured on the commit before it did. A change
/// here is a change of the partitioner's output — of every downstream byte
/// and of fc-dist's schedules — not of its speed.
#[test]
fn partition_assignments_and_task_logs_are_pinned() {
    let hybrid = hybrid_like_set(2_000, 3);
    assert!(hybrid.level_count() >= 3, "{} levels", hybrid.level_count());
    let isolated = (0..2_000).filter(|&v| hybrid.finest().degree(v) == 0);
    assert!(isolated.count() >= 1_800, "not shaped like the hybrid set");
    let repeated = with_copies_of_level_0(&hybrid, 2);
    let only_g0 = GraphSet {
        levels: vec![hybrid.finest().clone()],
        fine_to_coarse: Vec::new(),
    };
    let all_copies = with_copies_of_level_0(&only_g0, 5);
    // Level 1 equals level 0 but swaps its first and last isolated nodes:
    // no copy, though level 2 is one of level 1.
    let mut swapped = with_copies_of_level_0(&only_g0, 2);
    let lonely: Vec<u32> = (0..2_000)
        .filter(|&v| swapped.finest().degree(v) == 0)
        .collect();
    let (first, last) = (lonely[0], lonely[lonely.len() - 1]);
    swapped.fine_to_coarse[0].swap(first as usize, last as usize);
    swapped.check_invariants().unwrap();
    let sets = [
        ("hybrid_like(2000)", hybrid),
        ("path(512)", path_set(512)),
        ("hybrid_like(2000), level 0 thrice", repeated),
        ("hybrid_like(2000) level 0, six copies", all_copies),
        ("hybrid_like(2000) level 0, swapped, copied", swapped),
    ];
    let expected: [[u64; 6]; 5] = [
        [
            0xea45fabc9c07de86,
            0x29f207dcd590649f,
            0xab6cfd99ab8d9f41,
            0x575aefacc8bc7ae2,
            0x6822506069aff165,
            0x7e1a6c23a21487f7,
        ],
        [
            0x7cee052bcc14ed89,
            0xad0401447fc98219,
            0x14be1c7a7d8083bb,
            0xd95877891184951f,
            0x3911dce7da07130c,
            0xeccc2df7cdc10eb8,
        ],
        [
            0xa8d4f16de6e52fe6,
            0x3fffab16fdf50477,
            0xb719dc33f04ce0c5,
            0x6dfbcfdb68df51bd,
            0x6de1de8c00d57b88,
            0xe759b62ede3cbc34,
        ],
        [
            0x8505d25ba24f0d07,
            0xe24ece690020001a,
            0x441f149b3100c1fe,
            0x075b1aa2eb45f02f,
            0x112acd03dc2ef3e2,
            0x55be471a226c215d,
        ],
        [
            0x3046d6b94964b95f,
            0x6a6070ac88be8d7c,
            0x9f21450335ad9dce,
            0xc80db373907fc1f3,
            0x915ae31a8df09b13,
            0x5d3d82469f1ccbdf,
        ],
    ];
    // The copy sets' (kway_passes, kway_pass_gain digest) per k.
    let expected_kway: [[(u64, u64); 6]; 3] = [
        [
            (6, 0xee74da9b7831d385),
            (6, 0xee74da9b7831d385),
            (6, 0xee74da9b7831d385),
            (6, 0xee74da9b7831d385),
            (6, 0xee74da9b7831d385),
            (6, 0xee74da9b7831d385),
        ],
        [
            (12, 0x4dac1967c1f33791),
            (12, 0x2a0d0cad83e1cbf3),
            (12, 0x2a0d0cad83e1cbf3),
            (12, 0x0200d6db435936ff),
            (6, 0xee74da9b7831d385),
            (6, 0xee74da9b7831d385),
        ],
        [
            (6, 0x43a0bbda1965e249),
            (6, 0x7c8d30f39a6276e8),
            (6, 0x7c8d30f39a6276e8),
            (6, 0x227d4fc58f9d7412),
            (3, 0x636092c62950a505),
            (3, 0x636092c62950a505),
        ],
    ];
    let mut points = Vec::new();
    for (si, ((name, set), digests)) in sets.iter().zip(expected).enumerate() {
        for (ki, (k, want)) in [2, 4, 8, 16, 32, 64].into_iter().zip(digests).enumerate() {
            for threads in [1, 4] {
                let config = PartitionConfig::new(k, 42).with_threads(threads);
                let rec = Recorder::new(ObsOptions::logical());
                let got = partition_digest(&partition_graph_set_obs(set, &config, &rec).unwrap());
                let kway = kway_metrics(&rec);
                let (passes, gains) = kway;
                println!("{name} k={k} threads={threads}: {got:#018x} ({passes}, {gains:#018x})");
                let want_kway = expected_kway.get(si.wrapping_sub(2)).map(|row| row[ki]);
                let kway = want_kway.map(|_| kway);
                points.push((
                    format!("{name} k={k} threads={threads}"),
                    (got, kway),
                    (want, want_kway),
                ));
            }
        }
    }
    for (point, got, want) in points {
        assert_eq!(got, want, "{point}");
    }
}

/// `partition.kway_passes` and an FNV-1a digest of every field of the
/// `partition.kway_pass_gain` histogram.
fn kway_metrics(rec: &Recorder) -> (u64, u64) {
    let snapshot = rec.snapshot();
    let passes = snapshot
        .counters
        .get("partition.kway_passes")
        .copied()
        .unwrap_or(0);
    let gains = snapshot
        .histograms
        .get("partition.kway_pass_gain")
        .map_or(FNV_BASIS, |h| {
            [h.count, h.sum, h.min, h.max]
                .into_iter()
                .chain(h.counts.iter().copied())
                .fold(FNV_BASIS, fnv1a)
        });
    (passes, gains)
}

/// FNV-1a over every overlap's fields, in list order.
fn overlap_digest(overlaps: &[Overlap]) -> u64 {
    overlaps.iter().fold(FNV_BASIS, |hash, o| {
        [
            u64::from(o.a.0),
            u64::from(o.b.0),
            o.kind as u64,
            u64::from(o.shift),
            u64::from(o.len),
            o.identity().to_bits(),
        ]
        .into_iter()
        .fold(hash, fnv1a)
    })
}

/// Alignment's output pinned bit for bit across commits: the overlap list
/// and the summed `PairStats` on the seeded community, at 1 and 4 subsets ×
/// 1 and 4 threads. The contract matrix compares modes of one build; this
/// compares builds, so a seed-index or verifier rewrite that claims "same
/// hits, same overlaps" is held to it. The constants were captured on the
/// build before the seed index's entries carried k-mer tags.
#[test]
fn alignment_output_and_work_are_pinned() {
    let s = stages();
    // (subsets, threads): overlap digest, then lookups, hits, candidates,
    // overlaps and nw_cells. Each point is printed before any is compared.
    const ONE: [u64; 5] = [100_324, 2_777_962, 108_027, 65_726, 107_347_792];
    const FOUR: [u64; 5] = [250_678, 1_831_230, 108_027, 65_726, 107_347_792];
    let expected = [
        ((1, 1), (0x1bb6_9db5_c48b_5c3b, ONE)),
        ((1, 4), (0x1bb6_9db5_c48b_5c3b, ONE)),
        ((4, 1), (0xd178_d6e0_77f1_2cf7, FOUR)),
        ((4, 4), (0xd178_d6e0_77f1_2cf7, FOUR)),
    ];
    let got: Vec<_> = expected
        .iter()
        .map(|&((subsets, threads), _)| {
            let config = FocusConfig {
                subsets,
                threads,
                ..FocusConfig::default()
            };
            let (overlaps, total) = overlaps_of(s, &config);
            let work = [
                total.kmer_lookups,
                total.kmer_hits,
                total.candidates,
                total.overlaps,
                total.nw_cells,
            ];
            let digest = overlap_digest(&overlaps);
            println!("subsets={subsets} threads={threads}: {digest:#018x} {work:?}");
            ((subsets, threads), (digest, work))
        })
        .collect();
    assert_eq!(got, expected);
}

/// Every level's rows, node weights and fine→coarse map, as words.
fn graph_set_words(set: &GraphSet, words: &mut Vec<u64>) {
    for level in &set.levels {
        words.push(level.node_count() as u64);
        for v in 0..level.node_count() as u32 {
            words.push(u64::from(level.node_weight(v)));
            words.push(level.degree(v) as u64);
            for &(u, w) in level.neighbors(v) {
                words.push(u64::from(u) << 32 | u64::from(w));
            }
        }
    }
    for map in &set.fine_to_coarse {
        words.push(map.len() as u64);
        words.extend(map.iter().map(|&c| u64::from(c)));
    }
}

/// FNV-1a over every graph stage's output: the multilevel set; the hybrid
/// representatives, clusters, layout orders and contig lengths; the hybrid
/// set; the directed hybrid graph's rows; and the contigs, in that order.
fn graph_digest(s: &Stages) -> u64 {
    let hybrid = &s.prepared.hybrid;
    let mut words = Vec::new();
    graph_set_words(&s.multilevel.set, &mut words);
    words.push(hybrid.reps.len() as u64);
    for r in &hybrid.reps {
        words.extend([r.level as u64, u64::from(r.node)]);
    }
    for layout in &hybrid.layouts {
        let mut cluster: Vec<u32> = layout.order.iter().map(|&(v, _)| v).collect();
        cluster.sort_unstable();
        words.push(cluster.len() as u64);
        words.extend(cluster.iter().map(|&v| u64::from(v)));
        for &(v, offset) in &layout.order {
            words.extend([u64::from(v), offset as u64]);
        }
    }
    words.extend(hybrid.contig_lens.iter().map(|&l| u64::from(l)));
    graph_set_words(&hybrid.set, &mut words);
    let directed = &hybrid.directed;
    for v in 0..directed.node_count() as u32 {
        words.push(directed.out_degree(v) as u64);
        for e in directed.out_edges(v) {
            words.extend([u64::from(e.to), u64::from(e.len), u64::from(e.shift)]);
        }
        words.push(directed.in_degree(v) as u64);
        words.extend(directed.in_neighbors(v).iter().map(|&u| u64::from(u)));
    }
    for contig in s.prepared.contigs.iter() {
        words.push(contig.len() as u64);
        words.extend_from_slice(contig.packed().words());
    }
    words.into_iter().fold(FNV_BASIS, fnv1a)
}

/// The graph stages' output pinned bit for bit across commits, at 1 and 4
/// threads: coarsening, hybrid selection with its layouts, contraction into
/// every hybrid level, the directed hybrid graph and the consensus contigs.
/// A rewrite of contraction, layout or consensus that claims "same graphs,
/// same contigs" is held to it. The constant was captured on the build
/// before contraction, layout and consensus were rewritten over stamp
/// arrays and packed words.
#[test]
fn graph_stages_are_pinned() {
    const EXPECTED: u64 = 0x6387_f834_c48d_dcee;
    let got: Vec<_> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let s = stages_at(FocusConfig {
                threads,
                ..FocusConfig::default()
            });
            let digest = graph_digest(&s);
            println!("threads={threads}: {digest:#018x}");
            (threads, digest)
        })
        .collect();
    assert_eq!(got, [(1, EXPECTED), (4, EXPECTED)]);
}

#[test]
fn distributed_stage_preserves_node_cover_for_every_k() {
    let p = prepared();
    for k in [1usize, 2, 8] {
        let partition = partition_graph_set(&p.hybrid.set, &PartitionConfig::new(k, 5)).unwrap();
        let mut dh = DistributedHybrid::from_contigs(
            &p.hybrid,
            Arc::clone(&p.contigs),
            partition.finest().to_vec(),
            k,
        )
        .unwrap();
        let report = dh
            .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
            .unwrap();
        check_path_cover(&dh.graph, &report.paths).unwrap();
        // Trimming can only remove; live nodes never exceed the input.
        assert!(dh.graph.live_node_count() <= p.hybrid.node_count());
    }
}

#[test]
fn assembly_stats_are_partition_invariant_on_metagenome() {
    // The Table III property on a noisy metagenome, as an invariant.
    let p = prepared();
    let assembler = FocusAssembler::new(FocusConfig::default()).unwrap();
    let baseline = assembler.assemble_prepared(p, 2).unwrap();
    for k in [4usize, 16] {
        let result = assembler.assemble_prepared(p, k).unwrap();
        assert_eq!(
            result.stats.num_contigs, baseline.stats.num_contigs,
            "k={k}"
        );
        assert_eq!(result.stats.n50, baseline.stats.n50, "k={k}");
        assert_eq!(result.stats.max_contig, baseline.stats.max_contig, "k={k}");
    }
}

#[test]
fn overlap_edge_weights_match_alignment_lengths() {
    let s = stages();
    // Every undirected G0 edge weight must trace back to at least one
    // recorded overlap of that length or a sum of parallel ones.
    let min_len = 50u32;
    for (u, v, w) in s.graph.undirected.edges() {
        assert!(
            w >= min_len,
            "edge {u}-{v} weight {w} below the overlap threshold"
        );
    }
    // Identity is a property of the overlap record, not of the edge built
    // from it: the configured bound holds where the value lives.
    for o in &overlaps_of(s, &FocusConfig::default()).0 {
        assert!(
            o.identity() >= 0.90 - 1e-9,
            "overlap identity {} too low",
            o.identity()
        );
    }
    for v in s.graph.directed.live_nodes() {
        for e in s.graph.directed.out_edges(v) {
            assert!(e.len >= 50);
        }
    }
}

/// The graphs' footprint, as arithmetic rather than as RSS: a return to
/// per-node allocations, to a fatter edge or to a second copy of G0 fails
/// here on any host.
#[test]
fn graph_footprint_is_flat_and_g0_is_held_once() {
    use focus_assembler::graph::{DiEdge, LevelGraph};
    let (s, p) = (stages(), prepared());
    let g0 = &s.graph.undirected;
    assert!(g0.edge_count() > 0);
    assert_eq!(
        g0.heap_bytes(),
        8 * 2 * g0.edge_count() + 8 * g0.node_count() + 4
    );
    assert_eq!(std::mem::size_of::<DiEdge>(), 12);
    // Pointer-equal, not merely equal: the first node with a neighbour
    // reads both graphs' rows from the same address.
    let shares = |a: &LevelGraph, b: &LevelGraph| {
        let v = (0..a.node_count() as u32).find(|&v| a.degree(v) > 0);
        v.is_some_and(|v| std::ptr::eq(a.neighbors(v), b.neighbors(v)))
    };
    assert!(shares(g0, s.multilevel.set.finest()));
    let copy = s.clone();
    assert!(shares(g0, &copy.graph.undirected));
    for (a, b) in s
        .multilevel
        .set
        .levels
        .iter()
        .zip(&copy.multilevel.set.levels)
    {
        assert!(a.edge_count() == 0 || shares(a, b));
    }
    for (a, b) in p
        .hybrid
        .set
        .levels
        .iter()
        .zip(&copy.prepared.hybrid.set.levels)
    {
        assert!(a.edge_count() == 0 || shares(a, b));
    }
}

// ---- Fault-tolerance invariants (seeded cases) ----------------------------
//
// Each case clones one ready-to-run `DistributedHybrid` over the prepared
// fixture, built once.

mod fault_invariants {
    use super::*;
    use fc_rng::cases;

    const K: usize = 4;

    struct Fixture {
        dh: DistributedHybrid,
        clean_paths: Vec<focus_assembler::dist::AssemblyPath>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let p = prepared();
            let partition =
                partition_graph_set(&p.hybrid.set, &PartitionConfig::new(K, 5)).unwrap();
            let dh = DistributedHybrid::from_contigs(
                &p.hybrid,
                Arc::clone(&p.contigs),
                partition.finest().to_vec(),
                K,
            )
            .unwrap();
            let clean_paths = dh
                .clone()
                .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
                .unwrap()
                .paths;
            Fixture { dh, clean_paths }
        })
    }

    fn sorted_cover(paths: &[focus_assembler::dist::AssemblyPath]) -> Vec<u32> {
        let mut nodes: Vec<u32> = paths.iter().flat_map(|p| p.nodes.iter().copied()).collect();
        nodes.sort_unstable();
        nodes
    }

    /// Same fault seed ⇒ bit-identical paths and fault counters.
    #[test]
    fn same_fault_seed_reproduces_report_exactly() {
        cases(16, |rng| {
            let seed = rng.next_u64();
            let fx = fixture();
            let rates = FaultRates {
                crash: 0.1,
                drop: 0.25,
                delay: 0.2,
                straggle: 0.2,
                ..Default::default()
            };
            let run = |_: ()| {
                fx.dh.clone().run_with_faults(
                    &DistributedConfig::default(),
                    FaultPlan::random(seed, K, &rates),
                )
            };
            match (run(()), run(())) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.paths, b.paths);
                    assert_eq!(a.fault, b.fault);
                    assert_eq!(a.messages, b.messages);
                    assert_eq!(a.bytes, b.bytes);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("divergent outcomes: {a:?} vs {b:?}"),
            }
        });
    }

    /// A single rank crash in any phase never changes the final path
    /// node cover (and in fact not the paths themselves).
    #[test]
    fn single_crash_preserves_path_cover() {
        cases(16, |rng| {
            let (phase_ix, rank) = (rng.range(0..PhaseId::ALL.len()), rng.range(0..K));
            let fx = fixture();
            let plan = FaultPlan::single_crash(PhaseId::ALL[phase_ix], rank);
            let mut dh = fx.dh.clone();
            let report = dh
                .run_with_faults(&DistributedConfig::default(), plan)
                .unwrap();
            check_path_cover(&dh.graph, &report.paths).unwrap();
            assert_eq!(sorted_cover(&report.paths), sorted_cover(&fx.clean_paths));
            assert_eq!(&report.paths, &fx.clean_paths);
            assert_eq!(report.fault.crashes, 1);
        });
    }
}

// ---- Shared-memory parallelism invariants --------------------------------

mod parallel_determinism {
    use super::common::matrix::{owner, run_random, run_slice, Slice};

    /// The parallel engine's core guarantee, end to end: `assemble` at 1, 2,
    /// 4 and 8 threads gives the serial run's partition on every level,
    /// traversal paths and contigs — the contract matrix's clean `assemble`
    /// points, on the tiled fixture, the simulated community (errors,
    /// trimmed tails, both strands, default thresholds) and three random
    /// inputs. Overlap order and pair stats are fc-align's
    /// `pooled_overlap_all_is_bit_identical_to_serial`.
    #[test]
    fn pipeline_output_is_thread_count_invariant() {
        run_slice(Slice::ThreadCount);
        run_random(3, |p| owner(p) == Slice::ThreadCount);
    }
}

/// Property tests promoting the debug-time assertions of fc-align's banded
/// aligner and fc-graph's coarsening into checked invariants: band
/// feasibility/monotonicity for Needleman–Wunsch, and matching validity plus
/// weight conservation for heavy-edge contraction.
mod props {
    use fc_rng::{cases, Rng};
    use focus_assembler::align::banded_global;
    use focus_assembler::graph::coarsen::{contract, heavy_edge_matching};
    use focus_assembler::graph::{CoarsenConfig, LevelGraph, MultilevelSet, NodeId};
    use focus_assembler::seq::{Base, DnaString};

    fn dna(rng: &mut Rng, max_len: usize) -> DnaString {
        rng.vec(0..max_len, |r| Base::from_code(r.range(0..4)))
            .into_iter()
            .collect()
    }

    /// Random undirected weighted graph plus a matching seed. Self-loops are
    /// skipped (LevelGraph edges connect distinct nodes).
    fn level_graph(rng: &mut Rng) -> (LevelGraph, u64) {
        let n = rng.range(2usize..20);
        let weights = (0..n).map(|_| rng.range(1u32..8)).collect();
        let edges = rng.vec(0..48, |r| {
            let (u, v) = (r.range(0..n) as NodeId, r.range(0..n) as NodeId);
            (u, v, r.range(1u32..10))
        });
        (LevelGraph::from_edges(weights, &edges), rng.next_u64())
    }

    /// The band bound is exact: alignment exists iff the length
    /// difference fits the band, widening the band never lowers the
    /// score, and any band covering both sequences is equivalent to the
    /// full DP matrix.
    #[test]
    fn nw_band_bound_is_exact_and_monotone() {
        cases(64, |rng| {
            let (a, b) = (dna(rng, 18), dna(rng, 18));
            let full_band = a.len().max(b.len()).max(1);
            let reference = banded_global(
                a.packed(),
                (0, a.len()),
                b.packed(),
                (0, b.len()),
                full_band,
            )
            .unwrap();
            let mut prev_score = None;
            for band in 0..=full_band {
                match banded_global(a.packed(), (0, a.len()), b.packed(), (0, b.len()), band) {
                    None => assert!(a.len().abs_diff(b.len()) > band),
                    Some(s) => {
                        assert!(a.len().abs_diff(b.len()) <= band);
                        assert!(s.score <= reference.score);
                        if let Some(p) = prev_score {
                            assert!(s.score >= p);
                        }
                        prev_score = Some(s.score);
                    }
                }
            }
            let wide = banded_global(
                a.packed(),
                (0, a.len()),
                b.packed(),
                (0, b.len()),
                full_band + 7,
            )
            .unwrap();
            assert_eq!(wide.score, reference.score);
            assert_eq!(wide.columns, reference.columns);
            assert_eq!(wide.matches, reference.matches);
        });
    }

    /// Heavy-edge matching is an involution along real edges, and it is
    /// maximal: no edge joins two unmatched nodes.
    #[test]
    fn heavy_edge_matching_is_a_maximal_matching() {
        cases(64, |rng| {
            let (g, seed) = level_graph(rng);
            let mate = heavy_edge_matching(&g, seed);
            assert_eq!(mate.len(), g.node_count());
            for v in 0..g.node_count() {
                let m = mate[v] as usize;
                assert_eq!(mate[m] as usize, v);
                if m != v {
                    assert!(g.edge_weight(v as NodeId, mate[v]).is_some());
                }
            }
            for (u, v, _) in g.edges() {
                let unmatched = |x: NodeId| mate[x as usize] == x;
                assert!(!(u != v && unmatched(u) && unmatched(v)));
            }
        });
    }

    /// Contraction conserves node weight exactly, and edge weight up to
    /// the intra-pair edges folded into coarse nodes (self-loops drop).
    #[test]
    fn contraction_conserves_weight() {
        cases(64, |rng| {
            let (g, seed) = level_graph(rng);
            let mate = heavy_edge_matching(&g, seed);
            let (coarse, map) = contract(&g, &mate);
            assert!(coarse.check_invariants().is_ok());
            assert_eq!(coarse.total_node_weight(), g.total_node_weight());
            let folded: u64 = (0..g.node_count())
                .filter_map(|v| {
                    let m = mate[v] as usize;
                    if m > v {
                        g.edge_weight(v as NodeId, m as NodeId)
                    } else {
                        None
                    }
                })
                .map(u64::from)
                .sum();
            assert_eq!(coarse.total_edge_weight() + folded, g.total_edge_weight());
            for v in 0..g.node_count() {
                assert_eq!(map[v], map[mate[v] as usize]);
                assert!((map[v] as usize) < coarse.node_count());
            }
        });
    }

    /// The full multilevel build keeps every cross-level invariant and
    /// conserves total node weight from G0 to the coarsest level.
    #[test]
    fn multilevel_build_conserves_node_weight() {
        cases(64, |rng| {
            let (g, _) = level_graph(rng);
            let w0 = g.total_node_weight();
            let set = MultilevelSet::build(g, &CoarsenConfig::default());
            assert!(set.set.check_invariants().is_ok());
            for level in &set.set.levels {
                assert!(level.check_invariants().is_ok());
                assert_eq!(level.total_node_weight(), w0);
            }
        });
    }
}
