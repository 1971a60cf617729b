//! Cross-crate invariant tests on realistic pipeline artifacts.

mod common;

use focus_assembler::align::{Overlap, Overlapper, Pool};
use focus_assembler::dist::traverse::check_path_cover;
use focus_assembler::dist::{DistributedConfig, DistributedHybrid, FaultPlan, FaultRates, PhaseId};
use focus_assembler::focus::{FocusAssembler, FocusConfig, Prepared, Recorder};
use focus_assembler::partition::{
    edge_cut, partition_balance, partition_graph_set, validate_partition, PartitionConfig,
};
use focus_assembler::sim::{generate_dataset, DatasetConfig};
use std::sync::{Arc, OnceLock};

/// The verified overlaps G0 was built from, as `overlap_all` computes them
/// for `config`'s store split and thread count.
fn overlaps_of(p: &Prepared, config: &FocusConfig) -> Vec<Overlap> {
    let overlapper = Overlapper::new(&p.store, config.overlap).unwrap();
    let subsets = p.store.split_subsets(config.subsets);
    let pool = Pool::new(config.threads);
    overlapper
        .overlap_all(&subsets, &pool, &Recorder::disabled())
        .0
}

/// The one prepared metagenome every test here reads, built once.
fn prepared() -> &'static Prepared {
    static PREPARED: OnceLock<Prepared> = OnceLock::new();
    PREPARED.get_or_init(|| {
        // Denser than `test_scale`: ~15x coverage keeps the overlap graph
        // connected, which is what balance/cut invariants assume.
        let mut config = DatasetConfig::test_scale();
        config.total_reads = 1800;
        let dataset = generate_dataset("inv", &config, 13).unwrap();
        let assembler = FocusAssembler::new(FocusConfig::default()).unwrap();
        assembler.prepare(&dataset.reads).unwrap()
    })
}

#[test]
fn graph_sets_satisfy_structural_invariants() {
    let p = prepared();
    p.graph.undirected.check_invariants().unwrap();
    p.graph.directed.check_invariants().unwrap();
    p.multilevel.set.check_invariants().unwrap();
    p.hybrid.set.check_invariants().unwrap();
    // The hybrid graph is a compression: never more nodes than G0.
    assert!(p.hybrid.node_count() <= p.graph.undirected.node_count());
    // Node weight (reads represented) is conserved by the hybrid mapping.
    assert_eq!(
        p.hybrid.set.finest().total_node_weight() as usize,
        p.store.len()
    );
}

#[test]
fn hybrid_partition_projection_is_consistent() {
    let p = prepared();
    for k in [2usize, 4, 8] {
        let result = partition_graph_set(&p.hybrid.set, &PartitionConfig::new(k, 3)).unwrap();
        validate_partition(p.hybrid.set.finest(), result.finest(), k).unwrap();
        let read_parts = p.hybrid.project_partition_to_reads(result.finest());
        assert_eq!(read_parts.len(), p.store.len());
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
    let p = prepared();
    let total_weight = p.graph.undirected.total_edge_weight();
    // Balance bounds are the smallest round values HEAD passes, not targets.
    // Measured on this fixture (136 hybrid nodes, 3 600 reads, heaviest node
    // 391 reads): 1.002, 1.960, 2.189 and — against an ideal share of 225 and
    // a floor of 391 / 225 = 1.74 — 4.080 at k = 16. KL and k-way do not
    // weigh nodes. ROADMAP item 11: ≤ 1.10 or within 3 % of the floor.
    for (k, max_balance) in [(2usize, 1.01), (4, 2.0), (8, 2.2), (16, 4.1)] {
        let result = partition_graph_set(&p.hybrid.set, &PartitionConfig::new(k, 9)).unwrap();
        let read_parts = p.hybrid.project_partition_to_reads(result.finest());
        let cut = edge_cut(&p.graph.undirected, &read_parts);
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
        let report = dh.run(&DistributedConfig::default()).unwrap();
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
    let p = prepared();
    // Every undirected G0 edge weight must trace back to at least one
    // recorded overlap of that length or a sum of parallel ones.
    let min_len = 50u32;
    for (u, v, w) in p.graph.undirected.edges() {
        assert!(
            w >= min_len,
            "edge {u}-{v} weight {w} below the overlap threshold"
        );
    }
    // Identity is a property of the overlap record, not of the edge built
    // from it: the configured bound holds where the value lives.
    for o in &overlaps_of(p, &FocusConfig::default()) {
        assert!(
            o.identity >= 0.90 - 1e-9,
            "overlap identity {} too low",
            o.identity
        );
    }
    for v in p.graph.directed.live_nodes() {
        for e in p.graph.directed.out_edges(v) {
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
    let p = prepared();
    let g0 = &p.graph.undirected;
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
    assert!(shares(g0, p.multilevel.set.finest()));
    let copy = p.clone();
    assert!(shares(g0, &copy.graph.undirected));
    for (a, b) in p
        .multilevel
        .set
        .levels
        .iter()
        .zip(&copy.multilevel.set.levels)
    {
        assert!(a.edge_count() == 0 || shares(a, b));
    }
    for (a, b) in p.hybrid.set.levels.iter().zip(&copy.hybrid.set.levels) {
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
            let clean_paths = dh.clone().run(&DistributedConfig::default()).unwrap().paths;
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
            let reference = banded_global(&a, (0, a.len()), &b, (0, b.len()), full_band).unwrap();
            let mut prev_score = None;
            for band in 0..=full_band {
                match banded_global(&a, (0, a.len()), &b, (0, b.len()), band) {
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
            let wide = banded_global(&a, (0, a.len()), &b, (0, b.len()), full_band + 7).unwrap();
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
