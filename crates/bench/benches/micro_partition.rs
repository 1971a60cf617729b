//! Criterion micro-benchmarks splitting the partitioning cost into its
//! stages: greedy growing, KL refinement, k-way refinement, full pipeline —
//! each on a connected overlap chain and on a hybrid-like graph (mostly
//! isolated nodes), the traffic `focus-bench`'s `ksweep` and `incore-*`
//! workloads serve.

use criterion::{criterion_group, criterion_main, Criterion};
use fc_graph::{CoarsenConfig, LevelGraph, MultilevelSet};
use fc_partition::kl::KlConfig;
use fc_partition::kway::KwayConfig;
use fc_partition::{
    greedy_grow, kl_refine, kway_refine, partition_graph_set, LocalGraph, PartitionConfig,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn overlap_like_graph(n: usize, seed: u64) -> LevelGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = LevelGraph::with_nodes(n);
    for i in 0..n - 1 {
        g.add_edge(i as u32, (i + 1) as u32, rng.gen_range(40..90));
        if i + 2 < n {
            g.add_edge(i as u32, (i + 2) as u32, rng.gen_range(5..40));
        }
    }
    g
}

/// What the pipeline actually partitions: the hybrid graph set is about
/// 95 % isolated nodes, the rest in chains of 2–6 (same shape as
/// fc-partition's `HybridLike` test family).
fn hybrid_like_graph(n: usize, seed: u64) -> LevelGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = LevelGraph::with_nodes(n);
    let mut v = 0;
    while v < n {
        if rng.gen_range(0..80) == 0 {
            let len = rng.gen_range(2..7).min(n - v);
            for i in 1..len {
                g.add_edge((v + i - 1) as u32, (v + i) as u32, rng.gen_range(20..100));
            }
            v += len;
        } else {
            v += 1;
        }
    }
    g
}

/// Both shapes under the names the records use: the connected chain keeps
/// the historical bench names, the hybrid-like one is suffixed.
fn shapes(n: usize) -> [(&'static str, LevelGraph); 2] {
    [
        ("", overlap_like_graph(n, 1)),
        ("_hybrid_like", hybrid_like_graph(n, 1)),
    ]
}

fn local_of(g: &LevelGraph) -> LocalGraph {
    let nodes: Vec<u32> = (0..g.node_count() as u32).collect();
    LocalGraph::extract(g, &nodes)
}

fn bench_grow(c: &mut Criterion) {
    for (suffix, g) in shapes(5000) {
        let local = local_of(&g);
        c.bench_function(&format!("greedy_grow_5k{suffix}"), |b| {
            b.iter(|| {
                let mut work = 0;
                greedy_grow(black_box(&local), 9, &mut work)
            })
        });
    }
}

fn bench_kl(c: &mut Criterion) {
    for (suffix, g) in shapes(5000) {
        let local = local_of(&g);
        let mut work = 0;
        let side0 = greedy_grow(&local, 9, &mut work);
        c.bench_function(&format!("kl_refine_5k{suffix}"), |b| {
            b.iter(|| {
                let mut side = side0.clone();
                let mut work = 0;
                kl_refine(
                    black_box(&local),
                    &mut side,
                    &KlConfig::default(),
                    &mut work,
                )
            })
        });
    }
}

fn bench_kway(c: &mut Criterion) {
    for (suffix, g) in shapes(5000) {
        let parts0: Vec<u32> = (0..5000).map(|i| ((i * 16) / 5000) as u32).collect();
        c.bench_function(&format!("kway_refine_5k_16parts{suffix}"), |b| {
            b.iter(|| {
                let mut parts = parts0.clone();
                let mut work = 0;
                kway_refine(
                    black_box(&g),
                    &mut parts,
                    16,
                    &KwayConfig::default(),
                    &mut work,
                )
            })
        });
    }
}

fn bench_full(c: &mut Criterion) {
    for (suffix, g) in shapes(10_000) {
        let set = MultilevelSet::build(g, &CoarsenConfig::default()).set;
        c.bench_function(&format!("partition_graph_set_10k_k16{suffix}"), |b| {
            b.iter(|| partition_graph_set(black_box(&set), &PartitionConfig::new(16, 3)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_grow, bench_kl, bench_kway, bench_full
}
criterion_main!(benches);
