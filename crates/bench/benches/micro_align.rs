//! Criterion micro-benchmarks for the alignment substrate: seed-index
//! construction, k-mer lookup and banded Needleman–Wunsch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fc_align::{banded_global, KmerIndex, NwConfig, OverlapConfig, Overlapper};
use fc_seq::{DnaString, ReadId, ReadStore, TrimConfig};
use fc_sim::{GenomeConfig, ReadSimConfig};
use std::hint::black_box;

fn tiled_store(genome_len: usize, n_reads: usize) -> ReadStore {
    let genome = fc_sim::genome::random_genome(
        &GenomeConfig {
            length: genome_len,
            ..Default::default()
        },
        42,
    );
    let mut reads = Vec::new();
    let mut origins = Vec::new();
    fc_sim::reads::simulate_reads(
        &genome,
        0,
        n_reads,
        &ReadSimConfig {
            bad_tail_probability: 0.0,
            ..Default::default()
        },
        7,
        "b",
        &mut reads,
        &mut origins,
    )
    .expect("simulation succeeds");
    ReadStore::preprocess(
        &reads,
        &TrimConfig {
            min_read_len: 40,
            ..Default::default()
        },
    )
    .expect("preprocess succeeds")
}

fn bench_kmer_index(c: &mut Criterion) {
    let store = tiled_store(20_000, 1000);
    let entries: Vec<(ReadId, &DnaString)> =
        store.ids().map(|id| (id, &store.get(id).seq)).collect();
    c.bench_function("kmer_index_build_2000_reads", |b| {
        b.iter(|| KmerIndex::build(black_box(&entries), 15))
    });

    let index = KmerIndex::build(&entries, 15);
    let query = store.get(ReadId(0)).seq.clone();
    c.bench_function("kmer_index_lookup", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (_, kmer) in query.kmers(15) {
                hits += index.hits(black_box(kmer)).count();
            }
            hits
        })
    });
}

fn bench_banded_nw(c: &mut Criterion) {
    let genome = fc_sim::genome::random_genome(
        &GenomeConfig {
            length: 400,
            ..Default::default()
        },
        3,
    );
    let a = genome.slice(0, 200);
    let mut b2 = genome.slice(0, 200);
    for i in (0..200).step_by(37) {
        b2.set(i, b2.get(i).complement());
    }
    let config = NwConfig::default();
    c.bench_function("banded_nw_200bp", |b| {
        b.iter(|| banded_global(black_box(&a), (0, 200), black_box(&b2), (0, 200), &config))
    });
}

fn bench_overlapper(c: &mut Criterion) {
    let store = tiled_store(10_000, 400);
    c.bench_function("overlap_all_800_nodes", |b| {
        b.iter_batched(
            || store.split_subsets(2),
            |subsets| {
                let overlapper =
                    Overlapper::new(&store, OverlapConfig::default()).expect("valid config");
                overlapper.overlap_all(black_box(&subsets))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kmer_index, bench_banded_nw, bench_overlapper
}
criterion_main!(benches);
