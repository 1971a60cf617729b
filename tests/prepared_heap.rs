//! What `prepare` keeps, measured with a real counting allocator: its
//! return value holds the hybrid set and the hybrid nodes' contigs and
//! nothing else of stages 1–5, so a sweep over partition counts allocates
//! on top of those two alone. `prepare_stages` returns the rest — the
//! store and `G0` among it — and stage 6 gives the same contigs from
//! either.
//!
//! Its own integration-test binary with one `#[test]`, for the reason
//! `ooc_capped.rs` gives: the allocator counts the whole process.

mod common;

use common::alloc::{live, CountingAlloc};
use focus_assembler::focus::{FocusAssembler, FocusConfig};
use focus_assembler::seq::DnaString;
use focus_assembler::sim::{generate_dataset, DatasetConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Slack for what a run leaves live beside its product (lazily built
/// statics, the `Arc` header), far below any stage's size.
const SLACK: usize = 64 * 1024;

/// Heap of an `Arc<[DnaString]>`: its two counters, the headers and every
/// sequence's words.
fn contigs_heap(contigs: &[DnaString]) -> usize {
    let words: usize = contigs.iter().map(DnaString::heap_bytes).sum();
    2 * size_of::<usize>() + size_of_val(contigs) + words
}

#[test]
fn prepare_keeps_only_what_stage_six_reads() {
    // The metagenome `tests/invariants.rs` reads: 1 800 noisy reads over
    // several genera, so the hybrid set has many nodes to partition.
    let mut dataset = DatasetConfig::test_scale();
    dataset.total_reads = 1800;
    let reads = generate_dataset("heap", &dataset, 13).unwrap().reads;
    let config = FocusConfig {
        threads: 1,
        ..FocusConfig::default()
    };
    let assembler = FocusAssembler::new(config).unwrap();

    // Every stage first, so whatever a first run builds once (lazily
    // initialised statics) is charged here, not to `prepare` below.
    let base = live();
    let stages = assembler.prepare_stages(&reads).unwrap();
    let stages_live = live() - base;

    let base = live();
    let prepared = assembler.prepare(&reads).unwrap();
    let prepared_live = live() - base;
    let hybrid = prepared.hybrid.heap_bytes();
    let contigs = contigs_heap(&prepared.contigs);
    println!(
        "prepare keeps {prepared_live} B (hybrid {hybrid} B, contigs {contigs} B); \
         prepare_stages {stages_live} B"
    );
    assert!(
        prepared_live <= hybrid + contigs + SLACK,
        "prepare keeps {prepared_live} B: more than the hybrid set's {hybrid} B, \
         the contigs' {contigs} B and {SLACK} B of slack"
    );

    // What `prepare` frees: at least the store and G0.
    let (store, g0) = (stages.store.heap_bytes(), stages.graph.heap_bytes());
    assert!(
        stages_live >= prepared_live + store + g0,
        "prepare_stages keeps {stages_live} B, less than prepare's {prepared_live} B \
         plus the store's {store} B and G0's {g0} B"
    );

    // Stage 6 reads the same product either way.
    for k in [2, 64] {
        let from_prepare = assembler.assemble_prepared(&prepared, k).unwrap();
        let from_stages = assembler.assemble_prepared(&stages.prepared, k).unwrap();
        assert!(!from_prepare.contigs.is_empty(), "k={k}");
        assert_eq!(from_prepare.contigs, from_stages.contigs, "k={k}");
    }
}
