//! Capped-heap proof for the budgeted path, measured with a real counting
//! allocator (not the ledger): the budgeted pipeline, streaming its input
//! and keeping one seed index at a time, has a true peak heap strictly
//! below the parsed-reads pipeline's on the same input, stays within a
//! budget derived from its own measured peak, and writes the uncapped
//! in-core run's contigs under that cap.
//!
//! This lives in its own integration-test binary on purpose: a
//! `#[global_allocator]` is process-wide, and the single `#[test]` here
//! keeps peak attribution honest.

mod common;

use common::alloc::{peak_over, CountingAlloc};
use common::{completed, contract_config, genome, tiling, TempDir};
use focus_assembler::focus::{CheckpointOptions, FocusAssembler, FocusConfig};
use focus_assembler::seq::{fastq, Read};
use std::io::BufReader;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The contract's configuration, serial and without faults, over eight
/// subsets.
fn capped_config() -> FocusConfig {
    FocusConfig {
        subsets: 8,
        ..contract_config(1, false)
    }
}

#[test]
fn spilled_peak_heap_is_below_in_core_and_within_budget() {
    // Big enough that the pipeline's data structures dominate constant
    // overheads in the peak measurement. Long reads on purpose: seed
    // indexes scale with bases while the graph scales with overlap count,
    // so the alignment phase — the part a budget shrinks — dominates the
    // in-core peak.
    let reads = tiling(&genome(36_000, 11), 300, 150);
    let tmp = TempDir::new("ooc-capped");
    std::fs::create_dir_all(&*tmp).unwrap();
    let input = tmp.join("reads.fastq");
    let mut buf = Vec::new();
    fastq::write(&mut buf, &reads, 30).unwrap();
    std::fs::write(&input, &buf).unwrap();
    drop(buf);
    drop(reads);

    // Uncapped in-core run from the file — parse-everything-then-assemble,
    // exactly what the in-core CLI path does — for baseline contigs and
    // the real peak heap.
    let (clean, in_core_peak) = peak_over(|| {
        let parsed: Vec<Read> =
            fastq::Reader::new(BufReader::new(std::fs::File::open(&input).unwrap()))
                .collect::<Result<_, _>>()
                .unwrap();
        let assembler = FocusAssembler::new(capped_config()).unwrap();
        assembler.assemble(&parsed).unwrap()
    });

    // A file run under `config`, which carries a budget.
    let budgeted = |config| {
        let assembler = FocusAssembler::new(config).unwrap();
        let outcome = assembler.assemble_file(&input, &CheckpointOptions::default());
        completed(outcome.unwrap())
    };

    // A run under a budget that never binds (1 GiB): measure its real peak.
    let measure = FocusConfig {
        memory_budget: Some(1 << 30),
        ..capped_config()
    };
    let (first, ooc_peak) = peak_over(|| budgeted(measure));
    assert_eq!(first.contigs, clean.contigs);
    drop(first);
    assert!(
        ooc_peak < in_core_peak,
        "the budget did not reduce the real peak: budgeted {ooc_peak} vs in-core {in_core_peak}"
    );
    assert!(
        ooc_peak <= OOC_PEAK_BOUND,
        "the budgeted run's peak heap {ooc_peak} B exceeds {OOC_PEAK_BOUND} B"
    );

    // Re-run under an enforced budget with ~15% headroom over the
    // measured budgeted peak — a cap the in-core run above demonstrably
    // blows through. Peak stays under the cap, contigs stay identical.
    let budget = ooc_peak + ooc_peak / 7;
    assert!(
        (budget as usize) < in_core_peak,
        "budget {budget} does not separate the two paths (in-core peak {in_core_peak})"
    );
    let capped = FocusConfig {
        memory_budget: Some(budget as u64),
        ..capped_config()
    };
    let (capped, capped_peak) = peak_over(|| budgeted(capped));
    assert_eq!(capped.contigs, clean.contigs);
    assert!(
        capped_peak <= budget,
        "real peak {capped_peak} exceeded the {budget}-byte cap"
    );

    // The in-core footprint, as live heap rather than RSS: `prepare` on a
    // tiling shaped like the ruler's (100 bp reads, four subsets, deep
    // enough that the overlap list outweighs the seed indexes) at one
    // thread. A return to holding every pair result at once, a second
    // copy of the list, the list kept until G0's undirected view is built
    // (17 529 978 B), 16-byte level-graph entries on top of that
    // (21 174 426 B), a store that keeps each read's name and qualities
    // (14 575 566 B; 14 695 854 B before the store held bases only), or
    // 32-byte overlap records that store an `f64` identity beside the match
    // count (13 358 160 B) fails here on any host.
    let reads = tiling(&genome(30_000, 5), 100, 4);
    let ruler_shaped = FocusConfig {
        subsets: 4,
        ..capped_config()
    };
    let (prepared, prepare_peak) = peak_over(|| {
        FocusAssembler::new(ruler_shaped)
            .unwrap()
            .prepare(&reads)
            .unwrap()
    });
    drop(prepared);
    assert!(
        prepare_peak <= PREPARE_PEAK_BOUND,
        "prepare's peak heap {prepare_peak} B exceeds {PREPARE_PEAK_BOUND} B"
    );
}

/// The budgeted run's measured peak heap on the tiling above, 182 428 B at
/// one thread, plus 5 %. A run that holds the multilevel level graphs and
/// `G0`'s undirected view through hybrid selection, as the pipeline did
/// before coarsening handed each level back, peaks at 200 257 B and fails
/// here. Either one alone stays at 182 428 B on this input: the run then
/// peaks outside selection.
const OOC_PEAK_BOUND: usize = 182_428 + 182_428 / 20;

/// `prepare`'s measured peak heap on the ruler-shaped tiling above,
/// 11 326 544 B at one thread in any build profile, plus 5 % (11 326 560 B
/// since alignment keeps each subset's offset width, 4 B a subset, from
/// its one capacity check). The peak is
/// deterministic at one thread, so the margin absorbs only allocator-size
/// changes elsewhere, not noise.
const PREPARE_PEAK_BOUND: usize = 11_326_544 + 11_326_544 / 20;
