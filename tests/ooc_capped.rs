//! Capped-heap proof for the out-of-core path, measured with a real
//! counting allocator (not the ledger): the spilled pipeline's true peak
//! heap is strictly below the in-core pipeline's on the same input, it
//! stays within a budget derived from its own measured peak, and the
//! contigs under that cap are byte-identical to the uncapped in-core run.
//!
//! This lives in its own integration-test binary on purpose: a
//! `#[global_allocator]` is process-wide, and the single `#[test]` here
//! keeps peak attribution honest.

use focus_assembler::focus::{
    AssemblyOutcome, CheckpointOptions, FocusAssembler, FocusConfig, OocOptions,
};
use focus_assembler::obs::ObsOptions;
use focus_assembler::seq::{fastq, DnaString, Read};
use focus_assembler::sim::genome::{random_genome, GenomeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, plus live-byte and peak-byte counters.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let live =
                    LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                        - layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap growth over `f`, relative to the live bytes at entry.
fn peak_over<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

fn genome(len: usize, seed: u64) -> DnaString {
    let config = GenomeConfig {
        length: len,
        ..GenomeConfig::default()
    };
    random_genome(&config, seed)
}

fn tiled_reads(len: usize, seed: u64) -> Vec<Read> {
    // Long reads on purpose: seed indexes scale with bases while
    // the graph scales with overlap count, so the alignment phase — the
    // part spilling shrinks — dominates the in-core peak.
    tiling(len, seed, 300, 150)
}

fn tiling(len: usize, seed: u64, read_len: usize, stride: usize) -> Vec<Read> {
    let g = genome(len, seed);
    let mut reads = Vec::new();
    let mut start = 0;
    while start + read_len <= g.len() {
        reads.push(Read::new(
            format!("r{start}"),
            g.slice(start, start + read_len),
        ));
        start += stride;
    }
    reads
}

fn config() -> FocusConfig {
    let mut c = FocusConfig {
        partitions: 4,
        subsets: 8,
        threads: 1,
        observability: ObsOptions::logical(),
        ..Default::default()
    };
    c.trim.min_read_len = 30;
    c.overlap.min_overlap_len = 40;
    c
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc-ooc-cap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn spilled_peak_heap_is_below_in_core_and_within_budget() {
    // Big enough that the pipeline's data structures dominate constant
    // overheads in the peak measurement.
    let reads = tiled_reads(36_000, 11);
    let input_dir = temp_dir("input");
    std::fs::create_dir_all(&input_dir).unwrap();
    let input = input_dir.join("reads.fastq");
    let mut buf = Vec::new();
    for read in &reads {
        fastq::write_read(&mut buf, read, 30).unwrap();
    }
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
        let assembler = FocusAssembler::new(config()).unwrap();
        assembler.assemble(&parsed).unwrap()
    });

    // Uncapped spilled run: measure its real peak.
    let spill = temp_dir("measure");
    let (first, ooc_peak) = peak_over(|| {
        let assembler = FocusAssembler::new(config()).unwrap();
        match assembler
            .assemble_fastq(
                &input,
                &CheckpointOptions::default(),
                Some(&OocOptions::in_dir(&spill)),
            )
            .unwrap()
        {
            AssemblyOutcome::Completed(r) => r,
            AssemblyOutcome::Stopped(p) => panic!("stopped at {p:?}"),
        }
    });
    assert_eq!(first.contigs, clean.contigs);
    drop(first);
    let _ = std::fs::remove_dir_all(&spill);
    assert!(
        ooc_peak < in_core_peak,
        "spilling did not reduce the real peak: ooc {ooc_peak} vs in-core {in_core_peak}"
    );

    // Re-run under an enforced budget with ~15% headroom over the
    // measured spilled peak — a cap the in-core run above demonstrably
    // blows through. Peak stays under the cap, contigs stay identical.
    let budget = ooc_peak + ooc_peak / 7;
    assert!(
        (budget as usize) < in_core_peak,
        "budget {budget} does not separate the two paths (in-core peak {in_core_peak})"
    );
    let spill = temp_dir("capped");
    let mut capped_config = config();
    capped_config.memory_budget = Some(budget as u64);
    let (capped, capped_peak) = peak_over(|| {
        let assembler = FocusAssembler::new(capped_config).unwrap();
        match assembler
            .assemble_fastq(
                &input,
                &CheckpointOptions::default(),
                Some(&OocOptions::in_dir(&spill)),
            )
            .unwrap()
        {
            AssemblyOutcome::Completed(r) => r,
            AssemblyOutcome::Stopped(p) => panic!("stopped at {p:?}"),
        }
    });
    assert_eq!(capped.contigs, clean.contigs);
    assert!(
        capped_peak <= budget,
        "real peak {capped_peak} exceeded the {budget}-byte cap"
    );
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(&input_dir);

    // The in-core footprint, as live heap rather than RSS: `prepare` on a
    // tiling shaped like the ruler's (100 bp reads, four subsets, deep
    // enough that the overlap list outweighs the seed indexes) at one
    // thread. A return to holding every pair result at once, a second
    // copy of the list, the list kept until G0's undirected view is built
    // (17 529 978 B), 16-byte level-graph entries on top of that
    // (21 174 426 B), or a store that keeps each read's name and qualities
    // (14 575 566 B; 14 695 854 B before the store held bases only) fails
    // here on any host.
    let reads = tiling(30_000, 5, 100, 4);
    let ruler_shaped = FocusConfig {
        subsets: 4,
        ..config()
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

/// `prepare`'s measured peak heap on the ruler-shaped tiling above,
/// 13 716 176 B at one thread in any build profile, plus 5 %. The peak is
/// deterministic at one thread, so the margin absorbs only allocator-size
/// changes elsewhere, not noise.
const PREPARE_PEAK_BOUND: usize = 13_716_176 + 13_716_176 / 20;
