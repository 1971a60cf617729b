//! Out-of-core assembly invariants: the spilled pipeline is the in-core
//! pipeline, bit for bit.
//!
//! Contract under test: contigs, traversal paths, fault reports and
//! logical-clock metric snapshots are byte-identical across {in-core,
//! spilled} × any memory budget × any thread count; every injected
//! filesystem fault mid-spill or mid-merge is *detected* (CRC) and answered
//! by recomputation or a one-warning graceful in-core fallback — never a
//! panic, never a wrong contig; a killed run resumes staged pages and the
//! alignment checkpoint; and the budget gate rejects in-core runs that
//! genuinely do not fit while the spilled path completes under the same
//! budget.

use fc_rng::cases;
use focus_assembler::align::{KmerIndex, Overlap, Overlapper, Pool};
use focus_assembler::ckpt::{crc32, CheckpointFile};
use focus_assembler::ckpt::{FsFaultPlan, ReadFault, WriteFault};
use focus_assembler::focus::{
    AssemblyOutcome, AssemblyResult, CheckpointOptions, CkptPhase, FaultInjection, FocusAssembler,
    FocusConfig, FocusError, OocOptions, Recorder,
};
use focus_assembler::obs::ObsOptions;
use focus_assembler::seq::{fastq, DnaString, Read, ReadStore};
use focus_assembler::sim::genome::{random_genome, GenomeConfig};
use std::io::BufReader;
use std::path::{Path, PathBuf};

fn genome(len: usize, seed: u64) -> DnaString {
    let config = GenomeConfig {
        length: len,
        ..GenomeConfig::default()
    };
    random_genome(&config, seed)
}

fn tiled_reads(len: usize, seed: u64) -> Vec<Read> {
    let g = genome(len, seed);
    let (read_len, stride) = (100usize, 50usize);
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

/// Logical-clock observability + deterministic dist-stage fault injection,
/// matching the chaos harness so snapshots are rich.
fn ooc_config(threads: usize) -> FocusConfig {
    let mut c = ooc_config_unfaulted(threads);
    c.fault = Some(FaultInjection {
        seed: 42,
        rates: focus_assembler::dist::FaultRates {
            crash: 0.2,
            drop: 0.3,
            ..Default::default()
        },
    });
    c
}

/// [`ooc_config`] without fault injection.
fn ooc_config_unfaulted(threads: usize) -> FocusConfig {
    let mut c = FocusConfig {
        partitions: 4,
        threads,
        observability: ObsOptions::logical(),
        ..Default::default()
    };
    c.trim.min_read_len = 30;
    c.overlap.min_overlap_len = 40;
    c
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc-ooc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes reads to a FASTQ file and parses them back, so the in-core
/// baseline sees exactly what the streaming path will read (including the
/// synthesized quality lines).
fn fastq_fixture(tag: &str, reads: &[Read]) -> (PathBuf, Vec<Read>) {
    let dir = temp_dir(&format!("input-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reads.fastq");
    let mut out = Vec::new();
    for read in reads {
        fastq::write_read(&mut out, read, 30).unwrap();
    }
    std::fs::write(&path, &out).unwrap();
    let parsed: Vec<Read> = fastq::Reader::new(BufReader::new(std::fs::File::open(&path).unwrap()))
        .collect::<Result<_, _>>()
        .unwrap();
    (path, parsed)
}

fn completed(outcome: AssemblyOutcome) -> AssemblyResult {
    match outcome {
        AssemblyOutcome::Completed(r) => r,
        AssemblyOutcome::Stopped(p) => panic!("unexpected stop after {p:?}"),
    }
}

fn run_clean(reads: &[Read], threads: usize) -> (AssemblyResult, String) {
    run_clean_with(reads, ooc_config(threads))
}

fn run_clean_with(reads: &[Read], config: FocusConfig) -> (AssemblyResult, String) {
    let assembler = FocusAssembler::new(config).unwrap();
    let result = assembler.assemble(reads).unwrap();
    let snapshot = assembler.recorder().snapshot_json();
    (result, snapshot)
}

fn run_ooc(
    config: FocusConfig,
    input: &Path,
    opts: &CheckpointOptions,
    ooc: &OocOptions,
) -> (FocusAssembler, Result<AssemblyOutcome, FocusError>) {
    let assembler = FocusAssembler::new(config).unwrap();
    let outcome = assembler.assemble_fastq(input, opts, Some(ooc));
    (assembler, outcome)
}

/// The headline invariant: {in-core, spilled} × budget × threads all
/// produce byte-identical contigs, paths, fault reports and logical metric
/// snapshots.
#[test]
fn spilled_assembly_is_bit_identical_to_in_core() {
    let (input, parsed) = fastq_fixture("ident", &tiled_reads(2500, 11));
    let (clean, clean_snapshot) = run_clean(&parsed, 1);
    for threads in [1usize, 2, 4, 8] {
        for budget in [None, Some(1u64 << 30)] {
            let tag = format!("ident-{threads}-{}", budget.is_some());
            let spill = temp_dir(&tag);
            let mut config = ooc_config(threads);
            config.memory_budget = budget;
            let ooc = OocOptions::in_dir(&spill);
            let (assembler, outcome) = run_ooc(config, &input, &CheckpointOptions::default(), &ooc);
            let result = completed(outcome.unwrap());
            assert_eq!(result.contigs, clean.contigs, "{tag}");
            assert_eq!(result.report.paths, clean.report.paths, "{tag}");
            assert_eq!(result.report.fault, clean.report.fault, "{tag}");
            assert_eq!(
                assembler.recorder().snapshot_json(),
                clean_snapshot,
                "snapshot diverged: {tag}"
            );
            // The spill layer actually ran: every subset pair spilled, and
            // the trimmed reads were staged.
            let counters = assembler.recorder().snapshot().counters;
            assert!(counters["ooc.spill.runs"] >= 1, "{tag}: nothing spilled");
            assert!(
                counters["ooc.ingest.staged_pages"] >= 1,
                "{tag}: nothing staged"
            );
            assert_eq!(counters.get("ooc.spill.degraded"), None, "{tag}");
            let _ = std::fs::remove_dir_all(&spill);
        }
    }
}

/// Every write fault the fault plan can inject mid-spill (torn file, bit
/// flip, ENOSPC) and every read fault mid-merge (short read, bit flip) is
/// detected and answered — recomputation for corruption, one-warning
/// in-core fallback for write failure. Contigs and snapshots never change.
#[test]
fn every_spill_fault_is_detected_and_answered() {
    let (input, parsed) = fastq_fixture("fault", &tiled_reads(2500, 11));
    let (clean, clean_snapshot) = run_clean(&parsed, 2);

    let write_faults = [
        ("torn", WriteFault::Torn),
        ("bitflip", WriteFault::BitFlip { bit: 12_345 }),
        ("enospc", WriteFault::Enospc),
    ];
    for (name, fault) in write_faults {
        for op in [0u64, 3] {
            let tag = format!("wf-{name}-{op}");
            let spill = temp_dir(&tag);
            let mut ooc = OocOptions::in_dir(&spill);
            ooc.fs_faults = FsFaultPlan::none().fail_write(op, fault);
            let (assembler, outcome) =
                run_ooc(ooc_config(2), &input, &CheckpointOptions::default(), &ooc);
            let result = completed(outcome.unwrap());
            assert_eq!(result.contigs, clean.contigs, "{tag}");
            assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot, "{tag}");
            let counters = assembler.recorder().snapshot().counters;
            let detected = counters.get("ooc.spill.rejected").copied().unwrap_or(0)
                + counters.get("ooc.spill.recomputed").copied().unwrap_or(0)
                + counters.get("ooc.spill.degraded").copied().unwrap_or(0);
            assert!(detected >= 1, "{tag}: fault went unnoticed");
            let _ = std::fs::remove_dir_all(&spill);
        }
    }

    let read_faults = [
        ("short", ReadFault::Short),
        ("bitflip", ReadFault::BitFlip { bit: 4_321 }),
    ];
    for (name, fault) in read_faults {
        for op in [0u64, 2] {
            let tag = format!("rf-{name}-{op}");
            let spill = temp_dir(&tag);
            let mut ooc = OocOptions::in_dir(&spill);
            ooc.fs_faults = FsFaultPlan::none().fail_read(op, fault);
            let (assembler, outcome) =
                run_ooc(ooc_config(2), &input, &CheckpointOptions::default(), &ooc);
            let result = completed(outcome.unwrap());
            assert_eq!(result.contigs, clean.contigs, "{tag}");
            assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot, "{tag}");
            let counters = assembler.recorder().snapshot().counters;
            assert!(
                counters.get("ooc.spill.rejected").copied().unwrap_or(0) >= 1,
                "{tag}: corruption never detected"
            );
            assert!(
                counters.get("ooc.spill.recomputed").copied().unwrap_or(0) >= 1,
                "{tag}: rejected run never recomputed"
            );
            let _ = std::fs::remove_dir_all(&spill);
        }
    }
}

/// Killing an out-of-core run after every checkpointed boundary and
/// resuming reproduces the clean run bit for bit, at one and four threads,
/// with and without injected faults: staged read pages replace ingest, and
/// the alignment checkpoint replaces the spilled pairs' merge.
#[test]
fn killed_ooc_run_resumes_pages_and_checkpoints() {
    let (input, parsed) = fastq_fixture("kill", &tiled_reads(2500, 11));
    for threads in [1usize, 4] {
        for config in [ooc_config_unfaulted(threads), ooc_config(threads)] {
            let (clean, clean_snapshot) = run_clean_with(&parsed, config);
            for &phase in &CkptPhase::ALL {
                let tag = format!(
                    "kill-{}-t{threads}-f{}",
                    phase.name(),
                    config.fault.is_some()
                );
                let spill = temp_dir(&format!("{tag}-spill"));
                let ckpt = temp_dir(&format!("{tag}-ckpt"));
                let mut opts = CheckpointOptions::in_dir(&ckpt);
                opts.stop_after = Some(phase);
                let ooc = OocOptions::in_dir(&spill);
                let (_, stopped) = run_ooc(config, &input, &opts, &ooc);
                match stopped.unwrap() {
                    AssemblyOutcome::Stopped(p) => assert_eq!(p, phase),
                    AssemblyOutcome::Completed(_) => panic!("{tag}: did not stop"),
                }
                opts.stop_after = None;
                opts.resume = true;
                let (assembler, outcome) = run_ooc(config, &input, &opts, &ooc);
                let resumed = completed(outcome.unwrap());
                assert_eq!(resumed.contigs, clean.contigs, "{tag}");
                assert_eq!(resumed.report.paths, clean.report.paths, "{tag}");
                assert_eq!(resumed.report.fault, clean.report.fault, "{tag}");
                assert_eq!(
                    assembler.recorder().snapshot_json(),
                    clean_snapshot,
                    "{tag}"
                );
                // The resumed ingest adopted the staged pages instead of
                // re-trimming the input, and alignment came from its
                // checkpoint.
                let counters = assembler.recorder().snapshot().counters;
                assert!(
                    counters.get("ooc.ingest.resumed").copied().unwrap_or(0) >= 1,
                    "{tag}: staged pages were not adopted"
                );
                assert_eq!(counters.get("ckpt.loaded"), Some(&1), "{tag}");
                let _ = std::fs::remove_dir_all(&spill);
                let _ = std::fs::remove_dir_all(&ckpt);
            }
        }
    }
}

/// Resuming with only spilled alignment runs (no phase checkpoints at
/// all) skips the pair recomputation yet reproduces the contigs exactly —
/// the spill files are verified (CRC + fingerprint) before being trusted.
#[test]
fn spill_only_resume_skips_recompute_and_reproduces_contigs() {
    let (input, parsed) = fastq_fixture("sresume", &tiled_reads(2500, 11));
    let (clean, _) = run_clean(&parsed, 2);
    let spill = temp_dir("sresume-spill");
    let ooc = OocOptions::in_dir(&spill);
    let (first, outcome) = run_ooc(ooc_config(2), &input, &CheckpointOptions::default(), &ooc);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
    let spilled = first.recorder().snapshot().counters["ooc.spill.runs"];
    assert!(spilled >= 1);

    let mut opts = CheckpointOptions::default();
    opts.resume = true;
    let (second, outcome) = run_ooc(ooc_config(2), &input, &opts, &ooc);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
    let counters = second.recorder().snapshot().counters;
    // Nothing was spilled the second time: every pair verified on disk.
    assert_eq!(counters.get("ooc.spill.runs"), None, "pairs were recomputed");
    let _ = std::fs::remove_dir_all(&spill);
}

/// A fresh out-of-core run digests its input inside its one ingest pass.
/// The phase checkpoints it writes are stamped with that digest, and an
/// in-core run on the parsed reads, whose digest is `input_digest` over
/// them, resumes from them: the two digests are equal.
#[test]
fn fresh_ooc_checkpoints_resume_an_in_core_run() {
    let (input, parsed) = fastq_fixture("fused", &tiled_reads(2500, 11));
    let (clean, clean_snapshot) = run_clean(&parsed, 2);
    let spill = temp_dir("fused-spill");
    let ckpt = temp_dir("fused-ckpt");
    let opts = CheckpointOptions::in_dir(&ckpt);
    let (_, outcome) = run_ooc(ooc_config(2), &input, &opts, &OocOptions::in_dir(&spill));
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);

    let resume = CheckpointOptions {
        resume: true,
        ..opts
    };
    let assembler = FocusAssembler::new(ooc_config(2)).unwrap();
    let resumed = completed(
        assembler
            .assemble_with_checkpoints(&parsed, &resume)
            .unwrap(),
    );
    assert_eq!(resumed.contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    let counters = assembler.recorder().snapshot().counters;
    assert!(
        counters.get("ckpt.loaded").copied().unwrap_or(0) >= 1,
        "nothing resumed"
    );
    assert_eq!(counters.get("ckpt.rejected"), None);
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(input.parent().unwrap());
}

/// A resumed run digests the input before it may adopt staged pages. When
/// one read changed since they were staged, nothing of the old run is
/// adopted: the pages are stale, every spilled pair run is refused and
/// recomputed, and the output is a clean run's on the new input.
#[test]
fn resume_after_the_input_changed_adopts_nothing() {
    let reads = tiled_reads(2500, 11);
    let (input, _) = fastq_fixture("changed", &reads);
    let spill = temp_dir("changed-spill");
    let ooc = OocOptions::in_dir(&spill);
    let (first, outcome) = run_ooc(ooc_config(2), &input, &CheckpointOptions::default(), &ooc);
    completed(outcome.unwrap());
    let counters = first.recorder().snapshot().counters;
    assert!(counters["ooc.ingest.staged_pages"] >= 1);

    let mut changed = reads;
    let base = changed[7].seq.get(50);
    changed[7].seq.set(50, base.complement());
    let (rewritten, parsed) = fastq_fixture("changed", &changed);
    assert_eq!(rewritten, input);
    let (clean, clean_snapshot) = run_clean(&parsed, 2);
    let resume = CheckpointOptions {
        resume: true,
        ..CheckpointOptions::default()
    };
    let (assembler, outcome) = run_ooc(ooc_config(2), &input, &resume, &ooc);
    let result = completed(outcome.unwrap());
    assert_eq!(result.contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    let counters = assembler.recorder().snapshot().counters;
    let subsets = ooc_config(2).subsets as u64;
    let pairs = subsets * (subsets + 1) / 2;
    assert_eq!(counters.get("ooc.ingest.resumed"), None);
    assert_eq!(counters.get("ooc.spill.rejected"), Some(&pairs));
    assert_eq!(counters.get("ooc.spill.runs"), Some(&pairs));
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(input.parent().unwrap());
}

/// The budget gate: a budget the in-core pipeline cannot satisfy (it must
/// hold raw input + store + overlaps, and more while its seed indexes are
/// alive) still admits the spilled pipeline,
/// which streams the input and pages the alignment — and the output under
/// pressure is byte-identical. A budget nothing fits under fails both
/// ways, typed.
#[test]
fn budget_rejects_in_core_but_admits_spilled() {
    let (input, parsed) = fastq_fixture("budget", &tiled_reads(2500, 11));
    let mut config = ooc_config(2);
    config.subsets = 8;

    // A lower bound on the in-core ledger requirement: raw input reads +
    // preprocessed store + verified overlaps.
    let assembler = FocusAssembler::new(config).unwrap();
    let prep = assembler.prepare(&parsed).unwrap();
    let clean = assembler.assemble_prepared(&prep, config.partitions).unwrap();
    let input_bytes: usize = parsed.iter().map(Read::approx_bytes).sum();
    let store_bytes = ReadStore::preprocess(&parsed, &config.trim).unwrap().approx_bytes();
    let overlaps = Overlapper::new(&prep.store, config.overlap)
        .unwrap()
        .overlap_all(
            &prep.store.split_subsets(config.subsets),
            &Pool::new(config.threads),
            &Recorder::disabled(),
        );
    let overlap_bytes = overlaps.0.len() * std::mem::size_of::<Overlap>();
    let in_core_needs = (input_bytes + store_bytes + overlap_bytes) as u64;

    // Just below the in-core requirement: in-core is rejected, typed.
    config.memory_budget = Some(in_core_needs - 1);
    let capped = FocusAssembler::new(config).unwrap();
    match capped.prepare(&parsed) {
        Err(FocusError::BudgetExceeded(e)) => {
            assert!(e.limit > 0);
            assert!(e.requested + e.used > e.limit);
        }
        other => panic!("in-core under budget cap: {other:?}"),
    }

    // The spilled path fits the same budget and reproduces the output.
    let spill = temp_dir("budget-spill");
    let ooc = OocOptions::in_dir(&spill);
    let (_, outcome) = run_ooc(config, &input, &CheckpointOptions::default(), &ooc);
    let result = completed(outcome.unwrap());
    assert_eq!(result.contigs, clean.contigs);
    let _ = std::fs::remove_dir_all(&spill);

    // A budget nothing fits under is a typed error on both paths, not a
    // panic or an OOM.
    config.memory_budget = Some(4096);
    let tiny = FocusAssembler::new(config).unwrap();
    assert!(matches!(
        tiny.prepare(&parsed),
        Err(FocusError::BudgetExceeded(_))
    ));
    let spill = temp_dir("budget-tiny");
    let (_, outcome) = run_ooc(
        config,
        &input,
        &CheckpointOptions::default(),
        &OocOptions::in_dir(&spill),
    );
    assert!(matches!(outcome, Err(FocusError::BudgetExceeded(_))));
    let _ = std::fs::remove_dir_all(&spill);
}

/// In-core alignment builds every subset's seed index before it verifies
/// anything, and the ledger charges them as `align-index` before the
/// first is built. A budget that holds the input, the store and the
/// overlaps but not the input, the store and the indexes refuses the
/// in-core run there; the spilled run, one index at a time and no raw
/// input, completes under it with the unbudgeted contigs.
#[test]
fn in_core_alignment_charges_its_seed_indexes() {
    let (input, parsed) = fastq_fixture("index-charge", &tiled_reads(2500, 11));
    let mut config = ooc_config(2);
    let prep = FocusAssembler::new(config)
        .unwrap()
        .prepare(&parsed)
        .unwrap();
    let store = &prep.store;
    let held = parsed.iter().map(Read::approx_bytes).sum::<usize>() + store.approx_bytes();
    let subsets = store.split_subsets(config.subsets);
    let indexes: u64 = subsets
        .iter()
        .map(|s| {
            let bases = s.iter().map(|&id| store.get(id).len()).sum();
            KmerIndex::estimated_bytes(bases, s.len(), config.overlap.k)
        })
        .sum();
    let overlaps = Overlapper::new(store, config.overlap)
        .unwrap()
        .overlap_all(&subsets, &Pool::serial(), &Recorder::disabled())
        .0
        .len();
    let overlap_bytes = (overlaps * std::mem::size_of::<Overlap>()) as u64;
    assert!(indexes > overlap_bytes, "{indexes} <= {overlap_bytes}");
    let budget = held as u64 + (overlap_bytes + indexes) / 2;
    config.memory_budget = Some(budget);

    match FocusAssembler::new(config).unwrap().prepare(&parsed) {
        Err(FocusError::BudgetExceeded(e)) => {
            assert_eq!(e.label, "align-index");
            assert_eq!((e.requested, e.used), (indexes, held as u64));
        }
        other => panic!("in-core under {budget} B: {other:?}"),
    }
    let unbudgeted = run_clean(&parsed, 2).0;
    let spill = temp_dir("index-charge-spill");
    let (_, outcome) = run_ooc(
        config,
        &input,
        &CheckpointOptions::default(),
        &OocOptions::in_dir(&spill),
    );
    assert_eq!(completed(outcome.unwrap()).contigs, unbudgeted.contigs);
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(input.parent().unwrap());
}

/// Rewrites every checkpoint container under `dir` as format version 4,
/// resealed so that only the version check can refuse it.
fn rewrite_as_version_4(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let Ok(file) = CheckpointFile::decode(&std::fs::read(&path).unwrap(), &path) else {
            continue; // the manifest
        };
        let mut bytes = file.encode();
        bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&crc);
        let refused = CheckpointFile::decode(&bytes, &path).unwrap_err();
        assert!(refused.to_string().contains("version 4"), "{refused}");
        std::fs::write(&path, bytes).unwrap();
    }
}

/// Files of the previous format — a version-4 alignment checkpoint and
/// version-4 staged pages — are refused on resume and recomputed, never
/// decoded as this version's layout: contigs and the logical snapshot
/// equal a clean run's.
#[test]
fn version_4_alignment_checkpoint_and_pages_are_refused_and_recomputed() {
    let (input, parsed) = fastq_fixture("v4", &tiled_reads(2500, 11));
    let (clean, clean_snapshot) = run_clean(&parsed, 2);
    let config = ooc_config(2);

    // A checkpointed in-core run stopped after alignment, its checkpoint
    // then restamped as version 4.
    let ckpt = temp_dir("v4-ckpt");
    let mut opts = CheckpointOptions::in_dir(&ckpt);
    opts.stop_after = Some(CkptPhase::Alignment);
    let stopped = FocusAssembler::new(config)
        .unwrap()
        .assemble_with_checkpoints(&parsed, &opts);
    assert!(matches!(
        stopped,
        Ok(AssemblyOutcome::Stopped(CkptPhase::Alignment))
    ));
    rewrite_as_version_4(&ckpt);
    opts.stop_after = None;
    opts.resume = true;
    let assembler = FocusAssembler::new(config).unwrap();
    let resumed = completed(assembler.assemble_with_checkpoints(&parsed, &opts).unwrap());
    assert_eq!(resumed.contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    let counters = assembler.recorder().snapshot().counters;
    assert_eq!(counters.get("ckpt.rejected"), Some(&1));
    assert_eq!(counters.get("ckpt.loaded"), None);

    // Staged pages rewritten as version 4: the resumed ingest re-trims the
    // input and stages afresh, and the next resume adopts the new pages.
    let spill = temp_dir("v4-spill");
    let ooc = OocOptions::in_dir(&spill);
    let (_, first) = run_ooc(config, &input, &CheckpointOptions::default(), &ooc);
    completed(first.unwrap());
    rewrite_as_version_4(&spill.join("pages"));
    let resume = CheckpointOptions {
        resume: true,
        ..CheckpointOptions::default()
    };
    for adopted in [None, Some(&1)] {
        // Only the pages are under test: alignment recomputes every time.
        let _ = std::fs::remove_dir_all(spill.join("align"));
        let (assembler, outcome) = run_ooc(config, &input, &resume, &ooc);
        assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
        assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
        let counters = assembler.recorder().snapshot().counters;
        assert_eq!(counters.get("ooc.ingest.resumed"), adopted);
    }
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(input.parent().unwrap());
}

/// The headline invariant as a property: random genomes, random
/// thread counts — spilled output and logical snapshot equal in-core.
#[test]
fn spilled_identity_holds_for_random_genomes() {
    cases(4, |rng| {
        let (seed, threads_ix) = (rng.range(1u64..1000), rng.range(0usize..4));
        let threads = [1usize, 2, 4, 8][threads_ix];
        let (input, parsed) =
            fastq_fixture(&format!("prop-{seed}-{threads}"), &tiled_reads(2000, seed));
        let (clean, clean_snapshot) = run_clean(&parsed, threads);
        let spill = temp_dir(&format!("prop-spill-{seed}-{threads}"));
        let mut config = ooc_config(threads);
        config.memory_budget = Some(1 << 30);
        let (assembler, outcome) = run_ooc(
            config,
            &input,
            &CheckpointOptions::default(),
            &OocOptions::in_dir(&spill),
        );
        let result = completed(outcome.unwrap());
        assert_eq!(&result.contigs, &clean.contigs);
        assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
        let _ = std::fs::remove_dir_all(&spill);
        let _ = std::fs::remove_dir_all(input.parent().unwrap());
    });
}
