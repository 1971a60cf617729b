//! The out-of-core pipeline.
//!
//! The contract matrix's spilled points (`tests/common/matrix.rs`) run
//! here: the spilled pipeline reproduces the in-core one, bit for bit, at
//! every thread count and budget, killed and resumed, and under every spill
//! fault. Beside them: spilled pair runs left without a checkpoint,
//! checkpoints shared between an out-of-core and an in-core run, an input
//! that changed between runs, the budget gate and its seed-index charge,
//! and files of the previous format.
//!
//! A resumed out-of-core run reads its input once, like every other run:
//! its one resume state is the alignment checkpoint, keyed by the digest
//! that one pass computes. Spilled pair runs are scratch: a run reads back
//! only those it wrote.

mod common;

use common::matrix::{run_random, run_slice, Slice};
use common::{completed, contract_config, fastq_fixture, run_clean, tiled_reads, TempDir};
use focus_assembler::align::{KmerIndex, Overlap, Overlapper, Pool};
use focus_assembler::ckpt::{crc32, CheckpointFile};
use focus_assembler::focus::{
    AssemblyOutcome, CheckpointOptions, CkptPhase, FocusAssembler, FocusConfig, FocusError,
    OocOptions, Recorder,
};
use focus_assembler::seq::{Read, ReadStore};
use std::path::{Path, PathBuf};

/// The contract's configuration at two threads, `FaultPlan` on.
fn ooc_config() -> FocusConfig {
    contract_config(2, true)
}

fn run_ooc(
    config: FocusConfig,
    input: &Path,
    opts: &CheckpointOptions,
    ooc: &OocOptions,
) -> (FocusAssembler, Result<AssemblyOutcome, FocusError>) {
    let assembler = FocusAssembler::new(config).unwrap();
    let outcome = assembler.assemble_file(input, opts, Some(ooc));
    (assembler, outcome)
}

/// Spilled with no budget and under a 1 GiB one, at 1, 2, 4 and 8 threads,
/// clean and under the `FaultPlan`: the in-core reference, having spilled
/// pair runs.
#[test]
fn spilled_assembly_is_bit_identical_to_in_core() {
    run_slice(Slice::Spilled);
}

/// Torn, bit-flipped and ENOSPC spill writes, early and late, and short and
/// bit-flipped spill reads: each is counted and answered, and the output is
/// the reference's.
#[test]
fn every_spill_fault_is_detected_and_answered() {
    run_slice(Slice::SpillFaults);
}

/// The matrix's spill fault points, counted: which saves are torn,
/// flipped or refused, which reads are rejected and which pairs are
/// recomputed is the same at 1, 2 and 3 threads, and the same as before
/// the saves moved into the alignment column's in-order sink (`EXPECTED`
/// was captured on the commit before that move). Each row is `(spill
/// runs, spilled pairs, degraded, rejected, recomputed)`.
#[test]
fn spill_faults_hit_and_answer_the_same_pairs() {
    use focus_assembler::ckpt::{FsFaultPlan, ReadFault, WriteFault};
    const EXPECTED: [(&str, [u64; 5]); 10] = [
        ("write-torn@0", [10, 10, 0, 1, 1]),
        ("write-torn@3", [10, 10, 0, 1, 1]),
        ("write-flip@0", [10, 10, 0, 1, 1]),
        ("write-flip@3", [10, 10, 0, 1, 1]),
        ("write-enospc@0", [0, 0, 1, 0, 0]),
        ("write-enospc@3", [3, 3, 1, 0, 0]),
        ("read-short@0", [10, 10, 0, 1, 1]),
        ("read-short@2", [10, 10, 0, 1, 1]),
        ("read-flip@0", [10, 10, 0, 1, 1]),
        ("read-flip@2", [10, 10, 0, 1, 1]),
    ];
    let tmp = TempDir::new("spill-pin");
    let (input, _) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let write = |op, fault| FsFaultPlan::none().fail_write(op, fault);
    let read = |op, fault| FsFaultPlan::none().fail_read(op, fault);
    let points = [
        ("write-torn@0", write(0, WriteFault::Torn)),
        ("write-torn@3", write(3, WriteFault::Torn)),
        (
            "write-flip@0",
            write(0, WriteFault::BitFlip { bit: 12_345 }),
        ),
        (
            "write-flip@3",
            write(3, WriteFault::BitFlip { bit: 12_345 }),
        ),
        ("write-enospc@0", write(0, WriteFault::Enospc)),
        ("write-enospc@3", write(3, WriteFault::Enospc)),
        ("read-short@0", read(0, ReadFault::Short)),
        ("read-short@2", read(2, ReadFault::Short)),
        ("read-flip@0", read(0, ReadFault::BitFlip { bit: 4_321 })),
        ("read-flip@2", read(2, ReadFault::BitFlip { bit: 4_321 })),
    ];
    for threads in [1, 2, 3] {
        let mut got = Vec::new();
        for (name, plan) in &points {
            let ooc = OocOptions {
                spill_dir: tmp.join(format!("{name}-t{threads}")),
                fs_faults: plan.clone(),
            };
            let config = contract_config(threads, true);
            let (assembler, outcome) = run_ooc(config, &input, &CheckpointOptions::default(), &ooc);
            completed(outcome.unwrap());
            let counters = assembler.recorder().snapshot().counters;
            let n = |key: &str| counters.get(key).copied().unwrap_or(0);
            let keys = ["runs", "pairs", "degraded", "rejected", "recomputed"];
            got.push((*name, keys.map(|k| n(&format!("ooc.spill.{k}")))));
        }
        println!("threads={threads}: {got:?}");
        assert_eq!(got, EXPECTED, "{threads} threads");
    }
}

/// Stopped after alignment out of core and resumed: the input is read
/// again and the alignment checkpoint adopted, at every thread count,
/// clean and under the `FaultPlan`.
#[test]
fn killed_ooc_run_resumes_pages_and_checkpoints() {
    run_slice(Slice::SpilledResume);
}

/// Random genomes at random out-of-core points.
#[test]
fn spilled_identity_holds_for_random_genomes() {
    run_random(4, |p| p.mode.spills());
}

/// A spilled run killed before its alignment checkpoint was written
/// leaves spilled pair runs and no checkpoint. Resumed, it adopts none of
/// them: every pair is aligned and spilled afresh, none is read back
/// before this run wrote it, and the contigs and the logical snapshot are
/// a clean run's.
#[test]
fn spills_without_a_checkpoint_are_recomputed_not_adopted() {
    let tmp = TempDir::new("sresume");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let (clean, clean_snapshot) = run_clean(&parsed, ooc_config());
    let opts = CheckpointOptions::in_dir(tmp.join("ckpt"));
    let ooc = OocOptions::in_dir(tmp.join("spill"));
    let (_, outcome) = run_ooc(ooc_config(), &input, &opts, &ooc);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
    std::fs::remove_file(tmp.join("ckpt/phase_01_alignment.ckpt")).unwrap();

    let resume = CheckpointOptions {
        resume: true,
        ..opts
    };
    let (second, outcome) = run_ooc(ooc_config(), &input, &resume, &ooc);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
    assert_eq!(second.recorder().snapshot_json(), clean_snapshot);
    let counters = second.recorder().snapshot().counters;
    let pairs = pairs(&ooc_config());
    assert_eq!(counters.get("ooc.spill.runs"), Some(&pairs));
    assert_eq!(counters.get("ooc.spill.rejected"), None);
    assert_eq!(counters.get("ckpt.loaded"), None);
}

/// An out-of-core run's checkpoint resumes an in-core run of the same
/// file: both stamp it with the digest of their one ingest pass, and the
/// in-core resume reproduces the clean run's contigs and snapshot.
#[test]
fn fresh_ooc_checkpoints_resume_an_in_core_run() {
    let tmp = TempDir::new("fused");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let (clean, clean_snapshot) = run_clean(&parsed, ooc_config());
    let opts = CheckpointOptions::in_dir(tmp.join("ckpt"));
    let ooc = OocOptions::in_dir(tmp.join("spill"));
    let (_, outcome) = run_ooc(ooc_config(), &input, &opts, &ooc);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);

    let resume = CheckpointOptions {
        resume: true,
        ..opts
    };
    let assembler = FocusAssembler::new(ooc_config()).unwrap();
    let resumed = completed(assembler.assemble_file(&input, &resume, None).unwrap());
    assert_eq!(resumed.contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    let counters = assembler.recorder().snapshot().counters;
    assert!(
        counters.get("ckpt.loaded").copied().unwrap_or(0) >= 1,
        "nothing resumed"
    );
    assert_eq!(counters.get("ckpt.rejected"), None);
}

/// When one read changed since a spilled run checkpointed its alignment,
/// a resumed run adopts nothing of it: the checkpoint, keyed by the old
/// input's digest, is refused, every pair is aligned and spilled afresh
/// without a spilled run of the old input being read, and the output is a
/// clean run's on the new input.
#[test]
fn resume_after_the_input_changed_adopts_nothing() {
    let tmp = TempDir::new("changed");
    let reads = tiled_reads(2500, 11);
    let (input, _) = fastq_fixture(&tmp.join("input"), &reads);
    let opts = CheckpointOptions::in_dir(tmp.join("ckpt"));
    let ooc = OocOptions::in_dir(tmp.join("spill"));
    let (first, outcome) = run_ooc(ooc_config(), &input, &opts, &ooc);
    completed(outcome.unwrap());
    assert!(first.recorder().snapshot().counters["ooc.spill.runs"] >= 1);

    let mut changed = reads;
    let base = changed[7].seq.get(50);
    changed[7].seq.set(50, base.complement());
    let (rewritten, parsed) = fastq_fixture(&tmp.join("input"), &changed);
    assert_eq!(rewritten, input);
    let (clean, clean_snapshot) = run_clean(&parsed, ooc_config());
    let resume = CheckpointOptions {
        resume: true,
        ..opts
    };
    let (assembler, outcome) = run_ooc(ooc_config(), &input, &resume, &ooc);
    let result = completed(outcome.unwrap());
    assert_eq!(result.contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    let counters = assembler.recorder().snapshot().counters;
    let pairs = pairs(&ooc_config());
    assert_eq!(counters.get("ckpt.rejected"), Some(&1));
    assert_eq!(counters.get("ooc.spill.rejected"), None);
    assert_eq!(counters.get("ooc.spill.runs"), Some(&pairs));
}

/// The budget gate: a budget the in-core pipeline cannot satisfy (it must
/// hold raw input + store + overlaps, and more while its seed indexes are
/// alive) still admits the spilled pipeline,
/// which streams the input and pages the alignment — and the output under
/// pressure is byte-identical. A budget nothing fits under fails both
/// ways, typed.
#[test]
fn budget_rejects_in_core_but_admits_spilled() {
    let tmp = TempDir::new("budget");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let mut config = ooc_config();
    config.subsets = 8;

    // A lower bound on the in-core ledger requirement: raw input reads +
    // preprocessed store + verified overlaps.
    let assembler = FocusAssembler::new(config).unwrap();
    let prep = assembler.prepare_stages(&parsed).unwrap();
    let clean = assembler
        .assemble_prepared(&prep.prepared, config.partitions)
        .unwrap();
    let input_bytes: usize = parsed.iter().map(Read::approx_bytes).sum();
    let store_bytes = ReadStore::preprocess(&parsed, &config.trim)
        .unwrap()
        .approx_bytes();
    let overlaps = Overlapper::new(&prep.store, config.overlap)
        .unwrap()
        .overlap_all(
            &prep.store.split_subsets(config.subsets),
            &Pool::new(config.threads),
            &Recorder::disabled(),
        )
        .unwrap();
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
    let ooc = OocOptions::in_dir(tmp.join("spill"));
    let (_, outcome) = run_ooc(config, &input, &CheckpointOptions::default(), &ooc);
    let result = completed(outcome.unwrap());
    assert_eq!(result.contigs, clean.contigs);

    // A budget nothing fits under is a typed error on both paths, not a
    // panic or an OOM.
    config.memory_budget = Some(4096);
    let tiny = FocusAssembler::new(config).unwrap();
    assert!(matches!(
        tiny.prepare(&parsed),
        Err(FocusError::BudgetExceeded(_))
    ));
    let ooc = OocOptions::in_dir(tmp.join("tiny"));
    let (_, outcome) = run_ooc(config, &input, &CheckpointOptions::default(), &ooc);
    assert!(matches!(outcome, Err(FocusError::BudgetExceeded(_))));
}

/// In-core alignment builds every subset's seed index before it verifies
/// anything, and the ledger charges them as `align-index` before the
/// first is built. A budget that holds the input, the store and the
/// overlaps but not the input, the store and the indexes refuses the
/// in-core run there; the spilled run, one index at a time and no raw
/// input, completes under it with the unbudgeted contigs.
#[test]
fn in_core_alignment_charges_its_seed_indexes() {
    let tmp = TempDir::new("index-charge");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let mut config = ooc_config();
    let prep = FocusAssembler::new(config)
        .unwrap()
        .prepare_stages(&parsed)
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
        .unwrap()
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
    let unbudgeted = run_clean(&parsed, ooc_config()).0;
    let ooc = OocOptions::in_dir(tmp.join("spill"));
    let (_, outcome) = run_ooc(config, &input, &CheckpointOptions::default(), &ooc);
    assert_eq!(completed(outcome.unwrap()).contigs, unbudgeted.contigs);
}

/// Every file under `dir`: each one a whole checkpoint container under
/// its final name (no index, lock or temp file), decoded.
fn containers(dir: &Path) -> Vec<(PathBuf, CheckpointFile)> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap();
            assert!(
                name.starts_with("phase_") && name.ends_with(".ckpt"),
                "{name} is not a container"
            );
            let file = CheckpointFile::decode(&std::fs::read(&path).unwrap(), &path).unwrap();
            (path, file)
        })
        .collect()
}

/// Rewrites every checkpoint container under `dir` as format version 4,
/// resealed so that only the version check can refuse it.
fn rewrite_as_version_4(dir: &Path) {
    for (path, file) in containers(dir) {
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

/// Files of the previous format are never decoded as this version's
/// layout: a version-4 alignment checkpoint, in core or beside version-4
/// spilled pair runs, is refused on resume and alignment recomputed, and
/// the old pair runs are overwritten unread. Contigs and the logical
/// snapshot equal a clean run's.
#[test]
fn version_4_alignment_checkpoint_and_pages_are_refused_and_recomputed() {
    let tmp = TempDir::new("v4");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let config = ooc_config();
    let (clean, clean_snapshot) = run_clean(&parsed, config);

    // A checkpointed in-core run stopped after alignment, its checkpoint
    // then restamped as version 4.
    let ckpt = tmp.join("ckpt");
    let mut opts = CheckpointOptions::in_dir(&ckpt);
    opts.stop_after = Some(CkptPhase::Alignment);
    let stopped = FocusAssembler::new(config)
        .unwrap()
        .assemble_file(&input, &opts, None);
    assert!(matches!(
        stopped,
        Ok(AssemblyOutcome::Stopped(CkptPhase::Alignment))
    ));
    rewrite_as_version_4(&ckpt);
    opts.stop_after = None;
    opts.resume = true;
    let assembler = FocusAssembler::new(config).unwrap();
    let resumed = completed(assembler.assemble_file(&input, &opts, None).unwrap());
    assert_eq!(resumed.contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    let counters = assembler.recorder().snapshot().counters;
    assert_eq!(counters.get("ckpt.rejected"), Some(&1));
    assert_eq!(counters.get("ckpt.loaded"), None);

    // A spilled run's checkpoint and pair runs rewritten as version 4: the
    // resumed run refuses the checkpoint and aligns and spills every pair
    // afresh, reading no pair run it did not write, so the spill directory
    // then holds this version's containers alone.
    let ckpt = tmp.join("ooc-ckpt");
    let spill = tmp.join("spill");
    let ooc = OocOptions::in_dir(&spill);
    let opts = CheckpointOptions::in_dir(&ckpt);
    let (_, first) = run_ooc(config, &input, &opts, &ooc);
    completed(first.unwrap());
    let entries: Vec<_> = std::fs::read_dir(&spill).unwrap().collect();
    assert_eq!(entries.len(), 1, "{entries:?}");
    let pairs = pairs(&config);
    assert_eq!(containers(&spill.join("align")).len() as u64, pairs);
    rewrite_as_version_4(&ckpt);
    rewrite_as_version_4(&spill.join("align"));
    let resume = CheckpointOptions {
        resume: true,
        ..opts
    };
    let (assembler, outcome) = run_ooc(config, &input, &resume, &ooc);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    let counters = assembler.recorder().snapshot().counters;
    assert_eq!(counters.get("ckpt.rejected"), Some(&1));
    assert_eq!(counters.get("ooc.spill.rejected"), None);
    assert_eq!(counters.get("ooc.spill.runs"), Some(&pairs));
    assert_eq!(containers(&spill.join("align")).len() as u64, pairs);
}

/// Subset pairs `config` aligns: `s(s+1)/2` for `s` subsets.
fn pairs(config: &FocusConfig) -> u64 {
    let subsets = config.subsets as u64;
    subsets * (subsets + 1) / 2
}
