//! The budgeted pipeline.
//!
//! The contract matrix's budgeted points (`tests/common/matrix.rs`) run
//! here: under a memory budget, alignment keeps one column index at a time
//! and reproduces the in-core pipeline, bit for bit, at every thread count,
//! killed and resumed. Beside them: a budgeted run whose checkpoint is
//! gone, checkpoints shared between a budgeted and an in-core run, an input
//! that changed between runs, the budget gate and its seed-index charge,
//! and checkpoints of the previous format.
//!
//! A resumed budgeted run reads its input once, like every other run: its
//! one resume state is the alignment checkpoint, keyed by the digest that
//! one pass computes, and the checkpoint is the only file an alignment run
//! writes.

mod common;

use common::matrix::{run_random, run_slice, Slice};
use common::{completed, contract_config, fastq_fixture, run_clean, tiled_reads, TempDir};
use focus_assembler::align::{KmerIndex, Overlap, Overlapper, Pool};
use focus_assembler::ckpt::{crc32, CheckpointFile};
use focus_assembler::focus::{
    AssemblyOutcome, CheckpointOptions, CkptPhase, FocusAssembler, FocusConfig, FocusError,
    Recorder,
};
use focus_assembler::seq::{Read, ReadStore};
use std::path::{Path, PathBuf};

/// The contract's configuration at two threads, `FaultPlan` on.
fn in_core_config() -> FocusConfig {
    contract_config(2, true)
}

/// [`in_core_config`] under a 1 GiB budget: aligned one column at a time.
fn budgeted_config() -> FocusConfig {
    FocusConfig {
        memory_budget: Some(1 << 30),
        ..in_core_config()
    }
}

fn run_file(
    config: FocusConfig,
    input: &Path,
    opts: &CheckpointOptions,
) -> (FocusAssembler, Result<AssemblyOutcome, FocusError>) {
    let assembler = FocusAssembler::new(config).unwrap();
    let outcome = assembler.assemble_file(input, opts);
    (assembler, outcome)
}

/// Whether the run aligned one column index at a time.
fn aligned_by_column(assembler: &FocusAssembler) -> bool {
    let events = assembler.recorder().events();
    events.iter().any(|e| e.name == "align.overlap_by_column")
}

/// The names of the files in `dir`.
fn file_names(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).unwrap();
    let names = entries.map(|e| e.unwrap().file_name().into_string().unwrap());
    names.collect()
}

/// Under a 1 GiB budget at 1, 2, 4 and 8 threads, clean and under the
/// `FaultPlan`: the in-core reference, aligned one column at a time.
#[test]
fn spilled_assembly_is_bit_identical_to_in_core() {
    run_slice(Slice::Budgeted);
}

/// Stopped after alignment under a budget and resumed: the input is read
/// again and the alignment checkpoint adopted, at every thread count,
/// clean and under the `FaultPlan`, and on short and bit-flipped
/// checkpoint reads.
#[test]
fn killed_ooc_run_resumes_pages_and_checkpoints() {
    run_slice(Slice::BudgetedResume);
}

/// Random genomes at random budgeted points.
#[test]
fn spilled_identity_holds_for_random_genomes() {
    run_random(4, |p| p.mode.budgeted());
}

/// A budgeted run leaves its alignment checkpoint and no other file. With
/// that checkpoint deleted, as if the run was killed before writing it, a
/// resumed run aligns afresh, column by column, and writes the checkpoint
/// again and nothing beside it; the contigs and the logical snapshot are a
/// clean run's.
#[test]
fn spills_without_a_checkpoint_are_recomputed_not_adopted() {
    let tmp = TempDir::new("sresume");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let (clean, clean_snapshot) = run_clean(&parsed, in_core_config());
    let ckpt = tmp.join("ckpt");
    let opts = CheckpointOptions::in_dir(&ckpt);
    let (first, outcome) = run_file(budgeted_config(), &input, &opts);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
    assert!(aligned_by_column(&first));
    assert_eq!(file_names(&ckpt), ["phase_01_alignment.ckpt"]);
    std::fs::remove_file(ckpt.join("phase_01_alignment.ckpt")).unwrap();

    let resume = CheckpointOptions {
        resume: true,
        ..opts
    };
    let (second, outcome) = run_file(budgeted_config(), &input, &resume);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
    assert_eq!(second.recorder().snapshot_json(), clean_snapshot);
    assert!(aligned_by_column(&second));
    let counters = second.recorder().snapshot().counters;
    assert_eq!(counters.get("ckpt.loaded"), None);
    assert_eq!(counters.get("ckpt.saved"), Some(&1));
    assert_eq!(file_names(&ckpt), ["phase_01_alignment.ckpt"]);
}

/// A budgeted run's checkpoint resumes an in-core run of the same file:
/// both stamp it with the digest of their one ingest pass, and the
/// in-core resume reproduces the clean run's contigs and snapshot.
#[test]
fn fresh_ooc_checkpoints_resume_an_in_core_run() {
    let tmp = TempDir::new("fused");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let (clean, clean_snapshot) = run_clean(&parsed, in_core_config());
    let opts = CheckpointOptions::in_dir(tmp.join("ckpt"));
    let (_, outcome) = run_file(budgeted_config(), &input, &opts);
    assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);

    let resume = CheckpointOptions {
        resume: true,
        ..opts
    };
    let assembler = FocusAssembler::new(in_core_config()).unwrap();
    let resumed = completed(assembler.assemble_file(&input, &resume).unwrap());
    assert_eq!(resumed.contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    let counters = assembler.recorder().snapshot().counters;
    assert!(
        counters.get("ckpt.loaded").copied().unwrap_or(0) >= 1,
        "nothing resumed"
    );
    assert_eq!(counters.get("ckpt.rejected"), None);
}

/// When one read changed since a budgeted run checkpointed its
/// alignment, a resumed run adopts nothing of it: the checkpoint, keyed by
/// the old input's digest, is refused, every pair is aligned afresh column
/// by column, and the output is a clean run's on the new input.
#[test]
fn resume_after_the_input_changed_adopts_nothing() {
    let tmp = TempDir::new("changed");
    let reads = tiled_reads(2500, 11);
    let (input, _) = fastq_fixture(&tmp.join("input"), &reads);
    let ckpt = tmp.join("ckpt");
    let opts = CheckpointOptions::in_dir(&ckpt);
    let (first, outcome) = run_file(budgeted_config(), &input, &opts);
    completed(outcome.unwrap());
    assert!(aligned_by_column(&first));

    let mut changed = reads;
    let base = changed[7].seq.get(50);
    changed[7].seq.set(50, base.complement());
    let (rewritten, parsed) = fastq_fixture(&tmp.join("input"), &changed);
    assert_eq!(rewritten, input);
    let (clean, clean_snapshot) = run_clean(&parsed, in_core_config());
    let resume = CheckpointOptions {
        resume: true,
        ..opts
    };
    let (assembler, outcome) = run_file(budgeted_config(), &input, &resume);
    let result = completed(outcome.unwrap());
    assert_eq!(result.contigs, clean.contigs);
    assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
    assert!(aligned_by_column(&assembler));
    let counters = assembler.recorder().snapshot().counters;
    assert_eq!(counters.get("ckpt.rejected"), Some(&1));
    assert_eq!(counters.get("ckpt.loaded"), None);
    assert_eq!(file_names(&ckpt), ["phase_01_alignment.ckpt"]);
}

/// The budget gate: a budget the parsed-reads pipeline cannot satisfy (it
/// must hold raw input + store + overlaps, and more while its seed indexes
/// are alive) still admits the file pipeline, which streams the input and
/// keeps one seed index at a time — and the output under pressure is
/// byte-identical. A budget nothing fits under fails both ways, typed.
#[test]
fn budget_rejects_in_core_but_admits_spilled() {
    let tmp = TempDir::new("budget");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let mut config = in_core_config();
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

    // The file path fits the same budget and reproduces the output.
    let (assembler, outcome) = run_file(config, &input, &CheckpointOptions::default());
    let result = completed(outcome.unwrap());
    assert_eq!(result.contigs, clean.contigs);
    assert!(aligned_by_column(&assembler));

    // A budget nothing fits under is a typed error on both paths, not a
    // panic or an OOM.
    config.memory_budget = Some(4096);
    let tiny = FocusAssembler::new(config).unwrap();
    assert!(matches!(
        tiny.prepare(&parsed),
        Err(FocusError::BudgetExceeded(_))
    ));
    let (_, outcome) = run_file(config, &input, &CheckpointOptions::default());
    assert!(matches!(outcome, Err(FocusError::BudgetExceeded(_))));
}

/// In-core alignment builds every subset's seed index before it verifies
/// anything, and the ledger charges them as `align-index` before the
/// first is built. A budget that holds the input, the store and the
/// overlaps but not the input, the store and the indexes refuses the
/// in-core run there; the file run, one index at a time and no raw input,
/// completes under it with the unbudgeted contigs.
#[test]
fn in_core_alignment_charges_its_seed_indexes() {
    let tmp = TempDir::new("index-charge");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let mut config = in_core_config();
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
    let unbudgeted = run_clean(&parsed, in_core_config()).0;
    let (_, outcome) = run_file(config, &input, &CheckpointOptions::default());
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

/// Rewrites every checkpoint container under `dir` as format `version`,
/// resealed so that only the version check can refuse it.
fn rewrite_as_version(dir: &Path, version: u32) {
    for (path, file) in containers(dir) {
        let mut bytes = file.encode();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&crc);
        let refused = CheckpointFile::decode(&bytes, &path).unwrap_err();
        let named = format!("version {version}");
        assert!(refused.to_string().contains(&named), "{refused}");
        std::fs::write(&path, bytes).unwrap();
    }
}

/// Files of earlier formats are never decoded as this version's layout: a
/// version-4 or version-5 (the previous format, whose overlaps carried an
/// `f64` identity) alignment checkpoint, in core or budgeted, is refused on
/// resume and alignment recomputed, and overwritten by this version's.
/// Contigs and the logical snapshot equal a clean run's.
#[test]
fn version_4_alignment_checkpoint_and_pages_are_refused_and_recomputed() {
    let tmp = TempDir::new("v4");
    let (input, parsed) = fastq_fixture(&tmp.join("input"), &tiled_reads(2500, 11));
    let config = in_core_config();
    let (clean, clean_snapshot) = run_clean(&parsed, config);

    for version in [4, 5] {
        // A checkpointed in-core run stopped after alignment, its
        // checkpoint then restamped as `version`.
        let ckpt = tmp.join(format!("ckpt-v{version}"));
        let mut opts = CheckpointOptions::in_dir(&ckpt);
        opts.stop_after = Some(CkptPhase::Alignment);
        let stopped = FocusAssembler::new(config)
            .unwrap()
            .assemble_file(&input, &opts);
        assert!(matches!(
            stopped,
            Ok(AssemblyOutcome::Stopped(CkptPhase::Alignment))
        ));
        rewrite_as_version(&ckpt, version);
        opts.stop_after = None;
        opts.resume = true;
        let assembler = FocusAssembler::new(config).unwrap();
        let resumed = completed(assembler.assemble_file(&input, &opts).unwrap());
        assert_eq!(resumed.contigs, clean.contigs);
        assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
        let counters = assembler.recorder().snapshot().counters;
        assert_eq!(counters.get("ckpt.rejected"), Some(&1));
        assert_eq!(counters.get("ckpt.loaded"), None);

        // A budgeted run's checkpoint rewritten as `version`: the resumed
        // run refuses it, aligns afresh by column, and leaves this
        // version's container alone in the directory.
        let ckpt = tmp.join(format!("budgeted-ckpt-v{version}"));
        let opts = CheckpointOptions::in_dir(&ckpt);
        let (_, first) = run_file(budgeted_config(), &input, &opts);
        completed(first.unwrap());
        rewrite_as_version(&ckpt, version);
        let resume = CheckpointOptions {
            resume: true,
            ..opts
        };
        let (assembler, outcome) = run_file(budgeted_config(), &input, &resume);
        assert_eq!(completed(outcome.unwrap()).contigs, clean.contigs);
        assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
        assert!(aligned_by_column(&assembler));
        let counters = assembler.recorder().snapshot().counters;
        assert_eq!(counters.get("ckpt.rejected"), Some(&1));
        assert_eq!(containers(&ckpt).len(), 1);
    }
}
