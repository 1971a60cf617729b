//! Crash-and-resume chaos harness for the durable checkpoint layer.
//!
//! The contract under test: killing the pipeline after its one durable
//! boundary, alignment, and resuming from the checkpoint reproduces the
//! uninterrupted run bit for bit — same contigs, same traversal paths, same
//! fault report, and (in logical-clock mode) a byte-identical metrics
//! snapshot — at any thread count, with or without injected faults.
//! Corruption of any kind — torn writes, bit flips, short reads, a flipped
//! byte in the file, mismatched fingerprints — must be *detected* and
//! answered by recomputation, never trusted; a checkpoint directory that
//! fails mid-run (ENOSPC, unwritable) degrades checkpointing without taking
//! the assembly down; and files an older build saved at boundaries this one
//! no longer has are left alone.

use fc_rng::cases;
use focus_assembler::align::{Overlapper, Pool};
use focus_assembler::ckpt::{
    decode_from_slice, encode_to_vec, CheckpointStore, Codec, LoadOutcome,
};
use focus_assembler::ckpt::{FsFaultPlan, ReadFault, WriteFault};
use focus_assembler::focus::{
    config_fingerprint, input_digest, AssemblyOutcome, AssemblyResult, CheckpointOptions,
    CkptPhase, FaultInjection, FocusAssembler, FocusConfig,
};
use focus_assembler::obs::{MetricsSnapshot, ObsOptions, Recorder};
use focus_assembler::seq::{DnaString, Read};
use focus_assembler::sim::genome::{random_genome, GenomeConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

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

/// Logical-clock observability at `threads` threads, with deterministic
/// dist-stage fault injection when `faulted`, so resumed runs have a
/// non-trivial fault report to reproduce.
fn config_at(threads: usize, faulted: bool) -> FocusConfig {
    let mut c = FocusConfig {
        partitions: 4,
        threads,
        observability: ObsOptions::logical(),
        ..Default::default()
    };
    c.trim.min_read_len = 30;
    c.overlap.min_overlap_len = 40;
    c.fault = faulted.then_some(FaultInjection {
        seed: 42,
        rates: focus_assembler::dist::FaultRates {
            crash: 0.2,
            drop: 0.3,
            ..Default::default()
        },
    });
    c
}

fn chaos_config() -> FocusConfig {
    config_at(0, true)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn completed(outcome: AssemblyOutcome) -> AssemblyResult {
    match outcome {
        AssemblyOutcome::Completed(r) => r,
        AssemblyOutcome::Stopped(p) => panic!("unexpected stop after {p:?}"),
    }
}

/// A fresh assembler per run: recorders are per-assembler, and comparing
/// snapshots requires each run to start from a clean one.
fn run_clean(reads: &[Read]) -> (AssemblyResult, String) {
    run_clean_with(reads, chaos_config())
}

fn run_clean_with(reads: &[Read], config: FocusConfig) -> (AssemblyResult, String) {
    let assembler = FocusAssembler::new(config).unwrap();
    let result = assembler.assemble(reads).unwrap();
    let snapshot = assembler.recorder().snapshot_json();
    (result, snapshot)
}

fn run_ckpt(reads: &[Read], opts: &CheckpointOptions) -> (AssemblyOutcome, String) {
    let (outcome, snapshot, _) = run_ckpt_with(reads, opts, chaos_config());
    (outcome, snapshot)
}

/// A checkpointed run: its outcome, its logical snapshot and its `ckpt.*`
/// counters (which the logical snapshot leaves out).
fn run_ckpt_with(
    reads: &[Read],
    opts: &CheckpointOptions,
    config: FocusConfig,
) -> (AssemblyOutcome, String, BTreeMap<&'static str, u64>) {
    let assembler = FocusAssembler::new(config).unwrap();
    let outcome = assembler.assemble_with_checkpoints(reads, opts).unwrap();
    let snapshot = assembler.recorder().snapshot_json();
    (outcome, snapshot, assembler.recorder().snapshot().counters)
}

/// Kill after every checkpointed phase, then resume: contigs, paths, fault
/// report and logical snapshot equal the uninterrupted run's, at one and
/// four threads, with and without injected faults.
#[test]
fn kill_after_every_phase_then_resume_reproduces_the_clean_run() {
    let reads = tiled_reads(2500, 11);
    // A counter only the alignment phase writes: a resumed run has the value
    // from the checkpoint's metrics record or not at all.
    let exact_hits = |snapshot: &str| {
        let parsed = MetricsSnapshot::from_json(snapshot).expect("snapshot parses");
        parsed.counters.get("align.kernel.exact_hits").copied()
    };
    for threads in [1usize, 4] {
        for faulted in [false, true] {
            let config = config_at(threads, faulted);
            let (clean, clean_snapshot) = run_clean_with(&reads, config);
            assert!(exact_hits(&clean_snapshot) > Some(0), "{clean_snapshot}");
            assert_eq!(clean.report.fault.crashes > 0, faulted);
            for &phase in &CkptPhase::ALL {
                let tag = format!("{}-t{threads}-f{faulted}", phase.name());
                let dir = temp_dir(&format!("kill-{tag}"));
                let mut opts = CheckpointOptions::in_dir(&dir);
                opts.stop_after = Some(phase);
                match run_ckpt_with(&reads, &opts, config).0 {
                    AssemblyOutcome::Stopped(p) => assert_eq!(p, phase),
                    AssemblyOutcome::Completed(_) => panic!("{tag} did not stop"),
                }
                opts.stop_after = None;
                opts.resume = true;
                let (outcome, snapshot, counters) = run_ckpt_with(&reads, &opts, config);
                let resumed = completed(outcome);
                assert_eq!(resumed.contigs, clean.contigs, "contigs after {tag}");
                assert_eq!(resumed.report.paths, clean.report.paths, "{tag}");
                assert_eq!(resumed.report.fault, clean.report.fault, "{tag}");
                assert_eq!(counters.get("ckpt.loaded"), Some(&1), "{tag}");
                assert_eq!(exact_hits(&snapshot), exact_hits(&clean_snapshot), "{tag}");
                assert_eq!(snapshot, clean_snapshot, "metrics after {tag}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn torn_and_bit_flipped_writes_are_rejected_on_resume_and_recomputed() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads);
    // Write op 0 is the alignment checkpoint, the run's one save.
    for fault in [WriteFault::Torn, WriteFault::BitFlip { bit: 12_345 }] {
        let dir = temp_dir(&format!("wfault-{fault:?}"));
        let mut opts = CheckpointOptions::in_dir(&dir);
        opts.fs_faults = FsFaultPlan::none().fail_write(0, fault);
        // The sabotaged run itself still completes and is still correct:
        // checkpoint writes never feed back into the computation.
        let sabotaged = completed(run_ckpt(&reads, &opts).0);
        assert_eq!(sabotaged.contigs, clean.contigs);
        // Resume sees the bad file, rejects it, recomputes alignment.
        let mut resume = CheckpointOptions::in_dir(&dir);
        resume.resume = true;
        let (outcome, snapshot, counters) = run_ckpt_with(&reads, &resume, chaos_config());
        assert_eq!(completed(outcome).contigs, clean.contigs, "{fault:?}");
        assert_eq!(snapshot, clean_snapshot, "{fault:?}");
        assert_eq!(counters.get("ckpt.rejected"), Some(&1), "{fault:?}");
        assert_eq!(counters.get("ckpt.loaded"), None, "{fault:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn short_and_bit_flipped_reads_are_rejected_on_resume_and_recomputed() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads);
    let dir = temp_dir("rfault");
    completed(run_ckpt(&reads, &CheckpointOptions::in_dir(&dir)).0);
    // Each faulted resume rejects what it read, recomputes and saves a good
    // file again, so the next one reads a sound file through its own fault.
    for fault in [ReadFault::Short, ReadFault::BitFlip { bit: 4_321 }] {
        let mut resume = CheckpointOptions::in_dir(&dir);
        resume.resume = true;
        resume.fs_faults = FsFaultPlan::none().fail_read(0, fault);
        let (outcome, snapshot, counters) = run_ckpt_with(&reads, &resume, chaos_config());
        assert_eq!(completed(outcome).contigs, clean.contigs, "{fault:?}");
        assert_eq!(snapshot, clean_snapshot, "{fault:?}");
        assert_eq!(counters.get("ckpt.rejected"), Some(&1), "{fault:?}");
        assert_eq!(counters.get("ckpt.saved"), Some(&1), "{fault:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_flipped_byte_in_each_checkpoint_kind_is_detected_and_recomputed() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads);
    let master = temp_dir("flip-master");
    completed(run_ckpt(&reads, &CheckpointOptions::in_dir(&master)).0);
    for &phase in &CkptPhase::ALL {
        // Fresh copy of the checkpoint directory per corruption.
        let dir = temp_dir(&format!("flip-{}", phase.name()));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&master).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        let path = dir.join(CheckpointStore::file_name(phase.id(), phase.name()));
        let mut corrupt = std::fs::read(&path).unwrap();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();

        let mut resume = CheckpointOptions::in_dir(&dir);
        resume.resume = true;
        let (outcome, snapshot, counters) = run_ckpt_with(&reads, &resume, chaos_config());
        assert_eq!(
            completed(outcome).contigs,
            clean.contigs,
            "flip in {}",
            phase.name()
        );
        assert_eq!(snapshot, clean_snapshot);
        assert_eq!(
            counters.get("ckpt.rejected"),
            Some(&1),
            "flip in {} went undetected",
            phase.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&master);
}

#[test]
fn enospc_mid_run_degrades_checkpointing_but_the_assembly_finishes() {
    let reads = tiled_reads(2500, 11);
    let (clean, _) = run_clean(&reads);
    let dir = temp_dir("enospc");
    let mut opts = CheckpointOptions::in_dir(&dir);
    opts.fs_faults = FsFaultPlan::none().fail_write(0, WriteFault::Enospc);
    let assembler = FocusAssembler::new(chaos_config()).unwrap();
    let result = completed(assembler.assemble_with_checkpoints(&reads, &opts).unwrap());
    assert_eq!(result.contigs, clean.contigs);
    let counters = assembler.recorder().snapshot().counters;
    assert_eq!(counters["ckpt.degraded"], 1);
    assert_eq!(
        counters.get("ckpt.saved"),
        None,
        "nothing lands after ENOSPC"
    );
    let warnings = assembler
        .recorder()
        .events()
        .iter()
        .filter(|e| e.name == "ckpt.degraded")
        .count();
    assert_eq!(warnings, 1);
    // The directory holds no checkpoint: a resume simply aligns again.
    let mut resume = CheckpointOptions::in_dir(&dir);
    resume.resume = true;
    let (outcome, _, counters) = run_ckpt_with(&reads, &resume, chaos_config());
    assert_eq!(completed(outcome).contigs, clean.contigs);
    assert_eq!(counters.get("ckpt.loaded"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_from_another_config_or_input_never_resume_this_run() {
    let reads = tiled_reads(2500, 11);
    let dir = temp_dir("mismatch");
    let opts = CheckpointOptions::in_dir(&dir);
    completed(run_ckpt(&reads, &opts).0);

    // Different partition count ⇒ different config fingerprint.
    let mut other_config = chaos_config();
    other_config.partitions = 8;
    let assembler = FocusAssembler::new(other_config).unwrap();
    let mut resume = CheckpointOptions::in_dir(&dir);
    resume.resume = true;
    let other_clean = assembler.assemble(&reads).unwrap();
    let (outcome, _, counters) = run_ckpt_with(&reads, &resume, other_config);
    assert_eq!(completed(outcome).contigs, other_clean.contigs);
    assert_eq!(counters.get("ckpt.rejected"), Some(&1));

    // Different reads ⇒ different input digest: nothing loads either.
    let other_reads = tiled_reads(2500, 13);
    let dir2 = temp_dir("mismatch-input");
    let fresh = CheckpointOptions::in_dir(&dir2);
    let expected = completed(run_ckpt(&other_reads, &fresh).0);
    let assembler = FocusAssembler::new(chaos_config()).unwrap();
    let resumed = completed(
        assembler
            .assemble_with_checkpoints(&other_reads, &resume)
            .unwrap(),
    );
    assert_eq!(resumed.contigs, expected.contigs);
    let counters = assembler.recorder().snapshot().counters;
    assert!(counters["ckpt.rejected"] >= 1);
    assert!(!counters.contains_key("ckpt.loaded"));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn manifest_lists_every_phase_after_a_full_run() {
    let reads = tiled_reads(2000, 17);
    let dir = temp_dir("manifest");
    let opts = CheckpointOptions::in_dir(&dir);
    completed(run_ckpt(&reads, &opts).0);
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt")).unwrap();
    for phase in CkptPhase::ALL {
        assert!(
            manifest.contains(phase.name()),
            "manifest is missing {}",
            phase.name()
        );
    }
    assert!(manifest.contains(&format!("checkpoints = {}", CkptPhase::ALL.len())));
    // The checkpoint files and the manifest, nothing else.
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, CkptPhase::ALL.len() + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory an older build checkpointed: a real alignment checkpoint
/// beside valid files at the boundaries this build no longer has (ids 0
/// and 2–8). A resume loads alignment alone — the other files are never
/// opened, so none is rejected — and reproduces the clean run.
#[test]
fn a_parent_era_directory_resumes_only_the_alignment_checkpoint() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads);
    let dir = temp_dir("parent-era");
    completed(run_ckpt(&reads, &CheckpointOptions::in_dir(&dir)).0);
    let config = chaos_config();
    let mut store = CheckpointStore::new(&dir, config_fingerprint(&config), input_digest(&reads));
    let retired = [
        (0, "preprocess"),
        (2, "coarsen"),
        (3, "hybrid"),
        (4, "partition"),
        (5, "dist_transitive_reduction"),
        (6, "dist_containment_removal"),
        (7, "dist_error_removal"),
        (8, "dist_traversal"),
    ];
    for (id, name) in retired {
        let records = vec![
            name.as_bytes().to_vec(),
            clean_snapshot.clone().into_bytes(),
        ];
        assert!(store.save(id, name, records).unwrap());
        assert!(matches!(store.load(id, name), LoadOutcome::Loaded(_)));
    }
    let mut resume = CheckpointOptions::in_dir(&dir);
    resume.resume = true;
    let (outcome, snapshot, counters) = run_ckpt_with(&reads, &resume, config);
    let resumed = completed(outcome);
    assert_eq!(counters.get("ckpt.loaded"), Some(&1));
    assert_eq!(counters.get("ckpt.rejected"), None);
    assert_eq!(resumed.contigs, clean.contigs);
    assert_eq!(resumed.report.fault, clean.report.fault);
    assert_eq!(snapshot, clean_snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-level round trip through the wire format: decode(encode(x))
/// re-encodes to the identical bytes. Used instead of `PartialEq` because
/// several payloads intentionally don't implement it.
fn assert_reencodes<T: Codec>(bytes: &[u8], what: &str) {
    let back: T = decode_from_slice(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(encode_to_vec(&back), bytes, "{what} re-encodes differently");
}

/// The checkpointed payload round-trips through the wire format, and the
/// file a checkpointed run writes holds exactly that encoding, over
/// randomly generated pipelines.
#[test]
fn every_phase_payload_round_trips() {
    cases(3, |rng| {
        let (seed, len) = (rng.range(0u64..1_000), rng.range(1_800usize..2_600));
        let reads = tiled_reads(len, seed);
        let config = chaos_config();
        let assembler = FocusAssembler::new(config).unwrap();
        let Ok(prepared) = assembler.prepare(&reads) else {
            // Some tiny random genomes assemble to nothing; skip those.
            return;
        };
        type AlignmentCkpt = (
            Vec<focus_assembler::align::Overlap>,
            Vec<(usize, usize, focus_assembler::align::PairStats)>,
        );
        let alignment: AlignmentCkpt = Overlapper::new(&prepared.store, config.overlap)
            .unwrap()
            .overlap_all(
                &prepared.store.split_subsets(config.subsets),
                &Pool::new(config.threads),
                &Recorder::disabled(),
            );
        let encoded = encode_to_vec(&alignment);
        assert_reencodes::<AlignmentCkpt>(&encoded, "alignment payload");

        let dir = temp_dir(&format!("roundtrip-{seed}-{len}"));
        let opts = CheckpointOptions::in_dir(&dir);
        completed(assembler.assemble_with_checkpoints(&reads, &opts).unwrap());
        let mut store = CheckpointStore::new(
            &dir,
            config_fingerprint(assembler.config()),
            input_digest(&reads),
        );
        for phase in CkptPhase::ALL {
            match store.load(phase.id(), phase.name()) {
                LoadOutcome::Loaded(records) => {
                    assert_eq!(records.len(), 2);
                    assert_eq!(records[0], encoded, "{}", phase.name());
                }
                other => panic!("{}: expected Loaded, got {other:?}", phase.name()),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Crashing at a random checkpointed phase with a random single write fault
/// still resumes to the clean answer.
#[test]
fn random_crash_point_with_a_random_write_fault_still_resumes() {
    cases(3, |rng| {
        let (phase_idx, fault_op, flip) = (
            rng.range(0usize..CkptPhase::ALL.len()),
            rng.range(0u64..2),
            rng.range(0u64..2),
        );
        let threads = [1usize, 2, 4][rng.range(0usize..3)];
        let config = config_at(threads, true);
        let reads = tiled_reads(2_200, 19);
        let (clean, clean_snapshot) = run_clean_with(&reads, config);
        let phase = CkptPhase::ALL[phase_idx];
        let fault = if flip == 0 {
            WriteFault::Torn
        } else {
            WriteFault::BitFlip { bit: 999 }
        };
        let dir = temp_dir(&format!("rand-{phase_idx}-{fault_op}-{flip}-{threads}"));
        let mut opts = CheckpointOptions::in_dir(&dir);
        opts.stop_after = Some(phase);
        opts.fs_faults = FsFaultPlan::none().fail_write(fault_op, fault);
        match run_ckpt_with(&reads, &opts, config).0 {
            AssemblyOutcome::Stopped(p) => assert_eq!(p, phase),
            AssemblyOutcome::Completed(_) => panic!("did not stop"),
        }
        let mut resume = CheckpointOptions::in_dir(&dir);
        resume.resume = true;
        let (outcome, snapshot, _) = run_ckpt_with(&reads, &resume, config);
        let resumed = completed(outcome);
        assert_eq!(&resumed.contigs, &clean.contigs);
        assert_eq!(&resumed.report.fault, &clean.report.fault);
        assert_eq!(snapshot, clean_snapshot);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
