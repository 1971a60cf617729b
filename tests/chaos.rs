//! Crash-anywhere chaos harness for the durable checkpoint layer.
//!
//! The contract under test: killing the pipeline after *any* phase
//! boundary and resuming from its checkpoints reproduces the uninterrupted
//! run bit for bit — same contigs, same traversal paths, same fault
//! report, and (in logical-clock mode) a byte-identical metrics snapshot.
//! Corruption anywhere — torn writes, bit flips, short reads, a flipped
//! byte in any checkpoint file, mismatched fingerprints — must be
//! *detected* and answered by recomputation, never trusted; and a
//! checkpoint directory that fails mid-run (ENOSPC, unwritable) degrades
//! checkpointing without taking the assembly down.

use fc_rng::cases;
use focus_assembler::align::{Overlapper, Pool};
use focus_assembler::ckpt::{FsFaultPlan, ReadFault, WriteFault};
use focus_assembler::ckpt::{decode_from_slice, encode_to_vec, CheckpointStore, Codec, LoadOutcome};
use focus_assembler::dist::DistPhaseState;
use focus_assembler::focus::{
    config_fingerprint, input_digest, AssemblyOutcome, AssemblyResult, CheckpointOptions,
    CkptPhase, FaultInjection, FocusAssembler, FocusConfig,
};
use focus_assembler::obs::{MetricsSnapshot, ObsOptions, Recorder};
use focus_assembler::seq::{DnaString, Read};
use focus_assembler::sim::genome::{random_genome, GenomeConfig};
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

/// Logical-clock observability + deterministic dist-stage fault injection,
/// so resumed runs have a non-trivial fault report to reproduce.
fn chaos_config() -> FocusConfig {
    let mut c = FocusConfig {
        partitions: 4,
        observability: ObsOptions::logical(),
        ..Default::default()
    };
    c.trim.min_read_len = 30;
    c.overlap.min_overlap_len = 40;
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
    let assembler = FocusAssembler::new(chaos_config()).unwrap();
    let result = assembler.assemble(reads).unwrap();
    let snapshot = assembler.recorder().snapshot_json();
    (result, snapshot)
}

fn run_ckpt(reads: &[Read], opts: &CheckpointOptions) -> (AssemblyOutcome, String) {
    let assembler = FocusAssembler::new(chaos_config()).unwrap();
    let outcome = assembler.assemble_with_checkpoints(reads, opts).unwrap();
    let snapshot = assembler.recorder().snapshot_json();
    (outcome, snapshot)
}

#[test]
fn kill_after_every_phase_then_resume_reproduces_the_clean_run() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads);
    // A counter only the alignment phase writes: a run resumed past it has
    // the value from the checkpoint's metrics record or not at all.
    let exact_hits = |snapshot: &str| {
        let parsed = MetricsSnapshot::from_json(snapshot).expect("snapshot parses");
        parsed.counters.get("align.kernel.exact_hits").copied()
    };
    assert!(exact_hits(&clean_snapshot) > Some(0), "{clean_snapshot}");
    for &phase in &CkptPhase::ALL {
        let dir = temp_dir(&format!("kill-{}", phase.name()));
        let mut opts = CheckpointOptions::in_dir(&dir);
        opts.stop_after = Some(phase);
        let (stopped, _) = run_ckpt(&reads, &opts);
        match stopped {
            AssemblyOutcome::Stopped(p) => assert_eq!(p, phase),
            AssemblyOutcome::Completed(_) => panic!("{} did not stop", phase.name()),
        }
        opts.stop_after = None;
        opts.resume = true;
        let (outcome, snapshot) = run_ckpt(&reads, &opts);
        let resumed = completed(outcome);
        assert_eq!(resumed.contigs, clean.contigs, "contigs after {}", phase.name());
        assert_eq!(resumed.report.paths, clean.report.paths, "{}", phase.name());
        assert_eq!(resumed.report.fault, clean.report.fault, "{}", phase.name());
        assert_eq!(
            exact_hits(&snapshot),
            exact_hits(&clean_snapshot),
            "verifier counters after {}",
            phase.name()
        );
        assert_eq!(snapshot, clean_snapshot, "metrics after {}", phase.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_and_bit_flipped_writes_are_rejected_on_resume_and_recomputed() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads);
    let faults = [
        WriteFault::Torn,
        WriteFault::BitFlip { bit: 12_345 },
        WriteFault::Torn,
    ];
    // Ops 0/2 corrupt pipeline-stage checkpoints; op 8 corrupts the last
    // distributed checkpoint (earlier dist phases are subsumed by later
    // ones and legitimately never re-read on resume).
    for (op, fault) in [(0u64, faults[0]), (2, faults[1]), (8, faults[2])] {
        let dir = temp_dir(&format!("wfault-{op}"));
        let mut opts = CheckpointOptions::in_dir(&dir);
        opts.fs_faults = FsFaultPlan::none().fail_write(op, fault);
        // The sabotaged run itself still completes and is still correct:
        // checkpoint writes never feed back into the computation.
        let sabotaged = completed(run_ckpt(&reads, &opts).0);
        assert_eq!(sabotaged.contigs, clean.contigs);
        // Resume sees the bad file, rejects it, recomputes that phase.
        let mut resume = CheckpointOptions::in_dir(&dir);
        resume.resume = true;
        let assembler = FocusAssembler::new(chaos_config()).unwrap();
        let resumed = completed(assembler.assemble_with_checkpoints(&reads, &resume).unwrap());
        assert_eq!(resumed.contigs, clean.contigs, "write op {op}");
        assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
        let rejected = assembler.recorder().snapshot().counters["ckpt.rejected"];
        assert!(rejected >= 1, "write op {op} was never detected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn short_and_bit_flipped_reads_are_rejected_on_resume_and_recomputed() {
    let reads = tiled_reads(2500, 11);
    let (clean, _) = run_clean(&reads);
    let dir = temp_dir("rfault");
    let opts = CheckpointOptions::in_dir(&dir);
    completed(run_ckpt(&reads, &opts).0);
    let mut resume = CheckpointOptions::in_dir(&dir);
    resume.resume = true;
    resume.fs_faults = FsFaultPlan::none()
        .fail_read(0, ReadFault::Short)
        .fail_read(1, ReadFault::BitFlip { bit: 4_321 });
    let assembler = FocusAssembler::new(chaos_config()).unwrap();
    let resumed = completed(assembler.assemble_with_checkpoints(&reads, &resume).unwrap());
    assert_eq!(resumed.contigs, clean.contigs);
    let counters = assembler.recorder().snapshot().counters;
    assert!(counters["ckpt.rejected"] >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_flipped_byte_in_each_checkpoint_kind_is_detected_and_recomputed() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads);
    let master = temp_dir("flip-master");
    let opts = CheckpointOptions::in_dir(&master);
    completed(run_ckpt(&reads, &opts).0);
    for &phase in &CkptPhase::ALL {
        // Fresh copy of the checkpoint directory per corruption.
        let dir = temp_dir(&format!("flip-{}", phase.name()));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&master).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        // Distributed checkpoints resume latest-first: drop every phase
        // after the one under test so the corrupted file IS the latest
        // and must actually be read (earlier dist phases are subsumed
        // by later ones by design).
        for &later in &CkptPhase::ALL {
            if later.id() > phase.id() && later.id() > CkptPhase::Partition.id() {
                let _ =
                    std::fs::remove_file(dir.join(CheckpointStore::file_name(later.id(), later.name())));
            }
        }
        let path = dir.join(CheckpointStore::file_name(phase.id(), phase.name()));
        let mut corrupt = std::fs::read(&path).unwrap();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();

        let mut resume = CheckpointOptions::in_dir(&dir);
        resume.resume = true;
        let assembler = FocusAssembler::new(chaos_config()).unwrap();
        let resumed = completed(assembler.assemble_with_checkpoints(&reads, &resume).unwrap());
        assert_eq!(resumed.contigs, clean.contigs, "flip in {}", phase.name());
        assert_eq!(assembler.recorder().snapshot_json(), clean_snapshot);
        let counters = assembler.recorder().snapshot().counters;
        assert!(
            counters["ckpt.rejected"] >= 1,
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
    opts.fs_faults = FsFaultPlan::none().fail_write(2, WriteFault::Enospc);
    let assembler = FocusAssembler::new(chaos_config()).unwrap();
    let result = completed(assembler.assemble_with_checkpoints(&reads, &opts).unwrap());
    assert_eq!(result.contigs, clean.contigs);
    let counters = assembler.recorder().snapshot().counters;
    assert_eq!(counters["ckpt.degraded"], 1);
    assert_eq!(counters["ckpt.saved"], 2, "only the pre-ENOSPC saves land");
    // Exactly one warning event despite seven more boundaries afterwards.
    let warnings = assembler
        .recorder()
        .events()
        .iter()
        .filter(|e| e.name == "ckpt.degraded")
        .count();
    assert_eq!(warnings, 1);
    // The partial directory is still a valid resume point for what it has.
    let mut resume = CheckpointOptions::in_dir(&dir);
    resume.resume = true;
    let resumed = completed(run_ckpt(&reads, &resume).0);
    assert_eq!(resumed.contigs, clean.contigs);
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
    let resumed = completed(
        FocusAssembler::new(other_config)
            .unwrap()
            .assemble_with_checkpoints(&reads, &resume)
            .unwrap(),
    );
    assert_eq!(resumed.contigs, other_clean.contigs);

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
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-level round trip through the wire format: decode(encode(x))
/// re-encodes to the identical bytes. Used instead of `PartialEq` because
/// several payloads intentionally don't implement it.
fn assert_reencodes<T: Codec>(bytes: &[u8], what: &str) {
    let back: T = decode_from_slice(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(encode_to_vec(&back), bytes, "{what} re-encodes differently");
}

/// Satellite: serialize→deserialize round trip for every phase
/// payload, over randomly generated pipelines.
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
        assert_reencodes::<focus_assembler::seq::ReadStore>(
            &encode_to_vec(&prepared.store),
            "ReadStore",
        );
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
        assert_reencodes::<AlignmentCkpt>(&encode_to_vec(&alignment), "alignment payload");
        assert_reencodes::<focus_assembler::graph::MultilevelSet>(
            &encode_to_vec(&prepared.multilevel),
            "MultilevelSet",
        );
        assert_reencodes::<focus_assembler::graph::HybridSet>(
            &encode_to_vec(&prepared.hybrid),
            "HybridSet",
        );
        let partition = assembler.assemble_prepared(&prepared, 4).unwrap().partition;
        assert_reencodes::<focus_assembler::partition::PartitionResult>(
            &encode_to_vec(&partition),
            "PartitionResult",
        );

        // Distributed phase states: pull the real ones off a checkpointed
        // run and round-trip each through the wire format.
        let dir = temp_dir(&format!("roundtrip-{seed}-{len}"));
        let opts = CheckpointOptions::in_dir(&dir);
        completed(assembler.assemble_with_checkpoints(&reads, &opts).unwrap());
        let mut store = CheckpointStore::new(
            &dir,
            config_fingerprint(assembler.config()),
            input_digest(&reads),
        );
        for phase in &CkptPhase::ALL[5..] {
            match store.load(phase.id(), phase.name()) {
                LoadOutcome::Loaded(records) => {
                    assert_eq!(records.len(), 2);
                    assert_reencodes::<DistPhaseState>(&records[0], phase.name());
                }
                other => panic!("{}: expected Loaded, got {other:?}", phase.name()),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Crashing at a random phase with a random single write fault still
/// resumes to the clean answer.
#[test]
fn random_crash_point_with_a_random_write_fault_still_resumes() {
    cases(3, |rng| {
        let (phase_idx, fault_op, flip) =
            (rng.range(0usize..9), rng.range(0u64..9), rng.range(0u64..2));
        let reads = tiled_reads(2_200, 19);
        let clean = FocusAssembler::new(chaos_config())
            .unwrap()
            .assemble(&reads)
            .unwrap();
        let phase = CkptPhase::ALL[phase_idx];
        let fault = if flip == 0 {
            WriteFault::Torn
        } else {
            WriteFault::BitFlip { bit: 999 }
        };
        let dir = temp_dir(&format!("rand-{phase_idx}-{fault_op}-{flip}"));
        let mut opts = CheckpointOptions::in_dir(&dir);
        opts.stop_after = Some(phase);
        opts.fs_faults = FsFaultPlan::none().fail_write(fault_op, fault);
        let (outcome, _) = run_ckpt(&reads, &opts);
        match outcome {
            AssemblyOutcome::Stopped(p) => assert_eq!(p, phase),
            AssemblyOutcome::Completed(_) => panic!("did not stop"),
        }
        let mut resume = CheckpointOptions::in_dir(&dir);
        resume.resume = true;
        let resumed = completed(run_ckpt(&reads, &resume).0);
        assert_eq!(&resumed.contigs, &clean.contigs);
        assert_eq!(&resumed.report.fault, &clean.report.fault);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
