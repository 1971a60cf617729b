//! The durable checkpoint layer.
//!
//! The contract matrix's in-core resumed points (`tests/common/matrix.rs`)
//! run here: the pipeline is killed after its one durable boundary,
//! alignment, and resumed, clean, under the `FaultPlan`, and with the
//! checkpoint's writes and reads sabotaged; every such point reproduces the
//! uninterrupted run bit for bit. Beside them: a byte flipped in the file
//! on disk is detected; a verified file whose metrics record nests 100 000
//! levels deep is rejected and recomputed; a checkpoint directory that
//! fails mid-run (ENOSPC) degrades checkpointing with one warning without
//! taking the assembly down; checkpoints of another config or input never
//! resume a run; the directory holds exactly the alignment checkpoint;
//! files an older build saved at boundaries this one no longer has are
//! left alone; and the payload's wire format round-trips.

mod common;

use common::matrix::{run_random, run_slice, Faults, Mode, Slice};
use common::{completed, contract_config, fastq_fixture, run_clean, tiled_reads, TempDir};
use fc_rng::cases;
use focus_assembler::align::{Overlapper, Pool};
use focus_assembler::ckpt::{
    decode_from_slice, encode_to_vec, CheckpointFile, CheckpointStore, Codec, FsFaultPlan,
    LoadOutcome, WriteFault,
};
use focus_assembler::focus::{
    config_fingerprint, input_digest, AssemblyOutcome, CheckpointOptions, CkptPhase,
    FocusAssembler, FocusConfig,
};
use focus_assembler::obs::Recorder;
use focus_assembler::seq::Read;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Logical clock and the seeded `FaultPlan`, so resumed runs have a fault
/// report to reproduce.
fn chaos_config() -> FocusConfig {
    contract_config(0, true)
}

/// A checkpointed run of `reads`, streamed from a FASTQ written for it: its
/// outcome, its logical snapshot and its `ckpt.*` counters (which the
/// logical snapshot leaves out).
fn run_ckpt(
    reads: &[Read],
    opts: &CheckpointOptions,
    config: FocusConfig,
) -> (AssemblyOutcome, String, BTreeMap<&'static str, u64>) {
    let tmp = TempDir::new("ckpt-input");
    let (input, _) = fastq_fixture(&tmp, reads);
    let assembler = FocusAssembler::new(config).unwrap();
    let outcome = assembler.assemble_file(&input, opts, None).unwrap();
    let snapshot = assembler.recorder().snapshot_json();
    (outcome, snapshot, assembler.recorder().snapshot().counters)
}

fn resume_in(dir: impl Into<PathBuf>) -> CheckpointOptions {
    CheckpointOptions {
        resume: true,
        ..CheckpointOptions::in_dir(dir)
    }
}

/// Stopped after alignment and resumed at 1, 2, 4 and 8 threads, clean and
/// under the `FaultPlan`: each resume loads the one checkpoint and
/// reproduces the uninterrupted run.
#[test]
fn kill_after_every_phase_then_resume_reproduces_the_clean_run() {
    run_slice(Slice::KillResume);
}

/// A torn or bit-flipped checkpoint write: the run that makes it completes
/// with the reference's output, and a run stopped after such a save is
/// resumed by rejecting the file and recomputing alignment.
#[test]
fn torn_and_bit_flipped_writes_are_rejected_on_resume_and_recomputed() {
    run_slice(Slice::CkptWrites);
}

/// A short or bit-flipped read of a sound checkpoint is rejected, alignment
/// is recomputed, and a good file is saved again.
#[test]
fn short_and_bit_flipped_reads_are_rejected_on_resume_and_recomputed() {
    run_slice(Slice::CkptReads);
}

/// A byte flipped in the alignment checkpoint on disk, after the store
/// wrote it whole, is detected on resume and alignment is recomputed.
/// Alignment is the one boundary, so its file is the one checkpoint kind.
#[test]
fn one_flipped_byte_in_each_checkpoint_kind_is_detected_and_recomputed() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads, chaos_config());
    let dir = TempDir::new("flip");
    completed(run_ckpt(&reads, &CheckpointOptions::in_dir(&dir), chaos_config()).0);
    let phase = CkptPhase::Alignment;
    let path = dir.join(CheckpointStore::file_name(phase.id(), phase.name()));
    let mut corrupt = std::fs::read(&path).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    std::fs::write(&path, &corrupt).unwrap();
    let (outcome, snapshot, counters) = run_ckpt(&reads, &resume_in(&dir), chaos_config());
    assert_eq!(completed(outcome).contigs, clean.contigs);
    assert_eq!(snapshot, clean_snapshot);
    let rejected = counters.get("ckpt.rejected");
    assert_eq!(rejected, Some(&1), "the flip went undetected");
}

/// A checkpoint whose CRCs verify but whose metrics record (record 1) is
/// 100 000 `[`: the snapshot decoder refuses it at its nesting bound with a
/// typed error instead of overflowing the stack, so the resume rejects the
/// file, recomputes alignment and reproduces the clean run.
#[test]
fn a_deeply_nested_metrics_record_is_rejected_and_recomputed() {
    let reads = tiled_reads(2500, 11);
    let (clean, clean_snapshot) = run_clean(&reads, chaos_config());
    let dir = TempDir::new("nested");
    completed(run_ckpt(&reads, &CheckpointOptions::in_dir(&dir), chaos_config()).0);
    let phase = CkptPhase::Alignment;
    let path = dir.join(CheckpointStore::file_name(phase.id(), phase.name()));
    let mut file = CheckpointFile::decode(&std::fs::read(&path).unwrap(), &path).unwrap();
    file.records[1] = vec![b'['; 100_000];
    std::fs::write(&path, file.encode()).unwrap();
    let (outcome, snapshot, counters) = run_ckpt(&reads, &resume_in(&dir), chaos_config());
    assert_eq!(completed(outcome).contigs, clean.contigs);
    assert_eq!(snapshot, clean_snapshot);
    assert_eq!(counters.get("ckpt.rejected"), Some(&1));
    assert_eq!(counters.get("ckpt.loaded"), None);
}

/// Random genomes, stopped after alignment with a random write fault on the
/// checkpoint, still resume to their reference.
#[test]
fn random_crash_point_with_a_random_write_fault_still_resumes() {
    run_random(3, |p| {
        p.mode == Mode::Resumed && matches!(p.faults, Faults::Write(..))
    });
}

#[test]
fn enospc_mid_run_degrades_checkpointing_but_the_assembly_finishes() {
    let reads = tiled_reads(2500, 11);
    let (clean, _) = run_clean(&reads, chaos_config());
    let dir = TempDir::new("enospc");
    let (input, _) = fastq_fixture(&dir.join("input"), &reads);
    let mut opts = CheckpointOptions::in_dir(dir.join("ckpt"));
    opts.fs_faults = FsFaultPlan::none().fail_write(0, WriteFault::Enospc);
    let assembler = FocusAssembler::new(chaos_config()).unwrap();
    let result = completed(assembler.assemble_file(&input, &opts, None).unwrap());
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
    let (outcome, _, counters) = run_ckpt(&reads, &resume_in(dir.join("ckpt")), chaos_config());
    assert_eq!(completed(outcome).contigs, clean.contigs);
    assert_eq!(counters.get("ckpt.loaded"), None);
}

#[test]
fn checkpoints_from_another_config_or_input_never_resume_this_run() {
    let reads = tiled_reads(2500, 11);
    let dir = TempDir::new("mismatch");
    completed(run_ckpt(&reads, &CheckpointOptions::in_dir(&dir), chaos_config()).0);

    // Different partition count ⇒ different config fingerprint.
    let mut other_config = chaos_config();
    other_config.partitions = 8;
    let (other_clean, _) = run_clean(&reads, other_config);
    let resume = resume_in(&dir);
    let (outcome, _, counters) = run_ckpt(&reads, &resume, other_config);
    assert_eq!(completed(outcome).contigs, other_clean.contigs);
    assert_eq!(counters.get("ckpt.rejected"), Some(&1));

    // Different reads ⇒ different input digest: nothing loads either.
    let other_reads = tiled_reads(2500, 13);
    let dir2 = TempDir::new("mismatch-input");
    let fresh = CheckpointOptions::in_dir(&dir2);
    let expected = completed(run_ckpt(&other_reads, &fresh, chaos_config()).0);
    let (outcome, _, counters) = run_ckpt(&other_reads, &resume, chaos_config());
    assert_eq!(completed(outcome).contigs, expected.contigs);
    assert!(counters["ckpt.rejected"] >= 1);
    assert!(!counters.contains_key("ckpt.loaded"));
}

/// The one checkpointed boundary, alignment, is what a full run leaves:
/// its file, stamped with this run's fingerprints, and nothing else — no
/// index, lock or temp file beside it.
#[test]
fn manifest_lists_every_phase_after_a_full_run() {
    let reads = tiled_reads(2000, 17);
    let config = chaos_config();
    let dir = TempDir::new("manifest");
    completed(run_ckpt(&reads, &CheckpointOptions::in_dir(&dir), config).0);
    let (_, parsed) = fastq_fixture(&TempDir::new("manifest-input"), &reads);
    let files: Vec<String> = std::fs::read_dir(&*dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(files, ["phase_01_alignment.ckpt"]);
    let path = dir.join(&files[0]);
    let file = CheckpointFile::decode(&std::fs::read(&path).unwrap(), &path).unwrap();
    assert_eq!(file.phase_id, CkptPhase::Alignment.id());
    assert_eq!(file.config_fingerprint, config_fingerprint(&config));
    assert_eq!(file.input_digest, input_digest(&parsed));
}

/// A directory an older build checkpointed: a real alignment checkpoint
/// beside valid files at the boundaries this build no longer has (ids 0
/// and 2–8). A resume loads alignment alone — the other files are never
/// opened, so none is rejected — and reproduces the clean run.
#[test]
fn a_parent_era_directory_resumes_only_the_alignment_checkpoint() {
    let reads = tiled_reads(2500, 11);
    let config = chaos_config();
    let (clean, clean_snapshot) = run_clean(&reads, config);
    let dir = TempDir::new("parent-era");
    completed(run_ckpt(&reads, &CheckpointOptions::in_dir(&dir), config).0);
    let (_, parsed) = fastq_fixture(&TempDir::new("parent-era-input"), &reads);
    let mut store = CheckpointStore::new(&dir, config_fingerprint(&config), input_digest(&parsed));
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
    let (outcome, snapshot, counters) = run_ckpt(&reads, &resume_in(&dir), config);
    let resumed = completed(outcome);
    assert_eq!(counters.get("ckpt.loaded"), Some(&1));
    assert_eq!(counters.get("ckpt.rejected"), None);
    assert_eq!(resumed.contigs, clean.contigs);
    assert_eq!(resumed.report.fault, clean.report.fault);
    assert_eq!(snapshot, clean_snapshot);
}

/// Byte-level round trip through the wire format: decode(encode(x))
/// re-encodes to the identical bytes. Used instead of `PartialEq` because
/// several payloads intentionally don't implement it.
fn assert_reencodes<T: Codec>(bytes: &[u8], what: &str) {
    let back: T = decode_from_slice(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(encode_to_vec(&back), bytes, "{what} re-encodes differently");
}

/// The alignment payload round-trips through the wire format, and the
/// alignment checkpoint a run writes holds exactly that encoding, over
/// randomly generated pipelines.
#[test]
fn every_phase_payload_round_trips() {
    cases(3, |rng| {
        let (seed, len) = (rng.range(0u64..1_000), rng.range(1_800usize..2_600));
        let reads = tiled_reads(len, seed);
        let config = chaos_config();
        let assembler = FocusAssembler::new(config).unwrap();
        let Ok(stages) = assembler.prepare_stages(&reads) else {
            // Some tiny random genomes assemble to nothing; skip those.
            return;
        };
        type AlignmentCkpt = (
            Vec<focus_assembler::align::Overlap>,
            Vec<(usize, usize, focus_assembler::align::PairStats)>,
        );
        let alignment: AlignmentCkpt = Overlapper::new(&stages.store, config.overlap)
            .unwrap()
            .overlap_all(
                &stages.store.split_subsets(config.subsets),
                &Pool::new(config.threads),
                &Recorder::disabled(),
            )
            .unwrap();
        let encoded = encode_to_vec(&alignment);
        assert_reencodes::<AlignmentCkpt>(&encoded, "alignment payload");

        let dir = TempDir::new("roundtrip");
        let (input, parsed) = fastq_fixture(&dir.join("input"), &reads);
        let opts = CheckpointOptions::in_dir(dir.join("ckpt"));
        completed(assembler.assemble_file(&input, &opts, None).unwrap());
        let mut store = CheckpointStore::new(
            dir.join("ckpt"),
            config_fingerprint(assembler.config()),
            input_digest(&parsed),
        );
        let phase = CkptPhase::Alignment;
        match store.load(phase.id(), phase.name()) {
            LoadOutcome::Loaded(records) => {
                assert_eq!(records.len(), 2);
                assert_eq!(records[0], encoded);
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
    });
}
