//! The one fixture the end-to-end tests share: tiled reads over a random
//! genome, a FASTQ round trip of them, the byte-identity contract's
//! configuration, and a temp directory that cleans up after itself.

// Each test binary compiles this module and uses a different part of it.
#![allow(dead_code)]

pub mod alloc;
pub mod matrix;

use focus_assembler::dist::FaultRates;
use focus_assembler::focus::{
    AssemblyOutcome, AssemblyResult, FaultInjection, FocusAssembler, FocusConfig,
};
use focus_assembler::obs::ObsOptions;
use focus_assembler::seq::{fastq, DnaString, Read};
use focus_assembler::sim::genome::{random_genome, GenomeConfig};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A random genome of `len` bases.
pub fn genome(len: usize, seed: u64) -> DnaString {
    let config = GenomeConfig {
        length: len,
        ..GenomeConfig::default()
    };
    random_genome(&config, seed)
}

/// Error-free `read_len`-base reads starting every `stride` bases, named
/// after their start.
pub fn tiling(genome: &DnaString, read_len: usize, stride: usize) -> Vec<Read> {
    (0..)
        .step_by(stride)
        .take_while(|&start| start + read_len <= genome.len())
        .map(|start| Read::new(format!("r{start}"), genome.slice(start, start + read_len)))
        .collect()
}

/// 100 bp reads tiled every 50 bp over [`genome`]`(len, seed)`.
pub fn tiled_reads(len: usize, seed: u64) -> Vec<Read> {
    tiling(&genome(len, seed), 100, 50)
}

/// Writes `reads` to `dir/reads.fastq` (quality 30 throughout) and parses
/// them back, so an in-core run sees exactly what a streaming run reads.
pub fn fastq_fixture(dir: &Path, reads: &[Read]) -> (PathBuf, Vec<Read>) {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("reads.fastq");
    let mut out = Vec::new();
    fastq::write(&mut out, reads, 30).unwrap();
    std::fs::write(&path, &out).unwrap();
    let file = std::fs::File::open(&path).unwrap();
    let parsed = fastq::Reader::new(BufReader::new(file))
        .collect::<Result<_, _>>()
        .unwrap();
    (path, parsed)
}

/// The configuration the byte-identity contract is checked under: four
/// partitions, thresholds sized for [`tiled_reads`], the logical clock, and
/// when `faulted` a seeded `FaultPlan` of rank crashes and message drops.
pub fn contract_config(threads: usize, faulted: bool) -> FocusConfig {
    let mut c = FocusConfig {
        partitions: 4,
        threads,
        observability: ObsOptions::logical(),
        ..FocusConfig::default()
    };
    c.trim.min_read_len = 30;
    c.overlap.min_overlap_len = 40;
    c.fault = faulted.then_some(FaultInjection {
        seed: 42,
        rates: FaultRates {
            crash: 0.2,
            drop: 0.3,
            ..FaultRates::default()
        },
    });
    c
}

/// `assemble` on a fresh assembler, so that its recorder starts clean: the
/// result and the logical snapshot.
pub fn run_clean(reads: &[Read], config: FocusConfig) -> (AssemblyResult, String) {
    let assembler = FocusAssembler::new(config).unwrap();
    let result = assembler.assemble(reads).unwrap();
    (result, assembler.recorder().snapshot_json())
}

/// The result of a run that was not asked to stop.
pub fn completed(outcome: AssemblyOutcome) -> AssemblyResult {
    match outcome {
        AssemblyOutcome::Completed(r) => r,
        AssemblyOutcome::Stopped(p) => panic!("unexpected stop after {p:?}"),
    }
}

/// A fresh directory under the system temp dir, removed when dropped —
/// also when the test that made it fails.
pub struct TempDir(PathBuf);

impl TempDir {
    /// `fc-test-{tag}-{pid}-{n}`, unique within the process so that tests
    /// running side by side never share one. It is not created: the code
    /// under test creates what it writes.
    pub fn new(tag: &str) -> TempDir {
        static MADE: AtomicUsize = AtomicUsize::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let name = format!("fc-test-{tag}-{}-{n}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// So that `CheckpointOptions::in_dir(&dir)` and the like take one.
impl From<&TempDir> for PathBuf {
    fn from(dir: &TempDir) -> PathBuf {
        dir.0.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
