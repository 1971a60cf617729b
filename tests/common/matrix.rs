//! The byte-identity contract as one enumerated matrix: threads × mode ×
//! faults, over one fixture and the one stage sequence.
//!
//! Every point — in core or spilled, uninterrupted or stopped after
//! alignment and resumed, clean, under a seeded `FaultPlan`, or with a
//! filesystem fault in the checkpoint or spill store — reproduces its
//! reference, the serial `assemble` run under the same `FaultPlan`: the
//! same contigs, traversal paths, fault report, partition on every level
//! and logical-clock metrics snapshot, byte for byte. A filesystem fault is
//! also *detected*, never trusted: a counter says so. Each point prints one
//! line.
//!
//! The matrix is enumerated once, by [`points`], and cut into [`Slice`]s
//! by [`owner`]: each slice is run by one named test, in the file of the
//! feature its points exercise; `tests/contract.rs` runs the rest.
//!
//! Every point runs on tiled error-free reads ([`fixture`]); the in-core
//! uninterrupted points also run on a simulated community ([`community`]),
//! whose reads carry sequencing errors, bad tails to trim and both strands.

use super::{completed, contract_config, fastq_fixture, tiled_reads, TempDir};
use fc_rng::cases;
use focus_assembler::ckpt::{FsFaultPlan, ReadFault, WriteFault};
use focus_assembler::dist::{AssemblyPath, FaultReport};
use focus_assembler::focus::{
    AssemblyOutcome, AssemblyResult, CheckpointOptions, CkptPhase, FocusAssembler, FocusConfig,
    OocOptions,
};
use focus_assembler::obs::MetricsSnapshot;
use focus_assembler::seq::{DnaString, Read};
use focus_assembler::sim::{generate_dataset, DatasetConfig};
use std::sync::OnceLock;

/// How a point drives the stage sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `assemble` on the parsed reads: the reference's mode.
    Assemble,
    /// `assemble_file` in core, streaming the file.
    Fastq,
    /// `assemble_file` in core, stopped after alignment, then resumed: what
    /// `focus assemble --resume` and `focus serve` run.
    Resumed,
    /// `assemble_file` out of core, no budget.
    Spilled,
    /// Out of core under a 1 GiB budget.
    Budgeted,
    /// Out of core, stopped after alignment, then resumed from the
    /// alignment checkpoint.
    SpilledResumed,
}

const MODES: [Mode; 6] = [
    Mode::Assemble,
    Mode::Fastq,
    Mode::Resumed,
    Mode::Spilled,
    Mode::Budgeted,
    Mode::SpilledResumed,
];

impl Mode {
    pub fn resumes(self) -> bool {
        matches!(self, Mode::Resumed | Mode::SpilledResumed)
    }

    pub fn spills(self) -> bool {
        matches!(self, Mode::Spilled | Mode::Budgeted | Mode::SpilledResumed)
    }
}

/// What goes wrong during a point. A filesystem fault hits the `op`-th
/// write or read of the store its mode exercises — the checkpoint store
/// when it resumes, else the spill store — and rides on the `FaultPlan`,
/// so the sabotaged run also has a fault report to reproduce.
#[derive(Debug, Clone, Copy)]
pub enum Faults {
    None,
    /// `contract_config`'s seeded rank crashes and message drops.
    Plan,
    Write(u64, WriteFault),
    Read(u64, ReadFault),
}

impl Faults {
    /// Whether the run's `FaultPlan` is on: which reference it must equal.
    fn plan(self) -> bool {
        !matches!(self, Faults::None)
    }

    fn fs_plan(self) -> FsFaultPlan {
        match self {
            Faults::Write(op, fault) => FsFaultPlan::none().fail_write(op, fault),
            Faults::Read(op, fault) => FsFaultPlan::none().fail_read(op, fault),
            Faults::None | Faults::Plan => FsFaultPlan::none(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub threads: usize,
    pub mode: Mode,
    pub faults: Faults,
}

impl Point {
    /// `t2/Spilled/plan+write-bitflip@3`, say.
    fn label(&self) -> String {
        let kind = |debug: String| debug.split(' ').next().unwrap_or("").to_lowercase();
        let faults = match self.faults {
            Faults::None => "clean".to_string(),
            Faults::Plan => "plan".to_string(),
            Faults::Write(op, f) => format!("plan+write-{}@{op}", kind(format!("{f:?}"))),
            Faults::Read(op, f) => format!("plan+read-{}@{op}", kind(format!("{f:?}"))),
        };
        format!("t{}/{:?}/{faults}", self.threads, self.mode)
    }
}

/// Every mode at every thread count, clean and under the `FaultPlan`;
/// then each filesystem fault at two threads. The checkpoint store saves
/// and loads once a run (op 0), in core and spilled. The spill store saves
/// one run per subset pair and reads each back in the merge, so its faults
/// land early and late.
pub fn points() -> Vec<Point> {
    let mut points = Vec::new();
    for threads in [1, 2, 4, 8] {
        for mode in MODES {
            for faults in [Faults::None, Faults::Plan] {
                points.push(Point {
                    threads,
                    mode,
                    faults,
                });
            }
        }
    }
    let fs = |mode, faults| Point {
        threads: 2,
        mode,
        faults,
    };
    for fault in [
        WriteFault::Torn,
        WriteFault::BitFlip { bit: 12_345 },
        WriteFault::Enospc,
    ] {
        points.push(fs(Mode::Resumed, Faults::Write(0, fault)));
        for op in [0, 3] {
            points.push(fs(Mode::Spilled, Faults::Write(op, fault)));
        }
    }
    for fault in [ReadFault::Short, ReadFault::BitFlip { bit: 4_321 }] {
        points.push(fs(Mode::Resumed, Faults::Read(0, fault)));
        points.push(fs(Mode::SpilledResumed, Faults::Read(0, fault)));
        for op in [0, 2] {
            points.push(fs(Mode::Spilled, Faults::Read(op, fault)));
        }
    }
    points
}

/// The parts the matrix is cut into. Each is run by the one test
/// [`Slice::test`] names, which calls [`run_slice`] with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// `assemble` at every thread count, clean (`tests/invariants.rs`).
    ThreadCount,
    /// `assemble` under the `FaultPlan` (`tests/observability.rs`).
    Metrics,
    /// In-core stop + resume, clean and planned (`tests/chaos.rs`).
    KillResume,
    /// Torn and bit-flipped checkpoint writes (`tests/chaos.rs`).
    CkptWrites,
    /// Short and bit-flipped checkpoint reads (`tests/chaos.rs`).
    CkptReads,
    /// Spilled, with and without a budget (`tests/ooc.rs`).
    Spilled,
    /// Spill store faults (`tests/ooc.rs`).
    SpillFaults,
    /// Spilled stop + resume (`tests/ooc.rs`).
    SpilledResume,
    /// Everything else (`tests/contract.rs`).
    Rest,
}

impl Slice {
    pub const ALL: [Slice; 9] = [
        Slice::ThreadCount,
        Slice::Metrics,
        Slice::KillResume,
        Slice::CkptWrites,
        Slice::CkptReads,
        Slice::Spilled,
        Slice::SpillFaults,
        Slice::SpilledResume,
        Slice::Rest,
    ];

    /// The name of the test that runs the slice.
    pub fn test(self) -> &'static str {
        match self {
            Slice::ThreadCount => "pipeline_output_is_thread_count_invariant",
            Slice::Metrics => "metric_snapshots_are_byte_identical_across_thread_counts",
            Slice::KillResume => "kill_after_every_phase_then_resume_reproduces_the_clean_run",
            Slice::CkptWrites => {
                "torn_and_bit_flipped_writes_are_rejected_on_resume_and_recomputed"
            }
            Slice::CkptReads => "short_and_bit_flipped_reads_are_rejected_on_resume_and_recomputed",
            Slice::Spilled => "spilled_assembly_is_bit_identical_to_in_core",
            Slice::SpillFaults => "every_spill_fault_is_detected_and_answered",
            Slice::SpilledResume => "killed_ooc_run_resumes_pages_and_checkpoints",
            Slice::Rest => "every_point_reproduces_its_reference",
        }
    }
}

/// The slice `point` belongs to: every point belongs to exactly one.
pub fn owner(point: &Point) -> Slice {
    use Faults::{None as Clean, Plan, Read, Write};
    match (point.mode, point.faults) {
        (Mode::Assemble, Clean) => Slice::ThreadCount,
        (Mode::Assemble, _) => Slice::Metrics,
        (Mode::Resumed, Clean | Plan) => Slice::KillResume,
        (Mode::Resumed, Write(_, WriteFault::Torn | WriteFault::BitFlip { .. })) => {
            Slice::CkptWrites
        }
        (Mode::Resumed, Read(..)) => Slice::CkptReads,
        (Mode::Spilled | Mode::Budgeted, Clean | Plan) => Slice::Spilled,
        (Mode::Spilled, _) => Slice::SpillFaults,
        (Mode::SpilledResumed, _) => Slice::SpilledResume,
        _ => Slice::Rest,
    }
}

/// Runs every point of `slice` against the fixtures. Called from any test
/// but the one [`Slice::test`] names, it fails: a renamed test cannot
/// silently take its points with it.
pub fn run_slice(slice: Slice) {
    // The harness names each test's thread after the test's path.
    if let Some(name) = std::thread::current().name().filter(|n| *n != "main") {
        assert!(name.ends_with(slice.test()), "{name} runs {slice:?}");
    }
    let slice: Vec<Point> = points().into_iter().filter(|p| owner(p) == slice).collect();
    for point in slice {
        fixture().check(&point);
        if matches!(point.mode, Mode::Assemble | Mode::Fastq) {
            community().check(&point);
        }
    }
}

/// Random inputs — tiled genomes and simulated communities — at random
/// points `keep` admits: the contract is not a property of the fixtures.
pub fn run_random(n: u64, keep: impl Fn(&Point) -> bool) {
    let points: Vec<Point> = points().into_iter().filter(|p| keep(p)).collect();
    cases(n, |rng| {
        let input = match rng.range(0u64..2) {
            0 => Input::Tiled {
                len: rng.range(1_800usize..2_600),
                seed: rng.range(1u64..1_000),
            },
            _ => Input::Community {
                seed: rng.range(0u64..(1u64 << 48)),
            },
        };
        let point = points[rng.range(0..points.len())];
        let reads = input.reads();
        let reference = reference(input, &reads, point.faults.plan());
        check(&point, input, &observe(&point, input, &reads), &reference);
    });
}

/// What the matrix assembles, and under which thresholds.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// [`tiled_reads`]`(len, seed)` under [`contract_config`]'s thresholds.
    Tiled { len: usize, seed: u64 },
    /// 600 reads simulated over four genera, with sequencing errors, bad
    /// tails and reverse-strand reads, under the default thresholds.
    Community { seed: u64 },
}

impl Input {
    fn reads(self) -> Vec<Read> {
        match self {
            Input::Tiled { len, seed } => tiled_reads(len, seed),
            Input::Community { seed } => {
                let mut config = DatasetConfig::test_scale();
                config.total_reads = 600;
                generate_dataset("community", &config, seed).unwrap().reads
            }
        }
    }

    fn config(self, threads: usize, faulted: bool) -> FocusConfig {
        let mut config = contract_config(threads, faulted);
        if let Input::Community { .. } = self {
            config.trim = FocusConfig::default().trim;
            config.overlap = FocusConfig::default().overlap;
        }
        config
    }
}

/// What one completed run produced. `metrics` is its full snapshot; a
/// resumed run's has the counters of the run it resumed from added in.
pub struct Run {
    pub contigs: Vec<DnaString>,
    pub paths: Vec<AssemblyPath>,
    pub fault: FaultReport,
    pub parts: Vec<Vec<u32>>,
    pub snapshot: String,
    pub metrics: MetricsSnapshot,
}

impl Run {
    fn of(result: AssemblyResult, snapshot: String, metrics: MetricsSnapshot) -> Run {
        Run {
            contigs: result.contigs,
            paths: result.report.paths,
            fault: result.report.fault,
            parts: result.partition.parts_per_level,
            snapshot,
            metrics,
        }
    }
}

/// Runs `point` on `reads` (through a FASTQ round trip), each run on a
/// fresh assembler so that every snapshot starts from a clean recorder.
/// Returns every run that completed, the point's last run last.
fn observe(point: &Point, input: Input, reads: &[Read]) -> Vec<Run> {
    let label = point.label();
    let tmp = TempDir::new(&label.replace(['/', '+', '@'], "-"));
    let (fastq, parsed) = fastq_fixture(&tmp.join("input"), reads);
    let mut config = input.config(point.threads, point.faults.plan());
    if point.mode == Mode::Budgeted {
        config.memory_budget = Some(1 << 30);
    }
    // A filesystem fault hits the checkpoint store when the point resumes
    // (a write fault the save before the stop, a read fault the resumed
    // run's load), else the spill store.
    let mut ooc = OocOptions::in_dir(tmp.join("spill"));
    let (mut stop_faults, mut resume_faults) = (FsFaultPlan::none(), FsFaultPlan::none());
    match (point.mode.resumes(), point.faults) {
        (false, _) => ooc.fs_faults = point.faults.fs_plan(),
        (true, Faults::Write(..)) => stop_faults = point.faults.fs_plan(),
        (true, _) => resume_faults = point.faults.fs_plan(),
    }
    let run = |opts: &CheckpointOptions| {
        let assembler = FocusAssembler::new(config).unwrap();
        let outcome = match point.mode {
            Mode::Assemble => assembler.assemble(&parsed).map(AssemblyOutcome::Completed),
            Mode::Fastq | Mode::Resumed => assembler.assemble_file(&fastq, opts, None),
            _ => assembler.assemble_file(&fastq, opts, Some(&ooc)),
        };
        let rec = assembler.recorder();
        let outcome = outcome.unwrap_or_else(|e| panic!("{label}: {e}"));
        (outcome, rec.snapshot(), rec.snapshot_json())
    };

    let mut runs = Vec::new();
    let mut opts = CheckpointOptions::default();
    let mut stopped = MetricsSnapshot::default();
    if point.mode.resumes() {
        let ckpt = CheckpointOptions::in_dir(tmp.join("ckpt"));
        if let Faults::Write(..) = point.faults {
            // Checkpoint writes never feed back into the computation: a
            // run whose save is sabotaged completes with the reference's
            // output. Then a run stopped after the same save is resumed.
            let sabotaged = CheckpointOptions {
                fs_faults: stop_faults.clone(),
                ..ckpt.clone()
            };
            let (outcome, metrics, snapshot) = run(&sabotaged);
            runs.push(Run::of(completed(outcome), snapshot, metrics));
        }
        let stop = CheckpointOptions {
            stop_after: Some(CkptPhase::Alignment),
            fs_faults: stop_faults,
            ..ckpt.clone()
        };
        let (outcome, metrics, _) = run(&stop);
        assert!(
            matches!(outcome, AssemblyOutcome::Stopped(CkptPhase::Alignment)),
            "{label}: did not stop after alignment"
        );
        stopped = metrics;
        opts = CheckpointOptions {
            resume: true,
            fs_faults: resume_faults,
            ..ckpt
        };
    }
    let (outcome, mut metrics, snapshot) = run(&opts);
    for (key, n) in stopped.counters {
        *metrics.counters.entry(key).or_default() += n;
    }
    runs.push(Run::of(completed(outcome), snapshot, metrics));
    runs
}

/// The serial `assemble` run under `plan`: what every point with that
/// `FaultPlan` value must reproduce.
fn reference(input: Input, reads: &[Read], plan: bool) -> Run {
    let faults = if plan { Faults::Plan } else { Faults::None };
    let point = Point {
        threads: 1,
        mode: Mode::Assemble,
        faults,
    };
    observe(&point, input, reads).pop().unwrap()
}

/// Asserts that every completed run of `point` reproduces `reference` and
/// that the counters of its last run show what `point` did.
fn check(point: &Point, input: Input, runs: &[Run], reference: &Run) {
    let label = format!("{} on {input:?}", point.label());
    for run in runs {
        assert_eq!(run.contigs, reference.contigs, "{label}: contigs");
        assert_eq!(run.paths, reference.paths, "{label}: paths");
        assert_eq!(run.fault, reference.fault, "{label}: fault report");
        assert_eq!(run.parts, reference.parts, "{label}: partitions");
        assert_eq!(run.snapshot, reference.snapshot, "{label}: snapshot");
    }
    assert_counters(point, &label, &runs[runs.len() - 1].metrics);
    println!("{label}: {} completed run(s) identical", runs.len());
}

/// The counters each kind of point must show: a resumed run loaded what
/// its stopped run saved, a spilled one spilled, and every filesystem
/// fault was detected and answered.
fn assert_counters(point: &Point, label: &str, metrics: &MetricsSnapshot) {
    let n = |key: &str| metrics.counters.get(key).copied().unwrap_or(0);
    match (point.mode, point.faults) {
        (Mode::Resumed, Faults::Write(_, WriteFault::Enospc)) => {
            assert_eq!((n("ckpt.degraded"), n("ckpt.loaded")), (1, 0), "{label}");
        }
        (Mode::Resumed, Faults::Write(..)) => {
            assert_eq!((n("ckpt.rejected"), n("ckpt.loaded")), (1, 0), "{label}");
        }
        // Saved before the stop, rejected on resume, then saved again.
        (Mode::Resumed | Mode::SpilledResumed, Faults::Read(..)) => {
            let seen = (n("ckpt.rejected"), n("ckpt.loaded"), n("ckpt.saved"));
            assert_eq!(seen, (1, 0, 2), "{label}");
        }
        (Mode::Spilled, Faults::Write(..)) => {
            let answered =
                n("ooc.spill.rejected") + n("ooc.spill.recomputed") + n("ooc.spill.degraded");
            assert!(answered >= 1, "{label}: the fault went unnoticed");
        }
        (Mode::Spilled, Faults::Read(..)) => {
            assert!(n("ooc.spill.rejected") >= 1, "{label}: never detected");
            assert!(n("ooc.spill.recomputed") >= 1, "{label}: never recomputed");
        }
        (_, Faults::Write(..) | Faults::Read(..)) => {
            panic!("{label}: no store for a filesystem fault")
        }
        (Mode::Resumed | Mode::SpilledResumed, _) => assert_eq!(n("ckpt.loaded"), 1, "{label}"),
        (Mode::Spilled | Mode::Budgeted, _) => {
            assert!(n("ooc.spill.runs") >= 1, "{label}: nothing spilled");
            assert_eq!(n("ooc.spill.degraded"), 0, "{label}");
        }
        (Mode::Assemble | Mode::Fastq, _) => {}
    }
    if !point.mode.resumes() {
        let ckpt = metrics.counters.keys().find(|k| k.starts_with("ckpt."));
        assert_eq!(ckpt, None, "{label}: checkpoint I/O without a directory");
    }
}

/// An input, its reads and its two references.
pub struct Fixture {
    pub input: Input,
    pub reads: Vec<Read>,
    pub clean: Run,
    pub faulted: Run,
}

impl Fixture {
    fn new(input: Input) -> Fixture {
        let reads = input.reads();
        let clean = reference(input, &reads, false);
        let faulted = reference(input, &reads, true);
        Fixture {
            input,
            reads,
            clean,
            faulted,
        }
    }

    /// Runs `point` on the fixture's reads against its reference.
    fn check(&self, point: &Point) {
        let reference = if point.faults.plan() {
            &self.faulted
        } else {
            &self.clean
        };
        let runs = observe(point, self.input, &self.reads);
        check(point, self.input, &runs, reference);
    }
}

/// 49 reads tiled over a 2 500 bp genome: every point runs on them.
pub fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        Fixture::new(Input::Tiled {
            len: 2500,
            seed: 11,
        })
    })
}

/// A 600-read simulated community: the in-core uninterrupted points run on
/// it too.
pub fn community() -> &'static Fixture {
    static COMMUNITY: OnceLock<Fixture> = OnceLock::new();
    COMMUNITY.get_or_init(|| Fixture::new(Input::Community { seed: 0x5EED }))
}
