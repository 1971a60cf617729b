//! The four workloads, and the child process that runs one pass of one.
//!
//! A pass runs in a fresh process so that allocator state, page faults and
//! peak RSS start from nothing every time. The child sees only files: the
//! staged FASTQ and a scratch directory.

use crate::gen::DatasetSpec;
use crate::json::{self, obj, Value};
use crate::procfs;
use fc_seq::{fasta, fastq, DnaString, Read};
use focus_core::{
    AssemblyOutcome, AssemblyResult, CheckpointOptions, FocusAssembler, FocusConfig, FocusError,
    OocOptions,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `FocusAssembler::assemble` on parsed reads.
    InCore,
    /// `assemble_fastq_ooc` under [`OOC_BUDGET_BYTES`].
    OutOfCore,
    /// `prepare` once, then `assemble_prepared` over [`SWEEP_KS`].
    KSweep,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: fn() -> DatasetSpec,
    pub threads: usize,
    pub mode: Mode,
    /// A pass whose contigs score below these is a failed pass.
    pub min_genome_fraction: f64,
    pub min_contig_accuracy: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "incore-t1",
        why: "serial baseline: alignment is ~95% of wall, so an index or kernel change shows undiluted; the pool is bypassed",
        dataset: DatasetSpec::meta_clean,
        threads: 1,
        mode: Mode::InCore,
        min_genome_fraction: 0.5,
        min_contig_accuracy: 0.9,
    },
    Workload {
        name: "incore-t2",
        why: "what users run: 4 index builds + 10 subset-pair tasks on 2 workers, so the slowest task and the pool cap the gain",
        dataset: DatasetSpec::meta_clean,
        threads: 2,
        mode: Mode::InCore,
        min_genome_fraction: 0.5,
        min_contig_accuracy: 0.9,
    },
    Workload {
        name: "ooc-t2",
        why: "same input under a budget in-core refuses: streamed ingest, paged store, pair runs spilled through fc-ckpt and read back",
        dataset: DatasetSpec::meta_clean,
        threads: 2,
        mode: Mode::OutOfCore,
        min_genome_fraction: 0.5,
        min_contig_accuracy: 0.9,
    },
    Workload {
        name: "ksweep",
        why: "alignment is outside the timed region: partitioning, the four distributed phases and contig emission do all the work",
        dataset: DatasetSpec::meta_noisy,
        threads: 2,
        mode: Mode::KSweep,
        min_genome_fraction: 0.3,
        min_contig_accuracy: 0.6,
    },
];

pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload \"{name}\" (have: {})", names.join(", "))
    })
}

/// Memory budget of `ooc-t2`. On `meta-clean` the ledger is charged about
/// 4.4 MB for the raw input, 7.2 MB for the store and 5.4 MB for the
/// overlaps: the in-core path holds all three (17 MB) and is refused, the
/// out-of-core path never holds the raw input (12.6 MB) and fits. The cold
/// pass checks both halves of that sentence.
pub const OOC_BUDGET_BYTES: u64 = 14_500_000;

/// Partition counts of the `ksweep` workload (paper Table III).
pub const SWEEP_KS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Share of an assembly's contigs that may differ between two partition
/// counts. A circular path has no first node, so the partitioning decides
/// where its contig starts and ends: about one seed in twenty has one such
/// contig among 4 500, which shows as one contig on either side (0.05%).
/// More than this share means the partition count changed the assembly.
pub const SWEEP_MAX_DIFFERING_SHARE: f64 = 0.002;

/// Sweeps per timed pass of `ksweep`: one sweep over the six counts takes
/// about 1.2 s on `meta-noisy`, and a pass should take over 3 s.
pub const SWEEP_ROUNDS: usize = 3;

impl Workload {
    /// The product configuration: library defaults, the workload's thread
    /// count and (out-of-core only) its budget.
    pub fn config(&self) -> FocusConfig {
        FocusConfig {
            threads: self.threads,
            memory_budget: (self.mode == Mode::OutOfCore).then_some(OOC_BUDGET_BYTES),
            ..FocusConfig::default()
        }
    }
}

/// Where a pass reads and writes.
#[derive(Debug, Clone)]
pub struct PassDirs {
    pub input: PathBuf,
    pub contigs: PathBuf,
    pub scratch: PathBuf,
}

/// What a child process is asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// The first pass of a run, which also checks the workload's premise.
    Cold,
    /// A timed pass. `ksweep` alone reads the fields: its one process
    /// prepares once, then times sweep passes until `seconds` have passed
    /// and `min_passes` are done.
    Timed { seconds: f64, min_passes: usize },
    /// The traced run's untraced reference: the in-core pipeline at the
    /// workload's thread count, called as its two public halves so each
    /// can be timed.
    Reference,
}

/// What one child process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildReport {
    /// `(wall_s, cpu_s)` of each timed region in the process.
    pub passes: Vec<(f64, f64)>,
    /// `VmHWM` at exit.
    pub peak_rss_mb: f64,
    /// Seconds in `prepare` (`ksweep`, where it is outside every timed
    /// region, and reference passes).
    pub prepare_s: f64,
    /// Reference passes: seconds in `assemble_prepared`.
    pub assemble_prepared_s: f64,
    /// `ooc-t2`, cold pass: the in-core path answered `BudgetExceeded`.
    pub refused_in_core: bool,
    /// `ksweep`: most contigs by which a partition count's assembly differed
    /// from the first count's (see [`SWEEP_MAX_DIFFERING_SHARE`]).
    pub k_differing: usize,
}

impl ChildReport {
    pub fn to_json(&self) -> Value {
        obj([
            (
                "passes",
                Value::Arr(
                    self.passes
                        .iter()
                        .map(|&(wall, cpu)| {
                            obj([("wall_s", Value::from(wall)), ("cpu_s", Value::from(cpu))])
                        })
                        .collect(),
                ),
            ),
            ("peak_rss_mb", Value::from(self.peak_rss_mb)),
            ("prepare_s", Value::from(self.prepare_s)),
            ("assemble_prepared_s", Value::from(self.assemble_prepared_s)),
            ("refused_in_core", Value::from(self.refused_in_core)),
            ("k_differing", Value::from(self.k_differing)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<ChildReport, String> {
        let passes = v
            .get("passes")
            .and_then(Value::as_array)
            .ok_or("missing \"passes\"")?
            .iter()
            .map(|p| Ok((p.num("wall_s")?, p.num("cpu_s")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ChildReport {
            passes,
            peak_rss_mb: v.num("peak_rss_mb")?,
            prepare_s: v.num("prepare_s")?,
            assemble_prepared_s: v.num("assemble_prepared_s")?,
            refused_in_core: v
                .get("refused_in_core")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            k_differing: v.num("k_differing")? as usize,
        })
    }
}

/// A wall + CPU stopwatch over one timed region.
struct Region {
    started: Instant,
    cpu_at_start: f64,
}

impl Region {
    fn start() -> Result<Region, String> {
        Ok(Region {
            cpu_at_start: procfs::cpu_seconds()?,
            started: Instant::now(),
        })
    }

    fn stop(self) -> Result<(f64, f64), String> {
        let wall = self.started.elapsed().as_secs_f64();
        Ok((wall, procfs::cpu_seconds()? - self.cpu_at_start))
    }
}

pub fn parse_fastq(path: &Path) -> Result<Vec<Read>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    fastq::parse(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes contigs the way `focus assemble` does and flushes them.
pub fn write_contigs(path: &Path, contigs: &[DnaString]) -> Result<(), String> {
    let records: Vec<Read> = contigs
        .iter()
        .enumerate()
        .map(|(i, c)| Read::new(format!("contig_{i} len={}", c.len()), c.clone()))
        .collect();
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    fasta::write(&mut out, &records, 70).map_err(|e| format!("{}: {e}", path.display()))?;
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}

fn completed(outcome: AssemblyOutcome) -> Result<AssemblyResult, String> {
    match outcome {
        AssemblyOutcome::Completed(result) => Ok(result),
        AssemblyOutcome::Stopped(phase) => Err(format!("run stopped after {}", phase.name())),
    }
}

/// Contigs of either set without an equal partner in the other, order
/// aside: the size of the two multisets' symmetric difference.
pub fn differing_contigs(a: &[DnaString], b: &[DnaString]) -> usize {
    let sorted = |contigs: &[DnaString]| {
        let mut texts: Vec<Vec<u8>> = contigs.iter().map(DnaString::to_ascii).collect();
        texts.sort_unstable();
        texts
    };
    let (a, b) = (sorted(a), sorted(b));
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - 2 * shared
}

/// Runs the child side of one pass and returns what it measured.
pub fn run_child(w: &Workload, dirs: &PassDirs, pass: Pass) -> Result<ChildReport, String> {
    let fail = |e: FocusError| format!("{}: {e}", w.name);
    let mut report = ChildReport {
        passes: Vec::new(),
        peak_rss_mb: 0.0,
        prepare_s: 0.0,
        assemble_prepared_s: 0.0,
        refused_in_core: false,
        k_differing: 0,
    };
    if pass == Pass::Reference {
        let config = FocusConfig {
            memory_budget: None,
            ..w.config()
        };
        let assembler = FocusAssembler::new(config).map_err(fail)?;
        let region = Region::start()?;
        let reads = parse_fastq(&dirs.input)?;
        let started = Instant::now();
        let prepared = assembler.prepare(&reads).map_err(fail)?;
        report.prepare_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let result = assembler
            .assemble_prepared(&prepared, config.partitions)
            .map_err(fail)?;
        report.assemble_prepared_s = started.elapsed().as_secs_f64();
        write_contigs(&dirs.contigs, &result.contigs)?;
        report.passes.push(region.stop()?);
        report.peak_rss_mb = procfs::peak_rss_mb()?;
        return Ok(report);
    }
    let assembler = FocusAssembler::new(w.config()).map_err(fail)?;
    match w.mode {
        Mode::InCore => {
            let region = Region::start()?;
            let reads = parse_fastq(&dirs.input)?;
            let result = assembler.assemble(&reads).map_err(fail)?;
            write_contigs(&dirs.contigs, &result.contigs)?;
            report.passes.push(region.stop()?);
        }
        Mode::OutOfCore => {
            if pass == Pass::Cold {
                let reads = parse_fastq(&dirs.input)?;
                match assembler.assemble(&reads) {
                    Err(FocusError::BudgetExceeded(_)) => report.refused_in_core = true,
                    Err(e) => return Err(fail(e)),
                    Ok(_) => return Err(format!("{}: the in-core path fits the budget", w.name)),
                }
            }
            // Every pass spills into an empty directory.
            let spill = dirs.scratch.join("spill");
            let _ = std::fs::remove_dir_all(&spill);
            let region = Region::start()?;
            let outcome = assembler
                .assemble_fastq_ooc(
                    &dirs.input,
                    &CheckpointOptions::default(),
                    &OocOptions::in_dir(&spill),
                )
                .map_err(fail)?;
            write_contigs(&dirs.contigs, &completed(outcome)?.contigs)?;
            report.passes.push(region.stop()?);
        }
        Mode::KSweep => {
            let started = Instant::now();
            let reads = parse_fastq(&dirs.input)?;
            let prepared = assembler.prepare(&reads).map_err(fail)?;
            report.prepare_s = started.elapsed().as_secs_f64();
            // Table III, checked once outside the timed region: the
            // partition count must not change the assembly.
            let mut reference: Option<AssemblyResult> = None;
            for k in SWEEP_KS {
                let result = assembler.assemble_prepared(&prepared, k).map_err(fail)?;
                let Some(first) = &reference else {
                    reference = Some(result);
                    continue;
                };
                let differing = differing_contigs(&first.contigs, &result.contigs);
                let allowed = SWEEP_MAX_DIFFERING_SHARE * first.contigs.len() as f64;
                if differing as f64 > allowed {
                    return Err(format!(
                        "{}: k={k} changed {differing} contigs of {}",
                        w.name,
                        first.contigs.len()
                    ));
                }
                report.k_differing = report.k_differing.max(differing);
            }
            let reference = reference.expect("SWEEP_KS is not empty");
            write_contigs(&dirs.contigs, &reference.contigs)?;
            let (seconds, min_passes) = match pass {
                Pass::Timed {
                    seconds,
                    min_passes,
                } => (seconds, min_passes),
                _ => (0.0, 1),
            };
            let sweeping = Instant::now();
            while report.passes.len() < min_passes || sweeping.elapsed().as_secs_f64() < seconds {
                let region = Region::start()?;
                for _ in 0..SWEEP_ROUNDS {
                    for k in SWEEP_KS {
                        std::hint::black_box(
                            assembler.assemble_prepared(&prepared, k).map_err(fail)?,
                        );
                    }
                }
                report.passes.push(region.stop()?);
            }
        }
    }
    report.peak_rss_mb = procfs::peak_rss_mb()?;
    Ok(report)
}

/// Spawns this executable as the child of one pass and waits for it.
pub fn spawn_child(w: &Workload, dirs: &PassDirs, pass: Pass) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (kind, seconds, min_passes) = match pass {
        Pass::Cold => ("cold", 0.0, 1),
        Pass::Timed {
            seconds,
            min_passes,
        } => ("timed", seconds, min_passes),
        Pass::Reference => ("reference", 0.0, 1),
    };
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", w.name])
        .arg("--input")
        .arg(&dirs.input)
        .arg("--contigs")
        .arg(&dirs.contigs)
        .arg("--scratch")
        .arg(&dirs.scratch)
        .args(["--pass", kind])
        .args(["--seconds", &seconds.to_string()])
        .args(["--min-passes", &min_passes.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child of {} ended with {}", w.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    ChildReport::from_json(&json::parse(line)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_reports_round_trip() {
        let report = ChildReport {
            passes: vec![(3.25, 6.1), (3.5, 6.25)],
            peak_rss_mb: 41.5,
            prepare_s: 2.75,
            assemble_prepared_s: 0.125,
            refused_in_core: true,
            k_differing: 2,
        };
        let text = report.to_json().to_compact();
        assert_eq!(
            ChildReport::from_json(&json::parse(&text).unwrap()).unwrap(),
            report
        );
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(
                w.why.len() <= 200,
                "{}: why is too long for BENCHMARK.json",
                w.name
            );
        }
        assert!(find("nope").unwrap_err().contains("incore-t1"));
    }

    #[test]
    fn differing_contigs_counts_both_sides_and_ignores_order() {
        let dna = |text: &str| text.parse::<DnaString>().unwrap();
        let (a, b, c) = (dna("ACGT"), dna("GGCC"), dna("TTTT"));
        assert_eq!(
            differing_contigs(&[a.clone(), b.clone()], &[b.clone(), a.clone()]),
            0
        );
        // A multiset: the second copy of `a` has no partner.
        assert_eq!(
            differing_contigs(&[a.clone(), b.clone()], &[a.clone(), a.clone()]),
            2
        );
        assert_eq!(differing_contigs(&[a.clone(), b, c], &[a]), 2);
    }
}
