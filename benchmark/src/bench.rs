//! The end-to-end harness: set a workload up, run its passes as child
//! processes, check every output, and report the end-to-end metrics.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::eval::{self, Reference};
use crate::gen::{self, fnv1a64};
use crate::json::{obj, Value};
use crate::stats::Summary;
use crate::trace;
use crate::workload::{spawn_child, ChildReport, Mode, Pass, PassDirs, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A run always times at least this many passes, however long one takes.
const MIN_TIMED_PASSES: usize = 3;

/// A directory under the executable's own (`$CARGO_TARGET_DIR/release`),
/// removed again when the run ends: the benchmark writes nowhere else.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(label: &str) -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the executable has no directory")?
            .join("focus-bench-scratch")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPU model, core count and compiler, recorded in every result file.
pub fn environment() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    obj([
        ("cpu", Value::from(cpu)),
        ("nproc", Value::from(nproc)),
        ("rustc", Value::from(env!("FOCUS_BENCH_RUSTC"))),
    ])
}

/// The staged inputs of one run and the truth to score against.
pub struct Staged {
    pub dirs: PassDirs,
    pub reference: Reference,
    pub info: Value,
}

/// Generates the workload's dataset twice (the two FASTQ digests must
/// match), writes FASTQ and reference FASTA under `dir`, and indexes the
/// reference for evaluation.
pub fn stage(w: &Workload, seed: u64, dir: &Path) -> Result<Staged, String> {
    let spec = (w.dataset)();
    let data = gen::generate(&spec, seed);
    let fastq = data.fastq();
    let fastq_digest = fnv1a64(&fastq);
    let again = fnv1a64(&gen::generate(&spec, seed).fastq());
    if again != fastq_digest {
        return Err(format!(
            "{}: seed {seed} generated two different FASTQ files",
            spec.name
        ));
    }
    let reference_fasta = data.reference_fasta();
    let dirs = PassDirs {
        input: dir.join("reads.fastq"),
        contigs: dir.join("contigs.fasta"),
        scratch: dir.to_path_buf(),
    };
    std::fs::write(&dirs.input, &fastq).map_err(|e| format!("{}: {e}", dirs.input.display()))?;
    let reference_path = dir.join("reference.fasta");
    std::fs::write(&reference_path, &reference_fasta)
        .map_err(|e| format!("{}: {e}", reference_path.display()))?;
    let genomes: Vec<Vec<u8>> = data.genomes.iter().map(|g| g.seq.clone()).collect();
    Ok(Staged {
        dirs,
        reference: Reference::new(&genomes),
        info: obj([
            ("dataset", Value::from(spec.name)),
            ("reads", Value::from(data.reads.len())),
            ("fastq_bytes", Value::from(fastq.len())),
            ("fastq_digest", Value::from(format!("{fastq_digest:016x}"))),
            (
                "reference_digest",
                Value::from(format!("{:016x}", fnv1a64(&reference_fasta))),
            ),
            (
                "reference_bp",
                Value::from(genomes.iter().map(Vec::len).sum::<usize>()),
            ),
        ]),
    })
}

/// Reads the contigs a pass wrote: their digest and their sequences.
fn read_contigs(path: &Path) -> Result<(u64, Vec<Vec<u8>>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let contigs = eval::parse_fasta(&bytes);
    if contigs.is_empty() || contigs.iter().any(Vec::is_empty) {
        return Err(format!("{}: empty or unparsable contigs", path.display()));
    }
    Ok((fnv1a64(&bytes), contigs))
}

/// Everything one `bench` invocation measured.
pub struct BenchResult {
    pub attempted: usize,
    pub failed: usize,
    pub contig_digest: u64,
    /// Full result document (`--out`, result sets, `compare`).
    pub document: Value,
    /// `(name, value, unit)` of every end-to-end metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Runs workload `w` on the inputs of `seed`, timing passes for at least
/// `seconds` seconds.
pub fn run(w: &'static Workload, seed: u64, seconds: f64) -> Result<BenchResult, String> {
    let started = Instant::now();
    let scratch = Scratch::create(&format!("{}-{seed}", w.name))?;

    // ---- Set-up: inputs, truth, and one cold pass that is fully checked.
    let staged = stage(w, seed, scratch.path())?;
    let cold = spawn_child(w, &staged.dirs, Pass::Cold)?;
    if w.mode == Mode::OutOfCore && !cold.refused_in_core {
        return Err(format!(
            "{}: the cold pass did not see the in-core path refused",
            w.name
        ));
    }
    let (contig_digest, contigs) = read_contigs(&staged.dirs.contigs)?;
    let quality = eval::evaluate(&staged.reference, &contigs);
    if quality.genome_fraction < w.min_genome_fraction
        || quality.contig_accuracy < w.min_contig_accuracy
    {
        return Err(format!(
            "{}: cold pass quality is under the floor: genome_fraction {:.4} (min {}), contig_accuracy {:.4} (min {})",
            w.name, quality.genome_fraction, w.min_genome_fraction, quality.contig_accuracy, w.min_contig_accuracy
        ));
    }
    let setup_s = started.elapsed().as_secs_f64();

    // ---- Timed passes. A pass fails on a bad exit, on unparsable
    // contigs, or on contigs that differ from the cold pass's.
    let mut attempted = 1usize;
    let mut failed = 0usize;
    let mut reports: Vec<ChildReport> = Vec::new();
    let timing = Instant::now();
    loop {
        attempted += 1;
        // `ksweep` alone reads the fields: its one process prepares once
        // and then times every sweep pass.
        let timed = Pass::Timed {
            seconds,
            min_passes: MIN_TIMED_PASSES,
        };
        let pass = spawn_child(w, &staged.dirs, timed).and_then(|report| {
            match read_contigs(&staged.dirs.contigs)?.0 {
                digest if digest == contig_digest => Ok(report),
                digest => Err(format!(
                    "contigs {digest:016x} differ from the cold pass's {contig_digest:016x}"
                )),
            }
        });
        match pass {
            Ok(report) => reports.push(report),
            Err(message) => {
                eprintln!("focus-bench: {}: failed pass: {message}", w.name);
                failed += 1;
            }
        }
        let timed_passes: usize = reports.iter().map(|r| r.passes.len()).sum();
        let enough = timed_passes >= MIN_TIMED_PASSES && timing.elapsed().as_secs_f64() >= seconds;
        if enough || w.mode == Mode::KSweep || failed >= MIN_TIMED_PASSES {
            break;
        }
    }
    if reports.is_empty() {
        return Err(format!("{}: no timed pass succeeded", w.name));
    }

    let walls: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.passes.iter().map(|p| p.0))
        .collect();
    let cpus: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.passes.iter().map(|p| p.1))
        .collect();
    let rss: Vec<f64> = reports.iter().map(|r| r.peak_rss_mb).collect();
    let samples: Vec<(&'static str, Vec<f64>)> = vec![
        ("wall_s", walls),
        ("cpu_s", cpus),
        ("peak_rss_mb", rss),
        ("setup_s", vec![setup_s]),
        ("genome_fraction", vec![quality.genome_fraction]),
        ("contig_accuracy", vec![quality.contig_accuracy]),
        ("ng50_bp", vec![quality.ng50_bp as f64]),
    ];

    let mut metrics = Vec::new();
    let mut metric_docs = Vec::new();
    println!(
        "{:<18} {:<9} {:>3} {:>12} {:>12} {:>12} {:>10}",
        "metric", "unit", "n", "median", "min", "max", "iqr"
    );
    for (m, (name, values)) in END_TO_END.iter().zip(&samples) {
        assert_eq!(m.name, *name, "samples follow the catalog's order");
        let s = Summary::of(values);
        println!(
            "{:<18} {:<9} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>10.4}",
            m.name, m.unit, s.n, s.median, s.min, s.max, s.iqr
        );
        metrics.push((m.name, s.median, m.unit));
        metric_docs.push((m.name.to_string(), s.to_json(m.unit, values)));
    }
    let reads = staged.info.num("reads")?;
    let wall = metrics[0].1;
    println!(
        "derived: {:.1} reads/s ({reads} reads / wall_s); cold pass prepare {:.3} s; {} contigs, {} bp",
        reads / wall,
        cold.prepare_s,
        quality.contigs,
        quality.total_bp
    );
    if w.mode == Mode::KSweep {
        println!(
            "derived: at most {} contigs differ between two partition counts",
            cold.k_differing
        );
    }

    let document = obj([
        ("workload", Value::from(w.name)),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("threads", Value::from(w.threads)),
        ("env", environment()),
        ("input", staged.info.clone()),
        (
            "contig_digest",
            Value::from(format!("{contig_digest:016x}")),
        ),
        ("contigs", Value::from(quality.contigs)),
        ("contig_bp", Value::from(quality.total_bp)),
        ("k_differing", Value::from(cold.k_differing)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("reads_per_s", Value::from(reads / wall)),
        ("metrics", Value::Obj(metric_docs)),
    ]);
    Ok(BenchResult {
        attempted,
        failed,
        contig_digest,
        document,
        metrics,
    })
}

/// The line the driver reads: last on standard output.
pub fn final_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        (
                            name.to_string(),
                            obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_compact()
}

/// The traced run of `w` on the inputs of `seed`. Prints every per-layer
/// metric and, when `out` is given, writes `trace.json` and `layers.json`
/// there.
pub fn run_trace(
    w: &Workload,
    seed: u64,
    out: Option<&Path>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let scratch = Scratch::create(&format!("trace-{}-{seed}", w.name))?;
    let staged = stage(w, seed, scratch.path())?;
    let output = trace::run(w, &staged.dirs.input, scratch.path())?;
    println!("{:<34} {:<9} {:>18}  class", "metric", "unit", "value");
    for (&(name, value), m) in output.metrics.iter().zip(&PER_LAYER) {
        let exact = if m.exact { ", exact" } else { "" };
        println!(
            "{:<34} {:<9} {:>18.6}  {}{exact}",
            name,
            m.unit,
            value,
            m.class.label()
        );
    }
    if let Some(dir) = out {
        let layers = trace::layers_json(w, seed, environment(), &output);
        let (trace_path, layers_path) = trace::write_outputs(dir, &layers, &output.spans)?;
        println!(
            "wrote {} and {}",
            trace_path.display(),
            layers_path.display()
        );
    }
    Ok(output
        .metrics
        .iter()
        .zip(&PER_LAYER)
        .map(|(&(name, value), m)| (name, value, m.unit))
        .collect())
}

/// Runs all four workloads on one seed into one result set, and checks
/// what only shows across workloads: the three pipeline workloads must
/// write the same contigs.
pub fn suite(seed: u64, seconds: f64, out: &Path, layers: Option<&Path>) -> Result<(), String> {
    let mut documents = Vec::new();
    let mut pipeline_digests = Vec::new();
    for w in &WORKLOADS {
        println!("== {} ==", w.name);
        let result = run(w, seed, seconds)?;
        if result.failed > 0 {
            return Err(format!(
                "{}: {} of {} passes failed",
                w.name, result.failed, result.attempted
            ));
        }
        if w.mode != Mode::KSweep {
            pipeline_digests.push((w.name, result.contig_digest));
        }
        documents.push((w.name.to_string(), result.document));
        if let Some(dir) = layers {
            run_trace(w, seed, Some(&dir.join(w.name)))?;
        }
    }
    if pipeline_digests
        .iter()
        .any(|&(_, d)| d != pipeline_digests[0].1)
    {
        return Err(format!(
            "the pipeline workloads disagree on the contigs: {pipeline_digests:x?}"
        ));
    }
    let set = obj([
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("env", environment()),
        ("workloads", Value::Obj(documents)),
    ]);
    std::fs::write(out, set.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}
