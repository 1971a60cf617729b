//! `focus` — command-line front end for the Focus assembler.
//!
//! ```text
//! focus assemble --input reads.fastq --output contigs.fasta [options]
//! focus simulate --genome-len 20000 --coverage 10 --output reads.fastq
//! ```
//!
//! Run `focus help` for the full option list.

#![forbid(unsafe_code)]

use focus_assembler::focus::{
    AssemblyOutcome, CheckpointOptions, CkptPhase, FocusAssembler, FocusConfig, OocOptions,
};
use focus_assembler::seq::Read;
use focus_assembler::sim::{generate_to, single_genome_config, SINGLE_GENOME_NAME};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const HELP: &str = "\
focus — parallel NGS assembly on distributed overlap graphs

USAGE:
    focus assemble --input <reads.{fasta,fastq}> --output <contigs.fasta> [options]
    focus simulate --output <reads.fastq> [options]
    focus stats    --input <contigs.fasta>
    focus graph    --input <reads.{fasta,fastq}> --output <graph.{gfa,dot}> [options]
    focus classify --input <reads.{fasta,fastq}> --references <refs.fasta>
    focus obs-check [--trace <t.json>] [--metrics <m.json>] [--events <e.jsonl>]
    focus profile  <trace.json> [--json]
    focus serve    --state-dir <dir> [options]
    focus help

ASSEMBLE OPTIONS:
    --input <path>         input reads (format by extension:
                           .fasta/.fa/.fna/.fastq/.fq)
    --output <path>        output contig FASTA

PIPELINE OPTIONS (assemble, graph, serve):
    --partitions <k>       graph partitions, power of two        [default: 16]
    --min-overlap <bp>     minimum overlap length                [default: 50]
    --min-identity <f>     minimum overlap identity in [0,1]     [default: 0.90]
    --min-read-len <bp>    drop reads shorter than this          [default: 40]
    --min-quality <q>      sliding-window quality threshold      [default: 20]
    --subsets <n>          read subsets for pairwise alignment   [default: 4]
    --seed <u64>           partitioning seed                     [default: 986117]
    --threads <n>          worker threads; 0 = all cores, 1 = serial;
                           output is identical at any setting    [default: 0]
    --keep-both-strands    emit both strands of every contig

MEMORY OPTIONS (assemble; serve takes --memory-budget):
    --memory-budget <b>    cap the accounted heap; plain bytes or a k/M/G
                           suffix (e.g. 512M). Routes the run through the
                           out-of-core pipeline: alignment results spill
                           through CRC-verified files. Contigs and logical
                           metric snapshots are byte-identical to an
                           in-core run of the same config.
    --spill-dir <dir>      scratch directory for this run's spilled
                           alignment runs (never resumed from); implies
                           the out-of-core pipeline even with no budget.
                           Defaults to <checkpoint-dir>/ooc, or to a temp
                           dir removed when the run ends, when only
                           --memory-budget is given.

CHECKPOINT OPTIONS (assemble):
    --checkpoint-dir <dir> write a verified checkpoint of the overlaps once
                           alignment is done (atomic temp-file + rename,
                           CRC-protected); every later stage is recomputed
    --resume               skip alignment when its checkpoint in
                           --checkpoint-dir verifies (checksums +
                           config/input fingerprints); a missing, corrupt
                           or mismatched checkpoint is recomputed, in core
                           or out
    --crash-after <phase>  stop right after checkpointing <phase> and exit
                           with code 3 (chaos-harness crash point); the one
                           checkpointed phase is: alignment

OBSERVABILITY OPTIONS (assemble):
    --trace <path>         write a Chrome trace_event JSON (open in Perfetto)
    --metrics <path>       write the metrics snapshot JSON
    --events <path>        write raw events as JSON lines
    --logical-clock        timestamp events with a logical counter instead of
                           wall time; metric snapshots become byte-identical
                           at any --threads setting

OBS-CHECK OPTIONS:
    --trace <path>         validate a Chrome trace written by --trace
    --metrics <path>       validate a metrics snapshot written by --metrics
    --events <path>        validate a JSON-lines event log written by --events

PROFILE OPTIONS:
    <trace.json>           a causal Chrome trace written by --trace (or
                           served at GET /jobs/{id}/trace); reconstructs the
                           span DAG and extracts the critical path with
                           compute/wait/retry attribution
    --input <trace.json>   the same path as an option
    --json                 emit the stable machine-readable report instead
                           of the human table (byte-stable for CI diffing)

SIMULATE OPTIONS:
    --output <path>        output FASTQ
    --genome-len <bp>      genome length                         [default: 20000]
    --coverage <x>         read coverage                         [default: 10]
    --seed <u64>           simulation seed                       [default: 42]

GRAPH OPTIONS (pipeline options also apply):
    --input <path>         input reads, as for assemble
    --output <path>        .gfa emits GFA v1, .dot emits Graphviz
    --with-sequences       include contig sequences in GFA segments

CLASSIFY OPTIONS:
    --input <path>         reads to classify
    --references <path>    reference FASTA, one record per taxon
    --kmer <k>             classification k-mer length           [default: 21]

SERVE OPTIONS (pipeline options set the base config of every job):
    --state-dir <dir>      durable job state; restart on the same dir
                           resumes every unfinished job
    --addr <host:port>     bind address (port 0 picks a free port)
                                                 [default: 127.0.0.1:7070]
    --workers <n>          concurrent assembly jobs; 0 = 2       [default: 0]
    --http-threads <n>     HTTP handler threads; 0 = 2           [default: 0]
    --job-threads <n>      threads per job; 0 = cores/workers    [default: 0]
    --tenant-capacity <n>  queued jobs per tenant                [default: 32]
    --queue-capacity <n>   queued jobs across all tenants        [default: 256]
    --max-tenants <n>      distinct tenants with live queues     [default: 64]
    --quantum <n>          jobs per tenant per round-robin turn  [default: 4]
    --max-attempts <n>     attempts per job incl. retries        [default: 4]
    --serve-memory-budget <b>
                           total admission budget across all live jobs;
                           plain bytes or k/M/G. Jobs that do not fit are
                           shed with a typed 503 until running jobs
                           release their reservations. 0 = unlimited.
                           (--memory-budget still applies per job: each
                           budgeted job runs out-of-core.)   [default: 0]

    Prints `serve: listening on <addr>` once ready, then blocks. Stop it
    with POST /admin/shutdown?mode=drain|fast (fast leaves queued jobs on
    disk; the next start on the same --state-dir re-admits them).
";

// The options each subcommand accepts, as groups of keys; anything else is
// refused by `Options::parse`. Each list must agree with HELP's sections
// for its subcommand (the tests below compare them).

/// What `build_config` reads for every subcommand that runs the pipeline.
const PIPELINE_KEYS: &[&str] = &[
    "partitions",
    "min-overlap",
    "min-identity",
    "min-read-len",
    "min-quality",
    "subsets",
    "seed",
    "threads",
    "keep-both-strands",
];
/// The options that take no value.
const FLAG_KEYS: &[&str] = &[
    "keep-both-strands",
    "with-sequences",
    "logical-clock",
    "resume",
    "json",
];
const OBS_KEYS: &[&str] = &["trace", "metrics", "events"];
const ASSEMBLE_KEYS: &[&[&str]] = &[
    &["input", "output", "memory-budget", "spill-dir"],
    &["checkpoint-dir", "resume", "crash-after", "logical-clock"],
    PIPELINE_KEYS,
    OBS_KEYS,
];
const SIMULATE_KEYS: &[&[&str]] = &[&["output", "genome-len", "coverage", "seed"]];
const STATS_KEYS: &[&[&str]] = &[&["input"]];
const GRAPH_KEYS: &[&[&str]] = &[&["input", "output", "with-sequences"], PIPELINE_KEYS];
const CLASSIFY_KEYS: &[&[&str]] = &[&["input", "references", "kmer"]];
const OBS_CHECK_KEYS: &[&[&str]] = &[OBS_KEYS];
const PROFILE_KEYS: &[&[&str]] = &[&["input", "json"]];
const SERVE_KEYS: &[&[&str]] = &[
    &[
        "state-dir",
        "addr",
        "workers",
        "http-threads",
        "job-threads",
    ],
    &[
        "tenant-capacity",
        "queue-capacity",
        "max-tenants",
        "quantum",
    ],
    &["max-attempts", "serve-memory-budget", "memory-budget"],
    PIPELINE_KEYS,
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("assemble") => return assemble_main(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("graph") => graph(&args[1..]),
        Some("classify") => classify(&args[1..]),
        Some("obs-check") => obs_check(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `focus help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--key value` / `--flag` parser.
struct Options {
    pairs: Vec<(String, Option<String>)>,
}

impl Options {
    /// Parses the arguments of `focus <cmd>`, refusing any key outside
    /// `accepted` before the subcommand does any work.
    fn parse(cmd: &str, accepted: &[&[&str]], args: &[String]) -> Result<Options, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {:?}", args[i]))?
                .to_string();
            if !accepted.iter().any(|group| group.contains(&key.as_str())) {
                return Err(format!("unknown option --{key} for `focus {cmd}`"));
            }
            if !FLAG_KEYS.contains(&key.as_str()) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?
                    .clone();
                pairs.push((key, Some(value)));
                i += 2;
            } else {
                pairs.push((key, None));
                i += 1;
            }
        }
        Ok(Options { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }
}

/// Parses a byte count like `1048576`, `64k`, `512M` or `2G` (suffixes
/// case-insensitive, optionally followed by `b`/`B`).
fn parse_bytes(key: &str, text: &str) -> Result<u64, String> {
    let lower = text.to_ascii_lowercase();
    let lower = lower.strip_suffix('b').unwrap_or(&lower);
    let (digits, shift) = match lower.as_bytes().last() {
        Some(b'k') => (&lower[..lower.len() - 1], 10),
        Some(b'm') => (&lower[..lower.len() - 1], 20),
        Some(b'g') => (&lower[..lower.len() - 1], 30),
        _ => (lower, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("--{key}: cannot parse {text:?} (expected bytes, e.g. 512M)"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("--{key}: {text:?} overflows u64"))
}

/// Every record of a FASTA or FASTQ file, by its extension.
fn read_input(path: &str) -> Result<Vec<Read>, String> {
    focus_assembler::seq::open(Path::new(path))
        .and_then(Iterator::collect)
        .map_err(|e| format!("{path}: {e}"))
}

/// Process exit code of an `assemble --crash-after` run that stopped at
/// its crash point — distinct from success (0) and failure (1) so the
/// chaos harness can tell "crashed where asked" from "fell over".
const EXIT_STOPPED: u8 = 3;

/// `assemble` drives its own exit code: 0 on success, 1 on error, 3 when
/// `--crash-after` stopped the run at a checkpoint boundary.
fn assemble_main(args: &[String]) -> ExitCode {
    match assemble(args) {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(phase)) => {
            eprintln!("stopped after checkpointing phase {}", phase.name());
            ExitCode::from(EXIT_STOPPED)
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Parses checkpoint options; the default (no directory) when
/// checkpointing is off.
fn build_checkpoint_options(opts: &Options) -> Result<CheckpointOptions, String> {
    let dir = opts.get("checkpoint-dir");
    let resume = opts.flag("resume");
    let crash_after = match opts.get("crash-after") {
        None => None,
        Some(text) => Some(CkptPhase::parse(text).ok_or_else(|| {
            let names: Vec<&str> = CkptPhase::ALL.iter().map(|p| p.name()).collect();
            format!(
                "--crash-after: unknown phase {text:?}; expected {}",
                names.join(" or ")
            )
        })?),
    };
    let Some(dir) = dir else {
        if resume || crash_after.is_some() {
            return Err("--resume and --crash-after need --checkpoint-dir".to_string());
        }
        return Ok(CheckpointOptions::default());
    };
    let mut ckpt = CheckpointOptions::in_dir(dir);
    ckpt.resume = resume;
    ckpt.stop_after = crash_after;
    Ok(ckpt)
}

fn assemble(args: &[String]) -> Result<Option<CkptPhase>, String> {
    let opts = Options::parse("assemble", ASSEMBLE_KEYS, args)?;
    let input = opts.require("input")?.to_string();
    let output = opts.require("output")?.to_string();

    let config = build_config(&opts)?;
    let ckpt = build_checkpoint_options(&opts)?;
    let out_of_core = config.memory_budget.is_some() || opts.get("spill-dir").is_some();
    let assembler = FocusAssembler::new(config).map_err(|e| e.to_string())?;

    // The input streams into the read store, never held whole. Out of
    // core, alignment results also spill through CRC-verified files under
    // the budget. A spill dir the run makes up is removed when it ends,
    // also on error.
    let (spill_dir, made_up) = match (opts.get("spill-dir"), opts.get("checkpoint-dir")) {
        (Some(dir), _) => (PathBuf::from(dir), false),
        (None, Some(dir)) => (Path::new(dir).join("ooc"), false),
        (None, None) => {
            let dir = std::env::temp_dir().join(format!("focus-ooc-{}", std::process::id()));
            (dir, true)
        }
    };
    let _scratch = (out_of_core && made_up).then(|| ScratchDir(spill_dir.clone()));
    let ooc = out_of_core.then(|| OocOptions::in_dir(spill_dir));
    match &ooc {
        Some(ooc) => eprintln!("streaming {input} (spill dir {})", ooc.spill_dir.display()),
        None => eprintln!("streaming {input}"),
    }
    let outcome = assembler.assemble_file(Path::new(&input), &ckpt, ooc.as_ref());
    let result = match outcome.map_err(|e| e.to_string())? {
        AssemblyOutcome::Completed(result) => result,
        AssemblyOutcome::Stopped(phase) => {
            write_obs_sinks(&opts, assembler.recorder())?;
            return Ok(Some(phase));
        }
    };
    eprintln!(
        "assembled {} contigs | N50 {} bp | max {} bp | total {} bp",
        result.stats.num_contigs,
        result.stats.n50,
        result.stats.max_contig,
        result.stats.total_bases
    );

    let out = File::create(&output).map_err(|e| format!("cannot create {output}: {e}"))?;
    let mut out = BufWriter::new(out);
    result.write_fasta(&mut out).map_err(|e| e.to_string())?;
    out.flush()
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!("wrote {output}");
    write_obs_sinks(&opts, assembler.recorder())?;
    Ok(None)
}

/// A directory removed, with what it holds, when it goes out of scope.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn simulate(args: &[String]) -> Result<(), String> {
    let opts = Options::parse("simulate", SIMULATE_KEYS, args)?;
    let output = opts.require("output")?.to_string();
    let genome_len = opts.get_parsed("genome-len", 20_000usize)?;
    let coverage = opts.get_parsed("coverage", 10.0f64)?;
    let seed = opts.get_parsed("seed", 42u64)?;

    let config = single_genome_config(genome_len, coverage).map_err(|e| e.to_string())?;
    let out = File::create(&output).map_err(|e| format!("cannot create {output}: {e}"))?;
    // Reads stream to the file one at a time: memory does not grow with
    // the read count.
    let summary = generate_to(BufWriter::new(out), SINGLE_GENOME_NAME, &config, seed)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "simulated {} reads ({}x of {} bp) -> {output}",
        summary.reads, coverage, genome_len
    );
    Ok(())
}

/// The pipeline config the flags describe: [`FocusConfig::default`] with
/// each given flag applied, except that the CLI emits one strand of each
/// contig unless `--keep-both-strands` is given.
fn build_config(opts: &Options) -> Result<FocusConfig, String> {
    let d = FocusConfig::default();
    let mut config = FocusConfig {
        partitions: opts.get_parsed("partitions", d.partitions)?,
        subsets: opts.get_parsed("subsets", d.subsets)?,
        partition_seed: opts.get_parsed("seed", d.partition_seed)?,
        threads: opts.get_parsed("threads", d.threads)?,
        dedup_rc: !opts.flag("keep-both-strands"),
        ..d
    };
    config.overlap.min_overlap_len = opts.get_parsed("min-overlap", d.overlap.min_overlap_len)?;
    config.overlap.min_identity = opts.get_parsed("min-identity", d.overlap.min_identity)?;
    config.trim.min_read_len = opts.get_parsed("min-read-len", d.trim.min_read_len)?;
    config.trim.min_quality = opts.get_parsed("min-quality", d.trim.min_quality)?;
    if let Some(text) = opts.get("memory-budget") {
        match parse_bytes("memory-budget", text)? {
            0 => config.memory_budget = None,
            bytes => config.memory_budget = Some(bytes),
        }
    }
    let wants_obs = ["trace", "metrics", "events"]
        .iter()
        .any(|k| opts.get(k).is_some());
    if wants_obs || opts.flag("logical-clock") {
        config.observability = if opts.flag("logical-clock") {
            focus_assembler::obs::ObsOptions::logical()
        } else {
            focus_assembler::obs::ObsOptions::wall_clock()
        };
    }
    Ok(config)
}

/// Writes the sinks requested by `--trace`, `--metrics` and `--events` from
/// the run's recorder, and prints the human-readable metrics report when
/// anything was recorded.
fn write_obs_sinks(opts: &Options, rec: &focus_assembler::obs::Recorder) -> Result<(), String> {
    use focus_assembler::obs::{human_report, write_chrome_trace, write_jsonl};
    if !rec.is_enabled() {
        return Ok(());
    }
    let events = rec.events();
    if let Some(path) = opts.get("trace") {
        std::fs::write(path, write_chrome_trace(&events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote trace {path} ({} events)", events.len());
    }
    if let Some(path) = opts.get("events") {
        std::fs::write(path, write_jsonl(&events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote events {path}");
    }
    if let Some(path) = opts.get("metrics") {
        std::fs::write(path, rec.snapshot_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics {path}");
    }
    eprint!("{}", human_report(&rec.snapshot()));
    Ok(())
}

/// `focus serve` — a durable multi-tenant assembly job server. Builds the
/// base pipeline config from the same flags as `assemble`, then hands jobs
/// to [`AssemblyJobRunner`](focus_assembler::focus::AssemblyJobRunner) with
/// per-job checkpoint/resume.
fn serve(args: &[String]) -> Result<(), String> {
    use focus_assembler::focus::AssemblyJobRunner;
    use focus_assembler::serve::{SchedConfig, Serve, ServeConfig};
    use std::io::Write as _;
    use std::sync::Arc;

    let opts = Options::parse("serve", SERVE_KEYS, args)?;
    let state_dir = opts.require("state-dir")?.to_string();
    let runner = AssemblyJobRunner::new(build_config(&opts)?).map_err(|e| e.to_string())?;

    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:7070").to_string(),
        workers: opts.get_parsed("workers", 0usize)?,
        http_threads: opts.get_parsed("http-threads", 0usize)?,
        job_threads: opts.get_parsed("job-threads", opts.get_parsed("threads", 0usize)?)?,
        sched: SchedConfig {
            per_tenant_capacity: opts
                .get_parsed("tenant-capacity", defaults.sched.per_tenant_capacity)?,
            total_capacity: opts.get_parsed("queue-capacity", defaults.sched.total_capacity)?,
            max_tenants: opts.get_parsed("max-tenants", defaults.sched.max_tenants)?,
            quantum: opts.get_parsed("quantum", defaults.sched.quantum)?,
        },
        max_attempts: opts.get_parsed("max-attempts", defaults.max_attempts)?,
        memory_budget: match opts.get("serve-memory-budget") {
            None => defaults.memory_budget,
            Some(text) => parse_bytes("serve-memory-budget", text)?,
        },
        ..defaults
    };

    let server = Serve::start(cfg, &state_dir, Arc::new(runner)).map_err(|e| e.to_string())?;
    // The chaos harness and the README walkthrough parse this exact line to
    // learn the bound port: keep the format stable and flush immediately.
    println!("serve: listening on {}", server.addr());
    std::io::stdout().flush().ok();
    eprintln!("state dir {state_dir}; POST /admin/shutdown?mode=drain to stop");
    server.join();
    Ok(())
}

fn obs_check(args: &[String]) -> Result<(), String> {
    use focus_assembler::obs::{check_chrome_trace, check_jsonl_events, check_metrics_snapshot};
    let opts = Options::parse("obs-check", OBS_CHECK_KEYS, args)?;
    let mut checked = 0usize;
    if let Some(path) = opts.get("trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let n = check_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("trace   {path}: ok ({n} events)");
        checked += 1;
    }
    if let Some(path) = opts.get("events") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let n = check_jsonl_events(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("events  {path}: ok ({n} events)");
        checked += 1;
    }
    if let Some(path) = opts.get("metrics") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        check_metrics_snapshot(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("metrics {path}: ok");
        checked += 1;
    }
    if checked == 0 {
        return Err("obs-check needs at least one of --trace/--metrics/--events".to_string());
    }
    Ok(())
}

/// `focus profile` — span-DAG reconstruction and critical-path extraction
/// from a causal Chrome trace. The trace path is positional (`--input`
/// also works); `--json` switches to the byte-stable machine report.
fn profile(args: &[String]) -> Result<(), String> {
    use focus_assembler::obs::profile_chrome_trace;
    let (positional, rest) = match args.first() {
        Some(first) if !first.starts_with("--") => (Some(first.clone()), &args[1..]),
        _ => (None, args),
    };
    let opts = Options::parse("profile", PROFILE_KEYS, rest)?;
    let path = match positional {
        Some(p) => p,
        None => opts.require("input")?.to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = profile_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    if opts.flag("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.human_table());
    }
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let opts = Options::parse("stats", STATS_KEYS, args)?;
    let input = opts.require("input")?.to_string();
    let reads = read_input(&input)?;
    let lengths: Vec<usize> = reads.iter().map(Read::len).collect();
    let s = focus_assembler::focus::AssemblyStats::from_lengths(&lengths);
    println!("sequences : {}", s.num_contigs);
    println!("total bp  : {}", s.total_bases);
    println!("N50       : {}", s.n50);
    println!("longest   : {}", s.max_contig);
    println!("mean      : {:.1}", s.mean_len);
    Ok(())
}

fn graph(args: &[String]) -> Result<(), String> {
    use focus_assembler::graph::{digraph_to_dot, digraph_to_gfa};
    let opts = Options::parse("graph", GRAPH_KEYS, args)?;
    let input = opts.require("input")?.to_string();
    let output = opts.require("output")?.to_string();
    let config = build_config(&opts)?;
    let reads = read_input(&input)?;
    let assembler = FocusAssembler::new(config).map_err(|e| e.to_string())?;
    let stages = assembler
        .prepare_stages(&reads)
        .map_err(|e| e.to_string())?;
    let (g0, prepared) = (&stages.graph.undirected, &stages.prepared);
    eprintln!(
        "overlap graph: {} nodes / {} edges -> hybrid graph: {} nodes / {} edges",
        g0.node_count(),
        g0.edge_count(),
        prepared.hybrid.node_count(),
        prepared.hybrid.directed.edge_count()
    );
    let text = if output.to_ascii_lowercase().ends_with(".dot") {
        digraph_to_dot(&prepared.hybrid.directed, None)
    } else {
        // The sequences the assembly itself walks: each cluster's
        // per-column consensus.
        let with_seq = opts.flag("with-sequences");
        digraph_to_gfa(&prepared.hybrid.directed, |v| {
            with_seq.then(|| prepared.contigs[v as usize].to_string())
        })
    };
    std::fs::write(&output, text).map_err(|e| format!("cannot write {output}: {e}"))?;
    eprintln!("wrote {output}");
    Ok(())
}

fn classify(args: &[String]) -> Result<(), String> {
    use focus_assembler::classify::KmerClassifier;
    let opts = Options::parse("classify", CLASSIFY_KEYS, args)?;
    let input = opts.require("input")?.to_string();
    let refs_path = opts.require("references")?.to_string();
    let k = opts.get_parsed("kmer", 21usize)?;

    let references = read_input(&refs_path)?;
    if references.is_empty() {
        return Err(format!("{refs_path}: no reference records"));
    }
    let genomes: Vec<_> = references.iter().map(|r| r.seq.clone()).collect();
    let classifier = KmerClassifier::build(&genomes, k).map_err(|e| e.to_string())?;

    let reads = read_input(&input)?;
    let labels = classifier.classify_all(&reads);
    let mut counts = vec![0u64; references.len()];
    let mut unclassified = 0u64;
    for label in &labels {
        match label {
            Some(g) => counts[*g as usize] += 1,
            None => unclassified += 1,
        }
    }
    println!("reference\treads\tfraction");
    let total = reads.len().max(1) as f64;
    for (reference, &count) in references.iter().zip(&counts) {
        println!("{}\t{count}\t{:.4}", reference.name, count as f64 / total);
    }
    println!(
        "(unclassified)\t{unclassified}\t{:.4}",
        unclassified as f64 / total
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--key`s HELP lists under the section whose header starts with
    /// `title`: the option lines (indented, starting with `--`) up to the
    /// next header.
    fn help_keys(title: &str) -> Vec<&'static str> {
        let section = HELP
            .lines()
            .skip_while(|line| !line.starts_with(title))
            .skip(1)
            .take_while(|line| line.is_empty() || line.starts_with(' '));
        let keys: Vec<&str> = section
            .filter_map(|line| line.trim_start().strip_prefix("--"))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        assert!(!keys.is_empty(), "HELP has no section {title:?}");
        keys
    }

    /// `accepted` is exactly what HELP's `sections` (plus `extra`, keys
    /// HELP documents under another subcommand's section) list; every
    /// listed key parses, and an unlisted one is refused by name.
    fn check(cmd: &str, accepted: &[&[&str]], sections: &[&str], extra: &[&'static str]) {
        let listed: BTreeSet<&str> = sections
            .iter()
            .flat_map(|title| help_keys(title))
            .chain(extra.iter().copied())
            .collect();
        let accepted_set: BTreeSet<&str> =
            accepted.iter().flat_map(|g| g.iter().copied()).collect();
        assert_eq!(
            accepted_set, listed,
            "`focus {cmd}`: key list and HELP disagree"
        );
        let mut args = Vec::new();
        for key in &listed {
            args.push(format!("--{key}"));
            if !FLAG_KEYS.contains(key) {
                args.push("1".to_string());
            }
        }
        let opts = Options::parse(cmd, accepted, &args).expect("every listed key is accepted");
        for key in &listed {
            assert!(opts.flag(key), "--{key} was dropped");
        }
        for unknown in ["no-such-option", "thredas"] {
            let mut args = args.clone();
            args.extend([format!("--{unknown}"), "5".to_string()]);
            assert_eq!(
                Options::parse(cmd, accepted, &args).err(),
                Some(format!("unknown option --{unknown} for `focus {cmd}`"))
            );
        }
    }

    const PIPELINE: &str = "PIPELINE OPTIONS";

    /// The `[default: …]` HELP gives `--key`: on its own line or on one of
    /// the continuation lines before the next option.
    fn help_default(key: &str) -> &'static str {
        let option = format!("--{key} ");
        let mut block = HELP
            .lines()
            .skip_while(|line| !line.trim_start().starts_with(&option));
        let first = block
            .next()
            .unwrap_or_else(|| panic!("HELP has no --{key}"));
        let rest = block.take_while(|line| !line.trim_start().starts_with("--"));
        std::iter::once(first)
            .chain(rest)
            .find_map(|line| line.split_once("[default: "))
            .and_then(|(_, tail)| tail.split_once(']'))
            .map(|(value, _)| value)
            .unwrap_or_else(|| panic!("--{key} has no default in HELP"))
    }

    #[test]
    fn build_config_without_flags_is_the_library_default() {
        let opts = Options::parse("assemble", ASSEMBLE_KEYS, &[]).unwrap();
        let expected = FocusConfig {
            dedup_rc: true,
            ..FocusConfig::default()
        };
        assert_eq!(build_config(&opts).unwrap(), expected);
    }

    #[test]
    fn help_prints_the_library_defaults() {
        let d = FocusConfig::default();
        let defaults = [
            ("partitions", d.partitions as f64),
            ("min-overlap", d.overlap.min_overlap_len as f64),
            ("min-identity", d.overlap.min_identity),
            ("min-read-len", d.trim.min_read_len as f64),
            ("min-quality", d.trim.min_quality),
            ("subsets", d.subsets as f64),
            ("seed", d.partition_seed as f64),
            ("threads", d.threads as f64),
        ];
        // Every pipeline key but the `--keep-both-strands` flag.
        assert_eq!(defaults.len(), PIPELINE_KEYS.len() - 1);
        for (key, value) in defaults {
            let help: f64 = help_default(key).parse().unwrap();
            assert_eq!(help, value, "--{key}");
        }
    }

    #[test]
    fn assemble_options_match_help() {
        let sections = [
            "ASSEMBLE OPTIONS",
            PIPELINE,
            "MEMORY OPTIONS",
            "CHECKPOINT OPTIONS",
            "OBSERVABILITY OPTIONS",
        ];
        check("assemble", ASSEMBLE_KEYS, &sections, &[]);
    }

    #[test]
    fn simulate_options_match_help() {
        check("simulate", SIMULATE_KEYS, &["SIMULATE OPTIONS"], &[]);
    }

    #[test]
    fn stats_options_match_help() {
        // `focus stats --input <contigs.fasta>` is documented in USAGE only.
        check("stats", STATS_KEYS, &[], &["input"]);
    }

    #[test]
    fn graph_options_match_help() {
        check("graph", GRAPH_KEYS, &["GRAPH OPTIONS", PIPELINE], &[]);
    }

    #[test]
    fn classify_options_match_help() {
        check("classify", CLASSIFY_KEYS, &["CLASSIFY OPTIONS"], &[]);
    }

    #[test]
    fn obs_check_options_match_help() {
        check("obs-check", OBS_CHECK_KEYS, &["OBS-CHECK OPTIONS"], &[]);
    }

    #[test]
    fn profile_options_match_help() {
        check("profile", PROFILE_KEYS, &["PROFILE OPTIONS"], &[]);
    }

    #[test]
    fn serve_options_match_help() {
        // `--memory-budget` is described under MEMORY OPTIONS.
        check(
            "serve",
            SERVE_KEYS,
            &["SERVE OPTIONS", PIPELINE],
            &["memory-budget"],
        );
    }
}
