//! focus-bench — the repository's one performance ruler. See README.md.

mod bench;
mod catalog;
mod compare;
mod eval;
mod gen;
mod json;
mod procfs;
mod spans;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `--key value` pairs after the subcommand.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got \"{flag}\""))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let text = self.get(key)?;
        text.parse()
            .map_err(|_| format!("--{key}: cannot read \"{text}\""))
    }

    fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        if self.0.contains_key(key) {
            self.parsed(key)
        } else {
            Ok(default)
        }
    }
}

fn child(args: &Args) -> Result<(), String> {
    let w = workload::find(args.get("workload")?)?;
    let dirs = workload::PassDirs {
        input: PathBuf::from(args.get("input")?),
        contigs: PathBuf::from(args.get("contigs")?),
        scratch: PathBuf::from(args.get("scratch")?),
    };
    let pass = match args.get("pass")? {
        "cold" => workload::Pass::Cold,
        "timed" => workload::Pass::Timed {
            seconds: args.parsed("seconds")?,
            min_passes: args.parsed("min-passes")?,
        },
        "reference" => workload::Pass::Reference,
        other => return Err(format!("--pass: unknown kind \"{other}\"")),
    };
    let report = workload::run_child(w, &dirs, pass)?;
    println!("{}", report.to_json().to_compact());
    Ok(())
}

/// `bench --workload W --seed N --seconds S --trace 0|1`: the command the
/// driver runs. The last line of standard output is the result object.
fn bench(args: &Args) -> Result<(), String> {
    let w = workload::find(args.get("workload")?)?;
    let seed: u64 = args.parsed("seed")?;
    let seconds: f64 = args.parsed_or("seconds", catalog::RUN_SECONDS as f64)?;
    if args.parsed_or::<u8>("trace", 0)? != 0 {
        let metrics = bench::run_trace(w, seed, None)?;
        println!("{}", bench::final_line(true, 1, 0, &metrics));
        return Ok(());
    }
    let result = bench::run(w, seed, seconds)?;
    if let Some(out) = args.0.get("out") {
        std::fs::write(out, result.document.to_pretty()).map_err(|e| format!("{out}: {e}"))?;
    }
    println!(
        "{}",
        bench::final_line(
            result.failed == 0,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    Ok(())
}

/// `stage --workload W --seed N --dir D`: writes the inputs a run would see.
fn stage(args: &Args) -> Result<(), String> {
    let w = workload::find(args.get("workload")?)?;
    let dir = Path::new(args.get("dir")?);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let staged = bench::stage(w, args.parsed("seed")?, dir)?;
    println!("{}", staged.info.to_pretty());
    Ok(())
}

fn trace(args: &Args) -> Result<(), String> {
    let w = workload::find(args.get("workload")?)?;
    bench::run_trace(w, args.parsed("seed")?, Some(Path::new(args.get("out")?))).map(drop)
}

fn suite(args: &Args) -> Result<(), String> {
    bench::suite(
        args.parsed("seed")?,
        args.parsed_or("seconds", catalog::RUN_SECONDS as f64)?,
        Path::new(args.get("out")?),
        args.0.get("layers").map(Path::new),
    )
}

fn read_json(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A B [--benchmark BENCHMARK.json]`; fails when a row regressed.
fn compare(files: &[String], args: &Args) -> Result<(), String> {
    let [a, b] = files else {
        return Err(
            "usage: focus-bench compare <a.json> <b.json> [--benchmark BENCHMARK.json]".to_string(),
        );
    };
    let manifest = read_json(
        args.0
            .get("benchmark")
            .map_or("BENCHMARK.json", String::as_str),
    )?;
    match compare::compare(&read_json(a)?, &read_json(b)?, &manifest)? {
        0 => Ok(()),
        n => Err(format!("{n} rows regressed")),
    }
}

/// Prints the metric catalog as tab-separated rows.
fn print_catalog() {
    println!("name\tunit\tbetter\tbound\tclass\texact\tdefinition");
    let better = |higher| if higher { "higher" } else { "lower" };
    for m in &catalog::END_TO_END {
        let class = m.class.label();
        println!(
            "{}\t{}\t{}\t{}\t{class}\t{}\t{}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound,
            m.exact,
            m.definition
        );
    }
    for m in &catalog::PER_LAYER {
        let class = m.class.label();
        println!(
            "{}\t{}\t{}\t-\t{class}\t{}\t",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.exact
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!(
            "usage: focus-bench <bench|trace|suite|compare|stage|manifest|catalog> ... (see benchmark/README.md)"
        );
        return ExitCode::from(2);
    };
    // `compare` takes its two files before any flag.
    let positional = rest.iter().take_while(|a| !a.starts_with("--")).count();
    let (files, flags) = rest.split_at(positional);
    let outcome = Args::parse(flags).and_then(|args| match command.as_str() {
        "bench" => bench(&args),
        "stage" => stage(&args),
        "trace" => trace(&args),
        "suite" => suite(&args),
        "compare" => compare(files, &args),
        "manifest" => {
            print!("{}", catalog::manifest().to_pretty());
            Ok(())
        }
        "catalog" => {
            print_catalog();
            Ok(())
        }
        "child" => child(&args),
        other => Err(format!("unknown command \"{other}\"")),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("focus-bench: {message}");
            ExitCode::FAILURE
        }
    }
}
