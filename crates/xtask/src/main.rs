//! `cargo xtask` — workspace automation. See the library docs for the rule
//! set; this binary is argument parsing and exit codes only.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::diag::Rule;

const USAGE: &str = "\
Usage: cargo xtask <command> [options]

Commands:
  analyze     run the Focus-specific static-analysis rules over the workspace

Options (analyze):
  --root <dir>    workspace root (default: discovered from the current dir)
  --list-rules    print the rule set and exit

Exit status: 0 when clean, 1 on violations, 2 on usage or I/O errors.
No-panic, no-print, ambient-nondeterminism, unbounded-read, unranked locks
and `unsafe` are refused by clippy (`cargo clippy --workspace -- -D warnings
-F unsafe_code`), and registry crates by the root test `tests/lockfile.rs`;
none is a rule of this tool.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn analyze(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list-rules" => {
                for rule in Rule::all() {
                    println!("{} {:<20} {}", rule.code(), rule.name(), rule.rationale());
                }
                return ExitCode::SUCCESS;
            }
            "--root" => root = it.next().map(PathBuf::from),
            other => {
                eprintln!("error: unknown option `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match xtask::workspace::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let analysis = match xtask::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &analysis.violations {
        eprintln!("{d}\n");
    }
    if analysis.violations.is_empty() {
        println!("xtask analyze: {} files clean", analysis.files);
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "xtask analyze: {} violation(s) across {} files",
        analysis.violations.len(),
        analysis.files
    );
    ExitCode::FAILURE
}
