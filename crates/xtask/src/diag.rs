//! rustc-style diagnostics for the analyzer.

use std::fmt;

/// Identifies one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// FC001 — `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` in non-test library code.
    NoPanic,
    /// FC002 — `Result<_, String>` in a public signature.
    StringError,
    /// FC003 — near-colliding module filenames within one crate.
    ModuleCollision,
    /// FC004 — a `pub fn` mutating a graph/partition/level-set parameter
    /// without a typed-`Result` return or a `# Invariants` doc section.
    InvariantDoc,
    /// FC005 — raw `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in
    /// non-test library code; diagnostics belong on fc-obs events.
    NoPrint,
    /// FC006 — an unbounded channel or queue constructor in non-test
    /// library code without a documented capacity bound nearby.
    NoUnboundedQueue,
    /// FC007 — iteration over a `HashMap`/`HashSet` in non-test library
    /// code whose order is not canonicalized by an adjacent sort.
    NondetIteration,
    /// FC008 — ambient nondeterminism (`Instant::now`, `SystemTime::now`,
    /// `std::env::var`, `available_parallelism`) outside the fc-obs timing
    /// sink.
    AmbientNondet,
    /// FC009 — a cycle in the workspace lock-order graph: two lock sites
    /// that acquire the same Mutex/RwLock pair in opposite orders.
    LockOrder,
    /// FC010 — a crate root without `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// FC011 — an unbounded whole-input read (`fs::read`,
    /// `fs::read_to_string`, `read_to_end`, `read_to_string`) in non-test
    /// library code; data paths must stream through bounded buffers.
    UnboundedRead,
    /// FC012 — a dependency entry in the root manifest or a `crates/*`
    /// manifest that is neither `path = …` nor `workspace = true`.
    RegistryCrate,
}

impl Rule {
    /// Stable diagnostic code, shown as `error[FC00x]`.
    pub fn code(&self) -> &'static str {
        match self {
            Rule::NoPanic => "FC001",
            Rule::StringError => "FC002",
            Rule::ModuleCollision => "FC003",
            Rule::InvariantDoc => "FC004",
            Rule::NoPrint => "FC005",
            Rule::NoUnboundedQueue => "FC006",
            Rule::NondetIteration => "FC007",
            Rule::AmbientNondet => "FC008",
            Rule::LockOrder => "FC009",
            Rule::ForbidUnsafe => "FC010",
            Rule::UnboundedRead => "FC011",
            Rule::RegistryCrate => "FC012",
        }
    }

    /// The name used in `xtask/allow.toml` entries.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::StringError => "no-string-error",
            Rule::ModuleCollision => "no-module-collision",
            Rule::InvariantDoc => "invariant-doc",
            Rule::NoPrint => "no-print",
            Rule::NoUnboundedQueue => "no-unbounded-queue",
            Rule::NondetIteration => "nondet-iteration",
            Rule::AmbientNondet => "ambient-nondet",
            Rule::LockOrder => "lock-order",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::UnboundedRead => "no-unbounded-read",
            Rule::RegistryCrate => "no-registry-crate",
        }
    }

    /// Parses an allowlist rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "no-panic" => Some(Rule::NoPanic),
            "no-string-error" => Some(Rule::StringError),
            "no-module-collision" => Some(Rule::ModuleCollision),
            "invariant-doc" => Some(Rule::InvariantDoc),
            "no-print" => Some(Rule::NoPrint),
            "no-unbounded-queue" => Some(Rule::NoUnboundedQueue),
            "nondet-iteration" => Some(Rule::NondetIteration),
            "ambient-nondet" => Some(Rule::AmbientNondet),
            "lock-order" => Some(Rule::LockOrder),
            "forbid-unsafe" => Some(Rule::ForbidUnsafe),
            "no-unbounded-read" => Some(Rule::UnboundedRead),
            "no-registry-crate" => Some(Rule::RegistryCrate),
            _ => None,
        }
    }

    /// All rules, for `--list-rules`.
    pub fn all() -> [Rule; 12] {
        [
            Rule::NoPanic,
            Rule::StringError,
            Rule::ModuleCollision,
            Rule::InvariantDoc,
            Rule::NoPrint,
            Rule::NoUnboundedQueue,
            Rule::NondetIteration,
            Rule::AmbientNondet,
            Rule::LockOrder,
            Rule::ForbidUnsafe,
            Rule::UnboundedRead,
            Rule::RegistryCrate,
        ]
    }

    /// One-line rationale shown by `--list-rules`.
    pub fn rationale(&self) -> &'static str {
        match self {
            Rule::NoPanic => {
                "library code must surface failures as typed errors that cross \
                 crate boundaries (FocusError/DistError/SeqError), not abort the rank"
            }
            Rule::StringError => {
                "`Result<_, String>` erases the failure mode; callers cannot match \
                 on it and recovery code degenerates to string sniffing"
            }
            Rule::ModuleCollision => {
                "near-identical module names (`error.rs` vs `errors.rs`) make every \
                 import a coin flip and code review unreliable"
            }
            Rule::InvariantDoc => {
                "a pub fn mutating a DiGraph, partition vector, or hybrid level set \
                 must either return a typed error or document its `# Invariants`"
            }
            Rule::NoPrint => {
                "raw stdout/stderr prints in library code bypass the structured \
                 observability layer; record an fc-obs event or metric instead so \
                 diagnostics stay machine-readable and deterministic"
            }
            Rule::NoUnboundedQueue => {
                "an unbounded channel or queue in library code turns overload into \
                 an OOM kill; size it from a config capacity, or document the bound \
                 that the surrounding code enforces on the same or preceding lines"
            }
            Rule::NondetIteration => {
                "HashMap/HashSet iteration order varies per process; on a data path \
                 it silently breaks the bit-identical-contigs contract in ways the \
                 chaos tests only catch probabilistically — sort the result \
                 adjacently, use a BTreeMap/BTreeSet, or allowlist a commutative \
                 reduction with a reason"
            }
            Rule::AmbientNondet => {
                "wall clock, environment and core counts are ambient inputs; they \
                 may feed sched.*-excluded metrics or the config layer, but a read \
                 on a data path makes output depend on the machine and the moment"
            }
            Rule::LockOrder => {
                "two functions acquiring the same Mutex/RwLock pair in opposite \
                 orders can deadlock under concurrency the tests never schedule; \
                 the workspace lock-order graph must stay acyclic"
            }
            Rule::ForbidUnsafe => {
                "the workspace has no `unsafe`; `#![forbid(unsafe_code)]` at every \
                 crate root (libraries, binaries, the bench harness, this tool) \
                 makes the compiler keep it so"
            }
            Rule::UnboundedRead => {
                "`fs::read`/`read_to_end`-style slurps size the allocation by the \
                 input, so one oversized file defeats every memory budget; data \
                 paths must stream through bounded buffers (BufReader, Read::take, \
                 the paged store), with small fixed-size records allowlisted"
            }
            Rule::RegistryCrate => {
                "the workspace must build where it is cloned, with no network and \
                 an empty registry: every dependency is a path inside the \
                 repository, named directly or through `[workspace.dependencies]`"
            }
        }
    }
}

/// One finding, printable in rustc style.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 when the finding is file-level, e.g. FC003).
    pub line: usize,
    /// 1-based column (0 when unknown).
    pub col: usize,
    pub message: String,
    /// The offending source line, if any.
    pub snippet: Option<String>,
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule.code(), self.message)?;
        if self.line > 0 {
            writeln!(f, "  --> {}:{}:{}", self.path, self.line, self.col.max(1))?;
        } else {
            writeln!(f, "  --> {}", self.path)?;
        }
        if let Some(snippet) = &self.snippet {
            writeln!(f, "   |")?;
            writeln!(f, "   | {}", snippet.trim_end())?;
        }
        write!(f, "   = help: {}", self.help)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_rustc_shape() {
        let d = Diagnostic {
            rule: Rule::NoPanic,
            path: "crates/seq/src/store.rs".into(),
            line: 42,
            col: 17,
            message: "`.unwrap()` in non-test library code".into(),
            snippet: Some("    let x = v.pop().unwrap();".into()),
            help: "return a typed error or allowlist in xtask/allow.toml".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("error[FC001]:"), "{s}");
        assert!(s.contains("--> crates/seq/src/store.rs:42:17"), "{s}");
        assert!(s.contains("= help:"), "{s}");
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::all() {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("bogus"), None);
    }
}
