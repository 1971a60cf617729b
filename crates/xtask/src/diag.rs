//! rustc-style diagnostics for the analyzer.

use std::fmt;

/// Identifies one lint rule. FC001, FC005, FC008 and FC011 are retired:
/// clippy lints enforce them (see the crate docs), and their codes are not
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// FC002 — `Result<_, String>` in a public signature.
    StringError,
    /// FC003 — near-colliding module filenames within one crate.
    ModuleCollision,
    /// FC004 — a `pub fn` mutating a graph/partition/level-set parameter
    /// without a typed-`Result` return or a `# Invariants` doc section.
    InvariantDoc,
    /// FC006 — an unbounded channel or queue constructor in non-test
    /// library code without a documented capacity bound nearby.
    NoUnboundedQueue,
    /// FC007 — iteration over a `HashMap`/`HashSet` in non-test library
    /// code whose order is not canonicalized by an adjacent sort.
    NondetIteration,
    /// FC009 — a cycle in the workspace lock-order graph: two lock sites
    /// that acquire the same Mutex/RwLock pair in opposite orders.
    LockOrder,
    /// FC010 — a crate root without `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// FC012 — a dependency entry in the root manifest or a `crates/*`
    /// manifest that is neither `path = …` nor `workspace = true`.
    RegistryCrate,
}

impl Rule {
    /// Stable diagnostic code, shown as `error[FC00x]`.
    pub fn code(&self) -> &'static str {
        match self {
            Rule::StringError => "FC002",
            Rule::ModuleCollision => "FC003",
            Rule::InvariantDoc => "FC004",
            Rule::NoUnboundedQueue => "FC006",
            Rule::NondetIteration => "FC007",
            Rule::LockOrder => "FC009",
            Rule::ForbidUnsafe => "FC010",
            Rule::RegistryCrate => "FC012",
        }
    }

    /// The rule's name, shown by `--list-rules` and in the JSON report.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::StringError => "no-string-error",
            Rule::ModuleCollision => "no-module-collision",
            Rule::InvariantDoc => "invariant-doc",
            Rule::NoUnboundedQueue => "no-unbounded-queue",
            Rule::NondetIteration => "nondet-iteration",
            Rule::LockOrder => "lock-order",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::RegistryCrate => "no-registry-crate",
        }
    }

    /// All rules, for `--list-rules`.
    pub fn all() -> [Rule; 8] {
        [
            Rule::StringError,
            Rule::ModuleCollision,
            Rule::InvariantDoc,
            Rule::NoUnboundedQueue,
            Rule::NondetIteration,
            Rule::LockOrder,
            Rule::ForbidUnsafe,
            Rule::RegistryCrate,
        ]
    }

    /// One-line rationale shown by `--list-rules`.
    pub fn rationale(&self) -> &'static str {
        match self {
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
            Rule::NoUnboundedQueue => {
                "an unbounded channel or queue in library code turns overload into \
                 an OOM kill; size it from a config capacity, or document the bound \
                 that the surrounding code enforces on the same or preceding lines"
            }
            Rule::NondetIteration => {
                "HashMap/HashSet iteration order varies per process; on a data path \
                 it silently breaks the bit-identical-contigs contract in ways the \
                 chaos tests only catch probabilistically — sort the result \
                 adjacently or use a BTreeMap/BTreeSet"
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
            rule: Rule::NondetIteration,
            path: "crates/seq/src/store.rs".into(),
            line: 42,
            col: 17,
            message: "iteration over `HashMap` (`votes`) in hash order".into(),
            snippet: Some("    for v in votes.values() {".into()),
            help: "collect-and-sort adjacently".into(),
        };
        let s = d.to_string();
        assert!(s.starts_with("error[FC007]:"), "{s}");
        assert!(s.contains("--> crates/seq/src/store.rs:42:17"), "{s}");
        assert!(s.contains("= help:"), "{s}");
    }
}
