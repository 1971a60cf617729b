//! rustc-style diagnostics for the analyzer.

use std::fmt;

/// Identifies one lint rule. FC001, FC005 and FC008–FC012 are retired —
/// the crate docs name what enforces each now — and their codes are not
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
        }
    }

    /// The rule's name, shown by `--list-rules`.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::StringError => "no-string-error",
            Rule::ModuleCollision => "no-module-collision",
            Rule::InvariantDoc => "invariant-doc",
            Rule::NoUnboundedQueue => "no-unbounded-queue",
            Rule::NondetIteration => "nondet-iteration",
        }
    }

    /// All rules, for `--list-rules`.
    pub fn all() -> [Rule; 5] {
        [
            Rule::StringError,
            Rule::ModuleCollision,
            Rule::InvariantDoc,
            Rule::NoUnboundedQueue,
            Rule::NondetIteration,
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
