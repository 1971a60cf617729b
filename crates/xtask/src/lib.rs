//! # xtask — workspace automation for the Focus assembler
//!
//! `cargo xtask analyze` is a Focus-specific static-analysis gate (DESIGN.md
//! §8): the paper's pipeline is a chain of invariant-carrying graph
//! transformations, and an unchecked partition index or a hash-ordered loop
//! breaks a whole simulated rank or the bit-identical-contigs contract. The
//! analyzer enforces, over the non-test library code of every
//! `fc-*`/`focus-core` crate:
//!
//! * **FC002 `no-string-error`** — no `Result<_, String>` in public
//!   signatures.
//! * **FC003 `no-module-collision`** — no near-colliding module filenames
//!   (`error.rs` vs `errors.rs`).
//! * **FC004 `invariant-doc`** — a `pub fn` mutating a `DiGraph`, partition
//!   vector, or hybrid/multilevel set must return a typed `Result` or carry
//!   a `# Invariants` doc section.
//! * **FC006 `no-unbounded-queue`** — no unbounded channels or queues
//!   (`mpsc::channel`); `VecDeque` queues
//!   must document their capacity bound on or just above the construction
//!   site. Admission control is explicit or it does not exist.
//!
//! On top of the token rules sits a path-aware layer ([`items`]): a
//! lightweight use-declaration/item parser that resolves imported names to
//! canonical paths (`std::collections::HashMap`, `std::sync::Mutex`) and
//! types let-bindings, params, statics, and struct fields crate-wide. It
//! powers the determinism audit (DESIGN.md §13):
//!
//! * **FC007 `nondet-iteration`** — no iteration over `HashMap`/`HashSet`
//!   in non-test library code unless canonicalized by an adjacent sort;
//!   hash order on a data path breaks the bit-identical-contigs contract.
//!
//! The retired codes are enforced elsewhere now (DESIGN.md §8), and no code
//! number is reused:
//!
//! * FC001 `no-panic`, FC005 `no-print`, FC008 `ambient-nondet` and FC011
//!   `no-unbounded-read` are clippy lints denied in the root manifest's
//!   `[workspace.lints]` (`unwrap_used` … `dbg_macro`, and
//!   `disallowed_methods` over the methods `clippy.toml` lists).
//! * FC009 `lock-order` is `fc_obs::sync`: every lock carries a rank from
//!   one declared order, debug builds check each acquisition against it,
//!   and `disallowed_types` refuses `std::sync::Mutex`/`RwLock`.
//! * FC010 `forbid-unsafe` is rustc's `-F unsafe_code` on CI's clippy run.
//! * FC012 `no-registry-crate` is the root test `tests/lockfile.rs`: the
//!   committed `Cargo.lock` names no `source`, and `--locked` builds keep
//!   it equal to the manifests.
//!
//! The rules here have no exceptions. The binary exits nonzero on any
//! finding so CI can gate on it.
//!
//! Everything is built on a small hand-rolled lexer ([`lexer`]) because this
//! build environment cannot fetch `syn`; the lexer understands exactly as
//! much Rust as the rules need (comments, strings, lifetimes, doc comments).

#![forbid(unsafe_code)]

pub mod diag;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod workspace;

use diag::Diagnostic;
use std::fs;
use std::path::Path;

/// Outcome of an analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// Every finding, in `(path, line, col, rule)` order.
    pub violations: Vec<Diagnostic>,
    /// Files analyzed.
    pub files: usize,
}

/// Runs every rule over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let crates = workspace::lint_crates(root).map_err(|e| format!("scanning crates: {e}"))?;
    let mut violations: Vec<Diagnostic> = Vec::new();
    let mut files = 0usize;
    for c in &crates {
        violations.extend(rules::module_collisions(
            &c.rel_dir,
            &workspace::module_stems(c),
        ));
        // Pass 1: lex every file and build the crate-wide item table, so a
        // field declared in one module resolves in a sibling's method body.
        let mut lexed = Vec::with_capacity(c.sources.len());
        let mut krate = items::CrateItems::default();
        for rel in &c.sources {
            let text = fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
            let tokens = lexer::lex(&text);
            let file_items = items::collect(&tokens);
            krate.absorb(&file_items);
            lexed.push((rel, text, tokens, file_items));
        }
        // Pass 2: the per-file rules.
        for (rel, text, tokens, file_items) in &lexed {
            violations.extend(rules::analyze_tokens(rel, text, tokens, file_items, &krate));
            files += 1;
        }
    }

    // Byte-stable output: one canonical order regardless of platform or
    // directory-walk order.
    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule.code()).cmp(&(
            b.path.as_str(),
            b.line,
            b.col,
            b.rule.code(),
        ))
    });

    Ok(Analysis { violations, files })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write(root: &Path, rel: &str, content: &str) {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        fs::write(path, content).expect("write fixture");
    }

    /// Builds a miniature workspace with one lintable crate.
    fn fixture_workspace(tag: &str, lib_rs: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("xtask-selftest-{tag}"));
        let _ = fs::remove_dir_all(&root);
        write(
            &root,
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/*\"]\n",
        );
        write(
            &root,
            "crates/demo/Cargo.toml",
            "[package]\nname = \"fc-demo\"\nversion = \"0.0.0\"\n",
        );
        write(
            &root,
            "crates/demo/src/lib.rs",
            &format!("#![forbid(unsafe_code)]\n{lib_rs}"),
        );
        root
    }

    /// The acceptance-criteria self-test: a deliberate hash-order iteration
    /// in a library crate must produce a violation (and therefore a nonzero
    /// exit in `main`), and an ordered container must produce none.
    #[test]
    fn deliberate_hash_iteration_fails_and_clean_code_passes() {
        let dirty = fixture_workspace(
            "dirty",
            "pub fn count(s: &std::collections::HashSet<u32>) -> usize {\n    s.iter().count()\n}\n",
        );
        let analysis = analyze_workspace(&dirty).unwrap();
        assert_eq!(analysis.violations.len(), 1, "{:?}", analysis.violations);
        assert_eq!(analysis.violations[0].rule.code(), "FC007");
        assert_eq!(analysis.violations[0].line, 3);

        let clean = fixture_workspace(
            "clean",
            "pub fn count(s: &std::collections::BTreeSet<u32>) -> usize {\n    s.iter().count()\n}\n",
        );
        let analysis = analyze_workspace(&clean).unwrap();
        assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
        assert_eq!(analysis.files, 1);
    }

    #[test]
    fn module_collision_is_detected_across_a_crate() {
        let root = fixture_workspace("collide", "pub fn ok() {}\n");
        write(&root, "crates/demo/src/error.rs", "pub struct E;\n");
        write(&root, "crates/demo/src/errors.rs", "pub struct E2;\n");
        let analysis = analyze_workspace(&root).unwrap();
        assert_eq!(analysis.violations.len(), 1, "{:?}", analysis.violations);
        assert_eq!(analysis.violations[0].rule.code(), "FC003");
    }
}
