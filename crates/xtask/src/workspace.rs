//! Workspace discovery: which crates and files the analyzer covers.

use std::fs;
use std::path::{Path, PathBuf};

/// A crate whose library sources the analyzer lints.
#[derive(Debug, Clone)]
pub struct LintCrate {
    /// Package name from `Cargo.toml` (`fc-seq`, `focus-core`, ...).
    pub name: String,
    /// Crate directory relative to the workspace root (`crates/seq`).
    pub rel_dir: String,
    /// All `.rs` files under `src/`, workspace-relative, sorted.
    pub sources: Vec<String>,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects the lintable crates: every `crates/*` member whose package name
/// is `fc-*` or `focus-core`, except the experiment harness (`fc-bench`,
/// whose benches intentionally assert) and this tool itself.
pub fn lint_crates(root: &Path) -> std::io::Result<Vec<LintCrate>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        let Some(name) = package_name(&text) else {
            continue;
        };
        let lintable = (name.starts_with("fc-") || name == "focus-core") && name != "fc-bench";
        if !lintable {
            continue;
        }
        let src = dir.join("src");
        let mut sources = Vec::new();
        collect_rs(&src, &mut sources)?;
        sources.sort();
        let rel = |p: &Path| {
            p.strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/")
        };
        out.push(LintCrate {
            name,
            rel_dir: rel(&dir),
            sources: sources.iter().map(|p| rel(p)).collect(),
        });
    }
    Ok(out)
}

/// First `name = "..."` in the `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Module stems for the collision rule: file stems under `src/`, minus the
/// crate-root files that never act as module names.
pub fn module_stems(c: &LintCrate) -> Vec<(String, String)> {
    c.sources
        .iter()
        .filter_map(|p| {
            let stem = Path::new(p).file_stem()?.to_string_lossy().into_owned();
            if matches!(stem.as_str(), "lib" | "main" | "mod") {
                return None;
            }
            Some((stem, p.clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_workspace_style_manifests() {
        let manifest = "[package]\nname = \"fc-seq\"\nversion.workspace = true\n";
        assert_eq!(package_name(manifest), Some("fc-seq".to_string()));
    }

    #[test]
    fn package_name_ignores_dependency_tables() {
        let manifest = "[dependencies]\nname = \"wrong\"\n[package]\nname = \"right\"\n";
        assert_eq!(package_name(manifest), Some("right".to_string()));
    }

    #[test]
    fn finds_this_workspace_and_its_crates() {
        let here = std::env::current_dir().unwrap();
        let root = find_root(&here).expect("xtask runs from inside the workspace");
        let crates = lint_crates(&root).unwrap();
        let names: Vec<&str> = crates.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"fc-seq"), "{names:?}");
        assert!(names.contains(&"focus-core"), "{names:?}");
        assert!(
            !names.contains(&"fc-bench"),
            "bench harness is exempt: {names:?}"
        );
        assert!(!names.contains(&"xtask"), "{names:?}");
        let seq = crates.iter().find(|c| c.name == "fc-seq").unwrap();
        assert!(
            seq.sources.iter().any(|s| s.ends_with("src/fastq.rs")),
            "{:?}",
            seq.sources
        );
    }
}
