//! Workspace conventions checked over the source. No public library
//! function returns `Result<_, String>`: callers match on typed errors. No
//! crate lists a workspace dependency its non-test code does not name. Both
//! read `crates/*/src/*.rs` (and `crates/*/benches/*.rs`) as rustfmt lays
//! it out, without comments and `#[cfg(test)]` items (each ends at its
//! indent's `;` or `}`).

use std::fs;
use std::path::{Path, PathBuf};

fn ls(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
}

fn read(p: &Path) -> String {
    fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// `src` without comment lines and `#[cfg(test)]` items, its tokens
/// joined with no whitespace.
fn strip_tests(src: &str) -> String {
    let (mut test, mut code) = (None, String::new());
    for line in src.lines() {
        let (t, skip) = (line.trim_start(), test.is_some());
        let starts = t.starts_with("#[cfg(test") || t.starts_with("#[cfg(all(test");
        test = test.or(starts.then_some(line.len() - t.len()));
        if skip && test == Some(line.len() - t.len()) && line.ends_with([';', '}']) {
            test = None;
        } else if !skip && !starts && !t.starts_with("//") {
            code.extend(line.split_whitespace());
        }
    }
    code
}

/// The non-test code of the source file at `path`: nothing for a module
/// its `lib.rs` declares under `#[cfg(test)]`.
fn non_test_code(path: &Path) -> String {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let lib = fs::read_to_string(path.with_file_name("lib.rs")).unwrap_or_default();
    if lib.contains(&format!("#[cfg(test)]\nmod {stem};")) {
        return String::new();
    }
    strip_tests(&read(path))
}

/// The `pub fn` signatures in stripped `code` with a `Result<…, String>`.
fn string_errors(code: &str) -> Vec<String> {
    code.split("pubfn")
        .skip(1)
        .map(|s| s[..s.find('{').unwrap_or(s.len())].to_owned())
        .filter(|sig| string_error(sig))
        .collect()
}

/// Whether some `Result<…>` in `sig` closes its arguments with `String`.
fn string_error(sig: &str) -> bool {
    sig.match_indices("Result<").any(|(at, _)| {
        let (args, mut depth) = (&sig[at + 7..], 0);
        let end = args.find(|c| {
            depth += i32::from(c == '<') - i32::from(c == '>');
            depth < 0
        });
        let last = args[..end.unwrap_or(args.len())].rsplit(',').next();
        matches!(last, Some("String" | "std::string::String"))
    })
}

fn crates() -> Vec<PathBuf> {
    ls(&Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"))
}

#[test]
fn no_public_signature_returns_a_string_error() {
    let mut hits = Vec::new();
    for path in crates().iter().flat_map(|k| ls(&k.join("src"))) {
        for sig in string_errors(&non_test_code(&path)) {
            hits.push(format!("{}: pub fn {sig}", path.display()));
        }
    }
    let seeded =
        "pub fn f() -> Result<(), String> {}\npub fn g(\n    a: u8,\n) -> Result<u8, String> {";
    assert_eq!(string_errors(&strip_tests(seeded)).len(), 2);
    assert!(hits.is_empty(), "use a typed error: {hits:#?}");
}

/// The package name and the `fc-*`/`focus-core` entries of a manifest's
/// `[dependencies]` table.
fn workspace_deps(manifest: &str) -> (&str, Vec<&str>) {
    let name = manifest
        .lines()
        .find_map(|l| l.strip_prefix("name = "))
        .map_or("?", |n| n.trim_matches('"'));
    let deps = manifest
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split(['.', ' ', '=']).next())
        .filter(|d| d.starts_with("fc-") || *d == "focus-core")
        .collect();
    (name, deps)
}

#[test]
fn every_workspace_dependency_is_named_outside_tests() {
    let mut unused = Vec::new();
    for krate in crates() {
        let manifest = read(&krate.join("Cargo.toml"));
        let (name, deps) = workspace_deps(&manifest);
        let code: String = ["src", "benches"]
            .iter()
            .map(|dir| krate.join(dir))
            .filter(|dir| dir.is_dir())
            .flat_map(|dir| ls(&dir))
            .map(|path| non_test_code(&path))
            .collect();
        for dep in deps {
            if !code.contains(&dep.replace('-', "_")) {
                unused.push(format!("{name} → {dep}"));
            }
        }
    }
    let seeded = "[package]\nname = \"fc-x\"\n\n[dependencies]\nfc-obs.workspace = true\n\
                  focus-core = { path = \"f\" }\nother = \"1\"\n\n[dev-dependencies]\nfc-rng = \"1\"\n";
    assert_eq!(
        workspace_deps(seeded),
        ("fc-x", vec!["fc-obs", "focus-core"])
    );
    assert!(unused.is_empty(), "unused dependencies: {unused:#?}");
}
