//! No public library function returns `Result<_, String>`: callers match on
//! typed errors. Reads `crates/*/src/*.rs` as rustfmt lays it out, without
//! comments and `#[cfg(test)]` items (each ends at its indent's `;` or `}`).

use std::{fs, path::Path};

/// The `pub fn` signatures in `src` with a `Result<…, String>`.
fn string_errors(src: &str) -> Vec<String> {
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

#[test]
fn no_public_signature_returns_a_string_error() {
    let ls = |dir: &Path| fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let mut hits = Vec::new();
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for path in ls(&crates).flat_map(|k| ls(&k.join("src"))) {
        let stem = path.file_stem().unwrap_or_default().to_string_lossy();
        if !read(&path.with_file_name("lib.rs")).contains(&format!("#[cfg(test)]\nmod {stem};")) {
            for sig in string_errors(&read(&path)) {
                hits.push(format!("{}: pub fn {sig}", path.display()));
            }
        }
    }
    let seeded =
        "pub fn f() -> Result<(), String> {}\npub fn g(\n    a: u8,\n) -> Result<u8, String> {";
    assert_eq!(string_errors(seeded).len(), 2);
    assert!(hits.is_empty(), "use a typed error: {hits:#?}");
}
