//! Fixture-based integration tests: the whole analyzer — lexer, item
//! resolution, rules, lock-order audit, rendering — run over
//! miniature workspaces with seeded violations under `tests/fixtures/`.

use std::path::PathBuf;
use xtask::analyze_workspace;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the analyzer over a fixture and returns the violations as
/// `(code, line)` pairs in reported order.
fn run(name: &str) -> (xtask::Analysis, Vec<(String, usize)>) {
    let analysis = analyze_workspace(&fixture(name)).expect("fixture analyzes");
    let codes = analysis
        .violations
        .iter()
        .map(|d| (d.rule.code().to_string(), d.line))
        .collect();
    (analysis, codes)
}

#[test]
fn determinism_fixture_flags_exactly_the_seeded_sites() {
    let (analysis, codes) = run("determinism");
    assert_eq!(
        codes,
        vec![
            ("FC010".to_string(), 0),  // crate root without forbid(unsafe_code)
            ("FC007".to_string(), 10), // for v in m.values()
        ],
        "{:#?}",
        analysis.violations
    );
    // The negative cases — adjacent sort, BTreeMap — must not appear at
    // all (they would add lines 18 and 25). Every other fixture's crate
    // roots carry the attribute, and none reports FC010.
}

/// FC012 reads manifests: inline entries, `[dependencies.name]` tables and
/// `[workspace.dependencies]` are all covered; `name.workspace = true`, a
/// trailing comment and non-dependency tables are not findings.
#[test]
fn registrydeps_fixture_is_flagged_and_pathdeps_fixture_is_clean() {
    let (analysis, _) = run("registrydeps");
    let found: Vec<(&str, &str, usize)> = analysis
        .violations
        .iter()
        .map(|d| (d.rule.code(), d.path.as_str(), d.line))
        .collect();
    assert_eq!(
        found,
        vec![
            ("FC012", "Cargo.toml", 7),              // serde = "1"
            ("FC012", "crates/demo/Cargo.toml", 8),  // libc = { version = … }
            ("FC012", "crates/demo/Cargo.toml", 10), // [dev-dependencies.criterion]
            ("FC012", "crates/demo/Cargo.toml", 15), // cc = "1"
        ],
        "{:#?}",
        analysis.violations
    );
    let (analysis, codes) = run("pathdeps");
    assert!(codes.is_empty(), "{:#?}", analysis.violations);
}

#[test]
fn lockcycle_fixture_reports_the_two_lock_cycle() {
    let (analysis, codes) = run("lockcycle");
    assert_eq!(codes.len(), 1, "{:#?}", analysis.violations);
    assert_eq!(codes[0].0, "FC009");
    let d = &analysis.violations[0];
    assert!(
        d.message.contains("fc-lockcycle-fixture::a")
            && d.message.contains("fc-lockcycle-fixture::b"),
        "{}",
        d.message
    );
    assert!(d.help.contains("opposite order"), "{}", d.help);
}

/// Golden-file test for the rustc-style rendering: diagnostics are sorted
/// by (path, line, col, rule), so the rendered report is byte-stable.
#[test]
fn rendered_report_matches_golden_file() {
    let (analysis, _) = run("determinism");
    let rendered: String = analysis
        .violations
        .iter()
        .map(|d| format!("{d}\n\n"))
        .collect();
    let golden_path = fixture("../golden/determinism.stderr");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert_eq!(
        rendered, golden,
        "rendering drifted from tests/golden/determinism.stderr; \
         update the golden file if the change is intentional"
    );
}

/// The JSON report must agree with what the human-readable path would
/// exit with: findings present ⇒ `"clean": false`, and every violation's
/// rule code appears in the results array.
#[test]
fn json_report_is_consistent_with_violations() {
    let (analysis, codes) = run("determinism");
    let json = xtask::json::render(&analysis);
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(
        json.contains(&format!("\"violations\": {}", codes.len())),
        "{json}"
    );
    for (code, _) in &codes {
        assert!(json.contains(&format!("\"rule\": \"{code}\"")), "{json}");
    }

    let clean = xtask::Analysis {
        violations: vec![],
        files: 1,
    };
    assert!(xtask::json::render(&clean).contains("\"clean\": true"));
}
