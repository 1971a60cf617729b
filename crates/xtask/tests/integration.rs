//! Fixture-based integration tests: the whole analyzer — lexer, item
//! resolution, rules, rendering — run over a miniature workspace with
//! seeded violations under `tests/fixtures/`.

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
        vec![("FC007".to_string(), 9)], // for v in counts.values()
        "{:#?}",
        analysis.violations
    );
    // The negative cases — adjacent sort, BTreeMap — must not appear at
    // all (they would add lines 17 and 24).
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
