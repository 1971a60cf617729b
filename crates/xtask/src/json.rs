//! Machine-readable analyzer output (`cargo xtask analyze --json`).
//!
//! A SARIF-flavoured report, hand-rolled because this build environment has
//! no serde: one top-level object with the tool's rule catalog and every
//! finding as a `results` entry. CI uploads the file as an artifact and
//! cross-checks its `summary` against the human-readable exit code, so the
//! two output paths can never diverge.
//!
//! The output is deterministic: the driver sorts diagnostics by
//! `(path, line, col, rule)` before rendering, and this module adds no
//! iteration over unordered containers.

use crate::diag::{Diagnostic, Rule};
use crate::Analysis;
use std::fmt::Write;

/// Renders the whole analysis as a single JSON document (trailing newline
/// included).
pub fn render(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"focus-xtask-analyze/2\",\n");
    out.push_str("  \"tool\": {\n    \"name\": \"xtask analyze\",\n    \"rules\": [\n");
    let rules = Rule::all();
    for (i, rule) in rules.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"id\": {}, \"name\": {}, \"rationale\": {}}}{}",
            string(rule.code()),
            string(rule.name()),
            string(rule.rationale()),
            comma(i, rules.len())
        );
    }
    out.push_str("    ]\n  },\n");
    let _ = writeln!(out, "  \"files\": {},", analysis.files);

    out.push_str("  \"results\": [\n");
    for (i, d) in analysis.violations.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}{}",
            result(d),
            comma(i, analysis.violations.len())
        );
    }
    out.push_str("  ],\n");

    let _ = writeln!(
        out,
        "  \"summary\": {{\"violations\": {}, \"clean\": {}}}",
        analysis.violations.len(),
        analysis.violations.is_empty()
    );
    out.push_str("}\n");
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// One finding as a JSON object (single line).
fn result(d: &Diagnostic) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"rule\": {}, \"ruleName\": {}, \"level\": \"error\", \"path\": {}, \
         \"line\": {}, \"col\": {}, \"message\": {}, \"help\": {}",
        string(d.rule.code()),
        string(d.rule.name()),
        string(&d.path),
        d.line,
        d.col,
        string(&d.message),
        string(&d.help),
    );
    if let Some(snippet) = &d.snippet {
        let _ = write!(s, ", \"snippet\": {}", string(snippet));
    }
    s.push('}');
    s
}

/// JSON string escaping per RFC 8259: `"`, `\`, and control characters.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Analysis {
        Analysis {
            violations: vec![Diagnostic {
                rule: Rule::NondetIteration,
                path: "crates/align/src/pairwise.rs".into(),
                line: 109,
                col: 9,
                message: "iteration over `HashMap` (`votes`) in hash order".into(),
                snippet: Some("        for ((read, diag), count) in votes {".into()),
                help: "collect and sort, or use a \"BTreeMap\"".into(),
            }],
            files: 3,
        }
    }

    #[test]
    fn renders_valid_shape_with_escapes() {
        let json = render(&sample());
        assert!(
            json.contains("\"schema\": \"focus-xtask-analyze/2\""),
            "{json}"
        );
        assert!(json.contains("\"rule\": \"FC007\""), "{json}");
        assert!(json.contains("\\\"BTreeMap\\\""), "quotes escaped: {json}");
        assert!(
            json.contains("\"summary\": {\"violations\": 1, \"clean\": false}"),
            "{json}"
        );
        // Balanced braces/brackets outside string literals — a cheap
        // well-formedness proxy that catches missed commas and unterminated
        // strings in review.
        let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
        for c in json.chars() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string: {json}");
        assert_eq!(depth, 0, "{json}");
    }

    #[test]
    fn clean_analysis_reports_clean_true() {
        let a = Analysis {
            violations: vec![],
            files: 42,
        };
        let json = render(&a);
        assert!(json.contains("\"clean\": true"), "{json}");
        assert!(json.contains("\"files\": 42"), "{json}");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(string("a\tb\nc\"d\\e"), "\"a\\tb\\nc\\\"d\\\\e\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }
}
