//! The checked-in allowlist (`xtask/allow.toml`).
//!
//! The container cannot fetch a TOML crate, so this module parses the small
//! TOML subset the allowlist actually uses: `[[allow]]` table arrays whose
//! entries are `key = "string"` lines, plus comments and blank lines.
//! Anything else is a hard error — a malformed allowlist must not silently
//! allow everything.

use crate::diag::{Diagnostic, Rule};

/// One allowlist entry. `path` is matched as a suffix of the diagnostic's
/// workspace-relative path; `pattern` (a substring of the offending source
/// line) narrows the match further when present. Entries name no line
/// number, so an edit elsewhere in the file cannot break one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: Rule,
    pub path: String,
    pub pattern: Option<String>,
    pub reason: String,
}

impl AllowEntry {
    /// Does this entry suppress the diagnostic?
    pub fn matches(&self, d: &Diagnostic) -> bool {
        if self.rule != d.rule || !d.path.ends_with(&self.path) {
            return false;
        }
        if let Some(pattern) = &self.pattern {
            let hay = d.snippet.as_deref().unwrap_or("");
            if !hay.contains(pattern.as_str()) {
                return false;
            }
        }
        true
    }
}

/// Parses `allow.toml` content. Returns entries or a line-numbered error.
pub fn parse(content: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<PartialEntry> = None;

    for (idx, raw) in content.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = current.take() {
                entries.push(p.finish()?);
            }
            current = Some(PartialEntry::default());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "allow.toml:{line_no}: expected `key = value`, got `{line}`"
            ));
        };
        let Some(entry) = current.as_mut() else {
            return Err(format!(
                "allow.toml:{line_no}: `{}` outside an [[allow]] table",
                key.trim()
            ));
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "rule" => {
                let name = parse_string(value, line_no)?;
                entry.rule = Some(Rule::from_name(&name).ok_or(format!(
                    "allow.toml:{line_no}: unknown rule `{name}` (see `cargo xtask analyze --list-rules`)"
                ))?);
            }
            "path" => entry.path = Some(parse_string(value, line_no)?),
            "pattern" => entry.pattern = Some(parse_string(value, line_no)?),
            "reason" => entry.reason = Some(parse_string(value, line_no)?),
            other => {
                return Err(format!("allow.toml:{line_no}: unknown key `{other}`"));
            }
        }
    }
    if let Some(p) = current.take() {
        entries.push(p.finish()?);
    }
    Ok(entries)
}

#[derive(Default)]
struct PartialEntry {
    rule: Option<Rule>,
    path: Option<String>,
    pattern: Option<String>,
    reason: Option<String>,
}

impl PartialEntry {
    fn finish(self) -> Result<AllowEntry, String> {
        let rule = self.rule.ok_or("allow.toml: entry missing `rule`")?;
        let path = self.path.ok_or("allow.toml: entry missing `path`")?;
        let reason = self.reason.ok_or(
            "allow.toml: entry missing `reason` (every \
             suppression must say why the site is sound)",
        )?;
        if reason.trim().is_empty() {
            return Err("allow.toml: `reason` must not be empty".to_string());
        }
        Ok(AllowEntry {
            rule,
            path,
            pattern: self.pattern,
            reason,
        })
    }
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Parses a double-quoted TOML basic string with `\"` and `\\` escapes.
fn parse_string(value: &str, line_no: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or(format!(
            "allow.toml:{line_no}: expected a double-quoted string, got `{value}`"
        ))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    return Err(format!(
                        "allow.toml:{line_no}: unsupported escape `\\{other}`"
                    ))
                }
                None => return Err(format!("allow.toml:{line_no}: dangling escape")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Justified panic sites.
[[allow]]
rule = "no-panic"
path = "crates/dist/src/cluster.rs"
pattern = "clock times are finite"
reason = "sort comparator over virtual clocks, which are never NaN"

[[allow]]
rule = "invariant-doc"
path = "crates/graph/src/digraph.rs"
reason = "documented at the impl level"
"#;

    #[test]
    fn parses_entries() {
        let entries = parse(SAMPLE).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, Rule::NoPanic);
        assert_eq!(
            entries[0].pattern.as_deref(),
            Some("clock times are finite")
        );
        assert_eq!(entries[1].pattern, None);
    }

    #[test]
    fn a_line_key_is_an_error() {
        let err = parse("[[allow]]\nrule = \"no-panic\"\npath = \"a.rs\"\nline = 3\n").unwrap_err();
        assert!(err.contains("unknown key `line`"), "{err}");
    }

    #[test]
    fn missing_reason_is_an_error() {
        let err = parse("[[allow]]\nrule = \"no-panic\"\npath = \"a.rs\"\n").unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let err =
            parse("[[allow]]\nrule = \"nope\"\npath = \"a.rs\"\nreason = \"r\"\n").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn keys_outside_tables_are_errors() {
        let err = parse("rule = \"no-panic\"\n").unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn matching_respects_rule_path_pattern() {
        let entries = parse(SAMPLE).unwrap();
        let mut d = Diagnostic {
            rule: Rule::NoPanic,
            path: "crates/dist/src/cluster.rs".into(),
            line: 328,
            col: 1,
            message: String::new(),
            snippet: Some("  .expect(\"clock times are finite\")".into()),
            help: String::new(),
        };
        assert!(entries[0].matches(&d));
        d.snippet = Some("something else".into());
        assert!(!entries[0].matches(&d));
        d.rule = Rule::StringError;
        assert!(!entries[0].matches(&d));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let entries = parse(
            "[[allow]]\nrule = \"no-panic\"\npath = \"a.rs\"\nreason = \"uses # in text\" # trailing\n",
        )
        .unwrap();
        assert_eq!(entries[0].reason, "uses # in text");
    }
}
