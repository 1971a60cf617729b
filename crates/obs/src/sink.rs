//! Export sinks: JSON-lines events, Chrome `trace_event` JSON (Perfetto),
//! and the human-readable end-of-run report.
//!
//! Sinks render to `String`; callers decide where the bytes go (file,
//! stderr, test assertion). All serialisation is integer-only and iterates
//! ordered structures, so equal inputs render byte-identically.

use crate::event::{Event, EventKind};
use crate::json::{push_json_int_obj, push_json_key, push_json_str};
use crate::metrics::MetricsSnapshot;

/// Appends the causal-identity fields shared by both event sinks: the
/// span/flow `id` and the enclosing-span `parent` link, emitted only when
/// set so span-less events stay as compact as before.
fn push_causal_fields(out: &mut String, e: &Event) {
    if e.id != 0 {
        out.push_str("\"id\": ");
        out.push_str(&e.id.to_string());
        out.push_str(", ");
    }
    if e.parent != 0 {
        out.push_str("\"parent\": ");
        out.push_str(&e.parent.to_string());
        out.push_str(", ");
    }
}

/// Renders events as JSON lines: one compact object per line, in recording
/// order. Grep-able, stream-appendable, and what
/// `check_jsonl_events` validates.
pub fn write_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str("{\"ts\": ");
        out.push_str(&e.ts.to_string());
        out.push_str(", \"tid\": ");
        out.push_str(&e.tid.to_string());
        out.push_str(", ");
        push_json_key(&mut out, "ph");
        push_json_str(&mut out, e.kind.phase());
        out.push_str(", ");
        push_causal_fields(&mut out, e);
        push_json_key(&mut out, "cat");
        push_json_str(&mut out, e.cat);
        out.push_str(", ");
        push_json_key(&mut out, "name");
        push_json_str(&mut out, e.name);
        out.push_str(", ");
        push_json_key(&mut out, "args");
        let args: Vec<(&str, i64)> = e.args.iter().map(|&(k, v)| (k, v)).collect();
        push_json_int_obj(&mut out, &args);
        out.push_str("}\n");
    }
    out
}

/// Renders events as a Chrome `trace_event` document: load the file in
/// Perfetto (`ui.perfetto.dev`) or `chrome://tracing` to see spans per
/// thread lane, instant markers, counter tracks, and causal arrows
/// between ranks (the `s`/`t`/`f` flow phases).
pub fn write_chrome_trace(events: &[Event]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"ph\": ");
        push_json_str(&mut out, e.kind.phase());
        out.push_str(", \"pid\": 1, \"tid\": ");
        out.push_str(&e.tid.to_string());
        out.push_str(", \"ts\": ");
        out.push_str(&e.ts.to_string());
        out.push_str(", ");
        push_causal_fields(&mut out, e);
        push_json_key(&mut out, "cat");
        push_json_str(&mut out, e.cat);
        out.push_str(", ");
        push_json_key(&mut out, "name");
        push_json_str(&mut out, e.name);
        if e.kind == EventKind::Instant {
            // Instant events need a scope; "t" = thread-scoped.
            out.push_str(", \"s\": \"t\"");
        }
        if e.kind == EventKind::FlowEnd {
            // Bind the arrow head to the enclosing slice, not the next one.
            out.push_str(", \"bp\": \"e\"");
        }
        out.push_str(", ");
        push_json_key(&mut out, "args");
        let args: Vec<(&str, i64)> = e.args.iter().map(|&(k, v)| (k, v)).collect();
        push_json_int_obj(&mut out, &args);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the metrics snapshot as an aligned, human-readable end-of-run
/// report, grouped by the dot-prefix of each metric name.
pub fn human_report(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if snapshot.is_empty() {
        out.push_str("observability: no metrics recorded\n");
        return out;
    }
    let width = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .map(|k| k.len())
        .max()
        .unwrap_or(0);
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (k, v) in &snapshot.counters {
            out.push_str(&format!("  {k:<width$}  {v}\n"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (k, v) in &snapshot.gauges {
            out.push_str(&format!("  {k:<width$}  {v}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (k, h) in &snapshot.histograms {
            let min = if h.count == 0 { 0 } else { h.min };
            out.push_str(&format!(
                "  {k:<width$}  n={} sum={} min={} mean={} max={} p50={} p90={} p99={}\n",
                h.count,
                h.sum,
                min,
                h.mean(),
                h.max,
                h.p50(),
                h.p90(),
                h.p99()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, DEFAULT_BOUNDS};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts: 0,
                tid: 1,
                cat: "pipeline",
                name: "alignment",
                kind: EventKind::Begin,
                id: 1,
                parent: 0,
                args: vec![("pairs", 10)],
            },
            Event {
                ts: 1,
                tid: 1,
                cat: "partition",
                name: "edge_cut",
                kind: EventKind::Counter,
                id: 0,
                parent: 0,
                args: vec![("value", 42)],
            },
            Event {
                ts: 2,
                tid: 1,
                cat: "dist",
                name: "msg",
                kind: EventKind::FlowStart,
                id: 2,
                parent: 1,
                args: vec![],
            },
            Event {
                ts: 3,
                tid: 1,
                cat: "dist",
                name: "msg",
                kind: EventKind::FlowEnd,
                id: 2,
                parent: 1,
                args: vec![],
            },
            Event {
                ts: 4,
                tid: 1,
                cat: "dist",
                name: "crash",
                kind: EventKind::Instant,
                id: 0,
                parent: 1,
                args: vec![],
            },
            Event {
                ts: 5,
                tid: 1,
                cat: "pipeline",
                name: "alignment",
                kind: EventKind::End,
                id: 1,
                parent: 0,
                args: vec![],
            },
        ]
    }

    #[test]
    fn causal_fields_render_only_when_set() {
        let out = write_jsonl(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"id\": 1"));
        assert!(!lines[0].contains("\"parent\""));
        assert!(!lines[1].contains("\"id\""));
        assert!(lines[2].contains("\"ph\": \"s\""));
        assert!(lines[2].contains("\"id\": 2"));
        assert!(lines[2].contains("\"parent\": 1"));
        let trace = write_chrome_trace(&sample_events());
        assert!(trace.contains("\"ph\": \"f\""));
        assert!(trace.contains("\"bp\": \"e\""));
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let out = write_jsonl(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines[0].contains("\"ph\": \"B\""));
        assert!(lines[1].contains("\"value\": 42"));
    }

    #[test]
    fn chrome_trace_has_envelope_and_instant_scope() {
        let out = write_chrome_trace(&sample_events());
        assert!(out.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(out.trim_end().ends_with("]}"));
        assert!(out.contains("\"pid\": 1"));
        assert!(out.contains("\"s\": \"t\""));
    }

    #[test]
    fn empty_event_list_renders_valid_documents() {
        assert_eq!(write_jsonl(&[]), "");
        let trace = write_chrome_trace(&[]);
        assert!(trace.contains("\"traceEvents\": ["));
    }

    #[test]
    fn human_report_groups_sections() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("align.candidates", 100);
        s.gauges.insert("align.band", 32);
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(8);
        h.observe(16);
        s.histograms.insert("align.overlap_len", h);
        let report = human_report(&s);
        assert!(report.contains("counters:"));
        assert!(report.contains("align.candidates"));
        assert!(report.contains("gauges:"));
        assert!(report.contains("histograms:"));
        assert!(report.contains("n=2 sum=24 min=8 mean=12 max=16 p50=8 p90=16 p99=16"));
    }

    #[test]
    fn empty_snapshot_report_says_so() {
        let report = human_report(&MetricsSnapshot::default());
        assert!(report.contains("no metrics recorded"));
    }
}
