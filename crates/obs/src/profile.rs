//! The critical-path profiler behind `focus profile`: a pure-std analyzer
//! over Chrome `trace_event` documents produced by the `--trace` sink.
//!
//! The analyzer reconstructs the span DAG (parent links from the causal
//! `id`/`parent` fields, cross-span causal edges from the `s`/`t`/`f`
//! flow events), aggregates self/total time per phase name, category and
//! rank, and extracts the **critical path**: the gating chain of work from
//! run start to the last thing that finished. Walking backwards from the
//! latest-ending span, each step asks "what had to finish for this to
//! finish?" — the latest-ending child, the latest-arriving causal edge, or
//! the preceding span on the same lane — and attributes the uncovered time
//! to compute, wait, or retry.
//!
//! Everything is integer arithmetic over the trace's own timestamps
//! (logical ticks or microseconds), and every container iterates in
//! sorted order, so the same trace always produces byte-identical reports
//! — `--json` output is CI-diffable.

use crate::event::EventKind;
use crate::json::{push_json_key, push_json_str};
use crate::schema::{self, ObsError};
use std::collections::{BTreeMap, BTreeSet};

/// What a critical-path segment's time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// Inside a span doing work.
    Compute,
    /// A gap the chain had to sit out (scheduling, transmission, an
    /// upstream span that had not finished yet).
    Wait,
    /// Time caused by fault handling: retransmissions, backoff, recovery
    /// rescans, speculative re-execution.
    Retry,
}

impl SegmentKind {
    /// Stable report name.
    pub fn as_str(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::Wait => "wait",
            SegmentKind::Retry => "retry",
        }
    }
}

/// Substrings that mark a span or flow as fault-handling work; time on
/// the critical path inside them is attributed to retry, not compute.
const RETRY_MARKERS: [&str; 5] = ["retransmit", "retry", "backoff", "recover", "speculat"];

fn is_retryish(name: &str) -> bool {
    RETRY_MARKERS.iter().any(|m| name.contains(m))
}

/// One segment of the critical path: `[start, end]` attributed to `name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Name of the span (or flow) the time belongs to.
    pub name: String,
    /// Its category.
    pub cat: String,
    /// The span id the segment lies inside (0 for gap segments).
    pub span: u64,
    /// Segment start timestamp.
    pub start: u64,
    /// Segment end timestamp.
    pub end: u64,
    /// What the time was spent on.
    pub kind: SegmentKind,
}

impl Segment {
    /// The segment's duration in trace time units.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self/total aggregate for one span name or category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeAgg {
    /// Number of spans aggregated.
    pub count: u64,
    /// Sum of span durations (children included).
    pub total: u64,
    /// Sum of durations minus time covered by child spans.
    pub self_time: u64,
}

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    id: u64,
    parent: u64,
    tid: u64,
    name: String,
    cat: String,
    start: u64,
    end: u64,
    rank: Option<i64>,
}

/// The profiler's output: aggregates, the critical path, and the
/// compute/wait/retry attribution. Render with
/// [`ProfileReport::to_json`] (byte-stable) or
/// [`ProfileReport::human_table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Number of spans reconstructed from the trace.
    pub spans: u64,
    /// Number of causal edges (`s` flow events).
    pub flows: u64,
    /// End-to-end run wall: latest event timestamp minus earliest, in the
    /// trace's own time units (ticks or µs).
    pub run_wall: u64,
    /// Self/total time per span name ("phase").
    pub by_name: BTreeMap<String, TimeAgg>,
    /// Self/total time per category ("task class").
    pub by_cat: BTreeMap<String, TimeAgg>,
    /// Total span time per rank (spans carrying a `rank` arg).
    pub by_rank: BTreeMap<i64, u64>,
    /// The gating chain from run start to the last completion, in
    /// chronological order.
    pub critical_path: Vec<Segment>,
    /// Time attributed to each kind along the critical path.
    pub attribution: BTreeMap<SegmentKind, u64>,
}

impl ProfileReport {
    /// Sum of critical-path segment durations.
    pub fn critical_path_total(&self) -> u64 {
        self.critical_path.iter().map(Segment::dur).sum()
    }

    /// Time of one attribution bucket (0 when absent).
    pub fn attributed(&self, kind: SegmentKind) -> u64 {
        self.attribution.get(&kind).copied().unwrap_or(0)
    }

    /// Deterministic JSON rendering: sorted keys, integers only. The same
    /// trace always produces byte-identical output, so CI can diff
    /// reports across commits.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"focus-profile-v1\",\n");
        out.push_str(&format!("  \"spans\": {},\n", self.spans));
        out.push_str(&format!("  \"flows\": {},\n", self.flows));
        out.push_str(&format!("  \"run_wall\": {},\n", self.run_wall));
        out.push_str(&format!(
            "  \"critical_path_total\": {},\n",
            self.critical_path_total()
        ));
        out.push_str("  \"attribution\": {");
        for (i, kind) in [SegmentKind::Compute, SegmentKind::Wait, SegmentKind::Retry]
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_key(&mut out, kind.as_str());
            out.push_str(&self.attributed(*kind).to_string());
        }
        out.push_str("},\n");
        let agg_section = |out: &mut String, title: &str, map: &BTreeMap<String, TimeAgg>| {
            out.push_str("  ");
            push_json_key(out, title);
            out.push('{');
            for (i, (k, a)) in map.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str("    ");
                push_json_key(out, k);
                out.push_str(&format!(
                    "{{\"count\": {}, \"total\": {}, \"self\": {}}}",
                    a.count, a.total, a.self_time
                ));
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("},\n");
        };
        agg_section(&mut out, "by_name", &self.by_name);
        agg_section(&mut out, "by_cat", &self.by_cat);
        out.push_str("  \"by_rank\": {");
        for (i, (rank, total)) in self.by_rank.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_key(&mut out, &rank.to_string());
            out.push_str(&total.to_string());
        }
        out.push_str("},\n");
        out.push_str("  \"critical_path\": [");
        for (i, seg) in self.critical_path.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {");
            push_json_key(&mut out, "name");
            push_json_str(&mut out, &seg.name);
            out.push_str(", ");
            push_json_key(&mut out, "cat");
            push_json_str(&mut out, &seg.cat);
            out.push_str(&format!(
                ", \"span\": {}, \"start\": {}, \"end\": {}, \"dur\": {}, ",
                seg.span,
                seg.start,
                seg.end,
                seg.dur()
            ));
            push_json_key(&mut out, "kind");
            push_json_str(&mut out, seg.kind.as_str());
            out.push('}');
        }
        if !self.critical_path.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Human-readable report: the critical path with per-segment
    /// attribution, then the per-phase/per-rank aggregates. Times are in
    /// the trace's own units (logical ticks or microseconds).
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} spans, {} causal edges, run wall {}\n",
            self.spans, self.flows, self.run_wall
        ));
        out.push_str(&format!(
            "critical path: {} of {} ({} segments)\n",
            self.critical_path_total(),
            self.run_wall,
            self.critical_path.len()
        ));
        out.push_str(&format!(
            "attribution:   compute={} wait={} retry={}\n",
            self.attributed(SegmentKind::Compute),
            self.attributed(SegmentKind::Wait),
            self.attributed(SegmentKind::Retry)
        ));
        out.push_str("segments (chronological):\n");
        for seg in &self.critical_path {
            out.push_str(&format!(
                "  {:>8} ..{:>8}  {:>8}  {:<8}  {}\n",
                seg.start,
                seg.end,
                seg.dur(),
                seg.kind.as_str(),
                seg.name
            ));
        }
        let width = self
            .by_name
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max("phase".len());
        out.push_str(&format!(
            "per-phase:\n  {:<width$}  {:>6}  {:>10}  {:>10}\n",
            "phase", "count", "total", "self"
        ));
        for (name, agg) in &self.by_name {
            out.push_str(&format!(
                "  {name:<width$}  {:>6}  {:>10}  {:>10}\n",
                agg.count, agg.total, agg.self_time
            ));
        }
        if !self.by_rank.is_empty() {
            out.push_str("per-rank:\n");
            for (rank, total) in &self.by_rank {
                out.push_str(&format!("  rank {rank:<4}  {total}\n"));
            }
        }
        out
    }
}

/// Profiles a Chrome `trace_event` document (the `--trace` sink output).
///
/// The document is decoded once, by the same decoder `focus obs-check`
/// uses — schema violations, unbalanced spans, and dangling causal edges
/// are typed errors, never a partial report — and spans are reconstructed
/// from those decoded events. The reconstructed span DAG is additionally
/// checked for parent-link cycles.
pub fn profile_chrome_trace(input: &str) -> Result<ProfileReport, ObsError> {
    let events = schema::decode_chrome_trace(input)?;
    let event_count = events.len();

    // --- Reconstruct spans (per-lane stacks) and flow edges. ---
    let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    // Synthetic ids for traces without causal fields, above any real id.
    let mut next_synth = events.iter().map(|e| e.id).max().unwrap_or(0) + 1;
    // Flow id -> (origin span, departure ts, flow name, cat).
    let mut flow_origin: BTreeMap<u64, (u64, u64, String, String)> = BTreeMap::new();
    // Arrivals per receiving span: (ts, flow id, attempts arg).
    let mut arrivals: BTreeMap<u64, Vec<(u64, u64, i64)>> = BTreeMap::new();
    let (mut min_ts, mut max_ts) = (u64::MAX, 0u64);
    for e in events {
        min_ts = min_ts.min(e.ts);
        max_ts = max_ts.max(e.ts);
        let stack = stacks.entry(e.tid).or_default();
        // The span this event happened inside.
        let enclosing = if e.parent != 0 {
            e.parent
        } else {
            stack.last().copied().unwrap_or(0)
        };
        match e.kind {
            EventKind::Begin => {
                let id = if e.id != 0 {
                    e.id
                } else {
                    next_synth += 1;
                    next_synth - 1
                };
                spans.insert(
                    id,
                    Span {
                        id,
                        parent: enclosing,
                        tid: e.tid,
                        rank: e.args.get("rank").copied(),
                        name: e.name,
                        cat: e.cat,
                        start: e.ts,
                        end: e.ts,
                    },
                );
                stack.push(id);
            }
            EventKind::End => {
                // The decoder proved balance, so the pop matches.
                if let Some(id) = stack.pop() {
                    if let Some(span) = spans.get_mut(&id) {
                        span.end = e.ts;
                    }
                }
            }
            EventKind::FlowStart => {
                flow_origin
                    .entry(e.id)
                    .or_insert((enclosing, e.ts, e.name, e.cat));
            }
            EventKind::FlowStep | EventKind::FlowEnd => {
                let attempts = e.args.get("attempts").copied().unwrap_or(0);
                arrivals
                    .entry(enclosing)
                    .or_default()
                    .push((e.ts, e.id, attempts));
            }
            EventKind::Instant | EventKind::Counter => {}
        }
    }
    if spans.is_empty() {
        return Err(ObsError::Schema {
            detail: "trace contains no spans to profile".to_string(),
        });
    }

    // --- Span DAG must be acyclic (parent links only ever point at
    //     earlier spans in a well-formed trace). A walk stops at the first
    //     span an earlier walk proved acyclic, so the check is linear in
    //     the spans however deep they nest. ---
    let mut acyclic: BTreeSet<u64> = BTreeSet::new();
    let mut walked = Vec::new();
    for &start in spans.keys() {
        let mut cur = start;
        walked.clear();
        while cur != 0 && !acyclic.contains(&cur) {
            walked.push(cur);
            cur = spans.get(&cur).map(|s| s.parent).unwrap_or(0);
            if walked.len() > spans.len() {
                return Err(ObsError::Schema {
                    detail: format!("span parent links contain a cycle through id {start}"),
                });
            }
        }
        acyclic.extend(walked.iter().copied());
    }

    // --- Aggregates: self/total per name, cat, rank. ---
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.values() {
        if span.parent != 0 {
            if let Some(parent) = spans.get(&span.parent) {
                // Clamp to the parent's interval so malformed nesting can
                // never produce negative self-time.
                let overlap = span
                    .end
                    .min(parent.end)
                    .saturating_sub(span.start.max(parent.start));
                *child_time.entry(span.parent).or_insert(0) += overlap;
            }
        }
    }
    let mut by_name: BTreeMap<String, TimeAgg> = BTreeMap::new();
    let mut by_cat: BTreeMap<String, TimeAgg> = BTreeMap::new();
    let mut by_rank: BTreeMap<i64, u64> = BTreeMap::new();
    for span in spans.values() {
        let dur = span.end.saturating_sub(span.start);
        let self_time = dur.saturating_sub(child_time.get(&span.id).copied().unwrap_or(0));
        for (key, map) in [(&span.name, &mut by_name), (&span.cat, &mut by_cat)] {
            let agg = map.entry(key.clone()).or_default();
            agg.count += 1;
            agg.total += dur;
            agg.self_time += self_time;
        }
        if let Some(rank) = span.rank {
            *by_rank.entry(rank).or_insert(0) += dur;
        }
    }

    // --- Critical path: walk back from the latest completion. ---
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    // Each lane's spans as `(end, id)`, sorted, for the same-lane
    // predecessor search below: one binary search a step.
    let mut lanes: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.values() {
        if span.parent != 0 && spans.contains_key(&span.parent) {
            children.entry(span.parent).or_default().push(span.id);
        }
        lanes.entry(span.tid).or_default().push((span.end, span.id));
    }
    for lane in lanes.values_mut() {
        lane.sort_unstable();
    }
    // `spans` was proven non-empty above; keep the typed error anyway so
    // the failure mode is a report, not a panic.
    let Some(last) = spans.values().max_by_key(|s| (s.end, s.id)) else {
        return Err(ObsError::Schema {
            detail: "trace contains no spans to profile".to_string(),
        });
    };
    let mut segments: Vec<Segment> = Vec::new();
    let mut cur = last.id;
    let mut cursor = last.end;
    // Each flow is followed at most once. Wall-clock traces can put a
    // flow's departure and arrival in the same microsecond with the origin
    // span equal to the receiver (a rank gathering from itself), so the
    // cursor alone does not guarantee progress.
    let mut followed: BTreeSet<u64> = BTreeSet::new();
    // Any pathological trace terminates via this cap, not a hang.
    let mut fuel = 2 * spans.len() + event_count + 16;
    loop {
        fuel = fuel.saturating_sub(1);
        let span = &spans[&cur];
        let span_kind = if is_retryish(&span.name) {
            SegmentKind::Retry
        } else {
            SegmentKind::Compute
        };
        // What gated progress inside this span before `cursor`?
        // (a) the latest-ending child,
        let child = children
            .get(&cur)
            .into_iter()
            .flatten()
            .map(|id| &spans[id])
            .filter(|c| c.end <= cursor && c.end >= span.start && c.id != cur)
            .max_by_key(|c| (c.end, c.id));
        // (b) the latest causal arrival (flow t/f) into this span.
        let arrival = arrivals
            .get(&cur)
            .into_iter()
            .flatten()
            .filter(|&&(ts, flow, _)| {
                ts <= cursor
                    && ts >= span.start
                    && !followed.contains(&flow)
                    && flow_origin.contains_key(&flow)
            })
            .max_by_key(|&&(ts, flow, _)| (ts, flow))
            .copied();
        let arrival_t = arrival.map(|(ts, _, _)| ts);
        if fuel == 0 {
            // Close out with the remaining interval and stop.
            segments.push(Segment {
                name: span.name.clone(),
                cat: span.cat.clone(),
                span: cur,
                start: span.start,
                end: cursor,
                kind: span_kind,
            });
            break;
        }
        if let Some(c) = child.filter(|c| Some(c.end) >= arrival_t) {
            if cursor > c.end {
                segments.push(Segment {
                    name: span.name.clone(),
                    cat: span.cat.clone(),
                    span: cur,
                    start: c.end,
                    end: cursor,
                    kind: span_kind,
                });
            }
            cur = c.id;
            cursor = c.end;
        } else if let Some((ats, flow, attempts)) = arrival {
            followed.insert(flow);
            if cursor > ats {
                segments.push(Segment {
                    name: span.name.clone(),
                    cat: span.cat.clone(),
                    span: cur,
                    start: ats,
                    end: cursor,
                    kind: span_kind,
                });
            }
            let (origin, departed, flow_name, flow_cat) = flow_origin[&flow].clone();
            if ats > departed {
                // The in-flight window: transmission, backoff, recovery.
                let kind = if attempts > 1 || is_retryish(&flow_name) {
                    SegmentKind::Retry
                } else {
                    SegmentKind::Wait
                };
                segments.push(Segment {
                    name: flow_name,
                    cat: flow_cat,
                    span: 0,
                    start: departed,
                    end: ats,
                    kind,
                });
            }
            if origin == 0 || !spans.contains_key(&origin) || departed > cursor {
                break;
            }
            cur = origin;
            cursor = departed;
        } else {
            // Nothing inside gated it: the whole prefix is this span's own
            // work, and the chain continues at whatever on this lane
            // finished before it started.
            if cursor > span.start {
                segments.push(Segment {
                    name: span.name.clone(),
                    cat: span.cat.clone(),
                    span: cur,
                    start: span.start,
                    end: cursor,
                    kind: span_kind,
                });
            }
            // The greatest `(end, id)` on this lane with `end <= start`,
            // other than this span (which is a candidate only when it
            // lasted no time).
            let lane = lanes.get(&span.tid).map_or(&[][..], Vec::as_slice);
            let before = &lane[..lane.partition_point(|&(end, _)| end <= span.start)];
            let pred = before
                .iter()
                .rev()
                .find(|&&(_, id)| id != cur)
                .and_then(|(_, id)| spans.get(id));
            match pred {
                Some(p) => {
                    if span.start > p.end {
                        segments.push(Segment {
                            name: "gap".to_string(),
                            cat: "profile".to_string(),
                            span: 0,
                            start: p.end,
                            end: span.start,
                            kind: SegmentKind::Wait,
                        });
                    }
                    cur = p.id;
                    cursor = p.end;
                }
                None => {
                    // Nothing on this lane preceded it: ascend into the
                    // enclosing span, whose own work led up to this
                    // span's start (reaches all the way to run start).
                    let parent_id = span.parent;
                    let span_start = span.start;
                    match spans.get(&parent_id) {
                        Some(par) if par.start <= span_start => {
                            cur = parent_id;
                            cursor = span_start;
                        }
                        _ => break,
                    }
                }
            }
        }
    }
    segments.reverse();
    let mut attribution: BTreeMap<SegmentKind, u64> = BTreeMap::new();
    for seg in &segments {
        *attribution.entry(seg.kind).or_insert(0) += seg.dur();
    }

    Ok(ProfileReport {
        spans: spans.len() as u64,
        flows: flow_origin.len() as u64,
        run_wall: max_ts.saturating_sub(min_ts.min(max_ts)),
        by_name,
        by_cat,
        by_rank,
        critical_path: segments,
        attribution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ObsOptions, Recorder};
    use crate::sink::write_chrome_trace;

    /// A miniature causal run: a root with two sequential phases, the
    /// second receiving a message (with a retransmission) started in the
    /// first.
    fn sample_trace() -> String {
        let rec = Recorder::new(ObsOptions::logical());
        let flow;
        {
            let _root = rec.span("pipeline", "run");
            {
                let _a = rec.span_args("pipeline", "alignment", &[("rank", 0)]);
                flow = rec.flow_start("dist", "partition_result", &[("rank", 0)]);
            }
            {
                let _b = rec.span_args("dist", "gather", &[("rank", 0)]);
                rec.flow_step(flow, &[("attempt", 2)]);
                rec.flow_end(flow, &[("rank", 0), ("attempts", 2)]);
            }
        }
        write_chrome_trace(&rec.events())
    }

    #[test]
    fn profiles_a_causal_trace() {
        let report = profile_chrome_trace(&sample_trace()).expect("profiles");
        assert_eq!(report.spans, 3);
        assert_eq!(report.flows, 1);
        assert!(report.by_name.contains_key("run"));
        assert!(report.by_name.contains_key("alignment"));
        let run = report.by_name["run"];
        assert_eq!(run.count, 1);
        // Root total covers the phases; self excludes them.
        assert!(run.total > run.self_time);
        assert_eq!(report.by_rank.get(&0).copied().unwrap_or(0) > 0, true);
    }

    #[test]
    fn critical_path_is_bounded_by_run_wall_and_covers_the_longest_phase() {
        let report = profile_chrome_trace(&sample_trace()).expect("profiles");
        let total = report.critical_path_total();
        assert!(total > 0);
        assert!(total <= report.run_wall, "{total} > {}", report.run_wall);
        let longest_phase = report.by_name.values().map(|a| a.total).max().unwrap_or(0);
        assert!(
            total >= longest_phase,
            "critical path {total} < longest phase {longest_phase}"
        );
    }

    #[test]
    fn segments_are_chronological_disjoint_and_within_their_span() {
        let report = profile_chrome_trace(&sample_trace()).expect("profiles");
        let mut last_end = 0;
        for seg in &report.critical_path {
            assert!(seg.start <= seg.end);
            assert!(seg.start >= last_end, "segments overlap");
            last_end = seg.end;
        }
    }

    #[test]
    fn retransmitted_flow_time_counts_as_retry() {
        let report = profile_chrome_trace(&sample_trace()).expect("profiles");
        assert!(
            report.attributed(SegmentKind::Retry) > 0,
            "attempts=2 arrival should be attributed to retry"
        );
    }

    #[test]
    fn json_report_is_byte_stable_and_valid() {
        let trace = sample_trace();
        let a = profile_chrome_trace(&trace).expect("profiles").to_json();
        let b = profile_chrome_trace(&trace).expect("profiles").to_json();
        assert_eq!(a, b, "same trace, same bytes");
        assert!(a.contains("\"schema\": \"focus-profile-v1\""));
        schema::parse_json(&a).expect("report is valid JSON");
        let human = profile_chrome_trace(&trace)
            .expect("profiles")
            .human_table();
        assert!(human.contains("critical path"));
        assert!(human.contains("attribution"));
    }

    #[test]
    fn rejects_invalid_and_span_less_traces() {
        assert!(profile_chrome_trace("{}").is_err());
        assert!(profile_chrome_trace("{\"traceEvents\": []}").is_err());
        // Dangling flow ends are schema errors before profiling starts.
        let dangling = r#"{"traceEvents": [
{"ph": "B", "pid": 1, "tid": 1, "ts": 0, "id": 1, "cat": "c", "name": "x", "args": {}},
{"ph": "f", "pid": 1, "tid": 1, "ts": 1, "id": 9, "cat": "c", "name": "m", "args": {}},
{"ph": "E", "pid": 1, "tid": 1, "ts": 2, "id": 1, "cat": "c", "name": "x", "args": {}}
]}"#;
        assert!(profile_chrome_trace(dangling).is_err());
    }

    #[test]
    fn same_microsecond_self_flows_do_not_stall_the_walk() {
        // Wall-clock traces collapse a flow's departure and arrival into
        // one timestamp, with the origin span equal to the receiver (a
        // rank gathering from itself). The walk must still make progress
        // past such edges and reach the run start instead of exhausting
        // its fuel mid-trace.
        let trace = r#"{"traceEvents": [
{"ph": "B", "pid": 1, "tid": 1, "ts": 0, "id": 1, "cat": "p", "name": "prepare", "args": {}},
{"ph": "E", "pid": 1, "tid": 1, "ts": 80, "id": 1, "cat": "p", "name": "prepare", "args": {}},
{"ph": "B", "pid": 1, "tid": 1, "ts": 80, "id": 2, "cat": "p", "name": "assemble", "args": {}},
{"ph": "B", "pid": 1, "tid": 1, "ts": 82, "id": 3, "cat": "d", "name": "phase", "parent": 2, "args": {}},
{"ph": "s", "pid": 1, "tid": 1, "ts": 90, "id": 10, "cat": "d", "name": "gather", "parent": 3, "args": {}},
{"ph": "f", "pid": 1, "tid": 1, "ts": 90, "id": 10, "cat": "d", "name": "gather", "parent": 3, "args": {"attempts": 1}, "bp": "e"},
{"ph": "s", "pid": 1, "tid": 1, "ts": 90, "id": 11, "cat": "d", "name": "gather", "parent": 3, "args": {}},
{"ph": "f", "pid": 1, "tid": 1, "ts": 90, "id": 11, "cat": "d", "name": "gather", "parent": 3, "args": {"attempts": 1}, "bp": "e"},
{"ph": "E", "pid": 1, "tid": 1, "ts": 92, "id": 3, "cat": "d", "name": "phase", "args": {}},
{"ph": "E", "pid": 1, "tid": 1, "ts": 100, "id": 2, "cat": "p", "name": "assemble", "args": {}}
]}"#;
        let report = profile_chrome_trace(trace).expect("profiles");
        // The path must span the whole run: prepare (the longest phase,
        // 80) plus assemble, not just the tail behind the self-flows.
        assert_eq!(report.critical_path_total(), 100);
        assert!(report.critical_path_total() >= report.by_name["prepare"].total);
    }

    #[test]
    fn sequential_sibling_phases_chain_through_wait_gaps() {
        // Two top-level spans on one lane with a gap between them: the
        // path must walk back across the gap and cover both.
        let trace = r#"{"traceEvents": [
{"ph": "B", "pid": 1, "tid": 1, "ts": 0, "id": 1, "cat": "p", "name": "first", "args": {}},
{"ph": "E", "pid": 1, "tid": 1, "ts": 60, "id": 1, "cat": "p", "name": "first", "args": {}},
{"ph": "B", "pid": 1, "tid": 1, "ts": 70, "id": 2, "cat": "p", "name": "second", "args": {}},
{"ph": "E", "pid": 1, "tid": 1, "ts": 100, "id": 2, "cat": "p", "name": "second", "args": {}}
]}"#;
        let report = profile_chrome_trace(trace).expect("profiles");
        assert_eq!(report.run_wall, 100);
        assert_eq!(report.critical_path_total(), 100);
        assert_eq!(report.attributed(SegmentKind::Compute), 90);
        assert_eq!(report.attributed(SegmentKind::Wait), 10);
        // first(60) is the longest phase and the path covers it.
        assert!(report.critical_path_total() >= 60);
    }

    /// The critical-path walk takes a binary search a step, not a scan of
    /// every span: 50 000 spans on one lane — 25 000 phases of one child
    /// each, a gap after every phase, so the walk visits every span —
    /// profile well inside a bound that a scan a step misses many times
    /// over (at 8 666 spans a scan a step already took 0.44 s in release).
    /// So do 20 000 spans each nested in the one before: the parent-cycle
    /// check walks a chain only down to a span already proven acyclic (a
    /// whole-chain walk per span took 11 s in release).
    #[test]
    fn a_long_trace_profiles_in_near_linear_time() {
        let event = |ph: &str, ts: u64, id: u64, name: &str| {
            format!(
                r#"{{"ph": "{ph}", "pid": 1, "tid": 1, "ts": {ts}, "id": {id}, "cat": "p", "name": "{name}", "args": {{}}}}"#
            )
        };
        let mut events = Vec::with_capacity(100_000);
        for i in 0..25_000u64 {
            let (t, phase, child) = (10 * i, 2 * i + 1, 2 * i + 2);
            events.push(event("B", t, phase, "phase"));
            events.push(event("B", t + 1, child, "child"));
            events.push(event("E", t + 6, child, "child"));
            events.push(event("E", t + 8, phase, "phase"));
        }
        let trace = format!("{{\"traceEvents\": [\n{}\n]}}", events.join(",\n"));
        let started = std::time::Instant::now();
        let report = profile_chrome_trace(&trace).expect("profiles");
        let took = started.elapsed();
        assert_eq!(report.spans, 50_000);
        // A child's predecessor is the phase before its own, so each phase
        // is its tail, its child and the gap back to the previous phase;
        // the first one ends in its own head instead.
        assert_eq!(report.critical_path.len(), 75_000);
        assert_eq!(report.critical_path_total(), report.run_wall);
        assert_eq!(report.attributed(SegmentKind::Wait), 3 * 24_999);
        assert!(
            took < std::time::Duration::from_secs(20),
            "50 000 spans took {took:?} to profile"
        );

        let depth = 20_000u64;
        let mut events: Vec<String> = (1..=depth).map(|i| event("B", i, i, "nested")).collect();
        events.extend(
            (1..=depth)
                .rev()
                .map(|i| event("E", 2 * depth + 1 - i, i, "nested")),
        );
        let trace = format!("{{\"traceEvents\": [\n{}\n]}}", events.join(",\n"));
        let started = std::time::Instant::now();
        let report = profile_chrome_trace(&trace).expect("profiles");
        let took = started.elapsed();
        assert_eq!(report.spans, 20_000);
        // Every span's head and tail, the innermost one's whole.
        assert_eq!(report.critical_path.len(), 39_999);
        assert_eq!(report.critical_path_total(), report.run_wall);
        assert!(
            took < std::time::Duration::from_secs(20),
            "20 000 nested spans took {took:?} to profile"
        );
    }
}
