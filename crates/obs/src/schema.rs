//! Pure-std decoding of the sink outputs: a minimal recursive-descent
//! JSON parser and one typed decoder per format the pipeline emits. Each
//! reader parses its input once and walks the tree once: `focus obs-check`
//! (and CI) validates `--trace`, `--events` and `--metrics` files through
//! the checkers below, `focus profile` reconstructs spans from the same
//! decoded trace events, and a checkpoint's metrics record is restored
//! through the same snapshot decoder ([`MetricsSnapshot::from_json`]),
//! without pulling a JSON dependency into the workspace.
//!
//! The parser is linear in its input and refuses documents nested deeper
//! than 64 levels with a typed [`ObsError::Parse`]; the formats it reads
//! nest at most four.
//!
//! [`MetricsSnapshot::from_json`]: crate::MetricsSnapshot::from_json

use crate::event::EventKind;
use crate::metrics::SnapshotDoc;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Validation failure for an observability artefact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// The input is not well-formed JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser expected.
        expected: &'static str,
    },
    /// The JSON is well-formed but violates the expected schema.
    Schema {
        /// Which constraint failed.
        detail: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Parse { offset, expected } => {
                write!(f, "invalid JSON at byte {offset}: expected {expected}")
            }
            ObsError::Schema { detail } => write!(f, "schema violation: {detail}"),
        }
    }
}

impl std::error::Error for ObsError {}

pub(crate) fn schema_err(detail: impl Into<String>) -> ObsError {
    ObsError::Schema {
        detail: detail.into(),
    }
}

/// A parsed JSON value. Numbers are kept as `i64` — every format this
/// crate emits is integer-only by design.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (the only number shape the sinks emit).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; `BTreeMap` so inspection order is stable.
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts. The
/// emitted formats nest at most four levels; the bound keeps a hostile
/// document (a checkpoint's metrics record is one) from exhausting the
/// stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, expected: &'static str) -> ObsError {
        ObsError::Parse {
            offset: self.pos,
            expected,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, expected: &'static str) -> Result<(), ObsError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn eat_literal(&mut self, lit: &'static str) -> Result<(), ObsError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(lit))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ObsError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("at most 64 levels of nesting"));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => {
                self.eat_literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'n') => {
                self.eat_literal("null")?;
                Ok(Value::Null)
            }
            Some(b'-') | Some(b'0'..=b'9') => self.parse_int(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn parse_object(&mut self) -> Result<Value, ObsError> {
        self.eat(b'{', "'{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ObsError> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ObsError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .text
                                .get(start..start + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("4 hex digits"))?;
                            // Surrogate pairs never appear in our output;
                            // map unpaired surrogates to the replacement
                            // character rather than rejecting.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("an escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain characters up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a
                    // character boundary of the input `&str`.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    let plain = self
                        .text
                        .get(self.pos..self.pos + run)
                        .ok_or_else(|| self.err("valid UTF-8"))?;
                    out.push_str(plain);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_int(&mut self) -> Result<Value, ObsError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.err("an integer (floats are not emitted)"));
        }
        // Only the spelling the emitter writes: no leading zero, no `-0`.
        if self.bytes.get(digits) == Some(&b'0') && (negative || self.pos > digits + 1) {
            self.pos = digits;
            return Err(self.err("an integer without a leading zero"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("an integer"))?;
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| self.err("an integer in i64 range"))
    }
}

/// Parses one JSON document; trailing whitespace allowed, trailing content
/// rejected.
pub fn parse_json(input: &str) -> Result<Value, ObsError> {
    let mut p = Parser::new(input);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of input"));
    }
    Ok(v)
}

/// One event of a trace or an event stream, checked and owned: what
/// `obs-check` validates and what `focus profile` reconstructs spans from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceEvent {
    /// Timestamp (µs or logical tick).
    pub(crate) ts: u64,
    /// Thread lane.
    pub(crate) tid: u64,
    /// The `ph` letter, decoded.
    pub(crate) kind: EventKind,
    pub(crate) cat: String,
    pub(crate) name: String,
    /// Span or flow id; 0 when absent.
    pub(crate) id: u64,
    /// The enclosing span; 0 when absent.
    pub(crate) parent: u64,
    pub(crate) args: BTreeMap<String, i64>,
}

/// `obj[key]` as a non-negative integer, 0 when absent.
fn non_negative(obj: &BTreeMap<String, Value>, key: &str, what: &str) -> Result<u64, ObsError> {
    match obj.get(key) {
        None => Ok(0),
        Some(&Value::Int(i)) if i >= 0 => Ok(i as u64),
        Some(_) => Err(schema_err(format!(
            "{what}: {key:?} must be a non-negative integer"
        ))),
    }
}

fn take_str(obj: &mut BTreeMap<String, Value>, key: &str, what: &str) -> Result<String, ObsError> {
    match obj.remove(key) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(schema_err(format!("{what}: {key:?} must be a string"))),
    }
}

/// Checks one event object and moves its fields into a [`TraceEvent`]:
/// the six required keys, a known phase, non-negative `ts`, `tid` and
/// (when present) `id` and `parent`, a positive `id` on flow events,
/// integer `args`, and `args["value"]` on counter samples. Other keys
/// (`pid`, `s`, `bp`) are left to the envelope. `what` names the event in
/// errors.
fn decode_event(mut obj: BTreeMap<String, Value>, what: &str) -> Result<TraceEvent, ObsError> {
    for key in ["ts", "tid", "ph", "cat", "name", "args"] {
        if !obj.contains_key(key) {
            return Err(schema_err(format!("{what}: missing key {key:?}")));
        }
    }
    let kind = match obj.get("ph") {
        Some(Value::Str(ph)) => EventKind::from_phase(ph)
            .ok_or_else(|| schema_err(format!("{what}: unknown phase {ph:?}")))?,
        _ => return Err(schema_err(format!("{what}: \"ph\" must be a string"))),
    };
    let ts = non_negative(&obj, "ts", what)?;
    let tid = non_negative(&obj, "tid", what)?;
    let cat = take_str(&mut obj, "cat", what)?;
    let name = take_str(&mut obj, "name", what)?;
    let id = non_negative(&obj, "id", what)?;
    let parent = non_negative(&obj, "parent", what)?;
    if kind.is_flow() && id == 0 {
        return Err(schema_err(format!(
            "{what}: flow event ({:?}) needs a positive \"id\"",
            kind.phase()
        )));
    }
    let Some(Value::Object(args)) = obj.remove("args") else {
        return Err(schema_err(format!("{what}: \"args\" must be an object")));
    };
    let args = args
        .into_iter()
        .map(|(k, v)| match v {
            Value::Int(i) => Ok((k, i)),
            _ => Err(schema_err(format!(
                "{what}: args[{k:?}] must be an integer"
            ))),
        })
        .collect::<Result<BTreeMap<_, _>, _>>()?;
    if kind == EventKind::Counter && !args.contains_key("value") {
        return Err(schema_err(format!(
            "{what}: counter events need args[\"value\"]"
        )));
    }
    Ok(TraceEvent {
        ts,
        tid,
        kind,
        cat,
        name,
        id,
        parent,
        args,
    })
}

/// What every decoded trace and stream must hold across its events: each
/// `E` closes the span open on its lane under the same name, every lane
/// ends with its spans closed, and each `t` (step) or `f` (finish) flow
/// event follows an `s` (start) with its id — a dangling causal edge means
/// instrumentation claimed a dependency on work nobody recorded. `what(i)`
/// names event `i` in errors.
fn check_causality(events: &[TraceEvent], what: impl Fn(usize) -> String) -> Result<(), ObsError> {
    let mut open: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    let mut started = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let (name, tid) = (&e.name, e.tid);
        match e.kind {
            EventKind::Begin => open.entry(tid).or_default().push(name),
            EventKind::End => match open.entry(tid).or_default().pop() {
                None => {
                    return Err(schema_err(format!(
                        "{}: end event {name:?} on tid {tid} with no open span",
                        what(i)
                    )))
                }
                Some(top) if top != name => {
                    return Err(schema_err(format!(
                        "{}: end event {name:?} on tid {tid} closes {top:?}",
                        what(i)
                    )))
                }
                Some(_) => {}
            },
            EventKind::FlowStart => {
                started.insert(e.id);
            }
            EventKind::FlowStep | EventKind::FlowEnd if !started.contains(&e.id) => {
                return Err(schema_err(format!(
                    "{}: flow {:?} event references id {} with no prior \"s\" event \
                     (dangling causal edge)",
                    what(i),
                    e.kind.phase(),
                    e.id
                )))
            }
            _ => {}
        }
    }
    for (tid, stack) in &open {
        if let Some(name) = stack.last() {
            return Err(schema_err(format!(
                "span {name:?} on tid {tid} never closed"
            )));
        }
    }
    Ok(())
}

/// Decodes and checks a Chrome `trace_event` document (the `--trace`
/// output): the envelope, every event (each also needs an integer `pid`),
/// and [`check_causality`] over them.
pub(crate) fn decode_chrome_trace(input: &str) -> Result<Vec<TraceEvent>, ObsError> {
    let Value::Object(mut root) = parse_json(input)? else {
        return Err(schema_err("trace root must be an object"));
    };
    let items = match root.remove("traceEvents") {
        Some(Value::Array(items)) => items,
        Some(_) => return Err(schema_err("\"traceEvents\" must be an array")),
        None => return Err(schema_err("missing \"traceEvents\"")),
    };
    let what = |i: usize| format!("traceEvents[{i}]");
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        let Value::Object(obj) = item else {
            return Err(schema_err(format!("{}: not an object", what(i))));
        };
        let pid_ok = matches!(obj.get("pid"), Some(Value::Int(_)));
        events.push(decode_event(obj, &what(i))?);
        if !pid_ok {
            return Err(schema_err(format!(
                "{}: \"pid\" must be an integer",
                what(i)
            )));
        }
    }
    check_causality(&events, what)?;
    Ok(events)
}

/// Validates a JSON-lines event stream (the `--events` output): each
/// non-empty line is a well-formed event object, timestamps are
/// non-decreasing, spans balance per thread lane, and every flow step or
/// finish follows its start. Returns the event count.
pub fn check_jsonl_events(input: &str) -> Result<usize, ObsError> {
    let (mut events, mut lines) = (Vec::new(), Vec::new());
    for (index, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let what = format!("line {}", index + 1);
        let Value::Object(obj) = parse_json(line)? else {
            return Err(schema_err(format!("{what}: not an object")));
        };
        events.push(decode_event(obj, &what)?);
        lines.push(index + 1);
    }
    let what = |i: usize| format!("line {}", lines[i]);
    if let Some(i) = events.windows(2).position(|w| w[1].ts < w[0].ts) {
        return Err(schema_err(format!("{}: timestamp decreased", what(i + 1))));
    }
    check_causality(&events, what)?;
    Ok(events.len())
}

/// Validates a Chrome `trace_event` document (the `--trace` output):
/// envelope shape, per-event schema, span balance per thread lane and
/// causal-edge integrity. Returns the event count.
pub fn check_chrome_trace(input: &str) -> Result<usize, ObsError> {
    decode_chrome_trace(input).map(|events| events.len())
}

/// Validates a metrics snapshot document (the `--metrics` output) with the
/// decoder [`MetricsSnapshot::from_json`] runs, short of interning its
/// names: schema marker, integer counters/gauges, and internally
/// consistent histograms (counts length = bounds length + 1, bucket totals
/// = count).
///
/// [`MetricsSnapshot::from_json`]: crate::MetricsSnapshot::from_json
pub fn check_metrics_snapshot(input: &str) -> Result<(), ObsError> {
    SnapshotDoc::decode(input).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricsSnapshot, DEFAULT_BOUNDS};
    use crate::recorder::{ObsOptions, Recorder};
    use crate::sink::{write_chrome_trace, write_jsonl};

    fn recorded_events() -> Vec<crate::event::Event> {
        let rec = Recorder::new(ObsOptions::logical());
        {
            let _pipeline = rec.span("pipeline", "run");
            let _phase = rec.span_args("pipeline", "alignment", &[("pairs", 3)]);
            rec.instant("dist", "crash", &[("node", 2)]);
            rec.counter_sample("partition", "edge_cut", 17);
            let flow = rec.flow_start("dist", "msg", &[("rank", 1)]);
            rec.flow_step(flow, &[("attempt", 1)]);
            rec.flow_end(flow, &[]);
        }
        rec.events()
    }

    #[test]
    fn parser_round_trips_basic_values() {
        let v = parse_json("{\"a\": [1, -2, \"x\\n\"], \"b\": {\"c\": true}}")
            .expect("valid JSON parses");
        let Value::Object(obj) = v else {
            panic!("not an object: {v:?}");
        };
        assert_eq!(
            obj.get("a"),
            Some(&Value::Array(vec![
                Value::Int(1),
                Value::Int(-2),
                Value::Str("x\n".to_string())
            ]))
        );
    }

    #[test]
    fn strings_keep_multibyte_text_and_escapes() {
        let v = parse_json("\"µs → \\\"tick\\\" \\u00e9\"").expect("parses");
        assert_eq!(v, Value::Str("µs → \"tick\" é".to_string()));
        assert!(parse_json("\"open").is_err());
        // Four hex digits, no sign (`from_str_radix` alone takes a `+`).
        assert!(parse_json("\"\\u+041\"").is_err());
        assert!(parse_json("\"\\u00\"").is_err());
    }

    /// Nesting is bounded: 64 levels parse, 65 and a 100 000-deep document
    /// are typed parse errors instead of a stack overflow.
    #[test]
    fn nesting_deeper_than_the_bound_is_a_parse_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).expect_err("65 levels refused");
        assert_eq!(
            err,
            ObsError::Parse {
                offset: MAX_DEPTH,
                expected: "at most 64 levels of nesting"
            }
        );
        let deep = "[".repeat(100_000);
        assert!(matches!(parse_json(&deep), Err(ObsError::Parse { .. })));
        let objects = "{\"a\": ".repeat(100_000);
        assert!(matches!(parse_json(&objects), Err(ObsError::Parse { .. })));
        assert!(matches!(
            check_metrics_snapshot(&deep),
            Err(ObsError::Parse { .. })
        ));
        assert!(matches!(
            check_chrome_trace(&objects),
            Err(ObsError::Parse { .. })
        ));
    }

    /// Parsing is linear in the input: a 1 MiB string value takes
    /// milliseconds, so a bound of one second leaves room for a slow host
    /// and still fails a parser that is quadratic in the string's length.
    #[test]
    fn a_long_string_parses_in_linear_time() {
        let long = format!("\"{}\"", "a".repeat(1 << 20));
        let start = std::time::Instant::now();
        let v = parse_json(&long).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(v, Value::Str("a".repeat(1 << 20)));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("1.5").is_err(), "floats are rejected by design");
    }

    #[test]
    fn integers_parse_only_in_the_emitted_spelling() {
        for text in ["012", "-01", "-0", "00", "[1, 007]"] {
            assert!(
                matches!(parse_json(text), Err(ObsError::Parse { .. })),
                "{text} accepted"
            );
        }
        for (text, n) in [("0", 0), ("10", 10), ("-10", -10)] {
            assert_eq!(parse_json(text).expect(text), Value::Int(n));
        }
    }

    #[test]
    fn sink_outputs_validate() {
        let events = recorded_events();
        let n = check_jsonl_events(&write_jsonl(&events)).expect("valid JSONL");
        assert_eq!(n, events.len());
        let n = check_chrome_trace(&write_chrome_trace(&events)).expect("valid trace");
        assert_eq!(n, events.len());
    }

    #[test]
    fn snapshot_json_validates() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("align.candidates", 7);
        s.gauges.insert("align.band", -1);
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(12);
        s.histograms.insert("align.overlap_len", h);
        check_metrics_snapshot(&s.to_json()).expect("valid snapshot");
        check_metrics_snapshot(&MetricsSnapshot::default().to_json())
            .expect("empty snapshot is valid");
    }

    #[test]
    fn unbalanced_spans_are_rejected() {
        let jsonl = "{\"ts\": 0, \"tid\": 1, \"ph\": \"B\", \"cat\": \"c\", \"name\": \"open\", \"args\": {}}\n";
        let err = check_jsonl_events(jsonl).expect_err("unclosed span rejected");
        assert!(matches!(err, ObsError::Schema { .. }));

        let jsonl = "{\"ts\": 0, \"tid\": 1, \"ph\": \"E\", \"cat\": \"c\", \"name\": \"x\", \"args\": {}}\n";
        assert!(check_jsonl_events(jsonl).is_err(), "stray end rejected");
    }

    #[test]
    fn mismatched_end_name_is_rejected() {
        let jsonl = concat!(
            "{\"ts\": 0, \"tid\": 1, \"ph\": \"B\", \"cat\": \"c\", \"name\": \"a\", \"args\": {}}\n",
            "{\"ts\": 1, \"tid\": 1, \"ph\": \"E\", \"cat\": \"c\", \"name\": \"b\", \"args\": {}}\n",
        );
        assert!(check_jsonl_events(jsonl).is_err());
    }

    #[test]
    fn decreasing_timestamps_are_rejected() {
        let jsonl = concat!(
            "{\"ts\": 5, \"tid\": 1, \"ph\": \"i\", \"cat\": \"c\", \"name\": \"a\", \"args\": {}}\n",
            "{\"ts\": 4, \"tid\": 1, \"ph\": \"i\", \"cat\": \"c\", \"name\": \"b\", \"args\": {}}\n",
        );
        assert!(check_jsonl_events(jsonl).is_err());
    }

    #[test]
    fn counter_event_without_value_is_rejected() {
        let jsonl = "{\"ts\": 0, \"tid\": 1, \"ph\": \"C\", \"cat\": \"c\", \"name\": \"x\", \"args\": {}}\n";
        assert!(check_jsonl_events(jsonl).is_err());
    }

    // Regression fixture: a trace whose `f` event references a flow id no
    // `s` event ever announced. Both checkers must reject it as a schema
    // error — a dangling causal edge would silently corrupt the profiler's
    // critical path.
    const DANGLING_FLOW_TRACE: &str = r#"{"displayTimeUnit": "ms", "traceEvents": [
{"ph": "B", "pid": 1, "tid": 1, "ts": 0, "id": 1, "cat": "dist", "name": "phase", "args": {}},
{"ph": "f", "pid": 1, "tid": 1, "ts": 1, "id": 99, "parent": 1, "bp": "e", "cat": "dist", "name": "msg", "args": {}},
{"ph": "E", "pid": 1, "tid": 1, "ts": 2, "id": 1, "cat": "dist", "name": "phase", "args": {}}
]}"#;

    #[test]
    fn dangling_flow_end_is_a_schema_error() {
        let err = check_chrome_trace(DANGLING_FLOW_TRACE).expect_err("dangling f rejected");
        assert!(err.to_string().contains("dangling causal edge"), "{err}");
    }

    #[test]
    fn dangling_flow_step_is_a_schema_error() {
        let jsonl = concat!(
            "{\"ts\": 0, \"tid\": 1, \"ph\": \"t\", \"id\": 7, \"cat\": \"dist\", \"name\": \"msg\", \"args\": {}}\n",
        );
        let err = check_jsonl_events(jsonl).expect_err("dangling t rejected");
        assert!(matches!(err, ObsError::Schema { .. }));
    }

    #[test]
    fn complete_flow_triples_validate() {
        let jsonl = concat!(
            "{\"ts\": 0, \"tid\": 1, \"ph\": \"s\", \"id\": 7, \"cat\": \"dist\", \"name\": \"msg\", \"args\": {}}\n",
            "{\"ts\": 1, \"tid\": 1, \"ph\": \"t\", \"id\": 7, \"cat\": \"dist\", \"name\": \"msg\", \"args\": {}}\n",
            "{\"ts\": 2, \"tid\": 1, \"ph\": \"f\", \"id\": 7, \"cat\": \"dist\", \"name\": \"msg\", \"args\": {}}\n",
        );
        assert_eq!(check_jsonl_events(jsonl).expect("valid flows"), 3);
    }

    #[test]
    fn flow_event_without_id_is_rejected() {
        let jsonl = "{\"ts\": 0, \"tid\": 1, \"ph\": \"s\", \"cat\": \"d\", \"name\": \"m\", \"args\": {}}\n";
        let err = check_jsonl_events(jsonl).expect_err("id-less flow rejected");
        assert!(err.to_string().contains("positive \"id\""), "{err}");
    }

    #[test]
    fn negative_id_or_parent_is_rejected() {
        let jsonl = "{\"ts\": 0, \"tid\": 1, \"ph\": \"i\", \"id\": -3, \"cat\": \"c\", \"name\": \"x\", \"args\": {}}\n";
        assert!(check_jsonl_events(jsonl).is_err());
        let jsonl = "{\"ts\": 0, \"tid\": 1, \"ph\": \"i\", \"parent\": -1, \"cat\": \"c\", \"name\": \"x\", \"args\": {}}\n";
        assert!(check_jsonl_events(jsonl).is_err());
    }

    #[test]
    fn histogram_consistency_is_enforced() {
        let bad = r#"{
  "schema": "focus-metrics-v1",
  "counters": {},
  "gauges": {},
  "histograms": {
    "h": {"count": 3, "sum": 1, "min": 1, "max": 1, "bounds": [1, 2], "counts": [1, 1, 0]}
  }
}"#;
        let err = check_metrics_snapshot(bad).expect_err("sum mismatch rejected");
        assert!(err.to_string().contains("bucket counts sum"));
    }

    #[test]
    fn wrong_schema_marker_is_rejected() {
        let bad = "{\"schema\": \"other\", \"counters\": {}, \"gauges\": {}, \"histograms\": {}}";
        assert!(check_metrics_snapshot(bad).is_err());
    }
}
