//! Equivalence oracle for fc-obs's readers of its own artifacts.
//!
//! `tests/data/obs/` holds a real trace, event stream and logical metrics
//! snapshot: the contract configuration (four partitions, the logical
//! clock, fault seed 42: rank crashes, message drops and recovery flows)
//! at two threads over 100 bp reads tiled every 50 bp over a 2 000-base
//! genome of seed 3. Each artifact is mutated under a fixed seed: byte
//! flips, truncations, dropped and renamed keys, deleted, duplicated and
//! swapped events, re-tagged phases, renamed `E`s, moved lanes, dangling
//! flow ids, decreasing timestamps, and histogram counts off by one. Every
//! reader's verdict on every mutant, and its output on every accepted one
//! (the decoded length, `profile_chrome_trace(..).to_json()`,
//! `MetricsSnapshot::from_json(..).to_json()`), is folded into one FNV-1a
//! digest per artifact. The pinned digests were taken from the readers as
//! they stood before they shared one decoder (the metrics digest since its
//! parser refuses leading zeros), so a reader that accepts or rejects one
//! mutant differently, or renders one accepted input differently, fails
//! here.

use fc_rng::Rng;
use focus_assembler::obs::{
    check_chrome_trace, check_jsonl_events, check_metrics_snapshot, profile_chrome_trace,
    MetricsSnapshot,
};

const TRACE: &str = include_str!("data/obs/trace.json");
const EVENTS: &str = include_str!("data/obs/events.jsonl");
const METRICS: &str = include_str!("data/obs/metrics.json");

/// Mutants per artifact (the unmutated artifact is mutant 0).
const MUTANTS: u64 = 600;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Where each `"key": ` of `text` opens its quote.
fn keys(text: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = text[from..].find("\": ") {
        let close = from + off;
        if let Some(open) = text[..close].rfind('"') {
            out.push(open);
        }
        from = close + 3;
    }
    out
}

/// The end of the JSON value that starts at `start` (the emitted formats
/// put no bracket inside a string).
fn value_end(text: &str, start: usize) -> usize {
    let b = text.as_bytes();
    match b.get(start) {
        Some(b'{' | b'[') => {
            let mut depth = 0usize;
            for (i, &c) in b[start..].iter().enumerate() {
                match c {
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return start + i + 1;
                        }
                    }
                    _ => {}
                }
            }
            b.len()
        }
        Some(b'"') => text[start + 1..]
            .find('"')
            .map_or(b.len(), |i| start + i + 2),
        _ => b[start..]
            .iter()
            .position(|&c| matches!(c, b',' | b'}' | b']' | b'\n'))
            .map_or(b.len(), |i| start + i),
    }
}

/// The key opening at `open`: its name's range and its value's range.
fn entry(text: &str, open: usize) -> (usize, usize, usize, usize) {
    let close = open + 1 + text[open + 1..].find('"').unwrap_or(0);
    let value = close + 3;
    (open + 1, close, value, value_end(text, value))
}

/// `text` without the entry whose key opens at `open`, and without the
/// comma that separated it from its neighbour.
fn drop_entry(text: &str, open: usize) -> String {
    let (_, _, _, end) = entry(text, open);
    match text[end..].strip_prefix(',') {
        Some(rest) => {
            let ws = rest.len() - rest.trim_start().len();
            format!("{}{}", &text[..open], &text[end + 1 + ws..])
        }
        None => {
            let before = text[..open].trim_end();
            let before = before.strip_suffix(',').unwrap_or(before);
            format!("{before}{}", &text[end..])
        }
    }
}

/// `text` with the value of its first `"field": ` replaced by `with`.
fn set_field(text: &str, field: &str, with: &str) -> Option<String> {
    let open = text.find(&format!("\"{field}\": "))?;
    let (_, _, start, end) = entry(text, open);
    Some(format!("{}{with}{}", &text[..start], &text[end..]))
}

/// The integer value of `field` in one event's text.
fn int_field(text: &str, field: &str) -> Option<i64> {
    let open = text.find(&format!("\"{field}\": "))?;
    let (_, _, start, end) = entry(text, open);
    text[start..end].parse().ok()
}

/// Mutations every artifact gets: byte-level damage and key edits.
fn mutate_text(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.below(bytes.len() as u64) as usize;
    match rng.below(5) {
        0 | 1 => {
            // A bit flip below the top bit keeps the (ASCII) text UTF-8.
            bytes[at] ^= 1 << rng.below(7);
            String::from_utf8(bytes).unwrap_or_default()
        }
        2 => text[..at].to_string(),
        3 => {
            let keys = keys(text);
            drop_entry(text, keys[rng.below(keys.len() as u64) as usize])
        }
        _ => {
            let keys = keys(text);
            let open = keys[rng.below(keys.len() as u64) as usize];
            let (name, close, _, _) = entry(text, open);
            let renamed = match rng.below(3) {
                0 => format!("{}_x", &text[name..close]),
                1 => text[name..close].to_uppercase(),
                // Another key of the document: a duplicate or a stranger.
                _ => {
                    let other = keys[rng.below(keys.len() as u64) as usize];
                    let (n, c, _, _) = entry(text, other);
                    text[n..c].to_string()
                }
            };
            format!("{}{renamed}{}", &text[..name], &text[close..])
        }
    }
}

/// Mutations of one event list: the structural faults the checkers look
/// for across events.
fn mutate_events(events: &mut Vec<String>, rng: &mut Rng) {
    let i = rng.below(events.len() as u64) as usize;
    match rng.below(9) {
        0 => {
            events.remove(i);
        }
        1 => {
            let copy = events[i].clone();
            events.insert(i, copy);
        }
        2 => {
            let j = (i + 1).min(events.len() - 1);
            events.swap(i, j);
        }
        3 => {
            let ph = ["B", "E", "i", "C", "s", "t", "f", "x"][rng.below(8) as usize];
            events[i] = set_field(&events[i], "ph", &format!("\"{ph}\"")).unwrap_or_default();
        }
        4 => {
            // An `E` that closes something else, or a stray one.
            let ends: Vec<usize> = (0..events.len())
                .filter(|&k| events[k].contains("\"ph\": \"E\""))
                .collect();
            let k = ends[rng.below(ends.len() as u64) as usize];
            if rng.bool(0.5) {
                events[k] = set_field(&events[k], "name", "\"other\"").unwrap_or_default();
            } else {
                let copy = events[k].clone();
                events.insert(k, copy);
            }
        }
        5 => {
            // A flow event pointing at an id no `s` announced, or a lost `s`.
            let flows: Vec<usize> = (0..events.len())
                .filter(|&k| {
                    ["s", "t", "f"]
                        .iter()
                        .any(|p| events[k].contains(&format!("\"ph\": \"{p}\"")))
                })
                .collect();
            let k = flows[rng.below(flows.len() as u64) as usize];
            if rng.bool(0.5) {
                let id = int_field(&events[k], "id").unwrap_or(0) + 1000;
                events[k] = set_field(&events[k], "id", &id.to_string()).unwrap_or_default();
            } else {
                events.remove(k);
            }
        }
        6 => {
            let ts = int_field(&events[i], "ts").unwrap_or(0);
            let ts = if rng.bool(0.5) { 0 } else { ts + 3 };
            events[i] = set_field(&events[i], "ts", &ts.to_string()).unwrap_or_default();
        }
        7 => {
            let tid = int_field(&events[i], "tid").unwrap_or(0) + 1;
            events[i] = set_field(&events[i], "tid", &tid.to_string()).unwrap_or_default();
        }
        _ => {
            let field = ["id", "parent", "args", "pid"][rng.below(4) as usize];
            let with = ["-1", "0", "\"7\"", "{\"value\": 1}", "{}"][rng.below(5) as usize];
            if let Some(e) = set_field(&events[i], field, with) {
                events[i] = e;
            }
        }
    }
}

/// The trace's header, its event lines and its footer.
fn split_trace(trace: &str) -> (&str, Vec<String>, &str) {
    let lines: Vec<&str> = trace.lines().collect();
    let events = lines[1..lines.len() - 1]
        .iter()
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();
    (lines[0], events, lines[lines.len() - 1])
}

fn trace_mutant(rng: &mut Rng) -> String {
    if rng.bool(0.5) {
        return mutate_text(TRACE, rng);
    }
    let (head, mut events, foot) = split_trace(TRACE);
    mutate_events(&mut events, rng);
    format!("{head}\n{}\n{foot}\n", events.join(",\n"))
}

fn events_mutant(rng: &mut Rng) -> String {
    if rng.bool(0.5) {
        return mutate_text(EVENTS, rng);
    }
    let mut events: Vec<String> = EVENTS.lines().map(str::to_string).collect();
    mutate_events(&mut events, rng);
    events.join("\n") + "\n"
}

fn metrics_mutant(rng: &mut Rng) -> String {
    if rng.bool(0.5) {
        return mutate_text(METRICS, rng);
    }
    let lines: Vec<&str> = METRICS.lines().collect();
    let hists: Vec<usize> = (0..lines.len())
        .filter(|&k| lines[k].contains("\"counts\": ["))
        .collect();
    let mut lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let k = hists[rng.below(hists.len() as u64) as usize];
    let line = &lines[k];
    let bump = |line: &str, field: &str, by: i64| -> String {
        let open = line.find(&format!("\"{field}\": ")).unwrap_or(0);
        let (_, _, start, end) = entry(line, open);
        let v: i64 = line[start..end].parse().unwrap_or(0);
        format!("{}{}{}", &line[..start], v + by, &line[end..])
    };
    // One element of `counts` or `bounds`, moved by `by`.
    let bump_in = |line: &str, array: &str, j: u64, by: i64| -> String {
        let open = line.find(&format!("\"{array}\": ")).unwrap_or(0);
        let (_, _, start, end) = entry(line, open);
        let mut items: Vec<i64> = line[start + 1..end - 1]
            .split(", ")
            .filter_map(|s| s.parse().ok())
            .collect();
        let j = j as usize % items.len().max(1);
        if let Some(x) = items.get_mut(j) {
            *x += by;
        }
        let items: Vec<String> = items.iter().map(i64::to_string).collect();
        format!("{}[{}]{}", &line[..start], items.join(", "), &line[end..])
    };
    let by = if rng.bool(0.5) { 1 } else { -1 };
    let j = rng.next_u64();
    lines[k] = match rng.below(4) {
        0 => bump(line, "count", by),
        1 => bump_in(line, "counts", j, by),
        // Bucket and total moved together: still consistent.
        2 => bump(&bump_in(line, "counts", j, 1), "count", 1),
        _ => bump_in(line, "bounds", j, by),
    };
    lines.join("\n") + "\n"
}

/// Judges `original` and `MUTANTS - 1` mutants of it drawn under `seed`,
/// and folds `judge`'s record of each into one digest; returns it with the
/// number of accepted inputs.
fn oracle(
    seed: u64,
    original: &str,
    mutant: fn(&mut Rng) -> String,
    judge: fn(&str) -> Vec<u8>,
) -> (u64, usize) {
    let mut rng = Rng::new(seed);
    let (mut digest, mut accepted) = (FNV_BASIS, 0);
    for i in 0..MUTANTS {
        let text = if i == 0 {
            original.to_string()
        } else {
            mutant(&mut rng)
        };
        let record = judge(&text);
        accepted += usize::from(record.first() == Some(&b'+'));
        digest = fnv(digest, &record);
    }
    (digest, accepted)
}

fn judge_trace(text: &str) -> Vec<u8> {
    let checked = check_chrome_trace(text);
    let profiled = profile_chrome_trace(text);
    assert!(
        profiled.is_err() || checked.is_ok(),
        "the profiler accepted a trace the checker refuses:\n{text}"
    );
    let mut record = match checked {
        Ok(n) => format!("+{n}"),
        Err(_) => "-".to_string(),
    };
    match profiled {
        Ok(report) => record.push_str(&report.to_json()),
        Err(_) => record.push('-'),
    }
    record.into_bytes()
}

fn judge_events(text: &str) -> Vec<u8> {
    match check_jsonl_events(text) {
        Ok(n) => format!("+{n}"),
        Err(_) => "-".to_string(),
    }
    .into_bytes()
}

fn judge_metrics(text: &str) -> Vec<u8> {
    let checked = check_metrics_snapshot(text);
    match MetricsSnapshot::from_json(text) {
        Ok(snapshot) => {
            assert!(
                checked.is_ok(),
                "from_json accepted what the checker refuses:\n{text}"
            );
            let json = snapshot.to_json();
            let again = MetricsSnapshot::from_json(&json).map(|s| s.to_json());
            assert_eq!(
                again.as_deref(),
                Ok(json.as_str()),
                "re-serialisation is a fixed point"
            );
            // `+=`: the accepted text was already the canonical rendering.
            let canonical = if json == text { "+=" } else { "+" };
            format!("{canonical}{json}").into_bytes()
        }
        Err(_) => {
            assert!(
                checked.is_err(),
                "the checker accepted what from_json refuses:\n{text}"
            );
            b"-".to_vec()
        }
    }
}

#[test]
fn the_unmutated_artifacts_are_accepted_and_round_trip() {
    assert!(check_chrome_trace(TRACE).is_ok());
    assert!(check_jsonl_events(EVENTS).is_ok());
    assert!(profile_chrome_trace(TRACE).is_ok());
    let snapshot = MetricsSnapshot::from_json(METRICS).expect("the fixture snapshot decodes");
    assert_eq!(snapshot.to_json(), METRICS);
}

#[test]
fn trace_readers_keep_every_verdict_and_report() {
    let (digest, accepted) = oracle(1, TRACE, trace_mutant, judge_trace);
    println!("trace: {accepted} of {MUTANTS} accepted, digest {digest:#018x}");
    assert_eq!((digest, accepted), (0x9227_a83c_0f94_4d7e, 168));
}

#[test]
fn event_stream_checker_keeps_every_verdict() {
    let (digest, accepted) = oracle(2, EVENTS, events_mutant, judge_events);
    println!("events: {accepted} of {MUTANTS} accepted, digest {digest:#018x}");
    assert_eq!((digest, accepted), (0x35cb_e58d_00d8_83f3, 139));
}

#[test]
fn metrics_readers_keep_every_verdict_and_rendering() {
    let (digest, accepted) = oracle(3, METRICS, metrics_mutant, judge_metrics);
    println!("metrics: {accepted} of {MUTANTS} accepted, digest {digest:#018x}");
    // Mutant 57 (a flip that spells a histogram count `00`) is refused
    // since the parser takes integers only as the emitter spells them.
    assert_eq!((digest, accepted), (0x536b_1095_7f72_ea67, 235));
}
