//! Harness-side spans: the benchmark times the calls it makes into each
//! layer from outside, so no product crate carries a timer for it.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! lane (thread) it ran on. Spans are kept in memory and written when the
//! traced run ends.

use crate::json::{obj, Value};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// 0 is the thread that created the tracer; workers count from 1.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    // Relaxed: the counter hands out unique ids and publishes nothing.
    next_id: AtomicU32,
    home: std::thread::ThreadId,
    lanes: Mutex<Vec<std::thread::ThreadId>>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            home: std::thread::current().id(),
            lanes: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lane(&self) -> u32 {
        let me = std::thread::current().id();
        if me == self.home {
            return 0;
        }
        let mut lanes = self.lanes.lock().expect("a span closure panicked");
        let index = lanes.iter().position(|&t| t == me).unwrap_or_else(|| {
            lanes.push(me);
            lanes.len() - 1
        });
        index as u32 + 1
    }

    /// Runs `f` inside a span caused by `parent`. `f` receives the new
    /// span's id, to pass on as the parent of what it calls.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let lane = self.lane();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span closure panicked")
            .push(Span {
                id,
                parent,
                name,
                lane,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every finished span, ordered by start.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("a span closure panicked");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// A span's self time: its duration minus the part of it that its child
/// spans on the same lane cover. Children on other lanes ran beside it and
/// take nothing from it.
pub fn self_seconds(span: &Span, all: &[Span]) -> f64 {
    let mut children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id) && c.lane == span.lane)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    children.sort_unstable();
    let (mut covered, mut reach) = (0u64, span.start_ns);
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns - covered) as f64 / 1e9
}

/// Total seconds of the spans called `name`.
pub fn total_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// Longest single span called `name`.
pub fn max_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .fold(0.0, f64::max)
}

/// Chrome trace-event JSON (`X` events, microseconds), which Perfetto and
/// `chrome://tracing` load. `id` and `parent` ride in `args`.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            obj([
                ("name", Value::from(s.name)),
                (
                    "cat",
                    Value::from(s.name.split('.').next().unwrap_or(s.name)),
                ),
                ("ph", Value::from("X")),
                ("pid", Value::from(1u64)),
                ("tid", Value::from(u64::from(s.lane))),
                ("ts", Value::from(s.start_ns as f64 / 1e3)),
                ("dur", Value::from((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    obj([
                        ("id", Value::from(u64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::from("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, lane: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            lane,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, None, 0, 0, 1000),
            span(2, Some(1), 0, 100, 400),
            span(3, Some(1), 0, 500, 900),
            span(4, Some(2), 0, 150, 250),
            // Beside the root on a worker lane: takes nothing from it.
            span(5, Some(1), 1, 0, 1000),
        ];
        let secs = |id: SpanId| self_seconds(spans.iter().find(|s| s.id == id).unwrap(), &spans);
        assert_eq!(secs(1), 300e-9);
        assert_eq!(secs(2), 200e-9);
        assert_eq!(secs(3), 400e-9);
        assert_eq!(secs(4), 100e-9);
        assert_eq!(secs(5), 1000e-9);
        // Lane 0 self times add up to the root exactly.
        let lane0: f64 = spans
            .iter()
            .filter(|s| s.lane == 0)
            .map(|s| self_seconds(s, &spans))
            .sum();
        assert!((lane0 - spans[0].seconds()).abs() < 1e-15);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let spans = vec![
            span(1, None, 0, 100, 200),
            span(2, Some(1), 0, 110, 150),
            span(3, Some(1), 0, 140, 160),
            span(4, Some(1), 0, 190, 260),
        ];
        // Cover: 110..160 and 190..200.
        assert_eq!(self_seconds(&spans[0], &spans), 40e-9);
    }

    #[test]
    fn tracer_links_children_and_numbers_worker_lanes() {
        let tracer = Tracer::new();
        tracer.span("root", None, |root| {
            tracer.span("child", Some(root), |_| {});
            std::thread::scope(|scope| {
                scope.spawn(|| tracer.span("worker", Some(root), |_| {}));
            });
        });
        let spans = tracer.finish();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(spans[0].name, "root");
        assert_eq!(by_name("child").parent, Some(by_name("root").id));
        assert_eq!((by_name("child").lane, by_name("worker").lane), (0, 1));
        assert!(by_name("root").end_ns >= by_name("worker").end_ns);
        let trace = chrome_trace(&spans);
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].text("ph").unwrap(), "X");
        assert_eq!(
            events[1].get("args").unwrap().num("parent").unwrap(),
            f64::from(by_name("root").id)
        );
        assert_eq!(total_seconds(&spans, "child"), by_name("child").seconds());
    }
}
