//! The [`Recorder`] handle: cheap when disabled, thread-safe when enabled.
//!
//! Since the causal-tracing layer, every span carries a process-unique id
//! and a parent link (the span open on the same lane when it began), and
//! cross-thread/cross-rank causality is expressed with **flow edges**
//! ([`Recorder::flow_start`] / [`Recorder::flow_step`] /
//! [`Recorder::flow_end`]) that serialise as Chrome `trace_event` flow
//! phases. Causal metadata lives in the *event* sinks only — metric
//! snapshots ([`Recorder::snapshot_json`]) are untouched, so the
//! logical-clock determinism contract is unchanged.

use crate::event::{Event, EventKind};
use crate::metrics::{is_logical, Histogram, MetricsSnapshot, DEFAULT_BOUNDS};
use crate::sync::{Mutex, Rank};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Observability options, carried inside `FocusConfig` (which is `Copy`,
/// so this must be too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsOptions {
    /// Record events and metrics. Off (the default) makes every recorder
    /// call a no-op branch.
    pub enabled: bool,
    /// Timestamp events with a logical tick counter instead of wall-clock
    /// microseconds, and exclude `sched.*` metrics from
    /// [`Recorder::snapshot_json`] — the deterministic mode in which two
    /// runs at any thread count produce byte-identical snapshots.
    pub logical_clock: bool,
}

impl ObsOptions {
    /// Enabled, wall-clock timestamps (the profiling mode).
    pub fn wall_clock() -> ObsOptions {
        ObsOptions {
            enabled: true,
            logical_clock: false,
        }
    }

    /// Enabled, logical-clock timestamps (the deterministic mode).
    pub fn logical() -> ObsOptions {
        ObsOptions {
            enabled: true,
            logical_clock: true,
        }
    }
}

/// Process-wide thread-lane assignment: each OS thread gets a small stable
/// id on first use, shared across recorders. Lane ids order by first
/// recording, so they are *not* deterministic across runs — which is why
/// deterministic instrumentation only emits events from the orchestrating
/// thread, and worker threads record order-free metrics instead.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

fn lane() -> u64 {
    LANE.with(|l| *l)
}

/// One causal edge under construction: returned by
/// [`Recorder::flow_start`], consumed by [`Recorder::flow_step`] /
/// [`Recorder::flow_end`]. Chrome matches the `s`/`t`/`f` phases of one
/// arrow on (`cat`, `name`, `id`), so the handle carries all three; a
/// disabled recorder hands out [`Flow::NONE`] and every later call on it
/// is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Flow id shared by the `s`/`t`/`f` events of this edge; 0 = none.
    pub id: u64,
    /// Category the arrow is filed under.
    pub cat: &'static str,
    /// Name shared by every event of the arrow.
    pub name: &'static str,
}

impl Flow {
    /// The inert flow handle (disabled recorder, or "no causal edge").
    pub const NONE: Flow = Flow {
        id: 0,
        cat: "",
        name: "",
    };

    /// True when this handle carries no edge.
    pub fn is_none(self) -> bool {
        self.id == 0
    }
}

impl Default for Flow {
    fn default() -> Flow {
        Flow::NONE
    }
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    logical: bool,
    ticks: AtomicU64,
    /// Allocator for span and flow ids; 0 is reserved for "none".
    next_id: AtomicU64,
    /// Open-span stacks per lane: the top is the lane's current span.
    stacks: Mutex<BTreeMap<u64, Vec<u64>>>,
    metrics: Mutex<MetricsSnapshot>,
    events: Mutex<Vec<Event>>,
}

impl Inner {
    /// Appends one event. The timestamp is taken *under the events lock*,
    /// so recording order and timestamp order always agree — the schema
    /// checkers reject traces where they don't.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        kind: EventKind,
        cat: &'static str,
        name: &'static str,
        id: u64,
        parent: u64,
        tid: u64,
        args: Vec<(&'static str, i64)>,
    ) {
        let mut events = self.events.lock();
        let ts = if self.logical {
            self.ticks.fetch_add(1, Ordering::Relaxed)
        } else {
            self.start.elapsed().as_micros() as u64
        };
        events.push(Event {
            ts,
            tid,
            cat,
            name,
            kind,
            id,
            parent,
            args,
        });
    }

    fn current_span_of(&self, tid: u64) -> u64 {
        self.stacks
            .lock()
            .get(&tid)
            .and_then(|s| s.last())
            .copied()
            .unwrap_or(0)
    }
}

/// The instrumentation handle threaded through the pipeline.
///
/// Cloning shares the underlying store (an `Arc`), so one recorder created
/// at the pipeline entry serves every layer and thread. A disabled
/// recorder holds no store at all: every call is a `None` check.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// Creates a recorder per `options` (disabled options give the no-op
    /// recorder).
    pub fn new(options: ObsOptions) -> Recorder {
        if !options.enabled {
            return Recorder::disabled();
        }
        Recorder {
            inner: Some(Arc::new(Inner {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "fc-obs is the timing sink: wall-clock spans measure from \
                              this epoch, and a logical-clock recorder never reads it"
                )]
                start: Instant::now(),
                logical: options.logical_clock,
                ticks: AtomicU64::new(0),
                next_id: AtomicU64::new(1),
                stacks: Mutex::new(Rank::SpanStacks, BTreeMap::new()),
                metrics: Mutex::new(Rank::Metrics, MetricsSnapshot::default()),
                events: Mutex::new(Rank::Events, Vec::new()),
            })),
        }
    }

    /// The no-op recorder (also `Recorder::default()`).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether anything is being recorded. Callers with non-trivial
    /// aggregation work should branch on this before computing what they
    /// would record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether timestamps are logical ticks (the deterministic mode).
    pub fn is_logical(&self) -> bool {
        self.inner.as_ref().map(|i| i.logical).unwrap_or(false)
    }

    /// Adds `delta` to counter `name`, saturating.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut metrics = inner.metrics.lock();
            let slot = metrics.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(delta);
        }
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: i64) {
        if let Some(inner) = &self.inner {
            inner.metrics.lock().gauges.insert(name, value);
        }
    }

    /// Records `value` into histogram `name` with the default power-of-two
    /// buckets.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.observe_with(name, value, DEFAULT_BOUNDS);
    }

    /// Records `value` into histogram `name` with custom bucket bounds.
    /// The first `observe` of a name fixes its bounds; later calls with
    /// different bounds still record into the existing histogram.
    pub fn observe_with(&self, name: &'static str, value: u64, bounds: &'static [u64]) {
        if let Some(inner) = &self.inner {
            inner
                .metrics
                .lock()
                .histograms
                .entry(name)
                .or_insert_with(|| Histogram::new(bounds))
                .observe(value);
        }
    }

    /// Samples the process's peak resident-set size (`VmHWM`) into the
    /// `mem.peak_rss_bytes` gauge. Pure-std `/proc/self/status` read on
    /// Linux, a no-op elsewhere and when the recorder is disabled. The
    /// `mem.` prefix is excluded from logical-clock snapshots (memory use
    /// legitimately varies with thread count and allocator mood).
    pub fn sample_peak_rss(&self) {
        if self.is_enabled() {
            if let Some(bytes) = crate::mem::peak_rss_bytes() {
                self.gauge("mem.peak_rss_bytes", bytes.min(i64::MAX as u64) as i64);
            }
        }
    }

    /// Opens a span; the returned guard records the matching end event on
    /// drop. Spans nest naturally through drop order.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        self.span_args(cat, name, &[])
    }

    /// [`Recorder::span`] with a structured integer payload on the begin
    /// event. The span gets a fresh id and a parent link to the span
    /// currently open on this lane.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span_args(
        &self,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, i64)],
    ) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                inner: None,
                cat,
                name,
                id: 0,
                tid: 0,
            };
        };
        let tid = lane();
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut stacks = inner.stacks.lock();
            let stack = stacks.entry(tid).or_default();
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        };
        inner.record(EventKind::Begin, cat, name, id, parent, tid, args.to_vec());
        SpanGuard {
            inner: self.inner.as_deref(),
            cat,
            name,
            id,
            tid,
        }
    }

    /// Starts a causal edge (`ph: "s"`) out of the current span and
    /// returns its handle. Pass the handle (inside a message or a task) to
    /// wherever the work continues; the consumer calls
    /// [`Recorder::flow_step`]/[`Recorder::flow_end`] to complete the
    /// arrow.
    pub fn flow_start(
        &self,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, i64)],
    ) -> Flow {
        let Some(inner) = &self.inner else {
            return Flow::NONE;
        };
        let tid = lane();
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = inner.current_span_of(tid);
        inner.record(
            EventKind::FlowStart,
            cat,
            name,
            id,
            parent,
            tid,
            args.to_vec(),
        );
        Flow { id, cat, name }
    }

    /// Records an intermediate hop (`ph: "t"`) on `flow` — e.g. a
    /// retransmission attempt. No-op for [`Flow::NONE`].
    pub fn flow_step(&self, flow: Flow, args: &[(&'static str, i64)]) {
        if flow.is_none() {
            return;
        }
        if let Some(inner) = &self.inner {
            let tid = lane();
            let parent = inner.current_span_of(tid);
            inner.record(
                EventKind::FlowStep,
                flow.cat,
                flow.name,
                flow.id,
                parent,
                tid,
                args.to_vec(),
            );
        }
    }

    /// Terminates `flow` (`ph: "f"`) inside the current span: this span's
    /// progress causally followed from the flow's origin. No-op for
    /// [`Flow::NONE`].
    pub fn flow_end(&self, flow: Flow, args: &[(&'static str, i64)]) {
        if flow.is_none() {
            return;
        }
        if let Some(inner) = &self.inner {
            let tid = lane();
            let parent = inner.current_span_of(tid);
            inner.record(
                EventKind::FlowEnd,
                flow.cat,
                flow.name,
                flow.id,
                parent,
                tid,
                args.to_vec(),
            );
        }
    }

    /// Records a point event with a structured integer payload.
    pub fn instant(&self, cat: &'static str, name: &'static str, args: &[(&'static str, i64)]) {
        if let Some(inner) = &self.inner {
            let tid = lane();
            let parent = inner.current_span_of(tid);
            inner.record(EventKind::Instant, cat, name, 0, parent, tid, args.to_vec());
        }
    }

    /// Samples a counter time series (rendered as a counter track in
    /// Perfetto) — e.g. the edge-cut trajectory across bisection steps.
    pub fn counter_sample(&self, cat: &'static str, name: &'static str, value: i64) {
        if let Some(inner) = &self.inner {
            inner.record(
                EventKind::Counter,
                cat,
                name,
                0,
                0,
                lane(),
                vec![("value", value)],
            );
        }
    }

    /// A consistent copy of every metric recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => inner.metrics.lock().clone(),
        }
    }

    /// The canonical snapshot serialisation. In logical-clock mode only the
    /// logical metrics ([`MetricsSnapshot::logical`]) are written, which
    /// makes the output **byte-identical across thread counts, across
    /// crash/resume and across memory budgets** (the determinism
    /// contracts); in wall-clock mode everything is included.
    pub fn snapshot_json(&self) -> String {
        let snapshot = self.snapshot();
        if self.is_logical() {
            snapshot.logical().to_json()
        } else {
            snapshot.to_json()
        }
    }

    /// Replaces the recorded pipeline metrics with the contents of
    /// `snapshot` — the resume path: a checkpoint embeds the cumulative
    /// metrics of the run that wrote it, and loading it must leave the
    /// recorder exactly as if those phases had just executed. The
    /// recorder's own non-logical entries (`ckpt.*`, `sched.*`, `mem.*`)
    /// are kept (they describe *this* process's checkpoint traffic,
    /// scheduling and memory, which a restore must not falsify), and any
    /// such entries inside `snapshot` are ignored for the same reason.
    /// No-op when disabled.
    pub fn restore_metrics(&self, snapshot: &MetricsSnapshot) {
        let Some(inner) = &self.inner else {
            return;
        };
        let logical = snapshot.logical();
        let mut metrics = inner.metrics.lock();
        metrics.counters.retain(|k, _| !is_logical(k));
        metrics.counters.extend(logical.counters);
        metrics.gauges.retain(|k, _| !is_logical(k));
        metrics.gauges.extend(logical.gauges);
        metrics.histograms.retain(|k, _| !is_logical(k));
        metrics.histograms.extend(logical.histograms);
    }

    /// A copy of every event recorded so far, in recording order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.events.lock().clone(),
        }
    }
}

/// RAII guard for an open span; records the end event on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    inner: Option<&'a Inner>,
    cat: &'static str,
    name: &'static str,
    id: u64,
    tid: u64,
}

impl SpanGuard<'_> {
    /// The span's id (0 when the recorder is disabled) — what causal
    /// edges and resumed phases link against.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner {
            {
                let mut stacks = inner.stacks.lock();
                if let Some(stack) = stacks.get_mut(&self.tid) {
                    if let Some(pos) = stack.iter().rposition(|&x| x == self.id) {
                        stack.remove(pos);
                    }
                }
            }
            inner.record(
                EventKind::End,
                self.cat,
                self.name,
                self.id,
                0,
                self.tid,
                Vec::new(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.add("c", 1);
        rec.gauge("g", 2);
        rec.observe("h", 3);
        rec.instant("t", "x", &[("a", 1)]);
        rec.sample_peak_rss();
        let flow = rec.flow_start("t", "edge", &[]);
        assert!(flow.is_none());
        rec.flow_end(flow, &[]);
        {
            let _s = rec.span("t", "s");
        }
        assert!(rec.snapshot().is_empty());
        assert!(rec.events().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let rec = Recorder::new(ObsOptions::logical());
        rec.add("c", 2);
        rec.add("c", 3);
        rec.gauge("g", 1);
        rec.gauge("g", -7);
        rec.observe("h", 4);
        rec.observe("h", 5);
        let s = rec.snapshot();
        assert_eq!(s.counters.get("c"), Some(&5));
        assert_eq!(s.gauges.get("g"), Some(&-7));
        let h = s.histograms.get("h").expect("histogram recorded");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 9);
    }

    #[test]
    fn counters_saturate() {
        let rec = Recorder::new(ObsOptions::logical());
        rec.add("c", u64::MAX);
        rec.add("c", 10);
        assert_eq!(rec.snapshot().counters.get("c"), Some(&u64::MAX));
    }

    #[test]
    fn spans_emit_balanced_begin_end_with_logical_timestamps() {
        let rec = Recorder::new(ObsOptions::logical());
        {
            let _outer = rec.span_args("cat", "outer", &[("k", 9)]);
            let _inner = rec.span("cat", "inner");
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [
                EventKind::Begin,
                EventKind::Begin,
                EventKind::End,
                EventKind::End
            ]
        );
        // Drop order closes inner before outer.
        assert_eq!(events[2].name, "inner");
        assert_eq!(events[3].name, "outer");
        // Logical clock: strictly increasing ticks starting at 0.
        let ts: Vec<u64> = events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![0, 1, 2, 3]);
        assert_eq!(events[0].args, vec![("k", 9)]);
    }

    #[test]
    fn spans_carry_ids_and_parent_links() {
        let rec = Recorder::new(ObsOptions::logical());
        let (outer_id, inner_id) = {
            let outer = rec.span("cat", "outer");
            let inner = rec.span("cat", "inner");
            (outer.id(), inner.id())
        };
        assert_ne!(outer_id, 0);
        assert_ne!(inner_id, 0);
        assert_ne!(outer_id, inner_id);
        // Both closed: the next span is a root again.
        drop(rec.span("cat", "after"));
        let events = rec.events();
        // Begin outer: root (parent 0); begin inner: parent = outer.
        assert_eq!(events[0].id, outer_id);
        assert_eq!(events[0].parent, 0);
        assert_eq!(events[1].id, inner_id);
        assert_eq!(events[1].parent, outer_id);
        // Ends reference the same ids.
        assert_eq!(events[2].id, inner_id);
        assert_eq!(events[3].id, outer_id);
        assert_eq!(events[4].parent, 0);
    }

    #[test]
    fn flow_edges_share_identity_and_bind_to_enclosing_spans() {
        let rec = Recorder::new(ObsOptions::logical());
        let flow;
        let origin_id;
        {
            let origin = rec.span("dist", "send_side");
            origin_id = origin.id();
            flow = rec.flow_start("dist", "msg", &[("rank", 3)]);
            assert!(!flow.is_none());
        }
        let consumer_id;
        {
            let consumer = rec.span("dist", "recv_side");
            consumer_id = consumer.id();
            rec.flow_step(flow, &[("attempt", 2)]);
            rec.flow_end(flow, &[]);
        }
        let events = rec.events();
        let s = events
            .iter()
            .find(|e| e.kind == EventKind::FlowStart)
            .unwrap();
        let t = events
            .iter()
            .find(|e| e.kind == EventKind::FlowStep)
            .unwrap();
        let f = events
            .iter()
            .find(|e| e.kind == EventKind::FlowEnd)
            .unwrap();
        assert_eq!(s.id, flow.id);
        assert_eq!(t.id, flow.id);
        assert_eq!(f.id, flow.id);
        // Same (cat, name) triple so Perfetto draws one arrow.
        assert_eq!((s.cat, s.name), ("dist", "msg"));
        assert_eq!((f.cat, f.name), ("dist", "msg"));
        // Bound to the spans they were emitted inside.
        assert_eq!(s.parent, origin_id);
        assert_eq!(t.parent, consumer_id);
        assert_eq!(f.parent, consumer_id);
    }

    #[test]
    fn instants_record_their_enclosing_span() {
        let rec = Recorder::new(ObsOptions::logical());
        let id = {
            let span = rec.span("cat", "outer");
            rec.instant("cat", "marker", &[]);
            span.id()
        };
        let events = rec.events();
        let marker = events
            .iter()
            .find(|e| e.kind == EventKind::Instant)
            .unwrap();
        assert_eq!(marker.parent, id);
    }

    #[test]
    fn clones_share_the_store() {
        let rec = Recorder::new(ObsOptions::logical());
        let other = rec.clone();
        other.add("c", 1);
        assert_eq!(rec.snapshot().counters.get("c"), Some(&1));
    }

    #[test]
    fn logical_snapshot_json_excludes_sched_metrics() {
        let rec = Recorder::new(ObsOptions::logical());
        rec.add("exec.tasks", 4);
        rec.add("sched.exec.dispatches", 2);
        let json = rec.snapshot_json();
        assert!(json.contains("exec.tasks"));
        assert!(!json.contains("sched.exec.dispatches"));

        let wall = Recorder::new(ObsOptions::wall_clock());
        wall.add("sched.exec.dispatches", 2);
        assert!(wall.snapshot_json().contains("sched.exec.dispatches"));
    }

    #[test]
    fn logical_snapshot_json_excludes_ckpt_metrics() {
        let rec = Recorder::new(ObsOptions::logical());
        rec.add("focus.contigs", 4);
        rec.add("ckpt.saved", 2);
        let json = rec.snapshot_json();
        assert!(json.contains("focus.contigs"));
        assert!(!json.contains("ckpt.saved"));

        let wall = Recorder::new(ObsOptions::wall_clock());
        wall.add("ckpt.saved", 2);
        assert!(wall.snapshot_json().contains("ckpt.saved"));
    }

    #[test]
    fn logical_snapshot_json_excludes_mem_metrics() {
        let rec = Recorder::new(ObsOptions::logical());
        rec.add("focus.contigs", 4);
        rec.gauge("mem.peak_rss_bytes", 123456);
        let json = rec.snapshot_json();
        assert!(json.contains("focus.contigs"));
        assert!(!json.contains("mem.peak_rss_bytes"));

        let wall = Recorder::new(ObsOptions::wall_clock());
        wall.gauge("mem.peak_rss_bytes", 123456);
        assert!(wall.snapshot_json().contains("mem.peak_rss_bytes"));
    }

    /// The verifier's counters are functions of the input like any other
    /// `align.*` counter, so the logical snapshot carries them.
    #[test]
    fn logical_snapshot_json_includes_prefilter_metrics() {
        let rec = Recorder::new(ObsOptions::logical());
        rec.add("align.prefilter.rejected", 3);
        rec.add("align.prefilter.verified", 2);
        rec.add("align.kernel.exact_hits", 1);
        let json = rec.snapshot_json();
        for name in [
            "align.prefilter.rejected",
            "align.prefilter.verified",
            "align.kernel.exact_hits",
        ] {
            assert!(json.contains(name), "{name} missing from {json}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sample_peak_rss_records_a_positive_gauge_on_linux() {
        let rec = Recorder::new(ObsOptions::wall_clock());
        rec.sample_peak_rss();
        let v = rec
            .snapshot()
            .gauges
            .get("mem.peak_rss_bytes")
            .copied()
            .expect("VmHWM is readable on Linux");
        assert!(v > 0);
    }

    #[test]
    fn restore_metrics_replaces_pipeline_metrics_and_keeps_local_bookkeeping() {
        let saved = {
            let rec = Recorder::new(ObsOptions::logical());
            rec.add("align.pairs", 100);
            rec.gauge("focus.k", 4);
            rec.observe("h", 3);
            rec.snapshot()
        };
        let rec = Recorder::new(ObsOptions::logical());
        rec.add("align.pairs", 1); // stale partial value, must be replaced
        rec.add("stale.other", 5); // not in the snapshot, must vanish
        rec.add("ckpt.loaded", 1); // this process's bookkeeping, must stay
        rec.add("sched.exec.dispatches", 2);
        rec.gauge("mem.peak_rss_bytes", 777); // this process's memory, must stay
        rec.restore_metrics(&saved);
        let s = rec.snapshot();
        assert_eq!(s.counters.get("align.pairs"), Some(&100));
        assert_eq!(s.counters.get("stale.other"), None);
        assert_eq!(s.counters.get("ckpt.loaded"), Some(&1));
        assert_eq!(s.counters.get("sched.exec.dispatches"), Some(&2));
        assert_eq!(s.gauges.get("mem.peak_rss_bytes"), Some(&777));
        assert_eq!(s.gauges.get("focus.k"), Some(&4));
        assert_eq!(s.histograms.get("h").map(|h| h.count), Some(1));
    }

    #[test]
    fn restore_then_snapshot_json_matches_the_source_recorder() {
        let src = Recorder::new(ObsOptions::logical());
        src.add("a.one", 1);
        src.add("align.prefilter.rejected", 5);
        src.gauge("b.two", -2);
        src.observe("c.three", 9);
        let parsed =
            crate::MetricsSnapshot::from_json(&src.snapshot_json()).expect("own output parses");
        let dst = Recorder::new(ObsOptions::logical());
        dst.add("ckpt.loaded", 1);
        dst.restore_metrics(&parsed);
        assert_eq!(dst.snapshot_json(), src.snapshot_json());
    }

    #[test]
    fn threaded_recording_is_safe_and_complete() {
        let rec = Recorder::new(ObsOptions::logical());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        rec.add("c", 1);
                        rec.observe("h", 7);
                    }
                });
            }
        });
        let s = rec.snapshot();
        assert_eq!(s.counters.get("c"), Some(&4000));
        assert_eq!(s.histograms.get("h").map(|h| h.count), Some(4000));
    }
}
