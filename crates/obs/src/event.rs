//! The structured event model: what one recorded moment looks like.
//!
//! Events map 1:1 onto Chrome `trace_event` phases so the trace sink is a
//! direct serialisation: `Begin`/`End` bracket a span, `Instant` marks a
//! point, `Counter` samples a time series (e.g. the edge-cut trajectory
//! during recursive bisection), and the flow phases `FlowStart`/
//! `FlowStep`/`FlowEnd` (`s`/`t`/`f`) carry **causal edges** between spans
//! — Perfetto draws them as arrows, and the `focus profile` critical-path
//! analyzer follows them across ranks and retries.

/// What kind of moment an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"` in `trace_event`).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`); the sampled value is in `args`.
    Counter,
    /// A causal edge departs (`ph: "s"`): the emitting span hands work to
    /// someone else (a message send, a checkpoint write a resume may
    /// later consume, a speculative backup launch).
    FlowStart,
    /// A causal edge passes through (`ph: "t"`): an intermediate hop such
    /// as a retransmission attempt.
    FlowStep,
    /// A causal edge arrives (`ph: "f"`): the receiving span's progress
    /// depended on the matching [`EventKind::FlowStart`].
    FlowEnd,
}

impl EventKind {
    /// The Chrome `trace_event` phase letter.
    pub fn phase(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
            EventKind::FlowStart => "s",
            EventKind::FlowStep => "t",
            EventKind::FlowEnd => "f",
        }
    }

    /// The kind a `trace_event` phase letter names.
    pub(crate) fn from_phase(ph: &str) -> Option<EventKind> {
        use EventKind::*;
        [Begin, End, Instant, Counter, FlowStart, FlowStep, FlowEnd]
            .into_iter()
            .find(|kind| kind.phase() == ph)
    }

    /// Whether this is one of the three flow phases, which carry a causal
    /// edge's id.
    pub(crate) fn is_flow(self) -> bool {
        matches!(
            self,
            EventKind::FlowStart | EventKind::FlowStep | EventKind::FlowEnd
        )
    }
}

/// One recorded event. Timestamps are microseconds since the recorder was
/// created (wall-clock mode) or a monotonically increasing logical tick
/// (logical-clock mode); `tid` is a process-local lane id assigned per OS
/// thread on first use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Timestamp (µs since recorder creation, or logical tick).
    pub ts: u64,
    /// Thread lane the event was recorded from.
    pub tid: u64,
    /// Category (pipeline layer): `"align"`, `"partition"`, `"dist"`, ….
    pub cat: &'static str,
    /// Event name, dot-scoped (`"align.overlap_all"`).
    pub name: &'static str,
    /// What kind of moment this is.
    pub kind: EventKind,
    /// Identity of the moment: the span id for `Begin`/`End`, the flow id
    /// for `s`/`t`/`f` (matching ids form one causal arrow), 0 for events
    /// that carry neither.
    pub id: u64,
    /// The span this event happened inside (the span open on the emitting
    /// lane at record time); 0 for root spans and span-less events. For
    /// `Begin` events this is the parent span link.
    pub parent: u64,
    /// Structured integer payload (counts, sizes, ids). Integer-only by
    /// design: serialisation stays byte-deterministic.
    pub args: Vec<(&'static str, i64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_match_trace_event_letters() {
        assert_eq!(EventKind::Begin.phase(), "B");
        assert_eq!(EventKind::End.phase(), "E");
        assert_eq!(EventKind::Instant.phase(), "i");
        assert_eq!(EventKind::Counter.phase(), "C");
        assert_eq!(EventKind::FlowStart.phase(), "s");
        assert_eq!(EventKind::FlowStep.phase(), "t");
        assert_eq!(EventKind::FlowEnd.phase(), "f");
    }

    #[test]
    fn from_phase_inverts_phase() {
        use EventKind::*;
        for kind in [Begin, End, Instant, Counter, FlowStart, FlowStep, FlowEnd] {
            assert_eq!(EventKind::from_phase(kind.phase()), Some(kind));
            assert_eq!(
                kind.is_flow(),
                matches!(kind, FlowStart | FlowStep | FlowEnd)
            );
        }
        assert_eq!(EventKind::from_phase("X"), None);
        assert_eq!(EventKind::from_phase(""), None);
    }
}
