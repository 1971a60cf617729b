//! Counters, gauges and fixed-bucket histograms, plus the deterministic
//! [`MetricsSnapshot`] serialisation.

use crate::json::{push_json_key, push_json_str};
use crate::schema::{self, schema_err, ObsError, Value};
use crate::sync::{Mutex, Rank};
use std::collections::{BTreeMap, BTreeSet};

/// Default histogram bucket upper bounds: powers of two from 1 to 2³⁰.
/// Values above the last bound land in the overflow bucket. Powers of two
/// keep the bucket count small while spanning everything the pipeline
/// observes, from per-pair overlap counts to DP cell totals.
pub const DEFAULT_BOUNDS: &[u64] = &[
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
];

/// A fixed-bucket histogram: `counts[i]` holds observations `v` with
/// `v <= bounds[i]` (and `v > bounds[i-1]`); the final slot is the
/// overflow bucket for values above every bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Ascending, inclusive upper bounds.
    pub bounds: &'static [u64],
    /// Per-bucket observation counts; `bounds.len() + 1` entries, the last
    /// being the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        // First bound >= value; equal values belong to the lower bucket
        // (bounds are inclusive), which is exactly what partition_point
        // gives over the predicate `bound < value`.
        let bucket = self.bounds.partition_point(|&b| b < value);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Integer mean of the observations (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `num/den` quantile, derived from the bucket counts: the upper
    /// bound of the bucket containing the ⌈count·num/den⌉-th observation,
    /// clamped into `[min, max]` so the estimate never leaves the observed
    /// range. Integer-only and deterministic; 0 when empty.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 || den == 0 {
            return 0;
        }
        let rank = self.count.saturating_mul(num).div_ceil(den).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                let estimate = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: the best bound we have is the max.
                    self.max
                };
                return estimate.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(50, 100)
    }

    /// 90th-percentile estimate (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile(90, 100)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(99, 100)
    }
}

/// The reserved name prefixes of the three non-logical metric classes (see
/// [`MetricsSnapshot::logical`]).
const NON_LOGICAL_PREFIXES: [&str; 3] = ["sched.", "ckpt.", "mem."];

/// Whether `name` is a logical metric: under none of the reserved
/// prefixes.
pub(crate) fn is_logical(name: &str) -> bool {
    !NON_LOGICAL_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// An immutable, ordered snapshot of every metric a [`Recorder`] holds.
/// `BTreeMap` keys make iteration — and therefore serialisation — fully
/// deterministic.
///
/// [`Recorder`]: crate::Recorder
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// A copy keeping only the metrics `keep` accepts.
    fn filtered(&self, keep: impl Fn(&str) -> bool) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(&k, &v)| (k, v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(&k, &v)| (k, v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(&k, v)| (k, v.clone()))
                .collect(),
        }
    }

    /// A copy keeping only the logical metrics — each a function of the
    /// input and the config alone, equal at any thread count, budget or
    /// resume history. It is the view the logical-clock determinism
    /// contracts byte-compare, and what a checkpoint carries. Three classes
    /// of metric no result depends on are dropped, by reserved prefix:
    ///
    /// * `sched.` — the schedule itself (dispatches, per-worker busy
    ///   time), which varies with the thread count and machine load;
    /// * `ckpt.` — checkpoint saves, loads, rejections and degradations,
    ///   which differ between an uninterrupted and a resumed run;
    /// * `mem.` — resident-set sizes and budget ledgers, which vary with
    ///   the thread count, the allocator, the platform and the budget.
    pub fn logical(&self) -> MetricsSnapshot {
        self.filtered(is_logical)
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Deterministic JSON serialisation: keys sorted (BTreeMap order),
    /// integers only, fixed layout. Two snapshots with equal contents
    /// serialise to byte-identical strings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"focus-metrics-v1\",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_key(&mut out, k);
            out.push_str(&v.to_string());
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_key(&mut out, k);
            out.push_str(&v.to_string());
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            push_json_key(&mut out, k);
            out.push('{');
            out.push_str(&format!(
                "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, ",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max
            ));
            push_json_str(&mut out, "bounds");
            out.push_str(": [");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&b.to_string());
            }
            out.push_str("], ");
            push_json_str(&mut out, "counts");
            out.push_str(": [");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.to_string());
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a document produced by [`MetricsSnapshot::to_json`] back into
    /// a snapshot. This is the one strict decoder of the format, and
    /// [`crate::check_metrics_snapshot`] runs it too: a corrupted,
    /// mistyped or inconsistent document is a typed [`ObsError`], never a
    /// partial snapshot or a zero. Only a document that decodes whole has
    /// its metric names and histogram bounds interned process-wide (the
    /// recorder stores `&'static str` names), bounded by the number of
    /// *distinct* names ever restored.
    ///
    /// `from_json(to_json(s))` reproduces `s` exactly; this is what makes
    /// a recorder restored from a checkpoint serialise byte-identically to
    /// the recorder of an uninterrupted run.
    pub fn from_json(input: &str) -> Result<MetricsSnapshot, ObsError> {
        let doc = SnapshotDoc::decode(input)?;
        Ok(MetricsSnapshot {
            counters: doc
                .counters
                .into_iter()
                .map(|(k, v)| (intern_name(&k), v))
                .collect(),
            gauges: doc
                .gauges
                .into_iter()
                .map(|(k, v)| (intern_name(&k), v))
                .collect(),
            histograms: doc
                .histograms
                .into_iter()
                .map(|(k, bounds, h)| {
                    let bounds = intern_bounds(&bounds);
                    (intern_name(&k), Histogram { bounds, ..h })
                })
                .collect(),
        })
    }
}

/// A checked metrics snapshot document whose names and histogram bounds
/// are not interned yet: where [`crate::check_metrics_snapshot`] stops,
/// and what [`MetricsSnapshot::from_json`] interns.
pub(crate) struct SnapshotDoc {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    /// Each histogram with its bounds; its own `bounds` field is empty
    /// until they are interned.
    histograms: Vec<(String, Vec<u64>, Histogram)>,
}

impl SnapshotDoc {
    /// Parses `input` once and checks it whole: the schema marker, the
    /// three sections, non-negative counters, integer gauges, and every
    /// histogram's consistency.
    pub(crate) fn decode(input: &str) -> Result<SnapshotDoc, ObsError> {
        let Value::Object(mut root) = schema::parse_json(input)? else {
            return Err(schema_err("metrics root must be an object"));
        };
        let marker = root.get("schema").and_then(Value::as_str);
        if marker != Some("focus-metrics-v1") {
            return Err(schema_err(format!(
                "expected schema \"focus-metrics-v1\", got {marker:?}"
            )));
        }
        let mut section = |name: &str| match root.remove(name) {
            Some(Value::Object(entries)) => Ok(entries),
            _ => Err(schema_err(format!("{name:?} must be an object"))),
        };
        let (counters, gauges, histograms) = (
            section("counters")?,
            section("gauges")?,
            section("histograms")?,
        );
        let counters = counters
            .into_iter()
            .map(|(k, v)| match v {
                Value::Int(i) if i >= 0 => Ok((k, i as u64)),
                _ => Err(schema_err(format!(
                    "counter {k:?} must be a non-negative integer"
                ))),
            })
            .collect::<Result<_, _>>()?;
        let gauges = gauges
            .into_iter()
            .map(|(k, v)| match v {
                Value::Int(i) => Ok((k, i)),
                _ => Err(schema_err(format!("gauge {k:?} must be an integer"))),
            })
            .collect::<Result<_, _>>()?;
        let histograms = histograms
            .into_iter()
            .map(|(k, v)| {
                let (bounds, h) = decode_histogram(&k, v)?;
                Ok((k, bounds, h))
            })
            .collect::<Result<_, ObsError>>()?;
        Ok(SnapshotDoc {
            counters,
            gauges,
            histograms,
        })
    }
}

/// One histogram entry, checked: integer `count`, `sum`, `min` and `max`
/// (none negative), strictly ascending non-negative `bounds`, one more
/// non-negative bucket count than bounds, and bucket counts summing to
/// `count`. Returns the bounds beside the histogram, whose own `bounds`
/// stay empty.
fn decode_histogram(name: &str, value: Value) -> Result<(Vec<u64>, Histogram), ObsError> {
    let err = |detail: &str| schema_err(format!("histogram {name:?}: {detail}"));
    let Value::Object(mut h) = value else {
        return Err(schema_err(format!("histogram {name:?} must be an object")));
    };
    let Some(&Value::Int(count)) = h.get("count") else {
        return Err(err("missing \"count\""));
    };
    let Some(Value::Array(bounds)) = h.remove("bounds") else {
        return Err(err("missing \"bounds\""));
    };
    let Some(Value::Array(counts)) = h.remove("counts") else {
        return Err(err("missing \"counts\""));
    };
    if counts.len() != bounds.len() + 1 {
        return Err(err(&format!(
            "counts length {} != bounds length {} + 1",
            counts.len(),
            bounds.len()
        )));
    }
    let uints = |items: Vec<Value>| {
        items
            .into_iter()
            .map(|v| match v {
                Value::Int(i) if i >= 0 => Some(i as u64),
                _ => None,
            })
            .collect::<Option<Vec<u64>>>()
    };
    let bounds = uints(bounds)
        .filter(|b| b.windows(2).all(|w| w[0] < w[1]))
        .ok_or_else(|| err("bounds must be strictly ascending non-negative integers"))?;
    let counts = uints(counts).ok_or_else(|| err("counts must be non-negative integers"))?;
    let total = counts
        .iter()
        .fold(0i64, |total, &c| total.saturating_add(c as i64));
    if total != count {
        return Err(err(&format!(
            "bucket counts sum to {total}, \"count\" says {count}"
        )));
    }
    let field = |key: &str| match h.get(key) {
        Some(&Value::Int(v)) if v >= 0 => Ok(v as u64),
        _ => Err(err(&format!("{key:?} must be a non-negative integer"))),
    };
    let (sum, min, max) = (field("sum")?, field("min")?, field("max")?);
    let count = count as u64;
    let histogram = Histogram {
        bounds: &[],
        counts,
        count,
        sum,
        // `to_json` writes min = 0 for an empty histogram; the in-memory
        // empty sentinel is u64::MAX.
        min: if count == 0 { u64::MAX } else { min },
        max,
    };
    Ok((bounds, histogram))
}

/// Process-wide metric-name interner: restored snapshots need `&'static
/// str` keys like live-recorded ones. Leaks are bounded by the number of
/// distinct names ever restored.
fn intern_name(name: &str) -> &'static str {
    static REGISTRY: Mutex<BTreeSet<&'static str>> = Mutex::new(Rank::MetricNames, BTreeSet::new());
    let mut reg = REGISTRY.lock();
    if let Some(&interned) = reg.get(name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    reg.insert(leaked);
    leaked
}

/// Process-wide histogram-bounds interner; [`DEFAULT_BOUNDS`] needs no
/// entry, so the common case allocates nothing.
fn intern_bounds(bounds: &[u64]) -> &'static [u64] {
    static REGISTRY: Mutex<Vec<&'static [u64]>> = Mutex::new(Rank::HistogramBounds, Vec::new());
    if bounds == DEFAULT_BOUNDS {
        return DEFAULT_BOUNDS;
    }
    let mut reg = REGISTRY.lock();
    if let Some(&interned) = reg.iter().find(|&&b| b == bounds) {
        return interned;
    }
    let leaked: &'static [u64] = Box::leak(bounds.to_vec().into_boxed_slice());
    reg.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        // Bounds 1, 2, 4, ...: value v lands in the first bucket whose
        // bound >= v; exactly-on-boundary values stay in the lower bucket.
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(1); // bucket 0 (<= 1)
        h.observe(2); // bucket 1 (<= 2)
        h.observe(3); // bucket 2 (<= 4)
        h.observe(4); // bucket 2 (<= 4, inclusive)
        h.observe(5); // bucket 3 (<= 8)
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 15);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 5);
    }

    #[test]
    fn zero_lands_in_the_first_bucket() {
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(0);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.min, 0);
    }

    #[test]
    fn overflow_bucket_catches_values_above_every_bound() {
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        let top = *DEFAULT_BOUNDS.last().expect("non-empty bounds");
        h.observe(top); // last real bucket (inclusive)
        h.observe(top + 1); // overflow
        h.observe(u64::MAX); // overflow
        assert_eq!(h.counts[DEFAULT_BOUNDS.len() - 1], 1);
        assert_eq!(h.counts[DEFAULT_BOUNDS.len()], 2);
    }

    #[test]
    fn custom_bounds_and_exact_boundaries() {
        static BOUNDS: &[u64] = &[10, 100, 1000];
        let mut h = Histogram::new(BOUNDS);
        for v in [10, 11, 100, 101, 1000, 1001] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![1, 2, 2, 1]);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        static BOUNDS: &[u64] = &[1];
        let mut h = Histogram::new(BOUNDS);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let h = Histogram::new(DEFAULT_BOUNDS);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn quantiles_follow_bucket_upper_bounds() {
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        for v in 1..=100u64 {
            h.observe(v);
        }
        // Rank 50 lands in the bucket bounded by 64; rank 90 and 99 in the
        // bucket bounded by 128, clamped to the observed max of 100.
        assert_eq!(h.p50(), 64);
        assert_eq!(h.p90(), 100);
        assert_eq!(h.p99(), 100);
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99());
    }

    #[test]
    fn quantiles_of_empty_and_single_histograms() {
        let h = Histogram::new(DEFAULT_BOUNDS);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(42);
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p90(), 42);
        assert_eq!(h.p99(), 42);
    }

    #[test]
    fn quantiles_clamp_overflow_bucket_to_observed_max() {
        static BOUNDS: &[u64] = &[10];
        let mut h = Histogram::new(BOUNDS);
        h.observe(5_000);
        h.observe(7_000);
        assert_eq!(h.p99(), 7_000);
        assert_eq!(h.p50(), 7_000);
    }

    /// `logical` drops each of the three non-logical classes from counters,
    /// gauges and histograms alike, and keeps every other name — also one
    /// that merely contains a reserved word.
    #[test]
    fn logical_drops_the_three_non_logical_classes_only() {
        let logical = [
            "align.ckpt_like",
            "exec.tasks",
            "memo.x",
            "pipeline.contigs",
        ];
        let dropped = ["ckpt.saved", "mem.budget.peak", "sched.exec.workers"];
        let mut s = MetricsSnapshot::default();
        for name in logical {
            s.counters.insert(name, 1);
        }
        for name in dropped {
            s.counters.insert(name, 2);
            s.gauges.insert(name, 3);
            let mut h = Histogram::new(DEFAULT_BOUNDS);
            h.observe(1);
            s.histograms.insert(name, h);
        }
        let d = s.logical();
        assert!(d.counters.keys().eq(logical.iter()));
        assert!(d.gauges.is_empty());
        assert!(d.histograms.is_empty());
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("z.last", 2);
        a.counters.insert("a.first", 1);
        a.gauges.insert("g", -5);
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(7);
        a.histograms.insert("h", h);
        let json = a.to_json();
        // Sorted keys: a.first before z.last.
        let ia = json.find("a.first").expect("key present");
        let iz = json.find("z.last").expect("key present");
        assert!(ia < iz);
        assert_eq!(json, a.clone().to_json(), "serialisation is stable");
        assert!(json.contains("\"schema\": \"focus-metrics-v1\""));
    }

    #[test]
    fn from_json_round_trips_to_json_exactly() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("align.candidates", 7);
        s.gauges.insert("align.band", -3);
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(12);
        h.observe(1 << 20);
        s.histograms.insert("align.overlap_len", h);
        static CUSTOM: &[u64] = &[10, 100];
        s.histograms.insert("custom.bounds", Histogram::new(CUSTOM));
        let back = MetricsSnapshot::from_json(&s.to_json()).expect("round trip parses");
        assert_eq!(back, s);
        assert_eq!(
            back.to_json(),
            s.to_json(),
            "byte-identical re-serialisation"
        );
        // The empty histogram's min sentinel survived the round trip.
        assert_eq!(
            back.histograms.get("custom.bounds").map(|h| h.min),
            Some(u64::MAX)
        );
    }

    #[test]
    fn from_json_interns_names_and_bounds() {
        let mut s = MetricsSnapshot::default();
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(5);
        s.histograms.insert("interning.probe", h);
        let a = MetricsSnapshot::from_json(&s.to_json()).expect("parses");
        let b = MetricsSnapshot::from_json(&s.to_json()).expect("parses");
        let (ka, ha) = a.histograms.iter().next().expect("one histogram");
        let (kb, hb) = b.histograms.iter().next().expect("one histogram");
        // Two independent restores resolve to the same interned statics.
        assert!(std::ptr::eq(*ka, *kb), "names are interned");
        assert!(
            std::ptr::eq(ha.bounds.as_ptr(), hb.bounds.as_ptr()),
            "bounds are interned"
        );
    }

    #[test]
    fn from_json_rejects_corrupt_documents() {
        assert!(MetricsSnapshot::from_json("{").is_err());
        assert!(MetricsSnapshot::from_json(
            "{\"schema\": \"other\", \"counters\": {}, \"gauges\": {}, \"histograms\": {}}"
        )
        .is_err());
        // A flipped byte that breaks histogram consistency is caught by the
        // checker, not silently accepted.
        let bad = r#"{
  "schema": "focus-metrics-v1",
  "counters": {},
  "gauges": {},
  "histograms": {
    "h": {"count": 9, "sum": 1, "min": 1, "max": 1, "bounds": [1, 2], "counts": [1, 1, 0]}
  }
}"#;
        assert!(MetricsSnapshot::from_json(bad).is_err());
    }

    /// The decoder is strict: a mistyped value is an error, not a zero,
    /// and so is a negative value where the snapshot holds a `u64`.
    #[test]
    fn from_json_refuses_mistyped_and_negative_values() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("c", 3);
        s.gauges.insert("g", -3);
        let mut h = Histogram::new(DEFAULT_BOUNDS);
        h.observe(5);
        s.histograms.insert("h", h);
        let json = s.to_json();
        assert!(
            MetricsSnapshot::from_json(&json).is_ok(),
            "negative gauges are fine"
        );
        for (from, to) in [
            ("\"c\": 3", "\"c\": \"3\""),
            ("\"c\": 3", "\"c\": -3"),
            ("\"g\": -3", "\"g\": null"),
            ("\"sum\": 5", "\"sum\": -5"),
            ("\"min\": 5", "\"min\": -1"),
            ("\"max\": 5", "\"max\": true"),
            ("\"count\": 1", "\"count\": \"1\""),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "{from} is in the document");
            let err = MetricsSnapshot::from_json(&bad).expect_err(to);
            assert!(matches!(err, ObsError::Schema { .. }), "{to}: {err}");
            assert_eq!(crate::check_metrics_snapshot(&bad), Err(err));
        }
    }

    #[test]
    fn empty_snapshot_serialises_to_empty_sections() {
        let s = MetricsSnapshot::default();
        assert!(s.is_empty());
        let json = s.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }
}
