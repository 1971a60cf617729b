//! `focus-bench compare a.json b.json`: is result set `b` worse than `a`?
//!
//! Rows are workload x end-to-end metric. A timing may worsen by the bound
//! `BENCHMARK.json` fixes before it counts as `regressed`; when the runs'
//! own spread is wider than that bound and their ranges overlap, or a side
//! has a single sample, the row is `unresolved` rather than `regressed`. Quality metrics, counts and
//! digests repeat exactly for the same code and seed, so any difference in
//! them is `regressed`.

use crate::catalog::END_TO_END;
use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The numbers of one metric in one result.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub iqr: f64,
}

impl Sample {
    fn from_json(v: &Value) -> Result<Sample, String> {
        Ok(Sample {
            n: v.num("n")? as usize,
            median: v.num("median")?,
            min: v.num("min")?,
            max: v.num("max")?,
            iqr: v.num("iqr")?,
        })
    }

    fn spread(&self) -> f64 {
        self.iqr / self.median.abs()
    }
}

/// Verdict on a metric that varies run to run.
pub fn judge_timing(a: &Sample, b: &Sample, higher_is_better: bool, bound: f64) -> Verdict {
    let worse_by = if higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    } / a.median.abs();
    if worse_by <= bound {
        return Verdict::Ok;
    }
    // One sample a side (`setup_s`) has no spread to judge by.
    let single = a.n < 2 || b.n < 2;
    let overlap = a.min <= b.max && b.min <= a.max;
    if single || (overlap && a.spread().max(b.spread()) > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

/// A result set's workloads by name; a single `bench --out` document counts
/// as a set of one.
fn workloads(doc: &Value) -> Result<Vec<(String, &Value)>, String> {
    if let Some(set) = doc.get("workloads").and_then(Value::as_object) {
        return Ok(set.iter().map(|(name, v)| (name.clone(), v)).collect());
    }
    Ok(vec![(doc.text("workload")?.to_string(), doc)])
}

/// `(name, higher_is_better, bound)` of every end-to-end metric in a
/// `BENCHMARK.json` document.
fn bounds(manifest: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no \"end_to_end\"")?
        .iter()
        .map(|m| {
            Ok((
                m.text("name")?.to_string(),
                m.text("better")? == "higher",
                m.num("bound")?,
            ))
        })
        .collect()
}

/// Fields outside `metrics` that must not differ between two runs of the
/// same code on the same seed.
const EXACT_FIELDS: [&str; 4] = ["contig_digest", "contigs", "contig_bp", "failed"];

/// Prints the comparison and returns how many rows regressed.
pub fn compare(a: &Value, b: &Value, manifest: &Value) -> Result<usize, String> {
    let bounds = bounds(manifest)?;
    let (set_a, set_b) = (workloads(a)?, workloads(b)?);
    let names = |set: &[(String, &Value)]| set.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    if names(&set_a) != names(&set_b) {
        return Err(format!(
            "the two files hold different workloads: {:?} vs {:?}",
            names(&set_a),
            names(&set_b)
        ));
    }
    let mut regressed = 0;
    println!(
        "{:<10} {:<16} {:>12} {:>12} {:>16} {:>6}  verdict",
        "workload", "metric", "median(a)", "median(b)", "b / a", "bound"
    );
    for ((name, doc_a), (_, doc_b)) in set_a.iter().zip(&set_b) {
        if doc_a.get("input") != doc_b.get("input") {
            return Err(format!(
                "{name}: the two runs had different inputs (seed or generator)"
            ));
        }
        for (metric, higher, bound) in &bounds {
            let side = |doc: &Value| -> Result<Sample, String> {
                let v = doc.get("metrics").and_then(|m| m.get(metric));
                Sample::from_json(v.ok_or_else(|| format!("{name}: no metric {metric}"))?)
            };
            let (sa, sb) = (side(doc_a)?, side(doc_b)?);
            let exact = END_TO_END.iter().any(|m| m.name == metric && m.exact);
            let verdict = match exact {
                true if sa == sb => Verdict::Ok,
                true => Verdict::Regressed,
                false => judge_timing(&sa, &sb, *higher, *bound),
            };
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<10} {:<16} {:>12.4} {:>12.4} {:>9.4} (a={:.4}) {:>5}{}  {}",
                name,
                metric,
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.median,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}", bound * 100.0)
                },
                if exact { "" } else { "%" },
                verdict.label()
            );
        }
        for field in EXACT_FIELDS {
            let same = doc_a.get(field) == doc_b.get(field);
            regressed += usize::from(!same);
            let show = |doc: &Value| doc.get(field).map_or("-".to_string(), Value::to_compact);
            println!(
                "{:<10} {:<16} {:>12} {:>12} {:>16} {:>6}  {}",
                name,
                field,
                show(doc_a),
                show(doc_b),
                "",
                "exact",
                if same {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                }
                .label()
            );
        }
    }
    println!("{regressed} regressed");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, parse};

    fn sample(median: f64, min: f64, max: f64, iqr: f64) -> Sample {
        Sample {
            n: 5,
            median,
            min,
            max,
            iqr,
        }
    }

    #[test]
    fn a_timing_inside_its_bound_is_ok_either_way() {
        let a = sample(10.0, 9.9, 10.1, 0.1);
        assert_eq!(
            judge_timing(&a, &sample(10.9, 10.8, 11.0, 0.1), false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge_timing(&a, &sample(5.0, 4.9, 5.1, 0.1), false, 0.10),
            Verdict::Ok
        );
        // Higher is better: dropping 5% against a 10% bound is fine.
        assert_eq!(
            judge_timing(&a, &sample(9.5, 9.4, 9.6, 0.1), true, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn a_timing_past_its_bound_regresses_unless_the_runs_are_too_noisy_to_tell() {
        let a = sample(10.0, 9.9, 10.1, 0.1);
        assert_eq!(
            judge_timing(&a, &sample(11.5, 11.4, 11.6, 0.1), false, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge_timing(&a, &sample(8.0, 7.9, 8.1, 0.1), true, 0.10),
            Verdict::Regressed
        );
        // Wide spread and overlapping ranges: cannot tell.
        let noisy_a = sample(10.0, 8.0, 13.0, 2.0);
        let noisy_b = sample(11.5, 9.0, 14.0, 2.5);
        assert_eq!(
            judge_timing(&noisy_a, &noisy_b, false, 0.10),
            Verdict::Unresolved
        );
        // One sample a side: past the bound, but nothing to judge it by.
        let once = |v: f64| Sample {
            n: 1,
            ..sample(v, v, v, 0.0)
        };
        assert_eq!(
            judge_timing(&once(5.0), &once(6.5), false, 0.25),
            Verdict::Unresolved
        );
        // Wide spread but every run of b is slower than every run of a.
        assert_eq!(
            judge_timing(&noisy_a, &sample(16.0, 13.5, 19.0, 2.5), false, 0.10),
            Verdict::Regressed
        );
    }

    fn run_doc(wall: f64, fraction: f64, digest: &str) -> Value {
        let metric = |v: f64| {
            obj([
                ("n", Value::from(3u64)),
                ("median", Value::from(v)),
                ("min", Value::from(v)),
                ("max", Value::from(v)),
                ("iqr", Value::from(0.0)),
            ])
        };
        obj([
            ("workload", Value::from("incore-t2")),
            ("input", obj([("fastq_digest", Value::from("abc"))])),
            ("contig_digest", Value::from(digest)),
            (
                "metrics",
                obj([
                    ("wall_s", metric(wall)),
                    ("genome_fraction", metric(fraction)),
                ]),
            ),
        ])
    }

    fn manifest() -> Value {
        parse(
            r#"{"end_to_end": [
                {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "genome_fraction", "unit": "fraction", "better": "higher", "bound": 0.05}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_counts_regressions_and_insists_on_exact_quality() {
        let base = run_doc(3.0, 0.82, "d1");
        assert_eq!(
            compare(&base, &run_doc(3.2, 0.82, "d1"), &manifest()).unwrap(),
            0
        );
        assert_eq!(
            compare(&base, &run_doc(3.5, 0.82, "d1"), &manifest()).unwrap(),
            1
        );
        // A quality metric that moves at all, and the digest with it.
        assert_eq!(
            compare(&base, &run_doc(3.0, 0.8199, "d2"), &manifest()).unwrap(),
            2
        );
    }

    #[test]
    fn compare_refuses_mismatched_files() {
        let a = run_doc(3.0, 0.82, "d1");
        let mut other_input = run_doc(3.0, 0.82, "d1");
        if let Value::Obj(fields) = &mut other_input {
            fields[1].1 = obj([("fastq_digest", Value::from("zzz"))]);
        }
        assert!(compare(&a, &other_input, &manifest())
            .unwrap_err()
            .contains("different inputs"));
        let set = obj([("workloads", obj([("ksweep", a.clone())]))]);
        assert!(compare(&a, &set, &manifest())
            .unwrap_err()
            .contains("different workloads"));
    }
}
