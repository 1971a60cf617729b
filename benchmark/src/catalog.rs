//! The metric catalog: every number the benchmark prints, with its unit,
//! its layer, what kind of number it is and which end-to-end metric it is
//! expected to move. `BENCHMARK.json` is generated from this table
//! (`focus-bench manifest`) and a test keeps the two equal.

use crate::json::{obj, Value};
use crate::workload::WORKLOADS;

/// What kind of number a metric is; decides how two runs are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Wall-clock seconds: varies run to run.
    Wall,
    /// CPU seconds from `/proc`: varies less, in 10 ms ticks.
    Cpu,
    /// Bytes resident or moved; resident memory varies a little.
    Bytes,
    /// An exact count: the same code on the same seed repeats it.
    Count,
    /// A ratio of timings (varies) or of counts (exact); see `exact`.
    Ratio,
    /// The simulated cluster's virtual clock (paper Fig. 4-6): exact, and
    /// never to be mixed with seconds.
    Virtual,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Class::Wall => "wall",
            Class::Cpu => "cpu",
            Class::Bytes => "bytes",
            Class::Count => "count",
            Class::Ratio => "ratio",
            Class::Virtual => "virtual",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub class: Class,
    /// Repeats exactly for the same code and seed.
    pub exact: bool,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        class: Class::Wall,
        exact: false,
        definition: "median over the timed passes of the timed region: open the FASTQ -> contigs FASTA flushed (ksweep: one pass of sweeps over the six partition counts)",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        class: Class::Cpu,
        exact: false,
        definition: "median user+system CPU of the timed region, every thread, from /proc/self/stat",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
        class: Class::Bytes,
        exact: false,
        definition: "median VmHWM of the timed child processes at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        class: Class::Wall,
        exact: false,
        definition: "harness start -> first timed pass starts: generate inputs twice, stage them, one cold verified pass of the whole workload",
    },
    EndToEnd {
        name: "genome_fraction",
        unit: "fraction",
        higher_is_better: true,
        bound: 0.15,
        class: Class::Ratio,
        exact: true,
        definition: "mean over reference genomes of the share of distinct 32-mers (either strand) some contig holds",
    },
    EndToEnd {
        name: "contig_accuracy",
        unit: "fraction",
        higher_is_better: true,
        bound: 0.05,
        class: Class::Ratio,
        exact: true,
        definition: "contig 32-mers found in any reference genome / contig 32-mers",
    },
    EndToEnd {
        name: "ng50_bp",
        unit: "bp",
        higher_is_better: true,
        bound: 0.15,
        class: Class::Count,
        exact: true,
        definition: "contig length at which the running total, longest first, reaches half of both strands of the reference",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub class: Class,
    pub exact: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    class: Class,
    exact: bool,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        class,
        exact,
    }
}

const fn wall(name: &'static str) -> PerLayer {
    layer(name, "s", false, Class::Wall, false)
}

/// An exact count where less work is better.
const fn work(name: &'static str) -> PerLayer {
    layer(name, "count", false, Class::Count, true)
}

/// An exact count that describes the result rather than its cost.
const fn outcome(name: &'static str) -> PerLayer {
    layer(name, "count", true, Class::Count, true)
}

pub const PER_LAYER: [PerLayer; 75] = [
    // fc-seq
    wall("seq.fastq_parse_s"),
    layer(
        "seq.fastq_parse_mb_per_s",
        "MB/s",
        true,
        Class::Ratio,
        false,
    ),
    wall("seq.preprocess_s"),
    outcome("seq.reads_kept"),
    layer("seq.store_bytes", "bytes", false, Class::Bytes, true),
    wall("seq.fasta_write_s"),
    wall("seq.paged_write_s"),
    wall("seq.paged_materialize_s"),
    layer("seq.paged_bytes", "bytes", false, Class::Bytes, true),
    // fc-align
    wall("align.index_build_s"),
    wall("align.seed_vote_s"),
    wall("align.verify_s"),
    wall("align.overlap_all_s"),
    wall("align.pair_task_sum_s"),
    wall("align.pair_task_max_s"),
    work("align.kmer_lookups"),
    work("align.kmer_hits"),
    work("align.candidates"),
    work("align.verify_requests"),
    outcome("align.overlaps"),
    work("align.nw_cells"),
    outcome("align.prefilter_rejected"),
    outcome("align.exact_hits"),
    layer("align.candidate_yield", "ratio", true, Class::Ratio, true),
    // fc-exec
    work("exec.tasks"),
    layer("exec.dispatch_us_per_task", "us", false, Class::Wall, false),
    layer("exec.align_efficiency", "ratio", true, Class::Ratio, false),
    // fc-graph
    wall("graph.build_s"),
    wall("graph.coarsen_s"),
    wall("graph.hybrid_s"),
    outcome("graph.g0_nodes"),
    outcome("graph.g0_edges"),
    outcome("graph.levels"),
    work("graph.hybrid_nodes"),
    layer("graph.compression_ratio", "ratio", true, Class::Ratio, true),
    // fc-partition
    wall("partition.hybrid_s"),
    wall("partition.multilevel_s"),
    layer(
        "partition.work_units_hybrid",
        "units",
        false,
        Class::Virtual,
        true,
    ),
    layer(
        "partition.work_units_multilevel",
        "units",
        false,
        Class::Virtual,
        true,
    ),
    layer(
        "partition.hybrid_work_ratio",
        "ratio",
        false,
        Class::Ratio,
        true,
    ),
    work("partition.tasks"),
    work("partition.edge_cut"),
    layer(
        "partition.balance_permille",
        "permille",
        false,
        Class::Ratio,
        true,
    ),
    // fc-dist
    wall("dist.setup_s"),
    wall("dist.run_s"),
    work("dist.messages"),
    layer("dist.bytes", "bytes", false, Class::Bytes, true),
    layer(
        "dist.virtual_trim_units",
        "units",
        false,
        Class::Virtual,
        true,
    ),
    layer(
        "dist.virtual_traverse_units",
        "units",
        false,
        Class::Virtual,
        true,
    ),
    outcome("dist.transitive_removed"),
    outcome("dist.contained_removed"),
    outcome("dist.false_edges_removed"),
    outcome("dist.error_nodes_removed"),
    work("dist.paths"),
    wall("dist.faulted_run_s"),
    work("dist.fault_retries"),
    // fc-ckpt and the out-of-core path
    wall("ckpt.save_s"),
    wall("ckpt.load_s"),
    layer("ckpt.bytes", "bytes", false, Class::Bytes, true),
    layer("ckpt.save_mb_per_s", "MB/s", true, Class::Ratio, false),
    work("ooc.spill_files"),
    layer("ooc.spill_bytes", "bytes", false, Class::Bytes, true),
    // fc-obs
    layer("obs.recorder_tax_pct", "%", false, Class::Ratio, false),
    work("obs.events"),
    layer("obs.span_ns_enabled", "ns", false, Class::Wall, false),
    layer("obs.span_ns_disabled", "ns", false, Class::Wall, false),
    // focus-core
    wall("focus.prepare_s"),
    wall("focus.assemble_prepared_s"),
    wall("focus.tail_other_s"),
    work("focus.contigs"),
    // fc-serve
    wall("serve.job_roundtrip_s"),
    layer("serve.tax_pct", "%", false, Class::Ratio, false),
    // the harness itself
    layer("bench.trace_overhead_pct", "%", false, Class::Ratio, false),
    wall("bench.layer_sum_s"),
    work("bench.span_count"),
];

fn better(higher: bool) -> Value {
    Value::from(if higher { "higher" } else { "lower" })
}

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "bench",
                ]
                .map(Value::from)
                .to_vec(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::from("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Value::from(w.name)), ("why", Value::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", better(m.higher_is_better)),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "s")));
        for (name, unit) in names {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        assert_eq!(
            on_disk,
            manifest().to_pretty(),
            "regenerate with: focus-bench manifest > BENCHMARK.json"
        );
    }
}
