//! Shared experiment setup: data sets, pipeline preparation, schedulers.

use fc_dist::cluster::{schedule_phases, CostModel};
use fc_graph::LevelGraph;
use fc_partition::PartitionResult;
use fc_rng::Rng;
use fc_sim::{paper_datasets, Dataset};
use focus_core::{FocusAssembler, FocusConfig, Prepared, Stages};

/// The three paper-analogue data sets with their partition-independent
/// pipeline artifacts.
pub struct ExperimentContext {
    /// D1–D3.
    pub datasets: Vec<Dataset>,
    /// Stages 1–5 output per data set, every stage kept: Table II and
    /// Fig. 5/7 read `G0`, the multilevel set and the store.
    pub stages: Vec<Stages>,
    /// The assembler used.
    pub assembler: FocusAssembler,
}

/// Reads `FOCUS_BENCH_SCALE` (default 1.0).
pub fn bench_scale() -> f64 {
    std::env::var("FOCUS_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// The standard pipeline configuration used by all experiments.
pub fn standard_config() -> FocusConfig {
    let mut config = FocusConfig::default();
    // 100 bp reads with quality tails: permissive-but-real thresholds.
    config.trim.min_read_len = 40;
    config.overlap.min_overlap_len = 50;
    config.overlap.min_identity = 0.90;
    config
}

/// Generates D1–D3 at `scale` and runs pipeline stages 1–5 on each.
pub fn prepare_context(scale: f64) -> ExperimentContext {
    let datasets = paper_datasets(scale).expect("paper data sets generate");
    let assembler = FocusAssembler::new(standard_config()).expect("standard config is valid");
    let stages = datasets
        .iter()
        .map(|d| {
            assembler
                .prepare_stages(&d.reads)
                .expect("preparation succeeds")
        })
        .collect();
    ExperimentContext {
        datasets,
        stages,
        assembler,
    }
}

impl ExperimentContext {
    /// What stage 6 reads of each data set's stages, in data-set order.
    pub fn prepared(&self) -> impl Iterator<Item = &Prepared> {
        self.stages.iter().map(|s| &s.prepared)
    }
}

/// Virtual runtime of replaying a partitioning's task log on `ranks`
/// simulated processors.
pub fn partition_runtime(result: &PartitionResult, ranks: usize) -> f64 {
    schedule_phases(&result.phases(), ranks, CostModel::default())
}

/// Mean and (population) standard deviation.
pub fn mean_sd(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_partition::recursive::{TaskKind, TaskRecord};

    fn result(tasks: Vec<TaskRecord>) -> PartitionResult {
        PartitionResult {
            k: 4,
            parts_per_level: Vec::new(),
            tasks,
        }
    }

    fn task(step: usize, work: u64) -> TaskRecord {
        TaskRecord {
            kind: TaskKind::Bisect { step, part: 0 },
            work,
        }
    }

    #[test]
    fn runtime_monotone_in_ranks() {
        let tasks = result(vec![task(0, 100), task(1, 50), task(1, 70)]);
        let t1 = partition_runtime(&tasks, 1);
        let t2 = partition_runtime(&tasks, 2);
        let t4 = partition_runtime(&tasks, 4);
        assert!(t1 >= t2);
        assert!(t2 >= t4);
        // Serial = sum of works.
        assert_eq!(t1, 220.0);
        // Two ranks: step0 = 100, step1 = max(50,70).
        assert_eq!(t2, 170.0);
        assert_eq!(t2, t4); // parallelism exhausted at 2 tasks/phase
    }

    #[test]
    fn mean_sd_basics() {
        let (m, s) = mean_sd(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_sd(&[]), (0.0, 0.0));
    }

    #[test]
    fn bench_scale_default() {
        // Unless the variable is set in the test environment, the default
        // applies.
        if std::env::var("FOCUS_BENCH_SCALE").is_err() {
            assert_eq!(bench_scale(), 1.0);
        }
    }

    #[test]
    fn tiny_context_prepares() {
        let ctx = prepare_context(0.01);
        assert_eq!(ctx.datasets.len(), 3);
        assert_eq!(ctx.stages.len(), 3);
        for s in &ctx.stages {
            assert!(!s.store.is_empty());
            assert!(s.prepared.hybrid.node_count() > 0);
        }
    }
}

/// The ablations' synthetic graph: a chain with strong `i → i + 1` edges
/// (40–89) and weak `i → i + 2` skip edges (5–39), like a read tiling.
pub fn overlap_like_graph(n: usize, seed: u64) -> LevelGraph {
    let mut rng = Rng::new(seed);
    let mut edges = Vec::new();
    for i in 0..n - 1 {
        edges.push((i as u32, (i + 1) as u32, rng.range(40..90)));
        if i + 2 < n {
            edges.push((i as u32, (i + 2) as u32, rng.range(5..40)));
        }
    }
    LevelGraph::from_edges(vec![1; n], &edges)
}
