//! Fig. 4 — graph-partitioning speedup.
//!
//! The hybrid graph set of each data set is partitioned into 16 partitions;
//! the partitioner's task log is replayed on 1–12 simulated processors and
//! the speedup curve reported (mean ± sd over three seeds, as in the
//! paper). The paper's curve levels off around 8–10 processors because step
//! `i` of recursive bisection only offers `2^i` tasks and the k-way
//! refinement one task per level: `2^(log2 16 − 1) = 8` and ~10 levels.

use fc_bench::harness::{mean_sd, partition_runtime, prepare_context};
use fc_bench::{bench_scale, print_table_header};
use fc_partition::{partition_graph_set, PartitionConfig};

const K: usize = 16;
const MAX_PROCS: usize = 12;
const SEEDS: [u64; 3] = [11, 22, 33];

fn main() {
    let scale = bench_scale();
    let ctx = prepare_context(scale);

    print_table_header(
        &format!("Fig. 4: partitioning speedup, k = {K}, hybrid graph sets (scale {scale})"),
        &[
            "procs",
            "D1 speedup",
            "D1 sd",
            "D2 speedup",
            "D2 sd",
            "D3 speedup",
            "D3 sd",
        ],
        11,
    );

    // Task logs per data set per seed.
    let logs: Vec<Vec<_>> = ctx
        .prepared()
        .map(|p| {
            SEEDS
                .iter()
                .map(|&seed| {
                    partition_graph_set(&p.hybrid.set, &PartitionConfig::new(K, seed))
                        .expect("partitioning succeeds")
                })
                .collect()
        })
        .collect();

    for procs in 1..=MAX_PROCS {
        let mut row = format!("{procs:>11}");
        for per_seed in &logs {
            let speedups: Vec<f64> = per_seed
                .iter()
                .map(|result| partition_runtime(result, 1) / partition_runtime(result, procs))
                .collect();
            let (mean, sd) = mean_sd(&speedups);
            row.push_str(&format!(" {mean:>11.2} {sd:>11.3}"));
        }
        println!("{row}");
    }
    println!(
        "\n(expected shape: near-linear up to ~8 procs, flat after max(levels, 2^(log2 k - 1)))"
    );
}
