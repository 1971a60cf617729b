//! Fig. 5 — hybrid vs. multilevel graph-set partitioning runtime.
//!
//! Both graph-set flavours of each data set are partitioned into
//! k ∈ {8, 16, 32, 64} partitions on `max(levels, k/2)` simulated
//! processors (the paper's processor rule for full natural parallelism).
//! The paper's result: partitioning the hybrid set costs roughly half the
//! multilevel set, because biological knowledge lets the bisections stop at
//! `G'0` instead of un-coarsening to the full overlap graph `G0`.

use fc_bench::harness::{partition_runtime, prepare_context};
use fc_bench::{bench_scale, print_table_header};
use fc_partition::{partition_graph_set, PartitionConfig};

const KS: [usize; 4] = [8, 16, 32, 64];
const SEED: u64 = 7;

fn main() {
    let scale = bench_scale();
    let ctx = prepare_context(scale);

    print_table_header(
        &format!(
            "Fig. 5: partitioning runtime (virtual units), hybrid vs multilevel (scale {scale})"
        ),
        &["set", "k", "procs", "hybrid", "multilevel", "ratio"],
        11,
    );

    for (d, s) in ctx.datasets.iter().zip(&ctx.stages) {
        for &k in &KS {
            let procs = s.multilevel.level_count().max(k / 2);
            let hybrid =
                partition_graph_set(&s.prepared.hybrid.set, &PartitionConfig::new(k, SEED))
                    .expect("hybrid partitioning succeeds");
            let multi = partition_graph_set(&s.multilevel.set, &PartitionConfig::new(k, SEED))
                .expect("multilevel partitioning succeeds");
            let t_hybrid = partition_runtime(&hybrid, procs);
            let t_multi = partition_runtime(&multi, procs);
            println!(
                "{:>11} {:>11} {:>11} {:>11.0} {:>11.0} {:>11.2}",
                d.name,
                k,
                procs,
                t_hybrid,
                t_multi,
                t_hybrid / t_multi
            );
        }
    }
    println!("\n(paper: hybrid ≈ half the multilevel runtime at every k)");
}
