//! Fig. 6 — runtime of the distributed graph algorithms.
//!
//! The partitioned hybrid graph of each data set is trimmed (transitive
//! reduction, containment removal, dead ends, bubbles) and traversed with
//! one worker rank per partition, for k ∈ {8, 16, 32, 64}. The reported
//! times are virtual makespans. Paper shape: trimming time falls steeply
//! with more partitions; traversal time is small and flat.

use fc_bench::harness::prepare_context;
use fc_bench::{bench_scale, print_table_header};
use fc_dist::DistributedHybrid;
use fc_partition::{partition_graph_set, PartitionConfig};
use std::sync::Arc;

const KS: [usize; 4] = [8, 16, 32, 64];
const SEED: u64 = 3;

fn main() {
    let scale = bench_scale();
    let ctx = prepare_context(scale);

    print_table_header(
        &format!("Fig. 6: distributed trimming & traversal (virtual units, scale {scale})"),
        &["set", "k", "trim", "traverse", "paths", "messages"],
        11,
    );

    for (d, p) in ctx.datasets.iter().zip(&ctx.prepared) {
        for &k in &KS {
            let partition = partition_graph_set(&p.hybrid.set, &PartitionConfig::new(k, SEED))
                .expect("partitioning succeeds");
            let mut dh = DistributedHybrid::from_contigs(
                &p.hybrid,
                Arc::clone(&p.contigs),
                partition.finest().to_vec(),
                k,
            )
            .expect("distribution set-up succeeds");
            let report = dh
                .run(&ctx.assembler.config().dist)
                .expect("distributed run succeeds");
            println!(
                "{:>11} {:>11} {:>11.0} {:>11.0} {:>11} {:>11}",
                d.name,
                k,
                report.trimming_time,
                report.traversal_time,
                report.paths.len(),
                report.messages,
            );
        }
    }
    println!("\n(paper: trimming runtime decreases steeply with k; traversal is small and flat)");
}
