//! Table II — edge cut of the hybrid vs. overlap-graph partitionings.
//!
//! For every data set and k ∈ {8, 16, 32, 64}: the hybrid set is
//! partitioned and the assignment projected onto the overlap graph `G0`
//! (reads inherit their representative's partition); the multilevel set is
//! partitioned un-coarsening all the way to `G0`. Both cuts are measured on
//! the same graph (`G0`), making the comparison apples-to-apples.
//! Paper: the hybrid partitioning wins in all but two cells, and no cut
//! exceeds 0.43 % of total overlap-graph edge weight.

use fc_bench::harness::prepare_context;
use fc_bench::{bench_scale, print_table_header};
use fc_partition::{edge_cut, partition_graph_set, PartitionConfig};

const KS: [usize; 4] = [8, 16, 32, 64];
const SEED: u64 = 5;

fn main() {
    let scale = bench_scale();
    let ctx = prepare_context(scale);

    print_table_header(
        &format!("Table II: edge cut on G0, hybrid vs multilevel partitioning (scale {scale})"),
        &[
            "k", "set", "cut(hyb)", "cut(ovl)", "hyb %", "ovl %", "winner",
        ],
        10,
    );

    let mut hybrid_wins = 0usize;
    let mut cells = 0usize;
    let mut max_pct = 0.0f64;
    for &k in &KS {
        for (d, s) in ctx.datasets.iter().zip(&ctx.stages) {
            let total_w = s.graph.undirected.total_edge_weight() as f64;

            let hybrid =
                partition_graph_set(&s.prepared.hybrid.set, &PartitionConfig::new(k, SEED))
                    .expect("hybrid partitioning succeeds");
            let read_parts = s
                .prepared
                .hybrid
                .project_partition_to_reads(hybrid.finest());
            let cut_hyb = edge_cut(&s.graph.undirected, &read_parts);

            let multi = partition_graph_set(&s.multilevel.set, &PartitionConfig::new(k, SEED))
                .expect("multilevel partitioning succeeds");
            let cut_ovl = edge_cut(&s.graph.undirected, multi.finest());

            let (pct_h, pct_o) = (
                100.0 * cut_hyb as f64 / total_w,
                100.0 * cut_ovl as f64 / total_w,
            );
            max_pct = max_pct.max(pct_h).max(pct_o);
            cells += 1;
            if cut_hyb <= cut_ovl {
                hybrid_wins += 1;
            }
            println!(
                "{:>10} {:>10} {:>10} {:>10} {:>9.2}% {:>9.2}% {:>10}",
                k,
                d.name,
                cut_hyb,
                cut_ovl,
                pct_h,
                pct_o,
                if cut_hyb <= cut_ovl {
                    "hybrid"
                } else {
                    "overlap"
                }
            );
        }
    }
    println!(
        "\nhybrid wins {hybrid_wins}/{cells} cells; worst cut = {max_pct:.2}% of total edge weight"
    );
    println!("(paper: hybrid wins 10/12 cells; all cuts ≤ 0.43% of total edge weight)");
}
