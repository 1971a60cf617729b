//! Ablation — hybrid-graph compression vs. data difficulty.
//!
//! The Fig. 5 runtime ratio (hybrid vs multilevel partitioning) is governed
//! by how far the contiguity test lets the hybrid graph compress the
//! overlap graph: `|G'0| / |G0|`. Clean reads compress enormously
//! (ratio → 0, hybrid partitioning looks "free"); repeat-rich, error-rich
//! reads defeat the test (ratio → 1, the hybrid advantage vanishes — and so
//! does assembly contiguity). This sweep quantifies that bridge between our
//! synthetic regime and the paper's real-data ~0.5 ratio.

use fc_bench::harness::{partition_runtime, standard_config};
use fc_bench::print_table_header;
use fc_partition::{partition_graph_set, PartitionConfig};
use focus_core::FocusAssembler;

fn main() {
    print_table_header(
        "Ablation: hybrid compression vs repeat/error content (D1-like data, k = 16)",
        &[
            "repeats", "rep_len", "err_3p", "|G0|", "|G'0|", "ratio", "t_h/t_m", "N50",
        ],
        9,
    );

    let cases: [(usize, usize, f64); 4] = [
        (3, 250, 0.01),
        (8, 350, 0.012),
        (12, 400, 0.015),
        (20, 450, 0.02),
    ];
    for (repeat_copies, repeat_len, err3) in cases {
        let mut ds_config = fc_sim::DatasetConfig::paper_scale(1.0);
        ds_config.taxonomy.genome.repeat_copies = repeat_copies;
        ds_config.taxonomy.genome.repeat_len = repeat_len;
        ds_config.reads.error_rate_3p = err3;
        let dataset = fc_sim::generate_dataset("D1", &ds_config, 1001).expect("data set generates");
        let assembler = FocusAssembler::new(standard_config()).expect("config valid");
        let stages = assembler
            .prepare_stages(&dataset.reads)
            .expect("prepare succeeds");
        let prepared = &stages.prepared;

        let g0 = stages.graph.undirected.node_count();
        let h0 = prepared.hybrid.node_count();
        let procs = stages.multilevel.level_count().max(8);
        let hybrid = partition_graph_set(&prepared.hybrid.set, &PartitionConfig::new(16, 7))
            .expect("hybrid partitioning succeeds");
        let multi = partition_graph_set(&stages.multilevel.set, &PartitionConfig::new(16, 7))
            .expect("multilevel partitioning succeeds");
        let ratio_time = partition_runtime(&hybrid, procs) / partition_runtime(&multi, procs);
        let stats = assembler
            .assemble_prepared(prepared, 16)
            .expect("assembly succeeds")
            .stats;

        println!(
            "{:>9} {:>9} {:>9.3} {:>9} {:>9} {:>9.3} {:>9.3} {:>9}",
            repeat_copies,
            repeat_len,
            err3,
            g0,
            h0,
            h0 as f64 / g0 as f64,
            ratio_time,
            stats.n50,
        );
    }
    println!("\n(the paper's real metagenomes sit in the middle of this sweep: compression");
    println!(" ratio ~0.5 and time ratio ~0.5; contiguity falls as repeats defeat the test)");
}
