//! Partition explorer: compare partitioning the hybrid graph set against
//! the multilevel (overlap) graph set across partition counts — the paper's
//! central "biological knowledge pays" experiment, interactively sized.
//!
//! ```text
//! cargo run --release --example partition_explorer [-- <reads> <max_k>]
//! ```

use focus_assembler::dist::cluster::{schedule_phases, CostModel};
use focus_assembler::focus::{FocusAssembler, FocusConfig};
use focus_assembler::partition::{
    edge_cut, partition_balance, partition_graph_set, PartitionConfig,
};
use focus_assembler::sim::single_genome_dataset;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n_reads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4000);
    let max_k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);

    // One long genome makes the linearity structure obvious.
    let genome_len = n_reads * 100 / 10; // ~10x coverage
    let dataset = single_genome_dataset(genome_len, 10.0, 11)?;
    let assembler = FocusAssembler::new(FocusConfig::default())?;
    let stages = assembler.prepare_stages(&dataset.reads)?;
    let prepared = &stages.prepared;

    println!(
        "overlap graph G0: {} nodes / {} edges; multilevel levels: {}; hybrid G'0: {} nodes",
        stages.graph.undirected.node_count(),
        stages.graph.undirected.edge_count(),
        stages.multilevel.level_count(),
        prepared.hybrid.node_count(),
    );
    println!(
        "\n{:>4} {:>14} {:>14} {:>10} {:>10} {:>10}",
        "k", "cut(hybrid)", "cut(overlap)", "bal(hyb)", "bal(ovl)", "time ratio"
    );

    let mut k = 2usize;
    while k <= max_k {
        let hybrid = partition_graph_set(&prepared.hybrid.set, &PartitionConfig::new(k, 5))?;
        let multi = partition_graph_set(&stages.multilevel.set, &PartitionConfig::new(k, 5))?;

        // Compare cuts on the same graph (G0) by projecting the hybrid
        // assignment onto reads.
        let read_parts = prepared.hybrid.project_partition_to_reads(hybrid.finest());
        let cut_h = edge_cut(&stages.graph.undirected, &read_parts);
        let cut_m = edge_cut(&stages.graph.undirected, multi.finest());
        let bal_h = partition_balance(&stages.graph.undirected, &read_parts, k);
        let bal_m = partition_balance(&stages.graph.undirected, multi.finest(), k);

        // Virtual runtimes on k/2 simulated processors.
        let procs = (k / 2).max(1);
        let t_h = schedule_phases(&hybrid.phases(), procs, CostModel::default());
        let t_m = schedule_phases(&multi.phases(), procs, CostModel::default());

        println!(
            "{:>4} {:>14} {:>14} {:>10.3} {:>10.3} {:>10.2}",
            k,
            cut_h,
            cut_m,
            bal_h,
            bal_m,
            t_h / t_m
        );
        k *= 2;
    }
    println!("\n(time ratio < 1 means the hybrid set partitions faster — the paper's claim)");
    Ok(())
}
