//! Fault tolerance: crash a worker rank mid-trimming and watch the
//! distributed stage recover — the final contigs are identical to the
//! fault-free run, only the virtual clock and the fault report differ.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use focus_assembler::dist::{DistributedHybrid, FaultPlan, PhaseId};
use focus_assembler::focus::{FocusAssembler, FocusConfig};
use focus_assembler::partition::{partition_graph_set, PartitionConfig};
use focus_assembler::sim::single_genome_dataset;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Simulate and prepare a dataset once (stages 1–5 are unaffected by
    //    faults; only the distributed stage runs on the virtual cluster).
    let dataset = single_genome_dataset(20_000, 12.0, 42)?;
    let config = FocusConfig::default();
    let assembler = FocusAssembler::new(config)?;
    let prepared = assembler.prepare(&dataset.reads)?;

    let k = 8;
    let partition = partition_graph_set(
        &prepared.hybrid.set,
        &PartitionConfig::new(k, config.partition_seed),
    )?;
    let parts = partition.finest().to_vec();
    let build = || {
        let contigs = Arc::clone(&prepared.contigs);
        DistributedHybrid::from_contigs(&prepared.hybrid, contigs, parts.clone(), k)
    };

    // 2. Fault-free baseline.
    let mut clean_dh = build()?;
    let clean = clean_dh.run_with_faults(&config.dist, FaultPlan::none())?;
    println!(
        "clean run : {} paths, trimming {:.0} + traversal {:.0} virtual units, {} messages",
        clean.paths.len(),
        clean.trimming_time,
        clean.traversal_time,
        clean.messages
    );

    // 3. Same pipeline, but rank 3 crashes during dead-end/bubble removal
    //    (mid-trimming). The master times the rank out, reassigns its
    //    partition to the least-loaded survivor and re-runs the lost scan.
    let plan = FaultPlan::single_crash(PhaseId::ErrorRemoval, 3);
    let mut faulty_dh = build()?;
    let faulty = faulty_dh.run_with_faults(&config.dist, plan)?;
    println!(
        "faulty run: {} paths, trimming {:.0} + traversal {:.0} virtual units, {} messages",
        faulty.paths.len(),
        faulty.trimming_time,
        faulty.traversal_time,
        faulty.messages
    );

    // 4. The fault report: what happened and what recovery cost.
    let f = &faulty.fault;
    println!("\nfault report:");
    println!("  crashes                  : {}", f.crashes);
    println!("  retries (retransmissions): {}", f.retries);
    println!("  retransmitted bytes      : {}", f.retransmitted_bytes);
    println!(
        "  speculative re-executions: {}",
        f.speculative_reexecutions
    );
    println!("  recovery virtual time    : {:.0}", f.recovery_time);
    println!("  degraded                 : {}", f.degraded);

    // 5. The invariant this whole subsystem is built around: worker scans
    //    are pure, so recovery by re-invocation reproduces the result
    //    exactly.
    assert_eq!(
        clean.paths, faulty.paths,
        "recovered run must match the clean run"
    );
    let contigs_match = clean
        .paths
        .iter()
        .zip(&faulty.paths)
        .all(|(a, b)| a.nodes == b.nodes);
    println!(
        "\ncontigs identical to fault-free run: {}",
        if contigs_match { "yes" } else { "NO — bug!" }
    );
    let overhead = (faulty.trimming_time + faulty.traversal_time)
        / (clean.trimming_time + clean.traversal_time);
    println!("virtual-time overhead of recovery : {:.2}x", overhead);
    Ok(())
}
