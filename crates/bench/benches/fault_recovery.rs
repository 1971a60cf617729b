//! Fault recovery overhead — virtual-time cost of the recovery machinery
//! as a function of the injected fault rate.
//!
//! The partitioned hybrid graph of each data set runs the distributed
//! pipeline (k = 16) under seeded random fault plans at increasing crash /
//! message-drop rates. For every rate the table reports the mean (over
//! seeds) virtual-time overhead relative to the fault-free run, plus mean
//! crash, retry and speculation counts. Because recovery re-invokes pure
//! worker scans, every recoverable run's paths are identical to the clean
//! run's — that is asserted, not just claimed. Unrecoverable runs (the
//! whole cluster lost) are reported in the `lost` column.

use fc_bench::harness::{mean_sd, prepare_context};
use fc_bench::{bench_scale, print_table_header};
use fc_dist::{DistributedHybrid, FaultPlan, FaultRates};
use fc_partition::{partition_graph_set, PartitionConfig};
use std::sync::Arc;

const K: usize = 16;
const SEED: u64 = 3;
const FAULT_SEEDS: [u64; 5] = [11, 23, 37, 53, 71];
const RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

fn main() {
    let scale = bench_scale();
    let ctx = prepare_context(scale);

    print_table_header(
        &format!("Fault recovery: virtual-time overhead vs fault rate (k = {K}, scale {scale})"),
        &[
            "set", "rate", "overhead", "crashes", "retries", "specul.", "lost",
        ],
        9,
    );

    for (d, p) in ctx.datasets.iter().zip(ctx.prepared()) {
        let partition = partition_graph_set(&p.hybrid.set, &PartitionConfig::new(K, SEED))
            .expect("partitioning succeeds");
        let dh0 = DistributedHybrid::from_contigs(
            &p.hybrid,
            Arc::clone(&p.contigs),
            partition.finest().to_vec(),
            K,
        )
        .expect("distribution set-up succeeds");
        let config = ctx.assembler.config().dist;
        let clean = dh0
            .clone()
            .run_with_faults(&config, FaultPlan::none())
            .expect("clean run succeeds");
        let clean_time = clean.trimming_time + clean.traversal_time;

        for &rate in &RATES {
            let rates = FaultRates {
                crash: rate,
                drop: rate,
                delay: rate,
                straggle: rate / 2.0,
                ..Default::default()
            };
            let mut overheads = Vec::new();
            let mut crashes = Vec::new();
            let mut retries = Vec::new();
            let mut speculations = Vec::new();
            let mut lost = 0usize;
            for &fault_seed in &FAULT_SEEDS {
                let plan = FaultPlan::random(fault_seed, K, &rates);
                let mut dh = dh0.clone();
                match dh.run_with_faults(&config, plan) {
                    Ok(report) => {
                        assert_eq!(
                            report.paths, clean.paths,
                            "recovered run must reproduce the clean paths"
                        );
                        let time = report.trimming_time + report.traversal_time;
                        overheads.push(time / clean_time);
                        crashes.push(report.fault.crashes as f64);
                        retries.push(report.fault.retries as f64);
                        speculations.push(report.fault.speculative_reexecutions as f64);
                    }
                    Err(_) => lost += 1,
                }
            }
            let (overhead, _) = mean_sd(&overheads);
            let (crash_mean, _) = mean_sd(&crashes);
            let (retry_mean, _) = mean_sd(&retries);
            let (spec_mean, _) = mean_sd(&speculations);
            println!(
                "{:>9} {:>9.2} {:>8.2}x {:>9.1} {:>9.1} {:>9.1} {:>9}",
                d.name, rate, overhead, crash_mean, retry_mean, spec_mean, lost
            );
        }
    }
    println!("\n(overhead grows with the fault rate; paths always equal the fault-free run)");
}
