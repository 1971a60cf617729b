//! Ablation — the §IV-B KL speed-ups.
//!
//! The paper's KL uses (a) the fifty-non-improving-swap early stop and
//! (b) diagonal scanning over D-sorted queues. This bench ablates (a) by
//! sweeping `max_bad_moves` and reports both the runtime and the cut
//! quality, quantifying what the cutoff trades away (paper's answer:
//! essentially nothing).

use fc_bench::harness::overlap_like_graph;
use fc_bench::print_table_header;
use fc_partition::kl::KlConfig;
use fc_partition::{greedy_grow, kl_refine, LocalGraph};
use std::time::Instant;

fn main() {
    let g = overlap_like_graph(4000, 11);
    let nodes: Vec<u32> = (0..g.node_count() as u32).collect();
    let local = LocalGraph::extract(&g, &nodes);

    print_table_header(
        "Ablation: KL early-stop budget (4k-node overlap-like graph)",
        &["bad_moves", "cut", "gain", "work", "time_ms"],
        12,
    );

    for &budget in &[5usize, 20, 50, 200, 1000, usize::MAX] {
        let mut work = 0u64;
        let mut side = greedy_grow(&local, 21, &mut work);
        let before = local.cut(&side);
        let config = KlConfig {
            max_bad_moves: budget,
        };
        let t = Instant::now();
        let mut kl_work = 0u64;
        let gain = kl_refine(&local, &mut side, &config, &mut kl_work);
        let elapsed = t.elapsed().as_secs_f64() * 1000.0;
        println!(
            "{:>12} {:>12} {:>12} {:>12} {:>12.2}",
            if budget == usize::MAX {
                "unlimited".to_string()
            } else {
                budget.to_string()
            },
            before - gain,
            gain,
            kl_work,
            elapsed
        );
    }
    println!("\n(expected: cut quality saturates near budget 50 — the paper's choice — while");
    println!(" work keeps growing with larger budgets)");
}
