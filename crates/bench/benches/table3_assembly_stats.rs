//! Table III — assembly statistics across partition counts.
//!
//! The full pipeline runs on each data set with k ∈ {4, 16, 32, 64}
//! partitions. The paper's claim is *consistency*: N50, maximum contig
//! length and contig count barely change with k, demonstrating that
//! partitioning the hybrid graph does not cost assembly quality.

use fc_bench::harness::prepare_context;
use fc_bench::{bench_scale, print_table_header};

const KS: [usize; 4] = [4, 16, 32, 64];

fn main() {
    let scale = bench_scale();
    let ctx = prepare_context(scale);

    print_table_header(
        &format!("Table III: assembly statistics vs partition count (scale {scale})"),
        &["set", "k", "N50(bp)", "max(bp)", "contigs", "Mbases"],
        10,
    );

    for (d, p) in ctx.datasets.iter().zip(ctx.prepared()) {
        for &k in &KS {
            let result = ctx
                .assembler
                .assemble_prepared(p, k)
                .expect("assembly succeeds");
            println!(
                "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10.3}",
                d.name,
                k,
                result.stats.n50,
                result.stats.max_contig,
                result.stats.num_contigs,
                result.stats.total_bases as f64 / 1e6,
            );
        }
    }
    println!(
        "\n(paper: stats essentially constant across k — e.g. D1 N50 2082-2083 bp for k=4..64)"
    );
}
