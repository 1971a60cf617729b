//! Fig. 7 — distribution of major genera across graph partitions.
//!
//! Reads are classified to genera against the reference genomes (k-mer
//! best-hit, standing in for BWA + the HMP gut database); the 16-way hybrid
//! partitioning is projected onto reads; the genus × partition fraction
//! matrix is rendered as a heat map. The paper's findings: genera
//! concentrate in few partitions (≫ 1/k), and same-phylum genera co-cluster
//! more than cross-phylum ones.

use fc_bench::bench_scale;
use fc_bench::harness::prepare_context;
use fc_classify::{GenusDistribution, KmerClassifier, PhylumCoclustering};
use fc_partition::{partition_graph_set, PartitionConfig};
use fc_seq::DnaString;

const K_PARTITIONS: usize = 16;
const K_MER: usize = 21;
const SEED: u64 = 13;

fn main() {
    let scale = bench_scale();
    let ctx = prepare_context(scale);

    for (d, s) in ctx.datasets.iter().zip(&ctx.stages) {
        let genomes: Vec<DnaString> = d.taxonomy.genera.iter().map(|g| g.genome.clone()).collect();
        let classifier = KmerClassifier::build(&genomes, K_MER).expect("classifier builds");
        let labels = classifier.classify_all(&d.reads);

        let partition = partition_graph_set(
            &s.prepared.hybrid.set,
            &PartitionConfig::new(K_PARTITIONS, SEED),
        )
        .expect("partitioning succeeds");
        let node_parts = s
            .prepared
            .hybrid
            .project_partition_to_reads(partition.finest());

        let genera: Vec<String> = d.taxonomy.genera.iter().map(|g| g.name.clone()).collect();
        let dist = GenusDistribution::build(&s.store, &node_parts, &labels, &genera, K_PARTITIONS)
            .expect("distribution builds");

        println!(
            "\n=== Fig. 7 ({}): genus x partition heat map, k = {K_PARTITIONS} ===",
            d.name
        );
        print!("{}", fc_classify::render_text(&dist));

        let phylum_of: Vec<usize> = d.taxonomy.genera.iter().map(|g| g.phylum_index).collect();
        let cc = PhylumCoclustering::compute(&dist, &phylum_of);
        let mean_concentration: f64 = (0..genera.len())
            .filter(|&g| dist.genus_counts[g] > 0)
            .map(|g| dist.concentration(g))
            .sum::<f64>()
            / genera.len() as f64;
        println!(
            "mean genus concentration: {:.3} (uniform would be {:.3})",
            mean_concentration,
            1.0 / K_PARTITIONS as f64
        );
        println!(
            "phylum co-clustering: within = {:.3}, cross = {:.3}",
            cc.within_phylum, cc.cross_phylum
        );
    }
    println!("\n(paper: genera concentrate in few partitions; same-phylum genera co-cluster)");
}
