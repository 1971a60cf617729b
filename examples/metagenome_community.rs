//! Metagenome assembly + community structure: the paper's gut-microbiome
//! scenario end to end (assembly, classification, partition heat map).
//!
//! ```text
//! cargo run --release --example metagenome_community
//! ```

use focus_assembler::classify::{
    ClassifierAccuracy, GenusDistribution, KmerClassifier, PhylumCoclustering,
};
use focus_assembler::focus::{FocusAssembler, FocusConfig};
use focus_assembler::partition::{partition_graph_set, PartitionConfig};
use focus_assembler::seq::DnaString;
use focus_assembler::sim::{generate_dataset, DatasetConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Simulate a gut-like community: ten genera over three phyla,
    //    skewed abundances, 100 bp reads.
    let mut ds_config = DatasetConfig::paper_scale(1.0);
    let dataset = generate_dataset("gut", &ds_config, 7)?;
    ds_config.total_reads = dataset.reads.len();
    println!("community of {} genera:", dataset.taxonomy.genus_count());
    for (gi, genus) in dataset.taxonomy.genera.iter().enumerate() {
        println!(
            "  {:<18} ({:<14}) abundance {:.3}",
            genus.name,
            genus.phylum,
            dataset.community.abundance(gi)
        );
    }

    // 2. Run pipeline stages 1-5 once, then partition 16 ways.
    let assembler = FocusAssembler::new(FocusConfig::default())?;
    let stages = assembler.prepare_stages(&dataset.reads)?;
    let prepared = &stages.prepared;
    println!(
        "\noverlap graph: {} nodes, {} edges -> hybrid graph: {} nodes",
        stages.graph.undirected.node_count(),
        stages.graph.undirected.edge_count(),
        prepared.hybrid.node_count()
    );
    let result = assembler.assemble_prepared(prepared, 16)?;
    println!(
        "assembled {} contigs, N50 {} bp, max {} bp",
        result.stats.num_contigs, result.stats.n50, result.stats.max_contig
    );

    // 3. Classify reads against the genus reference genomes and build the
    //    genus x partition distribution (paper Fig. 7).
    let genomes: Vec<DnaString> = dataset
        .taxonomy
        .genera
        .iter()
        .map(|g| g.genome.clone())
        .collect();
    let classifier = KmerClassifier::build(&genomes, 21)?;
    let labels = classifier.classify_all(&dataset.reads);
    let accuracy =
        ClassifierAccuracy::assess(&labels, &dataset.origins, dataset.taxonomy.genus_count())?;
    println!(
        "\nclassifier check vs ground truth: accuracy {:.3}, unclassified {:.3}",
        accuracy.accuracy, accuracy.unclassified_rate
    );

    let partition = partition_graph_set(&prepared.hybrid.set, &PartitionConfig::new(16, 3))?;
    let node_parts = prepared
        .hybrid
        .project_partition_to_reads(partition.finest());
    let genera: Vec<String> = dataset
        .taxonomy
        .genera
        .iter()
        .map(|g| g.name.clone())
        .collect();
    let dist = GenusDistribution::build(&stages.store, &node_parts, &labels, &genera, 16)?;

    println!("\ngenus x partition heat map (darker = more of the genus's reads):");
    print!("{}", focus_assembler::classify::render_text(&dist));

    let phylum_of: Vec<usize> = dataset
        .taxonomy
        .genera
        .iter()
        .map(|g| g.phylum_index)
        .collect();
    let cc = PhylumCoclustering::compute(&dist, &phylum_of);
    println!(
        "within-phylum co-clustering {:.3} vs cross-phylum {:.3}",
        cc.within_phylum, cc.cross_phylum
    );
    Ok(())
}
