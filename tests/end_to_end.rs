//! Workspace integration tests: the full pipeline over simulated data,
//! checked against ground truth.

use focus_assembler::classify::KmerClassifier;
use focus_assembler::focus::{FocusAssembler, FocusConfig};
use focus_assembler::seq::DnaString;
use focus_assembler::sim::{generate_dataset, single_genome_dataset, DatasetConfig};

fn quick_config(k: usize) -> FocusConfig {
    FocusConfig {
        partitions: k,
        ..Default::default()
    }
}

/// Every `check_k`-mer of `contig` must occur in the genome (either strand):
/// the assembly invented no sequence.
fn assert_contig_faithful(contig: &DnaString, genome: &DnaString, check_k: usize) {
    let mut genome_kmers: Vec<u64> = genome.kmers(check_k).map(|(_, km)| km).collect();
    genome_kmers.extend(genome.reverse_complement().kmers(check_k).map(|(_, km)| km));
    genome_kmers.sort_unstable();
    for (pos, kmer) in contig.kmers(check_k) {
        assert!(
            genome_kmers.binary_search(&kmer).is_ok(),
            "contig {check_k}-mer at {pos} not present in the genome"
        );
    }
}

#[test]
fn single_genome_error_free_reconstruction() {
    // Error-free reads: contigs must be exact genome substrings.
    let dataset = {
        let mut config = DatasetConfig::default();
        config.taxonomy.genera = vec![("Escherichia".to_string(), "Proteobacteria".to_string())];
        config.taxonomy.genome.length = 6_000;
        config.taxonomy.genome.repeat_copies = 0;
        config.reads.error_rate_5p = 0.0;
        config.reads.error_rate_3p = 0.0;
        config.reads.bad_tail_probability = 0.0;
        // 20x coverage: the chance of a >50 bp gap between consecutive read
        // starts (which necessarily breaks a contig at the 50 bp overlap
        // threshold) is negligible.
        config.total_reads = 1200;
        generate_dataset("clean", &config, 9).unwrap()
    };
    let genome = dataset.taxonomy.genera[0].genome.clone();

    let assembler = FocusAssembler::new(quick_config(8)).unwrap();
    let result = assembler.assemble(&dataset.reads).unwrap();

    assert!(
        result.stats.max_contig >= genome.len() * 9 / 10,
        "max contig {} too short for a {} bp genome",
        result.stats.max_contig,
        genome.len()
    );
    for contig in &result.contigs {
        if contig.len() >= 64 {
            assert_contig_faithful(contig, &genome, 32);
        }
    }
}

#[test]
fn noisy_reads_still_assemble() {
    // Default error model: 0.2-1% substitutions plus degraded tails.
    let dataset = single_genome_dataset(5_000, 14.0, 4).unwrap();
    let genome_len = dataset.taxonomy.genera[0].genome.len();
    let assembler = FocusAssembler::new(quick_config(4)).unwrap();
    let result = assembler.assemble(&dataset.reads).unwrap();
    assert!(
        result.stats.max_contig >= genome_len / 3,
        "max contig {} too short under noise (genome {genome_len})",
        result.stats.max_contig
    );
    assert!(
        result.stats.n50 >= 300,
        "N50 {} too small",
        result.stats.n50
    );
}

#[test]
fn assembly_is_deterministic() {
    let dataset = single_genome_dataset(3_000, 10.0, 77).unwrap();
    let assembler = FocusAssembler::new(quick_config(4)).unwrap();
    let a = assembler.assemble(&dataset.reads).unwrap();
    let b = assembler.assemble(&dataset.reads).unwrap();
    let seq = |r: &focus_assembler::focus::AssemblyResult| {
        let mut v: Vec<String> = r.contigs.iter().map(|c| c.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(seq(&a), seq(&b));
    assert_eq!(a.stats.n50, b.stats.n50);
}

#[test]
fn metagenome_contigs_classify_to_single_genera() {
    let dataset = generate_dataset("meta", &DatasetConfig::test_scale(), 31).unwrap();
    let assembler = FocusAssembler::new(quick_config(8)).unwrap();
    let result = assembler.assemble(&dataset.reads).unwrap();
    assert!(!result.contigs.is_empty());

    let genomes: Vec<DnaString> = dataset
        .taxonomy
        .genera
        .iter()
        .map(|g| g.genome.clone())
        .collect();
    let classifier = KmerClassifier::build(&genomes, 21).unwrap();
    let mut classified = 0usize;
    let mut long_contigs = 0usize;
    for contig in &result.contigs {
        if contig.len() < 200 {
            continue;
        }
        long_contigs += 1;
        if classifier.classify_seq(contig).is_some() {
            classified += 1;
        }
    }
    assert!(long_contigs > 0, "expected some long contigs");
    assert_eq!(
        classified, long_contigs,
        "every long contig should classify against the reference genomes"
    );
}

#[test]
fn quality_trimming_removes_bad_tails_before_assembly() {
    // Crank up the tail corruption; with trimming the assembly should be
    // dramatically better than without.
    let mut config = DatasetConfig::default();
    config.taxonomy.genera = vec![("Escherichia".to_string(), "Proteobacteria".to_string())];
    config.taxonomy.genome.length = 4_000;
    config.taxonomy.genome.repeat_copies = 0;
    config.reads.bad_tail_probability = 0.9;
    config.reads.bad_tail_len = 30;
    config.total_reads = 560; // 14x
    let dataset = generate_dataset("tails", &config, 5).unwrap();

    let mut trimming = quick_config(4);
    trimming.trim.min_quality = 15.0;
    trimming.trim.window_len = 10;
    let with_trim = FocusAssembler::new(trimming)
        .unwrap()
        .assemble(&dataset.reads)
        .unwrap();

    let mut no_trimming = quick_config(4);
    no_trimming.trim.min_quality = -1.0; // every window passes: no trimming
    let without_trim = FocusAssembler::new(no_trimming)
        .unwrap()
        .assemble(&dataset.reads)
        .unwrap();

    assert!(
        with_trim.stats.n50 >= without_trim.stats.n50,
        "trimming should not hurt: {} vs {}",
        with_trim.stats.n50,
        without_trim.stats.n50
    );
    assert!(
        with_trim.stats.max_contig > 500,
        "trimmed assembly too fragmented: max {}",
        with_trim.stats.max_contig
    );
}

#[test]
fn metagenome_assembly_is_faithful_to_references() {
    use focus_assembler::focus::evaluate_against_references;
    let dataset = generate_dataset("faith", &DatasetConfig::test_scale(), 23).unwrap();
    let assembler = FocusAssembler::new(quick_config(8)).unwrap();
    let result = assembler.assemble(&dataset.reads).unwrap();
    let references: Vec<DnaString> = dataset
        .taxonomy
        .genera
        .iter()
        .map(|g| g.genome.clone())
        .collect();
    let eval = evaluate_against_references(&result.contigs, &references).unwrap();
    // The assembler invented (almost) nothing: contig k-mers trace back to
    // the references (consensus corrects most read errors; allow a little).
    assert!(
        eval.contig_accuracy > 0.95,
        "contig accuracy {}",
        eval.contig_accuracy
    );
    // Chimeric contigs (mixing genera) must be rare.
    assert!(
        eval.chimeric_contigs.len() * 20 <= eval.contigs_evaluated.max(1),
        "{} of {} contigs chimeric",
        eval.chimeric_contigs.len(),
        eval.contigs_evaluated
    );
    // A fair share of each sufficiently covered genome is recovered.
    assert!(
        eval.mean_genome_fraction() > 0.2,
        "fraction {}",
        eval.mean_genome_fraction()
    );
}

/// The node contigs the assembly walks — each cluster's per-column
/// consensus — are more accurate against the genome than the same
/// clusters merged first-wins, which keeps every error of the read that
/// covers a column first.
#[test]
fn consensus_improves_base_accuracy_over_first_wins() {
    use focus_assembler::focus::evaluate_against_references;
    let dataset = single_genome_dataset(5_000, 16.0, 33).unwrap();
    let references = vec![dataset.taxonomy.genera[0].genome.clone()];
    let p = FocusAssembler::new(quick_config(4))
        .unwrap()
        .prepare(&dataset.reads)
        .unwrap();
    let first_wins: Vec<DnaString> = p
        .hybrid
        .layouts
        .iter()
        .map(|layout| layout.contig_sequence(&p.store))
        .collect();
    let acc_with = evaluate_against_references(&p.contigs, &references)
        .unwrap()
        .contig_accuracy;
    let acc_without = evaluate_against_references(&first_wins, &references)
        .unwrap()
        .contig_accuracy;
    assert!(
        acc_with > acc_without,
        "consensus should be more accurate: {acc_with} vs {acc_without}"
    );
    assert!(acc_with > 0.98, "consensus accuracy too low: {acc_with}");
}
