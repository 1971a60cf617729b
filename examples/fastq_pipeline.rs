//! File-based pipeline: write simulated reads to FASTQ, assemble the file,
//! and write the contigs as FASTA — the shape of a real workflow.
//!
//! ```text
//! cargo run --release --example fastq_pipeline [-- /tmp/workdir]
//! ```

use focus_assembler::focus::{AssemblyOutcome, CheckpointOptions, FocusAssembler, FocusConfig};
use focus_assembler::seq::fastq;
use focus_assembler::sim::single_genome_dataset;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&dir)?;
    let reads_path = dir.join("focus_example_reads.fastq");
    let contigs_path = dir.join("focus_example_contigs.fasta");

    // 1. Simulate and write FASTQ (with real quality strings).
    let dataset = single_genome_dataset(10_000, 10.0, 3)?;
    fastq::write(
        BufWriter::new(File::create(&reads_path)?),
        &dataset.reads,
        30,
    )?;
    println!(
        "wrote {} reads to {}",
        dataset.reads.len(),
        reads_path.display()
    );

    // 2. Assemble the file with quality trimming enabled (the simulated
    //    reads carry degraded 3' tails for the trimmer to remove). The
    //    file streams into the read store, never held whole; a FASTA file
    //    (.fasta/.fa/.fna) goes the same way, its format told by extension.
    let mut config = FocusConfig::default();
    config.trim.window_len = 10;
    config.trim.min_quality = 15.0;
    config.dedup_rc = true;
    let assembler = FocusAssembler::new(config)?;
    let outcome = assembler.assemble_file(&reads_path, &CheckpointOptions::default())?;
    let AssemblyOutcome::Completed(result) = outcome else {
        return Err("the run stopped without a stop request".into());
    };
    println!(
        "assembled {} contigs (N50 {} bp, max {} bp)",
        result.stats.num_contigs, result.stats.n50, result.stats.max_contig
    );

    // 3. Write contigs as FASTA, the way `focus assemble` does.
    let mut out = BufWriter::new(File::create(&contigs_path)?);
    result.write_fasta(&mut out)?;
    out.flush()?;
    println!("wrote contigs to {}", contigs_path.display());
    Ok(())
}
