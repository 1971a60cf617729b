//! Assembled synthetic data sets, including the paper analogues D1–D3.

use crate::community::CommunityProfile;
use crate::error::SimError;
use crate::genome::GenomeConfig;
use crate::phylo::{Taxonomy, TaxonomyConfig};
use crate::reads::{simulate_reads, simulate_reads_to, ReadOrigin, ReadSimConfig};
use fc_seq::Read;
use std::io::Write;

/// Everything needed to run an experiment on one synthetic data set.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Data-set name (e.g. `"D1"`, standing in for SRR513170).
    pub name: String,
    /// The taxonomy the reads were sampled from; genus genomes double as the
    /// classification reference database (paper §VI-E used BWA + the HMP gut
    /// reference set).
    pub taxonomy: Taxonomy,
    /// Relative genus abundances.
    pub community: CommunityProfile,
    /// The simulated reads, in simulation order.
    pub reads: Vec<Read>,
    /// Ground-truth origin of each read (parallel to `reads`).
    pub origins: Vec<ReadOrigin>,
    /// Seed the data set was generated from.
    pub seed: u64,
}

impl Dataset {
    /// Total bases across all reads.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(Read::len).sum()
    }

    /// Read length (all simulated reads share one length).
    pub fn read_len(&self) -> usize {
        self.reads.first().map_or(0, Read::len)
    }
}

/// Parameters for building a [`Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Taxonomy (phyla/genera/genomes) parameters.
    pub taxonomy: TaxonomyConfig,
    /// Read simulator parameters.
    pub reads: ReadSimConfig,
    /// Total reads across all genera.
    pub total_reads: usize,
    /// Abundance skew (`sigma` of [`CommunityProfile::log_normal`]).
    pub abundance_sigma: f64,
}

impl Default for DatasetConfig {
    fn default() -> DatasetConfig {
        DatasetConfig {
            taxonomy: TaxonomyConfig::default(),
            reads: ReadSimConfig::default(),
            total_reads: 10_000,
            abundance_sigma: 0.8,
        }
    }
}

impl DatasetConfig {
    /// The benchmark-scale configuration used by the experiment harness:
    /// ten gut genera over three phyla, 12 kb genomes with dispersed
    /// repeats, 100 bp reads at ~8× community-wide coverage. `scale`
    /// multiplies the read count (and hence coverage); 1.0 is the default
    /// benchmark size, tests use much smaller values.
    pub fn paper_scale(scale: f64) -> DatasetConfig {
        let mut config = DatasetConfig::default();
        config.taxonomy.genome = GenomeConfig {
            length: 12_000,
            repeat_copies: 3,
            repeat_len: 250,
        };
        config.total_reads = ((10_000.0 * scale).round() as usize).max(10);
        config
    }

    /// A deliberately tiny configuration for unit/integration tests.
    pub fn test_scale() -> DatasetConfig {
        let mut config = DatasetConfig::default();
        config.taxonomy.genera = crate::phylo::GUT_GENERA[..4]
            .iter()
            .map(|&(g, p)| (g.to_string(), p.to_string()))
            .collect();
        config.taxonomy.genome = GenomeConfig {
            length: 3_000,
            repeat_copies: 0,
            repeat_len: 0,
        };
        config.total_reads = 900;
        config
    }
}

/// Builds a data set deterministically from `config` and `seed`.
pub fn generate(name: &str, config: &DatasetConfig, seed: u64) -> Result<Dataset, SimError> {
    let taxonomy = Taxonomy::generate(&config.taxonomy, seed)?;
    let community = CommunityProfile::log_normal(
        taxonomy.genus_count(),
        config.abundance_sigma,
        seed ^ 0x5151,
    );
    let counts = community.read_counts(config.total_reads);

    let mut reads = Vec::with_capacity(config.total_reads);
    let mut origins = Vec::with_capacity(config.total_reads);
    for (gi, (genus, &count)) in taxonomy.genera.iter().zip(&counts).enumerate() {
        simulate_reads(
            &genus.genome,
            gi as u32,
            count,
            &config.reads,
            seed.wrapping_mul(31).wrapping_add(gi as u64),
            &format!("{name}_{}", genus.name),
            &mut reads,
            &mut origins,
        )?;
    }
    Ok(Dataset {
        name: name.to_string(),
        taxonomy,
        community,
        reads,
        origins,
        seed,
    })
}

/// What [`generate_to`] streamed: enough to report coverage and read counts
/// without the reads themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Reads written.
    pub reads: usize,
    /// Total bases written.
    pub bases: u64,
}

/// Streams the data set `generate` would build straight to a FASTQ writer,
/// holding one read in memory at a time — O(1) memory in `total_reads`, so
/// inputs far bigger than RAM can be synthesized.
///
/// The RNG schedule is shared with [`generate`]: for the same `(name,
/// config, seed)` the bytes written here equal `fc_seq::fastq::write` over
/// [`Dataset::reads`]. Only the reads stream out; the taxonomy and
/// community (small, genome-sized) are built in memory as usual and
/// discarded.
pub fn generate_to<W: Write>(
    mut out: W,
    name: &str,
    config: &DatasetConfig,
    seed: u64,
) -> Result<StreamSummary, SimError> {
    let taxonomy = Taxonomy::generate(&config.taxonomy, seed)?;
    let community = CommunityProfile::log_normal(
        taxonomy.genus_count(),
        config.abundance_sigma,
        seed ^ 0x5151,
    );
    let counts = community.read_counts(config.total_reads);

    let mut summary = StreamSummary { reads: 0, bases: 0 };
    for (gi, (genus, &count)) in taxonomy.genera.iter().zip(&counts).enumerate() {
        simulate_reads_to(
            &genus.genome,
            gi as u32,
            count,
            &config.reads,
            seed.wrapping_mul(31).wrapping_add(gi as u64),
            &format!("{name}_{}", genus.name),
            &mut |read, _origin| {
                fc_seq::fastq::write_read(&mut out, &read, 30).map_err(|e| SimError::Io {
                    message: e.to_string(),
                })?;
                summary.reads += 1;
                summary.bases += read.len() as u64;
                Ok(())
            },
        )?;
    }
    out.flush().map_err(|e| SimError::Io {
        message: e.to_string(),
    })?;
    Ok(summary)
}

/// The three deterministic paper-analogue data sets (Table I substitutes):
/// same taxonomy parameters, different seeds/abundances — mirroring three
/// different gut samples sequenced the same way.
pub fn paper_datasets(scale: f64) -> Result<Vec<Dataset>, SimError> {
    let config = DatasetConfig::paper_scale(scale);
    [("D1", 1001u64), ("D2", 2002), ("D3", 3003)]
        .iter()
        .map(|&(name, seed)| generate(name, &config, seed))
        .collect()
}

/// The name [`single_genome_dataset`] generates under; stream the same
/// reads with `generate_to(out, SINGLE_GENOME_NAME, &config, seed)`.
pub const SINGLE_GENOME_NAME: &str = "single";

/// The configuration of a single-genome (non-metagenomic) data set: one
/// genome of `genome_len` bases covered at `coverage`×. A coverage that is
/// not finite and positive, or whose read count does not fit a `usize`, is
/// a typed [`SimError::Config`] on `coverage`.
pub fn single_genome_config(genome_len: usize, coverage: f64) -> Result<DatasetConfig, SimError> {
    let invalid = |message: String| SimError::Config {
        parameter: "coverage",
        message,
    };
    if !(coverage.is_finite() && coverage > 0.0) {
        return Err(invalid(format!("must be finite and > 0, got {coverage}")));
    }
    let mut config = DatasetConfig::default();
    config.taxonomy.genera = vec![("Escherichia".to_string(), "Proteobacteria".to_string())];
    config.taxonomy.genome = GenomeConfig {
        length: genome_len,
        repeat_copies: 0,
        repeat_len: 0,
    };
    config.abundance_sigma = 0.0;
    let reads = ((genome_len as f64 * coverage) / config.reads.read_len as f64).round();
    // `usize::MAX as f64` rounds up to 2^64, the first count that overflows.
    if reads >= usize::MAX as f64 {
        return Err(invalid(format!(
            "{coverage}x of {genome_len} bp is {reads} reads, more than a usize counts"
        )));
    }
    config.total_reads = reads as usize;
    Ok(config)
}

/// A single-genome (non-metagenomic) data set for quickstarts and tests:
/// one genome of `genome_len` bases covered at `coverage`×
/// ([`single_genome_config`]).
pub fn single_genome_dataset(
    genome_len: usize,
    coverage: f64,
    seed: u64,
) -> Result<Dataset, SimError> {
    generate(
        SINGLE_GENOME_NAME,
        &single_genome_config(genome_len, coverage)?,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_test_scale_dataset() {
        let d = generate("T", &DatasetConfig::test_scale(), 42).unwrap();
        assert_eq!(d.reads.len(), 900);
        assert_eq!(d.origins.len(), 900);
        assert_eq!(d.taxonomy.genus_count(), 4);
        assert_eq!(d.read_len(), 100);
        assert_eq!(d.total_bases(), 90_000);
    }

    #[test]
    fn read_counts_respect_abundances() {
        let d = generate("T", &DatasetConfig::test_scale(), 7).unwrap();
        let mut per_genus = vec![0usize; d.taxonomy.genus_count()];
        for o in &d.origins {
            per_genus[o.genus as usize] += 1;
        }
        assert_eq!(per_genus.iter().sum::<usize>(), 900);
        for (gi, &count) in per_genus.iter().enumerate() {
            let expected = d.community.abundance(gi) * 900.0;
            assert!(
                (count as f64 - expected).abs() <= 1.0,
                "genus {gi}: {count} vs expected {expected}"
            );
        }
    }

    #[test]
    fn generate_to_streams_byte_identical_fastq() {
        let single = single_genome_config(3_000, 6.0).unwrap();
        for (name, config) in [
            ("T", DatasetConfig::test_scale()),
            (SINGLE_GENOME_NAME, single),
        ] {
            let d = generate(name, &config, 42).unwrap();
            let mut collected = Vec::new();
            fc_seq::fastq::write(&mut collected, &d.reads, 30).unwrap();

            let mut streamed = Vec::new();
            let summary = generate_to(&mut streamed, name, &config, 42).unwrap();
            assert_eq!(streamed, collected, "streamed FASTQ must match collected");
            assert_eq!(summary.reads, d.reads.len());
            assert_eq!(summary.bases, d.total_bases() as u64);
        }
    }

    #[test]
    fn generate_to_surfaces_write_errors_typed() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = generate_to(Broken, "T", &DatasetConfig::test_scale(), 1).unwrap_err();
        assert!(matches!(err, SimError::Io { .. }), "{err}");
    }

    #[test]
    fn paper_datasets_are_three_distinct_sets() {
        let sets = paper_datasets(0.02).unwrap();
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].name, "D1");
        // Different seeds must give different reads and abundances.
        assert_ne!(sets[0].reads[0].seq, sets[1].reads[0].seq);
        assert_ne!(sets[0].community, sets[1].community);
        // But the same shape.
        assert_eq!(sets[0].reads.len(), sets[1].reads.len());
        assert_eq!(sets[0].taxonomy.genus_count(), 10);
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = generate("T", &DatasetConfig::test_scale(), 5).unwrap();
        let b = generate("T", &DatasetConfig::test_scale(), 5).unwrap();
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.origins, b.origins);
    }

    #[test]
    fn single_genome_dataset_has_one_genus() {
        let d = single_genome_dataset(4_000, 10.0, 9).unwrap();
        assert_eq!(d.taxonomy.genus_count(), 1);
        assert_eq!(d.reads.len(), 400);
        assert!(d.origins.iter().all(|o| o.genus == 0));
    }

    /// Coverage is refused, typed, before anything is allocated when it is
    /// not finite and positive or its read count overflows a `usize`.
    #[test]
    fn hostile_coverage_is_a_config_error() {
        for coverage in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -5.0, 0.0, 1e300] {
            let err = single_genome_config(20_000, coverage).unwrap_err();
            assert!(
                matches!(
                    err,
                    SimError::Config {
                        parameter: "coverage",
                        ..
                    }
                ),
                "{coverage}: {err}"
            );
            assert!(err.to_string().starts_with("invalid coverage"), "{err}");
        }
        assert_eq!(single_genome_config(20_000, 1e-9).unwrap().total_reads, 0);
    }
}
