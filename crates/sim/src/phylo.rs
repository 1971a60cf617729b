//! A small gut-like taxonomy of phyla and genera.
//!
//! The paper's Fig. 7 analysis works with the ten most abundant genera of the
//! human gut microbiome, spread over three phyla. We reproduce that taxonomy
//! with synthetic genomes: each phylum gets an ancestral genome; each genus
//! genome is derived from its phylum ancestor under the within-phylum
//! mutation model, and phylum ancestors are derived from a root genome under
//! the heavier between-phyla model. The result is the similarity structure
//! the paper exploits — same-phylum genera share alignable sequence.

use crate::error::SimError;
use crate::genome::{mutate_genome, random_genome, GenomeConfig, MutationModel};
use fc_seq::DnaString;

/// The ten major gut genera of paper Fig. 7 with their phylum memberships.
pub const GUT_GENERA: &[(&str, &str)] = &[
    ("Alistipes", "Bacteroidetes"),
    ("Bacteroides", "Bacteroidetes"),
    ("Prevotella", "Bacteroidetes"),
    ("Parabacteroides", "Bacteroidetes"),
    ("Clostridium", "Firmicutes"),
    ("Eubacterium", "Firmicutes"),
    ("Faecalibacterium", "Firmicutes"),
    ("Roseburia", "Firmicutes"),
    ("Escherichia", "Proteobacteria"),
    ("Acinetobacter", "Proteobacteria"),
];

/// Configuration for building a [`Taxonomy`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaxonomyConfig {
    /// `(genus name, phylum name)` pairs; defaults to [`GUT_GENERA`].
    pub genera: Vec<(String, String)>,
    /// Genome parameters shared by all genomes.
    pub genome: GenomeConfig,
    /// Divergence of phylum ancestors from the root.
    pub between_phyla: MutationModel,
    /// Divergence of genus genomes from their phylum ancestor.
    pub within_phylum: MutationModel,
}

impl Default for TaxonomyConfig {
    fn default() -> TaxonomyConfig {
        TaxonomyConfig {
            genera: GUT_GENERA
                .iter()
                .map(|&(g, p)| (g.to_string(), p.to_string()))
                .collect(),
            genome: GenomeConfig::default(),
            between_phyla: MutationModel::between_phyla(),
            within_phylum: MutationModel::within_phylum(),
        }
    }
}

/// One genus: a named genome assigned to a phylum.
#[derive(Debug, Clone)]
pub struct Genus {
    /// Genus name (e.g. `"Bacteroides"`).
    pub name: String,
    /// Phylum name (e.g. `"Bacteroidetes"`).
    pub phylum: String,
    /// Index of the phylum within [`Taxonomy::phyla`].
    pub phylum_index: usize,
    /// The genus's reference genome.
    pub genome: DnaString,
}

/// A simulated taxonomy: phyla with ancestral genomes and genus genomes
/// derived from them.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    /// Phylum names, in first-appearance order.
    pub phyla: Vec<String>,
    /// All genera.
    pub genera: Vec<Genus>,
}

impl Taxonomy {
    /// Builds the taxonomy deterministically from `seed`.
    pub fn generate(config: &TaxonomyConfig, seed: u64) -> Result<Taxonomy, SimError> {
        config.between_phyla.validate()?;
        config.within_phylum.validate()?;
        if config.genera.is_empty() {
            return Err(SimError::Config {
                parameter: "genera",
                message: "taxonomy needs at least one genus".to_string(),
            });
        }
        let root = random_genome(&config.genome, seed);

        let mut phyla: Vec<String> = Vec::new();
        for (_, phylum) in &config.genera {
            if !phyla.contains(phylum) {
                phyla.push(phylum.clone());
            }
        }
        let ancestors: Vec<DnaString> = phyla
            .iter()
            .enumerate()
            .map(|(i, _)| {
                mutate_genome(
                    &root,
                    &config.between_phyla,
                    seed.wrapping_add(1000 + i as u64),
                )
            })
            .collect();

        let mut genera = Vec::with_capacity(config.genera.len());
        for (gi, (name, phylum)) in config.genera.iter().enumerate() {
            let Some(phylum_index) = phyla.iter().position(|p| p == phylum) else {
                return Err(SimError::Config {
                    parameter: "genera",
                    message: format!("phylum {phylum} missing from the registry"),
                });
            };
            genera.push(Genus {
                name: name.clone(),
                phylum: phylum.clone(),
                phylum_index,
                genome: mutate_genome(
                    &ancestors[phylum_index],
                    &config.within_phylum,
                    seed.wrapping_add(2000 + gi as u64),
                ),
            });
        }

        Ok(Taxonomy { phyla, genera })
    }

    /// Number of genera.
    pub fn genus_count(&self) -> usize {
        self.genera.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::approximate_divergence;

    fn small_config() -> TaxonomyConfig {
        TaxonomyConfig {
            genome: GenomeConfig {
                length: 8_000,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn builds_default_gut_taxonomy() {
        let tax = Taxonomy::generate(&small_config(), 1).unwrap();
        assert_eq!(tax.genus_count(), 10);
        assert_eq!(tax.phyla.len(), 3);
        let firmicutes = tax.genera.iter().filter(|g| g.phylum == "Firmicutes");
        assert_eq!(firmicutes.count(), 4);
        assert_eq!(tax.genera[7].name, "Roseburia");
        assert_eq!(tax.genera[7].phylum, "Firmicutes");
    }

    #[test]
    fn same_phylum_genera_are_more_similar() {
        let tax = Taxonomy::generate(&small_config(), 99).unwrap();
        let genome = |name: &str| &tax.genera.iter().find(|g| g.name == name).unwrap().genome;
        let bacteroides = genome("Bacteroides");
        let prevotella = genome("Prevotella");
        let escherichia = genome("Escherichia");
        let within = approximate_divergence(bacteroides, prevotella);
        let across = approximate_divergence(bacteroides, escherichia);
        assert!(
            within < across,
            "within-phylum divergence {within} should be < cross-phylum {across}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Taxonomy::generate(&small_config(), 5).unwrap();
        let b = Taxonomy::generate(&small_config(), 5).unwrap();
        for (ga, gb) in a.genera.iter().zip(&b.genera) {
            assert_eq!(ga.genome, gb.genome);
        }
    }

    #[test]
    fn rejects_empty_taxonomy() {
        let config = TaxonomyConfig {
            genera: vec![],
            ..small_config()
        };
        assert!(Taxonomy::generate(&config, 1).is_err());
    }
}
