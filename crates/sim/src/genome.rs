//! Random genomes and mutation models.

use crate::error::SimError;
use fc_rng::Rng;
use fc_seq::{Base, DnaString};

/// Parameters for generating a random genome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenomeConfig {
    /// Genome length in bases (before repeat insertion).
    pub length: usize,
    /// Number of dispersed repeat copies to insert (0 = none). Repeats are
    /// what create branching in overlap graphs, so the simulator supports
    /// them explicitly.
    pub repeat_copies: usize,
    /// Length of each repeat unit.
    pub repeat_len: usize,
}

impl Default for GenomeConfig {
    fn default() -> GenomeConfig {
        GenomeConfig {
            length: 10_000,
            repeat_copies: 0,
            repeat_len: 300,
        }
    }
}

/// Segment-wise mutation model used to derive one genome from another.
///
/// Real genomes are mosaics of conserved and variable regions; the divergence
/// within conserved regions is what lets reads from related genera overlap at
/// ≥ 90 % identity (and hence co-cluster in graph partitions, paper Fig. 7),
/// while variable regions keep the genera distinguishable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationModel {
    /// Fraction of the genome belonging to conserved segments, in `[0, 1]`.
    pub conserved_fraction: f64,
    /// Per-base substitution probability within conserved segments.
    pub conserved_divergence: f64,
    /// Per-base substitution probability within variable segments.
    pub variable_divergence: f64,
    /// Per-base probability of a 1-base insertion or deletion (split evenly).
    pub indel_rate: f64,
    /// Approximate segment length used to alternate conserved/variable.
    pub segment_len: usize,
}

impl MutationModel {
    /// A model for divergence *within* a phylum: genomes are mostly too
    /// diverged to overlap at ≥ 90 % read identity, but share short highly
    /// conserved islands (the rRNA-operon / mobile-element pattern of real
    /// bacteria). Cross-genus overlap edges exist only inside the islands —
    /// enough to couple related genera in partition space (paper Fig. 7)
    /// without fusing their assemblies.
    pub fn within_phylum() -> MutationModel {
        MutationModel {
            conserved_fraction: 0.16,
            conserved_divergence: 0.01,
            variable_divergence: 0.25,
            indel_rate: 0.001,
            segment_len: 350,
        }
    }

    /// A model for divergence *between* phyla: heavy divergence everywhere,
    /// so cross-phylum reads essentially never overlap at 90 % identity.
    pub fn between_phyla() -> MutationModel {
        MutationModel {
            conserved_fraction: 0.1,
            conserved_divergence: 0.08,
            variable_divergence: 0.35,
            indel_rate: 0.004,
            segment_len: 800,
        }
    }

    /// Validates probability ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, v) in [
            ("conserved_fraction", self.conserved_fraction),
            ("conserved_divergence", self.conserved_divergence),
            ("variable_divergence", self.variable_divergence),
            ("indel_rate", self.indel_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(SimError::Config {
                    parameter: name,
                    message: format!("must be in [0,1], got {v}"),
                });
            }
        }
        if self.segment_len == 0 {
            return Err(SimError::Config {
                parameter: "segment_len",
                message: "must be > 0".to_string(),
            });
        }
        Ok(())
    }
}

/// Generates a uniformly random genome, then inserts dispersed repeat copies
/// if configured. Deterministic in `seed`.
pub fn random_genome(config: &GenomeConfig, seed: u64) -> DnaString {
    let mut rng = Rng::new(seed);
    let mut genome: DnaString = (0..config.length)
        .map(|_| Base::from_code(rng.range(0..4)))
        .collect();
    if config.repeat_copies > 1 && config.repeat_len > 0 && config.repeat_len < config.length {
        let unit_start = rng.range(0..config.length - config.repeat_len);
        let unit = genome.slice(unit_start, unit_start + config.repeat_len);
        for _ in 1..config.repeat_copies {
            let at = rng.range(0..genome.len() - config.repeat_len);
            for (i, b) in unit.iter().enumerate() {
                genome.set(at + i, b);
            }
        }
    }
    genome
}

/// Derives a mutated copy of `parent` under `model`. Deterministic in `seed`.
///
/// Segments alternate conserved/variable with lengths drawn around
/// `model.segment_len`; the conserved share is controlled by
/// `model.conserved_fraction`.
pub fn mutate_genome(parent: &DnaString, model: &MutationModel, seed: u64) -> DnaString {
    let mut rng = Rng::new(seed);
    let mut out = DnaString::with_capacity(parent.len());
    let mut pos = 0usize;
    while pos < parent.len() {
        let conserved = rng.bool(model.conserved_fraction);
        let seg_len = (model.segment_len / 2) + rng.range(0..model.segment_len.max(1));
        let end = (pos + seg_len).min(parent.len());
        let sub_rate = if conserved {
            model.conserved_divergence
        } else {
            model.variable_divergence
        };
        for i in pos..end {
            // Indels first: a deletion skips the base, an insertion emits a
            // random base before it.
            if model.indel_rate > 0.0 && rng.bool(model.indel_rate) {
                if rng.bool(0.5) {
                    continue; // deletion
                }
                out.push(Base::from_code(rng.range(0..4))); // insertion
            }
            let base = parent.get(i);
            if sub_rate > 0.0 && rng.bool(sub_rate) {
                let others = base.others();
                out.push(others[rng.range(0..3)]);
            } else {
                out.push(base);
            }
        }
        pos = end;
    }
    out
}

/// Sequence distance between two genomes as 1 − Jaccard similarity of their
/// 16-mer sets. Unlike positional Hamming distance this is robust to the
/// frame shifts indels introduce, making it the right diagnostic for the
/// taxonomy's "same-phylum genera are more similar" property.
pub fn approximate_divergence(a: &DnaString, b: &DnaString) -> f64 {
    const K: usize = 16;
    let set = |s: &DnaString| -> Vec<u64> {
        let mut v: Vec<u64> = s.kmers(K).map(|(_, k)| k).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let (sa, sb) = (set(a), set(b));
    if sa.is_empty() && sb.is_empty() {
        return 0.0;
    }
    let mut shared = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = sa.len() + sb.len() - shared;
    1.0 - shared as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_genome_is_deterministic_in_seed() {
        let config = GenomeConfig {
            length: 500,
            ..Default::default()
        };
        assert_eq!(random_genome(&config, 42), random_genome(&config, 42));
        assert_ne!(random_genome(&config, 42), random_genome(&config, 43));
    }

    #[test]
    fn random_genome_has_requested_length() {
        let config = GenomeConfig {
            length: 1234,
            ..Default::default()
        };
        assert_eq!(random_genome(&config, 1).len(), 1234);
    }

    #[test]
    fn repeats_create_duplicated_segments() {
        let config = GenomeConfig {
            length: 4000,
            repeat_copies: 3,
            repeat_len: 200,
        };
        let genome = random_genome(&config, 7);
        // Count distinct 32-mers: with 2 extra repeat copies of length 200,
        // at least ~300 32-mers are duplicated.
        let mut kmers: Vec<u64> = genome.kmers(32).map(|(_, k)| k).collect();
        let total = kmers.len();
        kmers.sort_unstable();
        kmers.dedup();
        assert!(
            total - kmers.len() > 250,
            "only {} duplicated 32-mers",
            total - kmers.len()
        );
    }

    #[test]
    fn zero_mutation_model_copies_parent() {
        let parent = random_genome(
            &GenomeConfig {
                length: 800,
                ..Default::default()
            },
            3,
        );
        let model = MutationModel {
            conserved_fraction: 1.0,
            conserved_divergence: 0.0,
            variable_divergence: 0.0,
            indel_rate: 0.0,
            segment_len: 100,
        };
        assert_eq!(mutate_genome(&parent, &model, 9), parent);
    }

    #[test]
    fn mutation_rates_show_up_in_divergence() {
        let parent = random_genome(
            &GenomeConfig {
                length: 20_000,
                ..Default::default()
            },
            5,
        );
        let within = mutate_genome(&parent, &MutationModel::within_phylum(), 11);
        let between = mutate_genome(&parent, &MutationModel::between_phyla(), 11);
        let d_within = approximate_divergence(&parent, &within);
        let d_between = approximate_divergence(&parent, &between);
        assert!(
            d_within < d_between,
            "within {d_within} !< between {d_between}"
        );
        assert!(
            d_within > 0.01,
            "within-phylum divergence too small: {d_within}"
        );
        assert!(
            d_within < 0.999,
            "within-phylum divergence saturated: {d_within}"
        );
    }

    #[test]
    fn mutate_is_deterministic_in_seed() {
        let parent = random_genome(
            &GenomeConfig {
                length: 1000,
                ..Default::default()
            },
            5,
        );
        let model = MutationModel::within_phylum();
        assert_eq!(
            mutate_genome(&parent, &model, 1),
            mutate_genome(&parent, &model, 1)
        );
    }

    #[test]
    fn model_validation() {
        assert!(MutationModel::within_phylum().validate().is_ok());
        assert!(MutationModel {
            indel_rate: 1.5,
            ..MutationModel::within_phylum()
        }
        .validate()
        .is_err());
        assert!(MutationModel {
            segment_len: 0,
            ..MutationModel::within_phylum()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn divergence_of_identical_is_zero() {
        let g = random_genome(
            &GenomeConfig {
                length: 100,
                ..Default::default()
            },
            2,
        );
        assert_eq!(approximate_divergence(&g, &g), 0.0);
    }
}
