//! K-mer best-hit read classification against reference genomes.

use crate::error::ClassifyError;
use crate::reference::ReferenceIndex;
use fc_seq::{DnaString, Read};

/// Classifies reads to the reference with the most k-mer hits (the "best
/// hit", mirroring the paper's BWA best-hit assignment), answering from
/// the references' seed index.
#[derive(Debug, Clone)]
pub struct KmerClassifier {
    index: ReferenceIndex,
}

impl KmerClassifier {
    /// Builds the index over `genomes` with k-mer length `k` (≤ 32). Both
    /// strands of each genome are indexed, since reads come from either.
    /// A reference set the seed index cannot hold is refused as
    /// [`ClassifyError::Index`].
    pub fn build(genomes: &[DnaString], k: usize) -> Result<KmerClassifier, ClassifyError> {
        if k == 0 || k > 32 {
            return Err(ClassifyError::Config {
                parameter: "k",
                message: format!("must be in 1..=32, got {k}"),
            });
        }
        if genomes.is_empty() {
            return Err(ClassifyError::Config {
                parameter: "genomes",
                message: "classifier needs at least one reference".to_string(),
            });
        }
        Ok(KmerClassifier {
            index: ReferenceIndex::build(genomes, k)?,
        })
    }

    /// The k-mer length in use.
    pub fn k(&self) -> usize {
        self.index.k
    }

    /// Classifies one read: the reference collecting the most k-mer hits.
    /// Returns `None` when no k-mer of the read occurs in any reference
    /// (the paper's "unclassified"). Ties resolve to the smaller reference
    /// index for determinism.
    pub fn classify(&self, read: &Read) -> Option<u32> {
        self.classify_seq(&read.seq)
    }

    /// Classifies a raw sequence (used for contigs as well as reads). A
    /// k-mer scores one hit for a reference per occurrence on either of
    /// its strands.
    pub fn classify_seq(&self, seq: &DnaString) -> Option<u32> {
        let (mut kmers, mut runs) = (Vec::new(), Vec::new());
        self.index.runs(seq, &mut kmers, &mut runs);
        let mut scores = vec![0u64; self.index.lens.len()];
        for &run in &runs {
            for locus in self.index.loci(run) {
                scores[locus.genome as usize] += 1;
            }
        }
        if scores.iter().all(|&s| s == 0) {
            return None;
        }
        let mut best = 0usize;
        for (i, &s) in scores.iter().enumerate().skip(1) {
            if s > scores[best] {
                best = i;
            }
        }
        Some(best as u32)
    }

    /// Classifies every read, returning one label per read.
    pub fn classify_all(&self, reads: &[Read]) -> Vec<Option<u32>> {
        reads.iter().map(|r| self.classify(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_sim::{GenomeConfig, MutationModel};

    fn genomes() -> Vec<DnaString> {
        (0..3)
            .map(|i| {
                fc_sim::genome::random_genome(
                    &GenomeConfig {
                        length: 2000,
                        ..Default::default()
                    },
                    100 + i,
                )
            })
            .collect()
    }

    #[test]
    fn classifies_exact_slices_to_their_source() {
        let refs = genomes();
        let classifier = KmerClassifier::build(&refs, 21).unwrap();
        for (gi, g) in refs.iter().enumerate() {
            for start in [0usize, 500, 1500] {
                let read = Read::new("r", g.slice(start, start + 100));
                assert_eq!(
                    classifier.classify(&read),
                    Some(gi as u32),
                    "genome {gi} @ {start}"
                );
            }
        }
    }

    #[test]
    fn classifies_reverse_strand_reads() {
        let refs = genomes();
        let classifier = KmerClassifier::build(&refs, 21).unwrap();
        let read = Read::new("r", refs[1].slice(300, 400).reverse_complement());
        assert_eq!(classifier.classify(&read), Some(1));
    }

    #[test]
    fn unrelated_sequence_is_unclassified() {
        let refs = genomes();
        let classifier = KmerClassifier::build(&refs, 21).unwrap();
        let alien = fc_sim::genome::random_genome(
            &GenomeConfig {
                length: 100,
                ..Default::default()
            },
            987654,
        );
        assert_eq!(classifier.classify(&Read::new("r", alien)), None);
    }

    #[test]
    fn tolerates_mutated_reads() {
        let refs = genomes();
        let classifier = KmerClassifier::build(&refs, 15).unwrap();
        // Derive a read from genome 2 with ~2% substitutions.
        let model = MutationModel {
            conserved_fraction: 1.0,
            conserved_divergence: 0.02,
            variable_divergence: 0.02,
            indel_rate: 0.0,
            segment_len: 100,
        };
        let mutated = fc_sim::genome::mutate_genome(&refs[2], &model, 5);
        let read = Read::new("r", mutated.slice(700, 800));
        assert_eq!(classifier.classify(&read), Some(2));
    }

    #[test]
    fn rejects_bad_parameters() {
        let refs = genomes();
        assert!(KmerClassifier::build(&refs, 0).is_err());
        assert!(KmerClassifier::build(&refs, 33).is_err());
        assert!(KmerClassifier::build(&[], 21).is_err());
    }

    /// One 1 Mb reference needs 20 offset bits, so its 2 × 2 049 strands
    /// ask for more than `2^32` entry values: refused before any index is
    /// built.
    #[test]
    fn references_the_seed_index_cannot_hold_are_refused() {
        let long: DnaString = (0..1_000_000u32)
            .map(|i| fc_seq::Base::from_code((i % 4) as u8))
            .collect();
        let one_base: DnaString = "A".parse().unwrap();
        let mut refs = vec![long];
        refs.extend(std::iter::repeat_n(one_base, 2048));
        let refused = KmerClassifier::build(&refs, 21).unwrap_err();
        assert_eq!(
            refused,
            ClassifyError::Index(fc_align::AlignError::IndexCapacity {
                reads: 4098,
                longest: 1_000_000,
            })
        );
        assert!(refused.to_string().contains("index capacity"), "{refused}");
    }

    #[test]
    fn classify_all_matches_individual_calls() {
        let refs = genomes();
        let classifier = KmerClassifier::build(&refs, 21).unwrap();
        let reads = vec![
            Read::new("a", refs[0].slice(0, 100)),
            Read::new("b", refs[2].slice(50, 150)),
        ];
        let labels = classifier.classify_all(&reads);
        assert_eq!(labels, vec![Some(0), Some(2)]);
    }
}
