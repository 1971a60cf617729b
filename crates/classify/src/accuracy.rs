//! Classifier validation against simulation ground truth.
//!
//! The paper's Fig. 7 pipeline trusts BWA best-hit labels. Our substitute
//! classifier can be *checked*, because the simulator records every read's
//! true genus. This module computes the confusion matrix and summary rates
//! that justify the substitution (DESIGN.md §2) — and documents where the
//! classifier is expected to confuse genera (reads from shared conserved
//! islands are genuinely ambiguous).

use crate::error::ClassifyError;
use fc_sim::ReadOrigin;

/// Confusion matrix and summary rates of a classification run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierAccuracy {
    /// `confusion[truth][predicted]` read counts.
    pub confusion: Vec<Vec<u64>>,
    /// Reads the classifier declined to label, per true genus.
    pub unclassified: Vec<u64>,
    /// Micro-averaged accuracy over classified reads.
    pub accuracy: f64,
    /// Fraction of all reads left unclassified.
    pub unclassified_rate: f64,
}

impl ClassifierAccuracy {
    /// Builds the matrix from predicted labels and ground-truth origins.
    /// `labels[i]` corresponds to `origins[i]`.
    pub fn assess(
        labels: &[Option<u32>],
        origins: &[ReadOrigin],
        n_genera: usize,
    ) -> Result<ClassifierAccuracy, ClassifyError> {
        if labels.len() != origins.len() {
            return Err(ClassifyError::LengthMismatch {
                what: "labels",
                got: labels.len(),
                expected: origins.len(),
            });
        }
        let mut confusion = vec![vec![0u64; n_genera]; n_genera];
        let mut unclassified = vec![0u64; n_genera];
        let mut correct = 0u64;
        let mut classified = 0u64;
        for (label, origin) in labels.iter().zip(origins) {
            let truth = origin.genus as usize;
            if truth >= n_genera {
                return Err(ClassifyError::OutOfRange {
                    what: "origin genus",
                    index: truth,
                    bound: n_genera,
                });
            }
            match label {
                None => unclassified[truth] += 1,
                Some(p) => {
                    let p = *p as usize;
                    if p >= n_genera {
                        return Err(ClassifyError::OutOfRange {
                            what: "label",
                            index: p,
                            bound: n_genera,
                        });
                    }
                    confusion[truth][p] += 1;
                    classified += 1;
                    if p == truth {
                        correct += 1;
                    }
                }
            }
        }
        let total = labels.len() as u64;
        Ok(ClassifierAccuracy {
            confusion,
            unclassified,
            accuracy: if classified == 0 {
                0.0
            } else {
                correct as f64 / classified as f64
            },
            unclassified_rate: if total == 0 {
                0.0
            } else {
                (total - classified) as f64 / total as f64
            },
        })
    }

    /// Per-genus recall: correctly labelled / total reads of the genus
    /// (unclassified count against recall).
    pub fn recall(&self, genus: usize) -> f64 {
        let row_total: u64 = self.confusion[genus].iter().sum::<u64>() + self.unclassified[genus];
        if row_total == 0 {
            0.0
        } else {
            self.confusion[genus][genus] as f64 / row_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin(genus: u32) -> ReadOrigin {
        ReadOrigin {
            genus,
            position: 0,
            reverse: false,
        }
    }

    #[test]
    fn perfect_classification() {
        let labels = vec![Some(0), Some(1), Some(1)];
        let origins = vec![origin(0), origin(1), origin(1)];
        let acc = ClassifierAccuracy::assess(&labels, &origins, 2).unwrap();
        assert_eq!(acc.accuracy, 1.0);
        assert_eq!(acc.unclassified_rate, 0.0);
        assert_eq!(acc.recall(0), 1.0);
        assert_eq!(acc.recall(1), 1.0);
    }

    #[test]
    fn confusion_and_unclassified_counted() {
        let labels = vec![Some(1), Some(0), None, Some(0)];
        let origins = vec![origin(0), origin(0), origin(1), origin(0)];
        let acc = ClassifierAccuracy::assess(&labels, &origins, 2).unwrap();
        // Classified: 3; correct: 1 (the Some(0) for genus 0 ... two of them
        // are genus-0 labelled 0? labels[1]=0 truth 0 correct, labels[3]=0
        // truth 0 correct, labels[0]=1 truth 0 wrong.
        assert!((acc.accuracy - 2.0 / 3.0).abs() < 1e-12);
        assert!((acc.unclassified_rate - 0.25).abs() < 1e-12);
        assert_eq!(acc.confusion[0][1], 1);
        assert_eq!(acc.unclassified[1], 1);
        assert_eq!(acc.recall(1), 0.0);
    }

    #[test]
    fn validation_errors() {
        assert!(ClassifierAccuracy::assess(&[Some(0)], &[], 1).is_err());
        assert!(ClassifierAccuracy::assess(&[Some(5)], &[origin(0)], 2).is_err());
        assert!(ClassifierAccuracy::assess(&[Some(0)], &[origin(7)], 2).is_err());
    }

    #[test]
    fn classifier_on_simulated_dataset_is_accurate() {
        // End-to-end: the k-mer classifier against its own taxonomy's data.
        let dataset =
            fc_sim::generate_dataset("acc", &fc_sim::DatasetConfig::test_scale(), 17).unwrap();
        let genomes: Vec<fc_seq::DnaString> = dataset
            .taxonomy
            .genera
            .iter()
            .map(|g| g.genome.clone())
            .collect();
        let classifier = crate::KmerClassifier::build(&genomes, 21).unwrap();
        let labels = classifier.classify_all(&dataset.reads);
        let acc =
            ClassifierAccuracy::assess(&labels, &dataset.origins, dataset.taxonomy.genus_count())
                .unwrap();
        assert!(
            acc.accuracy > 0.95,
            "classifier accuracy too low: {}",
            acc.accuracy
        );
        assert!(
            acc.unclassified_rate < 0.05,
            "too many unclassified: {}",
            acc.unclassified_rate
        );
    }
}
