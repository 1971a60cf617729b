//! The genus × partition distribution matrix (Fig. 7) and phylum
//! co-clustering summary.

use crate::error::ClassifyError;
use fc_seq::ReadStore;

/// Per-genus distribution of classified reads over graph partitions.
///
/// Entry `[genus][partition]` is the fraction of the genus's classified
/// reads whose graph nodes were assigned to that partition — exactly the
/// quantity shaded in the paper's Fig. 7 heat maps.
#[derive(Debug, Clone, PartialEq)]
pub struct GenusDistribution {
    /// Genus names (row labels).
    pub genera: Vec<String>,
    /// `fractions[g][p]`: fraction of genus `g`'s reads in partition `p`.
    pub fractions: Vec<Vec<f64>>,
    /// Classified reads per genus (row totals before normalisation).
    pub genus_counts: Vec<u64>,
    /// Reads that no reference matched.
    pub unclassified: u64,
}

impl GenusDistribution {
    /// Builds the matrix.
    ///
    /// * `store` — the preprocessed read store (nodes = strands),
    /// * `node_parts` — partition of every store node (projection of the
    ///   hybrid partition onto reads),
    /// * `labels` — per *original input read* genus labels (classifier
    ///   output; `None` = unclassified),
    /// * `genera` — genus names indexed by label,
    /// * `k` — partition count.
    pub fn build(
        store: &ReadStore,
        node_parts: &[u32],
        labels: &[Option<u32>],
        genera: &[String],
        k: usize,
    ) -> Result<GenusDistribution, ClassifyError> {
        if node_parts.len() != store.len() {
            return Err(ClassifyError::LengthMismatch {
                what: "node partition",
                got: node_parts.len(),
                expected: store.len(),
            });
        }
        let n_genera = genera.len();
        let mut counts = vec![vec![0u64; k]; n_genera];
        let mut genus_counts = vec![0u64; n_genera];
        let mut unclassified = 0u64;
        for id in store.ids() {
            let source = store.source_index(id);
            let label = labels.get(source).ok_or(ClassifyError::OutOfRange {
                what: "label entry",
                index: source,
                bound: labels.len(),
            })?;
            let part = node_parts[id.index()] as usize;
            if part >= k {
                return Err(ClassifyError::OutOfRange {
                    what: "partition",
                    index: part,
                    bound: k,
                });
            }
            match label {
                Some(g) => {
                    let g = *g as usize;
                    if g >= n_genera {
                        return Err(ClassifyError::OutOfRange {
                            what: "label",
                            index: g,
                            bound: n_genera,
                        });
                    }
                    counts[g][part] += 1;
                    genus_counts[g] += 1;
                }
                None => unclassified += 1,
            }
        }
        let fractions = counts
            .iter()
            .zip(&genus_counts)
            .map(|(row, &total)| {
                row.iter()
                    .map(|&c| {
                        if total == 0 {
                            0.0
                        } else {
                            c as f64 / total as f64
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(GenusDistribution {
            genera: genera.to_vec(),
            fractions,
            genus_counts,
            unclassified,
        })
    }

    /// Number of partitions (columns).
    pub fn partition_count(&self) -> usize {
        self.fractions.first().map_or(0, Vec::len)
    }

    /// Concentration of a genus: the maximum fraction any single partition
    /// holds. Under a uniform spread this would be `1 / k`; Fig. 7's claim
    /// is that real genera concentrate well above that.
    pub fn concentration(&self, genus: usize) -> f64 {
        self.fractions[genus].iter().cloned().fold(0.0, f64::max)
    }

    /// Cosine similarity between two genera's partition distributions.
    pub fn row_similarity(&self, a: usize, b: usize) -> f64 {
        cosine(&self.fractions[a], &self.fractions[b])
    }
}

/// Within-phylum vs. cross-phylum distribution similarity (Fig. 7's
/// "related genera cluster together" claim, quantified).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhylumCoclustering {
    /// Mean cosine similarity over same-phylum genus pairs.
    pub within_phylum: f64,
    /// Mean cosine similarity over cross-phylum genus pairs.
    pub cross_phylum: f64,
}

impl PhylumCoclustering {
    /// Computes the summary. `phylum_of[g]` assigns each genus a phylum
    /// index. Genera with no classified reads are skipped.
    pub fn compute(dist: &GenusDistribution, phylum_of: &[usize]) -> PhylumCoclustering {
        let mut within = (0.0, 0usize);
        let mut cross = (0.0, 0usize);
        let n = dist.genera.len();
        for a in 0..n {
            if dist.genus_counts[a] == 0 {
                continue;
            }
            for b in a + 1..n {
                if dist.genus_counts[b] == 0 {
                    continue;
                }
                let s = dist.row_similarity(a, b);
                if phylum_of[a] == phylum_of[b] {
                    within.0 += s;
                    within.1 += 1;
                } else {
                    cross.0 += s;
                    cross.1 += 1;
                }
            }
        }
        PhylumCoclustering {
            within_phylum: if within.1 == 0 {
                0.0
            } else {
                within.0 / within.1 as f64
            },
            cross_phylum: if cross.1 == 0 {
                0.0
            } else {
                cross.0 / cross.1 as f64
            },
        }
    }
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_seq::{Read, TrimConfig};

    fn store_of(n: usize) -> ReadStore {
        let reads: Vec<Read> = (0..n)
            .map(|i| Read::new(format!("r{i}"), "ACGTACGTACGTACGTACGT".parse().unwrap()))
            .collect();
        ReadStore::preprocess(
            &reads,
            &TrimConfig {
                min_read_len: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn fractions_normalise_per_genus() {
        let store = store_of(4); // 8 nodes
                                 // Nodes of reads 0,1 -> partition 0; reads 2,3 -> partition 1.
        let node_parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let labels = vec![Some(0), Some(0), Some(1), None];
        let genera = vec!["A".to_string(), "B".to_string()];
        let dist = GenusDistribution::build(&store, &node_parts, &labels, &genera, 2).unwrap();
        assert_eq!(dist.fractions[0], vec![1.0, 0.0]);
        assert_eq!(dist.fractions[1], vec![0.0, 1.0]);
        assert_eq!(dist.genus_counts, vec![4, 2]);
        assert_eq!(dist.unclassified, 2);
        assert_eq!(dist.concentration(0), 1.0);
    }

    #[test]
    fn split_strands_count_in_their_own_partitions() {
        let store = store_of(1);
        let node_parts = vec![0, 1]; // forward in P0, RC in P1
        let labels = vec![Some(0)];
        let genera = vec!["A".to_string()];
        let dist = GenusDistribution::build(&store, &node_parts, &labels, &genera, 2).unwrap();
        assert_eq!(dist.fractions[0], vec![0.5, 0.5]);
    }

    #[test]
    fn input_validation() {
        let store = store_of(2);
        let genera = vec!["A".to_string()];
        // Wrong partition vector length.
        assert!(
            GenusDistribution::build(&store, &[0, 0], &[Some(0), Some(0)], &genera, 1).is_err()
        );
        // Partition out of range.
        assert!(
            GenusDistribution::build(&store, &[0, 0, 3, 0], &[Some(0), Some(0)], &genera, 2)
                .is_err()
        );
        // Label out of range.
        assert!(
            GenusDistribution::build(&store, &[0, 0, 0, 0], &[Some(5), Some(0)], &genera, 2)
                .is_err()
        );
    }

    #[test]
    fn coclustering_separates_phyla() {
        let store = store_of(4);
        // Genera 0,1 (phylum X) both concentrate in P0; genera 2,3
        // (phylum Y) both in P1.
        let node_parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let labels = vec![Some(0), Some(1), Some(2), Some(3)];
        let genera: Vec<String> = (0..4).map(|i| format!("G{i}")).collect();
        let dist = GenusDistribution::build(&store, &node_parts, &labels, &genera, 2).unwrap();
        let phylum_of = vec![0, 0, 1, 1];
        let cc = PhylumCoclustering::compute(&dist, &phylum_of);
        assert!(cc.within_phylum > cc.cross_phylum);
        assert!((cc.within_phylum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_edge_cases() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }
}
