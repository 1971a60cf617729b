//! Reference-based assembly evaluation, QUAST-style (the paper's Table III
//! is reference-free; simulated data holds the truth): genome fraction,
//! contig accuracy (1.0 = nothing invented), inter-genus chimeras, and N50
//! against the total reference size (NG50), immune to inflated assemblies.

use crate::error::ClassifyError;
use crate::reference::ReferenceIndex;
use fc_seq::DnaString;
use std::collections::{BTreeMap, BTreeSet};

/// K-mer length used for evaluation matching. 32 keeps random collisions
/// negligible (4^32 space) while tolerating nothing — evaluation is strict.
const EVAL_K: usize = 32;

/// Evaluation of one assembly against reference genomes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceEvaluation {
    /// Fraction of each reference's k-mers covered by the assembly.
    pub genome_fraction: Vec<f64>,
    /// Fraction of assembly k-mers found in some reference (strand-aware
    /// both ways).
    pub contig_accuracy: f64,
    /// Indices of contigs whose k-mers hit ≥ 2 references with ≥ 5 % each.
    pub chimeric_contigs: Vec<usize>,
    /// N50 against the total reference length (NG50).
    pub ng50: usize,
    /// Contigs evaluated (those with at least one k-mer).
    pub contigs_evaluated: usize,
}

impl ReferenceEvaluation {
    /// Mean genome fraction across references.
    pub fn mean_genome_fraction(&self) -> f64 {
        if self.genome_fraction.is_empty() {
            0.0
        } else {
            self.genome_fraction.iter().sum::<f64>() / self.genome_fraction.len() as f64
        }
    }
}

/// Evaluates `contigs` against `references`.
///
/// Both strands of every reference are indexed, since assemblies emit
/// arbitrary strands. Returns an error when no reference is long enough to
/// carry a single evaluation k-mer, or when the references do not fit one
/// seed index.
pub fn evaluate(
    contigs: &[DnaString],
    references: &[DnaString],
) -> Result<ReferenceEvaluation, ClassifyError> {
    if references.iter().all(|r| r.len() < EVAL_K) {
        return Err(ClassifyError::Config {
            parameter: "references",
            message: format!("no reference has length >= {EVAL_K}"),
        });
    }
    let index = ReferenceIndex::build(references, EVAL_K)?;
    // A k-mer counts for the smallest genome among its hits (shared
    // conserved islands attribute to one genome, which slightly
    // under-counts others' fractions — acceptable for the comparative use
    // here). `seen` holds the first entries of the runs hit: the distinct
    // k-mers the assembly covers.
    let (mut seen, mut covered) = (BTreeSet::new(), vec![0usize; references.len()]);
    let (mut kmers, mut runs, mut per_ref) = (Vec::new(), Vec::new(), BTreeMap::new());
    let (mut total_kmers, mut matched_kmers) = (0usize, 0usize);
    let (mut chimeric, mut contigs_evaluated) = (Vec::new(), 0);
    for (ci, contig) in contigs.iter().enumerate() {
        index.runs(contig, &mut kmers, &mut runs);
        per_ref.clear();
        for &run in &runs {
            if let Some(ri) = index.loci(run).map(|locus| locus.genome).min() {
                matched_kmers += 1;
                *per_ref.entry(ri).or_insert(0usize) += 1;
                if seen.insert(run.0) {
                    covered[ri as usize] += 1;
                }
            }
        }
        let contig_kmers = runs.len();
        total_kmers += contig_kmers;
        contigs_evaluated += usize::from(contig_kmers > 0);
        let significant = |&&c: &&usize| c as f64 >= 0.05 * contig_kmers as f64 && c >= 2;
        if per_ref.values().filter(significant).count() >= 2 {
            chimeric.push(ci);
        }
    }

    // Genome fraction: covered distinct forward-or-RC k-mers versus the
    // reference's forward k-mer count (a reference shorter than a k-mer
    // covers none). Coverage can exceed 1 in principle (both strands hit);
    // clamp.
    let fraction = |(&hit, reference): (&usize, &DnaString)| {
        (hit as f64 / reference.len().saturating_sub(EVAL_K - 1).max(1) as f64).min(1.0)
    };
    Ok(ReferenceEvaluation {
        genome_fraction: covered.iter().zip(references).map(fraction).collect(),
        contig_accuracy: matched_kmers as f64 / total_kmers.max(1) as f64,
        chimeric_contigs: chimeric,
        ng50: ng50_against(contigs, references.iter().map(DnaString::len).sum()),
        contigs_evaluated,
    })
}

/// NG50: the contig length at which the cumulative (descending) length
/// crosses half the *reference* size; 0 when the assembly is too small.
pub fn ng50_against(contigs: &[DnaString], reference_len: usize) -> usize {
    if reference_len == 0 {
        return 0;
    }
    let mut lengths: Vec<usize> = contigs.iter().map(DnaString::len).collect();
    lengths.sort_unstable_by(|a, b| b.cmp(a));
    let half = reference_len.div_ceil(2);
    let mut acc = 0usize;
    for len in lengths {
        acc += len;
        if acc >= half {
            return len;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_seq::Base;

    fn genome(len: usize, seed: u64) -> DnaString {
        let mut rng = fc_rng::Rng::new(seed);
        (0..len).map(|_| Base::from_code(rng.range(0..4))).collect()
    }

    #[test]
    fn perfect_assembly_scores_perfectly() {
        let reference = genome(2_000, 1);
        let contigs = vec![reference.clone()];
        let eval = evaluate(&contigs, &[reference]).unwrap();
        assert!((eval.genome_fraction[0] - 1.0).abs() < 1e-9);
        assert!((eval.contig_accuracy - 1.0).abs() < 1e-12);
        assert!(eval.chimeric_contigs.is_empty());
        assert_eq!(eval.ng50, 2_000);
    }

    #[test]
    fn reverse_strand_contigs_count() {
        let reference = genome(1_000, 2);
        let contigs = vec![reference.reverse_complement()];
        let eval = evaluate(&contigs, &[reference]).unwrap();
        assert!((eval.contig_accuracy - 1.0).abs() < 1e-12);
        assert!(eval.genome_fraction[0] > 0.99);
    }

    #[test]
    fn invented_sequence_lowers_accuracy() {
        let reference = genome(1_000, 3);
        let alien = genome(1_000, 999);
        let eval = evaluate(&[reference.clone(), alien], &[reference]).unwrap();
        assert!(eval.contig_accuracy > 0.45 && eval.contig_accuracy < 0.55);
    }

    #[test]
    fn partial_coverage_measured() {
        let reference = genome(2_000, 4);
        let half = reference.slice(0, 1_000);
        let eval = evaluate(&[half], &[reference]).unwrap();
        assert!(
            eval.genome_fraction[0] > 0.45 && eval.genome_fraction[0] < 0.55,
            "fraction {}",
            eval.genome_fraction[0]
        );
    }

    #[test]
    fn chimera_detected() {
        let ref_a = genome(1_000, 5);
        let ref_b = genome(1_000, 6);
        let mut chimera = ref_a.slice(0, 500);
        chimera.extend_from(&ref_b.slice(0, 500));
        let eval = evaluate(&[chimera], &[ref_a, ref_b]).unwrap();
        assert_eq!(eval.chimeric_contigs, vec![0]);
    }

    #[test]
    fn honest_contig_not_flagged_chimeric() {
        let ref_a = genome(1_000, 7);
        let ref_b = genome(1_000, 8);
        let eval = evaluate(&[ref_a.slice(100, 900)], &[ref_a.clone(), ref_b]).unwrap();
        assert!(eval.chimeric_contigs.is_empty());
    }

    #[test]
    fn ng50_uses_reference_length() {
        let contigs: Vec<DnaString> = vec![genome(300, 9), genome(200, 10), genome(100, 11)];
        // Reference 1000: half = 500; 300+200 = 500 -> NG50 = 200.
        assert_eq!(ng50_against(&contigs, 1_000), 200);
        // Tiny assembly vs huge reference: cannot reach half.
        assert_eq!(ng50_against(&contigs, 10_000), 0);
        assert_eq!(ng50_against(&contigs, 0), 0);
    }

    #[test]
    fn rejects_too_short_references() {
        let short: DnaString = "ACGT".parse().unwrap();
        assert!(evaluate(&[], &[short]).is_err());
    }
}
