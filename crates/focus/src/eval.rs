//! Reference-based assembly evaluation.
//!
//! The paper reports reference-free statistics (Table III); with simulated
//! data we also hold the truth, so this module adds the QUAST-style
//! reference-based metrics a production assembler ships with:
//!
//! * **genome fraction** — how much of each reference is covered by contig
//!   k-mers,
//! * **contig accuracy** — the fraction of contig k-mers present in any
//!   reference (1.0 = the assembler invented nothing),
//! * **chimera detection** — contigs whose k-mers map to more than one
//!   reference genome (inter-genus misassemblies),
//! * **NGA-style N50** computed against the total reference size rather
//!   than the assembly size, immune to inflated assemblies.

use crate::config::FocusError;
use fc_seq::DnaString;
use std::collections::HashMap;

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
/// carry a single evaluation k-mer.
pub fn evaluate(
    contigs: &[DnaString],
    references: &[DnaString],
) -> Result<ReferenceEvaluation, FocusError> {
    if references.iter().all(|r| r.len() < EVAL_K) {
        return Err(FocusError::Config(format!(
            "no reference has length >= {EVAL_K}"
        )));
    }
    // k-mer -> reference index (first occurrence wins; shared conserved
    // islands attribute to one genome, which slightly under-counts others'
    // fractions — acceptable for the comparative use here).
    let mut index: HashMap<u64, u32> = HashMap::new();
    let mut ref_kmer_counts = vec![0usize; references.len()];
    for (ri, reference) in references.iter().enumerate() {
        for strand in [reference.clone(), reference.reverse_complement()] {
            for (_, kmer) in strand.kmers(EVAL_K) {
                index.entry(kmer).or_insert(ri as u32);
            }
        }
        ref_kmer_counts[ri] = reference.len().saturating_sub(EVAL_K - 1);
    }

    let mut covered: Vec<std::collections::HashSet<u64>> =
        vec![std::collections::HashSet::new(); references.len()];
    let mut total_kmers = 0usize;
    let mut matched_kmers = 0usize;
    let mut chimeric = Vec::new();
    let mut contigs_evaluated = 0usize;

    for (ci, contig) in contigs.iter().enumerate() {
        let mut per_ref: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        let mut contig_kmers = 0usize;
        for (_, kmer) in contig.kmers(EVAL_K) {
            contig_kmers += 1;
            total_kmers += 1;
            if let Some(&ri) = index.get(&kmer) {
                matched_kmers += 1;
                *per_ref.entry(ri).or_insert(0) += 1;
                covered[ri as usize].insert(kmer);
            }
        }
        if contig_kmers == 0 {
            continue;
        }
        contigs_evaluated += 1;
        let significant = per_ref
            .values()
            .filter(|&&c| c as f64 >= 0.05 * contig_kmers as f64 && c >= 2)
            .count();
        if significant >= 2 {
            chimeric.push(ci);
        }
    }

    // Genome fraction: covered distinct forward-or-RC k-mers versus the
    // reference's forward k-mer count. Coverage can exceed 1 in principle
    // (both strands hit); clamp.
    let genome_fraction = covered
        .iter()
        .zip(&ref_kmer_counts)
        .map(|(set, &n)| {
            if n == 0 {
                0.0
            } else {
                (set.len() as f64 / n as f64).min(1.0)
            }
        })
        .collect();

    let total_ref_len: usize = references.iter().map(DnaString::len).sum();
    let ng50 = ng50_against(contigs, total_ref_len);

    Ok(ReferenceEvaluation {
        genome_fraction,
        contig_accuracy: if total_kmers == 0 {
            0.0
        } else {
            matched_kmers as f64 / total_kmers as f64
        },
        chimeric_contigs: chimeric,
        ng50,
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
    use crate::pipeline::tests::genome;

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
