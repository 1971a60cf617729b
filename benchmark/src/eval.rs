//! The benchmark's own assembly evaluator: contigs against the genomes the
//! generator drew, by shared 32-mers. It is deliberately not
//! `focus_core::eval`, so a product change cannot move the ruler.

use std::collections::{HashMap, HashSet};

/// k-mer length: one `u64` at two bits a base.
pub const K: usize = 32;

fn code(base: u8) -> Option<u64> {
    match base {
        b'A' | b'a' => Some(0),
        b'C' | b'c' => Some(1),
        b'G' | b'g' => Some(2),
        b'T' | b't' => Some(3),
        _ => None,
    }
}

/// Every 32-mer of `seq` in strand-neutral form (the smaller of the k-mer
/// and its reverse complement). Windows holding a non-ACGT byte are
/// skipped.
pub fn canonical_kmers(seq: &[u8]) -> Vec<u64> {
    let mut out = Vec::with_capacity(seq.len().saturating_sub(K - 1));
    let (mut fwd, mut rev, mut valid) = (0u64, 0u64, 0usize);
    for &base in seq {
        match code(base) {
            Some(c) => {
                fwd = (fwd << 2) | c;
                rev = (rev >> 2) | ((3 - c) << (2 * (K - 1)));
                valid += 1;
            }
            None => valid = 0,
        }
        if valid >= K {
            out.push(fwd.min(rev));
        }
    }
    out
}

/// The reference genomes, indexed for evaluation.
#[derive(Debug)]
pub struct Reference {
    /// Canonical 32-mer → bit `i` set when genome `i` holds it.
    kmers: HashMap<u64, u32>,
    distinct_per_genome: Vec<usize>,
    total_len: usize,
}

impl Reference {
    /// Indexes up to 32 genomes.
    pub fn new(genomes: &[Vec<u8>]) -> Reference {
        assert!(genomes.len() <= 32, "one mask bit per genome");
        let mut kmers: HashMap<u64, u32> = HashMap::new();
        for (i, genome) in genomes.iter().enumerate() {
            for kmer in canonical_kmers(genome) {
                *kmers.entry(kmer).or_insert(0) |= 1 << i;
            }
        }
        let mut distinct_per_genome = vec![0usize; genomes.len()];
        for mask in kmers.values() {
            for (i, count) in distinct_per_genome.iter_mut().enumerate() {
                *count += (mask >> i & 1) as usize;
            }
        }
        Reference {
            kmers,
            distinct_per_genome,
            total_len: genomes.iter().map(Vec::len).sum(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Mean over genomes of the share of the genome's distinct 32-mers
    /// that some contig holds.
    pub genome_fraction: f64,
    pub per_genome_fraction: Vec<f64>,
    /// Contig 32-mers found in any genome ÷ contig 32-mers.
    pub contig_accuracy: f64,
    /// See [`ng50`]; the target is both strands of every genome, because
    /// the assembler works on a strand-augmented read set and emits each
    /// contig once per strand.
    pub ng50_bp: usize,
    pub contigs: usize,
    pub total_bp: usize,
}

/// The contig length at which the running total of lengths, longest first,
/// reaches half of `target_len`; 0 when the contigs never get there.
pub fn ng50(contig_lens: &[usize], target_len: usize) -> usize {
    let mut lens = contig_lens.to_vec();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    let mut total = 0usize;
    for len in lens {
        total += len;
        if 2 * total >= target_len {
            return len;
        }
    }
    0
}

pub fn evaluate(reference: &Reference, contigs: &[Vec<u8>]) -> Quality {
    let mut covered: HashSet<u64> = HashSet::new();
    let (mut seen, mut found) = (0usize, 0usize);
    for contig in contigs {
        for kmer in canonical_kmers(contig) {
            seen += 1;
            if reference.kmers.contains_key(&kmer) {
                found += 1;
                covered.insert(kmer);
            }
        }
    }
    let mut covered_per_genome = vec![0usize; reference.distinct_per_genome.len()];
    for kmer in &covered {
        let mask = reference.kmers[kmer];
        for (i, count) in covered_per_genome.iter_mut().enumerate() {
            *count += (mask >> i & 1) as usize;
        }
    }
    let per_genome_fraction: Vec<f64> = covered_per_genome
        .iter()
        .zip(&reference.distinct_per_genome)
        .map(|(&c, &d)| if d == 0 { 0.0 } else { c as f64 / d as f64 })
        .collect();
    let lens: Vec<usize> = contigs.iter().map(Vec::len).collect();
    Quality {
        genome_fraction: per_genome_fraction.iter().sum::<f64>()
            / per_genome_fraction.len().max(1) as f64,
        per_genome_fraction,
        contig_accuracy: if seen == 0 {
            0.0
        } else {
            found as f64 / seen as f64
        },
        ng50_bp: ng50(&lens, 2 * reference.total_len),
        contigs: contigs.len(),
        total_bp: lens.iter().sum(),
    }
}

/// Sequences of a FASTA document, headers dropped.
pub fn parse_fasta(text: &[u8]) -> Vec<Vec<u8>> {
    let mut records: Vec<Vec<u8>> = Vec::new();
    for line in text.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.starts_with(b">") {
            records.push(Vec::new());
        } else if let Some(current) = records.last_mut() {
            current.extend_from_slice(line);
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{reverse_complement as revcomp, Rng};

    fn random_seq(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::new(seed);
        (0..len).map(|_| b"ACGT"[rng.below(4)]).collect()
    }

    #[test]
    fn kmers_are_strand_neutral_and_skip_unknown_bases() {
        let seq = random_seq(100, 1);
        let mut fwd = canonical_kmers(&seq);
        let mut rev = canonical_kmers(&revcomp(&seq));
        assert_eq!(fwd.len(), 100 - K + 1);
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
        let mut with_n = seq.clone();
        with_n[50] = b'N';
        // Only windows left of position 50 and right of it survive.
        assert_eq!(canonical_kmers(&with_n).len(), (50 - K + 1) + (49 - K + 1));
        assert!(canonical_kmers(b"ACGT").is_empty());
    }

    #[test]
    fn perfect_contigs_score_one_on_both_measures() {
        let genomes = vec![random_seq(1000, 2), random_seq(800, 3)];
        let reference = Reference::new(&genomes);
        // Either strand counts.
        let contigs = vec![genomes[0].clone(), revcomp(&genomes[1])];
        let q = evaluate(&reference, &contigs);
        assert_eq!(q.genome_fraction, 1.0);
        assert_eq!(q.contig_accuracy, 1.0);
        assert_eq!((q.contigs, q.total_bp), (2, 1800));
    }

    #[test]
    fn a_dropped_contig_lowers_genome_fraction_only() {
        let genomes = vec![random_seq(1000, 2), random_seq(1000, 3)];
        let reference = Reference::new(&genomes);
        let q = evaluate(&reference, &[genomes[0].clone()]);
        assert_eq!(q.per_genome_fraction, vec![1.0, 0.0]);
        assert_eq!(q.genome_fraction, 0.5);
        assert_eq!(q.contig_accuracy, 1.0);
        let half = evaluate(&reference, &[genomes[0][..500 + K - 1].to_vec()]);
        let expected = 500.0 / (1000 - K + 1) as f64;
        assert!((half.per_genome_fraction[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn a_random_contig_lowers_accuracy_only() {
        let genomes = vec![random_seq(1000, 2)];
        let reference = Reference::new(&genomes);
        let q = evaluate(&reference, &[genomes[0].clone(), random_seq(1000, 99)]);
        assert_eq!(q.genome_fraction, 1.0);
        assert_eq!(q.contig_accuracy, 0.5);
    }

    #[test]
    fn ng50_is_taken_against_the_reference_length() {
        // Half of 1000 is reached inside the 300: 400 + 300 >= 500.
        assert_eq!(ng50(&[100, 400, 300, 50], 1000), 300);
        assert_eq!(ng50(&[400, 300], 800), 400);
        // Contigs too short in total to reach half the reference.
        assert_eq!(ng50(&[100, 100], 1000), 0);
        // Both strands of two 1000 bp genomes: half of 4000.
        let genomes = vec![random_seq(1000, 2), random_seq(1000, 3)];
        let reference = Reference::new(&genomes);
        let contigs = vec![
            genomes[0].clone(),
            revcomp(&genomes[0]),
            genomes[1][..600].to_vec(),
            genomes[1][400..].to_vec(),
        ];
        assert_eq!(evaluate(&reference, &contigs).ng50_bp, 1000);
        assert_eq!(evaluate(&reference, &contigs[2..]).ng50_bp, 0);
    }

    #[test]
    fn fasta_records_join_their_lines() {
        let text = b">a len=5\nACG\nTT\n>b\r\nGG\r\n>empty\n";
        assert_eq!(
            parse_fasta(text),
            vec![b"ACGTT".to_vec(), b"GG".to_vec(), vec![]]
        );
        assert!(parse_fasta(b"").is_empty());
    }
}
