//! The benchmark's own seeded metagenome generator (pure std).
//!
//! It depends on neither `fc-sim` nor `rand`, so a change to the product's
//! simulator or PRNG cannot move the datasets. Everything that decides how
//! much work a dataset is — genome count and length, repeat count, the
//! abundance profile and therefore the read count — is fixed by the
//! [`DatasetSpec`]; the seed only chooses base content, positions and which
//! genome gets which abundance. Run-to-run cost therefore varies little
//! from seed to seed, which the driver's spread check needs.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and good enough for sampling.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn base(&mut self) -> u8 {
        b"ACGT"[self.below(4)]
    }

    /// A base different from `not`.
    fn other_base(&mut self, not: u8) -> u8 {
        loop {
            let b = self.base();
            if b != not {
                return b;
            }
        }
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The shape of one dataset. See the module docs for what is fixed by the
/// spec and what the seed chooses.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub phyla: usize,
    pub genera_per_phylum: usize,
    pub genome_len: usize,
    /// Substitution rate root → phylum ancestor, and phylum → genus,
    /// outside conserved segments.
    pub phylum_divergence: f64,
    pub genus_divergence: f64,
    /// Segments every genome inherits nearly unchanged (rRNA-operon-like):
    /// they are what ties unrelated genomes together in the overlap graph.
    pub conserved_segments: usize,
    pub conserved_len: usize,
    pub conserved_divergence: f64,
    /// Dispersed repeats inside each genome.
    pub repeat_families: usize,
    pub repeat_copies: usize,
    pub repeat_len: usize,
    pub repeat_divergence: f64,
    pub read_len: usize,
    /// Community coverage: read bases ÷ total genome bases.
    pub coverage: f64,
    /// Sigma of the log-normal abundance profile.
    pub abundance_sigma: f64,
    /// Per-base error probability at the 5' end and at the last base; it
    /// rises as the 16th power of the relative position, so errors pile up
    /// in the 3' tail that quality trimming then removes.
    pub error_5prime: f64,
    pub error_3prime: f64,
    /// Share of reads whose error probability is tripled.
    pub poor_read_share: f64,
}

impl DatasetSpec {
    /// Clean community: 12 genera over 3 phyla, 8x, about 1% error.
    pub fn meta_clean() -> DatasetSpec {
        DatasetSpec {
            name: "meta-clean",
            phyla: 3,
            genera_per_phylum: 4,
            genome_len: 15_000,
            phylum_divergence: 0.30,
            genus_divergence: 0.14,
            conserved_segments: 2,
            conserved_len: 600,
            conserved_divergence: 0.015,
            repeat_families: 2,
            repeat_copies: 3,
            repeat_len: 300,
            repeat_divergence: 0.02,
            read_len: 100,
            coverage: 8.0,
            abundance_sigma: 0.5,
            error_5prime: 0.005,
            error_3prime: 0.09,
            poor_read_share: 0.08,
        }
    }

    /// Noisy community: half the coverage, twice the error, more and longer
    /// repeats, so clusters verify less often and the hybrid set compresses
    /// poorly.
    pub fn meta_noisy() -> DatasetSpec {
        DatasetSpec {
            name: "meta-noisy",
            coverage: 4.0,
            error_5prime: 0.01,
            error_3prime: 0.18,
            repeat_families: 4,
            repeat_copies: 4,
            repeat_len: 500,
            repeat_divergence: 0.03,
            ..DatasetSpec::meta_clean()
        }
    }

    pub fn genomes(&self) -> usize {
        self.phyla * self.genera_per_phylum
    }

    /// Reads drawn from each abundance rank (rank 0 = rarest). Depends on
    /// the spec alone: the seed only permutes which genome gets which rank.
    pub fn reads_per_rank(&self) -> Vec<usize> {
        let n = self.genomes();
        let weights: Vec<f64> = (0..n)
            .map(|i| (self.abundance_sigma * normal_quantile((i as f64 + 0.5) / n as f64)).exp())
            .collect();
        let mean = weights.iter().sum::<f64>() / n as f64;
        weights
            .iter()
            .map(|w| {
                (self.coverage * w / mean * self.genome_len as f64 / self.read_len as f64).round()
                    as usize
            })
            .collect()
    }

    pub fn total_reads(&self) -> usize {
        self.reads_per_rank().iter().sum()
    }
}

/// Inverse standard normal CDF (Abramowitz & Stegun 26.2.23, |error| <
/// 4.5e-4 — ample for spacing twelve abundances).
fn normal_quantile(p: f64) -> f64 {
    let (q, sign) = if p < 0.5 { (p, -1.0) } else { (1.0 - p, 1.0) };
    let t = (-2.0 * q.ln()).sqrt();
    let num = 2.515517 + t * (0.802853 + t * 0.010328);
    let den = 1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308));
    sign * (t - num / den)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Genome {
    pub name: String,
    /// ASCII `ACGT`.
    pub seq: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SimRead {
    pub name: String,
    pub seq: Vec<u8>,
    /// Phred scores (not yet offset by 33).
    pub qual: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    pub spec: DatasetSpec,
    pub seed: u64,
    pub genomes: Vec<Genome>,
    pub reads: Vec<SimRead>,
}

/// Copies `parent`, substituting each base with the rate of its position:
/// `conserved_rate` inside a conserved segment, `rate` elsewhere.
fn diverge(
    parent: &[u8],
    rate: f64,
    conserved: &[(usize, usize)],
    conserved_rate: f64,
    rng: &mut Rng,
) -> Vec<u8> {
    let mut rates = vec![rate; parent.len()];
    for &(start, end) in conserved {
        rates[start..end].fill(conserved_rate);
    }
    parent
        .iter()
        .zip(rates)
        .map(|(&b, r)| if rng.chance(r) { rng.other_base(b) } else { b })
        .collect()
}

pub(crate) fn reverse_complement(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .rev()
        .map(|b| match b {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            _ => b'A',
        })
        .collect()
}

/// Generates the dataset `spec` describes from `seed`.
pub fn generate(spec: &DatasetSpec, seed: u64) -> Dataset {
    let mut rng = Rng::new(seed ^ 0xF0C0_5BE7_C4A1_1E55);
    let len = spec.genome_len;

    let root: Vec<u8> = (0..len).map(|_| rng.base()).collect();
    let conserved: Vec<(usize, usize)> = (0..spec.conserved_segments)
        .map(|_| {
            let start = rng.below(len - spec.conserved_len);
            (start, start + spec.conserved_len)
        })
        .collect();

    let mut genomes = Vec::with_capacity(spec.genomes());
    for p in 0..spec.phyla {
        let ancestor = diverge(
            &root,
            spec.phylum_divergence,
            &conserved,
            spec.conserved_divergence,
            &mut rng,
        );
        for g in 0..spec.genera_per_phylum {
            let mut seq = diverge(
                &ancestor,
                spec.genus_divergence,
                &conserved,
                spec.conserved_divergence,
                &mut rng,
            );
            for _ in 0..spec.repeat_families {
                let from = rng.below(len - spec.repeat_len);
                let unit = seq[from..from + spec.repeat_len].to_vec();
                for _ in 0..spec.repeat_copies {
                    let copy = diverge(&unit, spec.repeat_divergence, &[], 0.0, &mut rng);
                    let at = rng.below(len - spec.repeat_len);
                    seq[at..at + spec.repeat_len].copy_from_slice(&copy);
                }
            }
            genomes.push(Genome {
                name: format!("phylum{p}_genus{g}"),
                seq,
            });
        }
    }

    let mut rank_of_genome: Vec<usize> = (0..genomes.len()).collect();
    rng.shuffle(&mut rank_of_genome);
    let reads_per_rank = spec.reads_per_rank();

    let tail = (spec.read_len - 1).max(1) as f64;
    let error_at: Vec<f64> = (0..spec.read_len)
        .map(|i| {
            spec.error_5prime + (spec.error_3prime - spec.error_5prime) * (i as f64 / tail).powi(16)
        })
        .collect();

    let mut reads = Vec::with_capacity(spec.total_reads());
    for (genome, &rank) in genomes.iter().zip(&rank_of_genome) {
        for _ in 0..reads_per_rank[rank] {
            let start = rng.below(len - spec.read_len + 1);
            let mut seq = genome.seq[start..start + spec.read_len].to_vec();
            if rng.chance(0.5) {
                seq = reverse_complement(&seq);
            }
            let scale = if rng.chance(spec.poor_read_share) {
                3.0
            } else {
                1.0
            };
            let mut qual = Vec::with_capacity(spec.read_len);
            for (base, &p) in seq.iter_mut().zip(&error_at) {
                let p = (p * scale).min(0.5);
                if rng.chance(p) {
                    *base = rng.other_base(*base);
                }
                let phred = (-10.0 * p.log10()).round() as i64 + rng.below(3) as i64 - 1;
                qual.push(phred.clamp(2, 40) as u8);
            }
            reads.push(SimRead {
                name: String::new(),
                seq,
                qual,
            });
        }
    }
    // A sequencer emits reads in no genome order; the assembler splits its
    // subsets by file position, so order decides how pair tasks balance.
    rng.shuffle(&mut reads);
    for (i, read) in reads.iter_mut().enumerate() {
        read.name = format!("r{i}");
    }

    Dataset {
        spec: spec.clone(),
        seed,
        genomes,
        reads,
    }
}

impl Dataset {
    pub fn fastq(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.reads.len() * (2 * self.spec.read_len + 16));
        for read in &self.reads {
            out.push(b'@');
            out.extend_from_slice(read.name.as_bytes());
            out.push(b'\n');
            out.extend_from_slice(&read.seq);
            out.extend_from_slice(b"\n+\n");
            out.extend(read.qual.iter().map(|q| q + 33));
            out.push(b'\n');
        }
        out
    }

    pub fn reference_fasta(&self) -> Vec<u8> {
        let mut out = String::new();
        for genome in &self.genomes {
            let _ = writeln!(out, ">{}", genome.name);
            for line in genome.seq.chunks(70) {
                out.push_str(std::str::from_utf8(line).expect("genomes are ASCII"));
                out.push('\n');
            }
        }
        out.into_bytes()
    }
}

/// FNV-1a, 64 bit: the digest of inputs and outputs throughout.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DatasetSpec {
        DatasetSpec {
            genome_len: 2_000,
            conserved_len: 200,
            repeat_len: 100,
            ..DatasetSpec::meta_clean()
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = generate(&small(), 7);
        let b = generate(&small(), 7);
        let c = generate(&small(), 8);
        assert_eq!(a, b);
        assert_eq!(fnv1a64(&a.fastq()), fnv1a64(&b.fastq()));
        assert_ne!(fnv1a64(&a.fastq()), fnv1a64(&c.fastq()));
        assert_ne!(fnv1a64(&a.reference_fasta()), fnv1a64(&c.reference_fasta()));
    }

    #[test]
    fn the_spec_alone_fixes_the_amount_of_work() {
        let spec = small();
        let a = generate(&spec, 1);
        let b = generate(&spec, 2);
        assert_eq!(a.reads.len(), spec.total_reads());
        assert_eq!(a.reads.len(), b.reads.len());
        assert_eq!(a.fastq().len(), b.fastq().len());
        assert_eq!(a.genomes.len(), 12);
        assert!(a.genomes.iter().all(|g| g.seq.len() == spec.genome_len));
        let bases = (a.reads.len() * spec.read_len) as f64;
        let coverage = bases / (12 * spec.genome_len) as f64;
        assert!(
            (coverage - spec.coverage).abs() < 0.1,
            "coverage {coverage}"
        );
    }

    #[test]
    fn abundance_is_skewed_and_errors_sit_in_the_tail() {
        let spec = small();
        let ranks = spec.reads_per_rank();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
        assert!(ranks[11] > 3 * ranks[0], "{ranks:?}");
        let data = generate(&spec, 3);
        let mean_q = |from: usize, to: usize| {
            let sum: u64 = data
                .reads
                .iter()
                .flat_map(|r| &r.qual[from..to])
                .map(|&q| u64::from(q))
                .sum();
            sum as f64 / (data.reads.len() * (to - from)) as f64
        };
        assert!(mean_q(0, 50) > 20.0);
        assert!(mean_q(95, 100) < 15.0);
    }

    #[test]
    fn related_genomes_share_more_than_unrelated_ones() {
        let data = generate(&small(), 5);
        let identity = |a: &Genome, b: &Genome| {
            a.seq.iter().zip(&b.seq).filter(|(x, y)| x == y).count() as f64 / a.seq.len() as f64
        };
        let same_phylum = identity(&data.genomes[0], &data.genomes[1]);
        let other_phylum = identity(&data.genomes[0], &data.genomes[4]);
        assert!(
            same_phylum > other_phylum + 0.1,
            "{same_phylum} vs {other_phylum}"
        );
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
