//! The reference genomes as fc-align's seed index, the one k-mer table
//! behind the classifier and the evaluator: genome `g`'s forward strand is
//! the index's "read" `2g` and its reverse complement `2g + 1`, so a hit is
//! a [`Locus`].

use crate::error::ClassifyError;
use fc_align::KmerIndex;
use fc_seq::{DnaString, ReadId};

/// One occurrence of a k-mer in the references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Locus {
    pub(crate) genome: u32,
    /// Forward-strand start of the occurrence's bases.
    pub(crate) position: u32,
    /// True if the k-mer reads off the reverse strand.
    pub(crate) reverse: bool,
}

/// Both strands of every reference genome in one seed index.
#[derive(Debug, Clone)]
pub(crate) struct ReferenceIndex {
    index: KmerIndex,
    pub(crate) k: usize,
    /// Genome lengths, to map a reverse-strand offset onto the forward one.
    pub(crate) lens: Vec<u32>,
}

impl ReferenceIndex {
    /// Indexes both strands of `genomes` at `k` (in `1..=32`), refusing a
    /// set the index cannot hold before building anything.
    pub(crate) fn build(genomes: &[DnaString], k: usize) -> Result<ReferenceIndex, ClassifyError> {
        KmerIndex::check_capacity(genomes.iter().flat_map(|g| [g.len(); 2]))
            .map_err(ClassifyError::Index)?;
        let reverse: Vec<DnaString> = genomes.iter().map(DnaString::reverse_complement).collect();
        let strands = genomes
            .iter()
            .zip(&reverse)
            .flat_map(|(f, r)| [f.packed(), r.packed()]);
        let reads: Vec<_> = (0..).map(ReadId).zip(strands).collect();
        Ok(ReferenceIndex {
            index: KmerIndex::build(&reads, k),
            k,
            lens: genomes.iter().map(|g| g.len() as u32).collect(),
        })
    }

    /// Looks up every k-mer of `seq` into `runs`, in position order; an
    /// absent k-mer's run is empty, and a present one's first entry names
    /// it. `kmers` is scratch.
    pub(crate) fn runs(&self, seq: &DnaString, kmers: &mut Vec<u64>, runs: &mut Vec<(u32, u32)>) {
        kmers.clear();
        kmers.extend(seq.kmers(self.k).map(|(_, kmer)| kmer));
        self.index.runs(kmers, runs);
    }

    /// The loci of a run, by genome, forward strand first.
    pub(crate) fn loci(&self, run: (u32, u32)) -> impl Iterator<Item = Locus> + '_ {
        self.index.hits_of(run).map(move |(ReadId(rank), offset)| {
            let (genome, reverse) = (rank / 2, rank % 2 == 1);
            let position = match reverse {
                true => self.lens[genome as usize] - self.k as u32 - offset,
                false => offset,
            };
            Locus {
                genome,
                position,
                reverse,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, ng50_against, ReferenceEvaluation};
    use crate::KmerClassifier;
    use fc_rng::{cases, Rng};
    use fc_seq::Base;
    use std::collections::{HashMap, HashSet};

    /// The oracle, the hash map the index replaced: each k-mer's genomes,
    /// once per occurrence on either strand, in genome order.
    type Map = HashMap<u64, Vec<u32>>;
    fn oracle_map(refs: &[DnaString], k: usize) -> Map {
        let mut map = Map::new();
        for (g, r) in refs.iter().enumerate() {
            for (_, m) in r.kmers(k).chain(r.reverse_complement().kmers(k)) {
                map.entry(m).or_default().push(g as u32);
            }
        }
        map
    }

    /// Most hits wins, the smaller genome on ties.
    fn oracle_classify(map: &Map, n: usize, k: usize, seq: &DnaString) -> Option<u32> {
        let mut scores = vec![0u64; n];
        for &g in seq.kmers(k).filter_map(|(_, m)| map.get(&m)).flatten() {
            scores[g as usize] += 1;
        }
        let best = (1..n).fold(0, |b, i| if scores[i] > scores[b] { i } else { b });
        scores.iter().any(|&s| s > 0).then_some(best as u32)
    }

    /// A 32-mer counts for the first genome that holds it.
    fn oracle_evaluate(contigs: &[DnaString], refs: &[DnaString]) -> ReferenceEvaluation {
        let map = oracle_map(refs, 32);
        let (mut covered, mut matched) = (vec![HashSet::new(); refs.len()], 0);
        let mut chimeric = vec![];
        for (ci, contig) in contigs.iter().enumerate() {
            let mut per_ref = vec![0usize; refs.len()];
            for (_, m) in contig.kmers(32) {
                if let Some(&g) = map.get(&m).and_then(|genomes| genomes.first()) {
                    (matched, per_ref[g as usize]) = (matched + 1, per_ref[g as usize] + 1);
                    covered[g as usize].insert(m);
                }
            }
            let n = contig.kmers(32).count() as f64;
            let significant = |&&c: &&usize| c as f64 >= 0.05 * n && c >= 2;
            chimeric.extend((per_ref.iter().filter(significant).count() >= 2).then_some(ci));
        }
        let total: usize = contigs.iter().map(|c| c.kmers(32).count()).sum();
        let fraction = |(hit, r): (&HashSet<u64>, &DnaString)| {
            (hit.len() as f64 / r.len().saturating_sub(31).max(1) as f64).min(1.0)
        };
        ReferenceEvaluation {
            genome_fraction: covered.iter().zip(refs).map(fraction).collect(),
            contig_accuracy: matched as f64 / total.max(1) as f64,
            chimeric_contigs: chimeric,
            ng50: ng50_against(contigs, refs.iter().map(DnaString::len).sum()),
            contigs_evaluated: contigs.iter().filter(|c| c.len() >= 32).count(),
        }
    }

    fn random_seq(rng: &mut Rng, lens: std::ops::Range<usize>) -> DnaString {
        let len = rng.range(lens);
        (0..len).map(|_| Base::from_code(rng.range(0..4))).collect()
    }

    /// A slice of `seq` of up to `len` bases at a random start.
    fn piece(rng: &mut Rng, seq: &DnaString, len: usize) -> DnaString {
        let len = len.min(seq.len());
        let start = rng.range(0..=seq.len() - len);
        seq.slice(start, start + len)
    }

    /// Genomes that share segments with each other, carry tandem repeats
    /// and palindromes (a segment then its reverse complement), and
    /// sometimes are shorter than a k-mer.
    fn genome_set(rng: &mut Rng) -> Vec<DnaString> {
        let mut genomes: Vec<DnaString> = Vec::new();
        for _ in 0..rng.range(1..6) {
            let mut g = DnaString::new();
            for _ in 0..rng.range(1..6) {
                let part = match rng.range(0..5) {
                    0 if !genomes.is_empty() => {
                        let donor = &genomes[rng.range(0..genomes.len())];
                        let len = rng.range(20..200);
                        piece(rng, donor, len)
                    }
                    1 => {
                        let unit = random_seq(rng, 1..12);
                        (0..rng.range(2..30)).fold(DnaString::new(), |mut t, _| {
                            t.extend_from(&unit);
                            t
                        })
                    }
                    2 => {
                        let mut half = random_seq(rng, 1..60);
                        half.extend_from(&half.reverse_complement());
                        half
                    }
                    3 => random_seq(rng, 0..20),
                    _ => random_seq(rng, 50..400),
                };
                g.extend_from(&part);
            }
            genomes.push(g);
        }
        genomes
    }

    /// Queries: genome pieces on either strand, joins of two genomes'
    /// pieces, point-mutated pieces and random sequence.
    fn queries(rng: &mut Rng, genomes: &[DnaString]) -> Vec<DnaString> {
        let mut out = Vec::new();
        for _ in 0..24 {
            let pick = |rng: &mut Rng| {
                let g = &genomes[rng.range(0..genomes.len())];
                let len = rng.range(1..300);
                piece(rng, g, len)
            };
            let mut q = match rng.range(0..5) {
                0 => pick(rng).reverse_complement(),
                1 => {
                    let mut joined = pick(rng);
                    joined.extend_from(&pick(rng).reverse_complement());
                    joined
                }
                2 => {
                    let q = pick(rng);
                    let at = rng.range(0..=q.len());
                    let mut mutated = q.slice(0, at);
                    mutated.push(Base::from_code(rng.range(0..4)));
                    mutated.extend_from(&q.slice(at.min(q.len()), q.len()));
                    mutated
                }
                3 => random_seq(rng, 0..120),
                _ => pick(rng),
            };
            if rng.bool(0.1) {
                q = DnaString::new();
            }
            out.push(q);
        }
        out
    }

    #[test]
    fn classifier_and_evaluator_answer_as_the_hash_maps_did() {
        cases(48, |rng| {
            let genomes = genome_set(rng);
            let queries = queries(rng, &genomes);
            for k in [rng.range(1..=32), rng.range(1..=8), 21] {
                let classifier = KmerClassifier::build(&genomes, k).unwrap();
                let map = oracle_map(&genomes, k);
                for q in &queries {
                    let want = oracle_classify(&map, genomes.len(), k, q);
                    assert_eq!(classifier.classify_seq(q), want, "k={k}, query {q}");
                }
            }
            if genomes.iter().any(|g| g.len() >= 32) {
                let want = oracle_evaluate(&queries, &genomes);
                assert_eq!(evaluate(&queries, &genomes).unwrap(), want);
            }
        });
    }

    #[test]
    fn loci_are_where_the_kmer_is() {
        cases(16, |rng| {
            let genomes = genome_set(rng);
            let k = rng.range(1..=32);
            let index = ReferenceIndex::build(&genomes, k).unwrap();
            for (g, genome) in genomes.iter().enumerate() {
                for (pos, _) in genome.kmers(k) {
                    let seq = genome.slice(pos, pos + k);
                    for (query, reverse) in [(seq.clone(), false), (seq.reverse_complement(), true)]
                    {
                        let (mut kmers, mut runs) = (Vec::new(), Vec::new());
                        index.runs(&query, &mut kmers, &mut runs);
                        let want = Locus {
                            genome: g as u32,
                            position: pos as u32,
                            reverse,
                        };
                        assert!(index.loci(runs[0]).any(|l| l == want), "k={k} {want:?}");
                        // Every locus reads the query's k-mer off its strand.
                        for l in index.loci(runs[0]) {
                            let start = l.position as usize;
                            let at = genomes[l.genome as usize].slice(start, start + k);
                            let at = if l.reverse {
                                at.reverse_complement()
                            } else {
                                at
                            };
                            assert_eq!(at, query, "k={k} {l:?}");
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod loci {
    use super::*;

    /// Every read of an fc-sim community placed by its first k-mer: the
    /// first locus the index returns for it, read back to where the read
    /// starts on the forward strand. Counts the reads placed at their true
    /// origin (genus, position, strand) and the reads whose first k-mer
    /// has no hit.
    fn place_reads(seed: u64, k: usize) -> (usize, usize, usize) {
        let config = fc_sim::DatasetConfig::test_scale();
        let dataset = fc_sim::generate_dataset("loci", &config, seed).unwrap();
        let genomes: Vec<DnaString> = dataset
            .taxonomy
            .genera
            .iter()
            .map(|g| g.genome.clone())
            .collect();
        let index = ReferenceIndex::build(&genomes, k).unwrap();
        let (mut kmers, mut runs) = (Vec::new(), Vec::new());
        let (mut true_loci, mut unplaced) = (0, 0);
        for (read, origin) in dataset.reads.iter().zip(&dataset.origins) {
            index.runs(&read.seq.slice(0, k), &mut kmers, &mut runs);
            let Some(locus) = index.loci(runs[0]).next() else {
                unplaced += 1;
                continue;
            };
            // A reverse read's first k-mer is the last of its span.
            let start = match locus.reverse {
                true => (locus.position as usize + k).checked_sub(read.len()),
                false => Some(locus.position as usize),
            };
            let truth = (origin.genus, Some(origin.position as usize), origin.reverse);
            true_loci += usize::from((locus.genome, start, locus.reverse) == truth);
        }
        (dataset.reads.len(), true_loci, unplaced)
    }

    /// The placement ROADMAP item 12 builds on, pinned: 840 of 900 reads
    /// (93.3 %) land at their origin. Of the other 60, 45 have no hit (a
    /// sequencing error in the first k-mer), and 15 begin in a segment
    /// their genus shares with genus 0: both loci are hits, and genus 0's
    /// comes first.
    #[test]
    fn reads_land_at_their_true_origin() {
        assert_eq!(place_reads(23, 21), (900, 840, 45));
    }
}
