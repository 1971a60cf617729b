//! The six-stage Focus pipeline (paper §II).
//!
//! The stage sequence is written once, split where the partition count
//! enters: the crate-private `prepare_from` runs stages 2–5 over a
//! preprocessed store and returns every stage's product ([`Stages`]), and
//! `finish` runs stage 6 on the part of it that stage reads ([`Prepared`]).
//! Every entry point is those two calls; all but
//! [`prepare_stages`](FocusAssembler::prepare_stages) keep only the
//! [`Prepared`]. The alignment boundary inside `prepare_from` runs under a
//! checkpoint policy (`checkpoint::CkptPolicy`): off for
//! [`prepare`](FocusAssembler::prepare), which preprocesses reads already in
//! memory, and the caller's for
//! [`assemble_file`](FocusAssembler::assemble_file), the one way a file
//! enters the pipeline, which brings its own streaming ingest. Alignment is
//! one loop, [`Overlapper::overlap_all_within`]; `prepare_from` picks how
//! many seed indexes it holds at once: one for a file run under a memory
//! budget, every one otherwise.
//!
//! Each graph dies at its last reader. The overlaps go once `G0`'s directed
//! view is built from them; `G0`'s undirected view goes once coarsening has
//! contracted level 1 from it, and each level once the next one is
//! (`fc_graph::coarsen::coarsen_on`), so `prepare_from` keeps only the
//! fine→coarse maps and per-level node counts of the multilevel set. Hybrid
//! selection reads those, `G0`'s directed view with its containments, and
//! the store. [`prepare_stages`](FocusAssembler::prepare_stages) re-derives
//! `G0`'s undirected view and the multilevel set from the directed view for
//! the figure and test code that reads them.

use crate::checkpoint::{CkptPolicy, Halt};
use crate::config::{FocusConfig, FocusError};
use crate::ooc::RunBudget;
use crate::stats::AssemblyStats;
use fc_align::{Indexes, Overlap, Overlapper, PairStats, Pool};
use fc_dist::{AssemblyPath, DistributedConfig, DistributedHybrid, DistributedReport, FaultPlan};
use fc_graph::coarsen::coarsen_on;
use fc_graph::{DiGraph, HybridSet, MultilevelSet, NodeId, OverlapGraph};
use fc_obs::Recorder;
use fc_partition::{partition_graph_set_obs, PartitionConfig, PartitionResult};
use fc_seq::{fasta, DnaString, Read, ReadStore, SeqError};
use std::mem::size_of_val;
use std::sync::Arc;

/// The Focus assembler. Construct with a validated [`FocusConfig`], then
/// either [`assemble`](FocusAssembler::assemble) in one call or
/// [`prepare`](FocusAssembler::prepare) once and sweep partition counts with
/// [`assemble_prepared`](FocusAssembler::assemble_prepared).
#[derive(Debug, Clone)]
pub struct FocusAssembler {
    config: FocusConfig,
    recorder: Recorder,
}

/// What stage 6 reads of the partition-independent product: the hybrid
/// graph set and the hybrid nodes' contig sequences. Nothing else of
/// stages 1–5 outlives [`prepare`](FocusAssembler::prepare): the store,
/// the pair stats, `G0` and the multilevel set are freed before it returns,
/// so a sweep over partition counts allocates on top of these two alone.
/// [`prepare_stages`](FocusAssembler::prepare_stages) returns them for
/// the code that reads them.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Hybrid graph set `{G'0 … G'n}`.
    pub hybrid: HybridSet,
    /// Contig sequence of every hybrid node, in node-id order. A hybrid node
    /// is the coarsest node whose cluster still assembles into one contig
    /// (§II-D), so these are fixed before anything is partitioned; every
    /// [`assemble_prepared`](FocusAssembler::assemble_prepared) call shares
    /// them.
    pub contigs: Arc<[DnaString]>,
}

/// Every product of stages 1–5, as
/// [`prepare_stages`](FocusAssembler::prepare_stages) returns it: the
/// [`Prepared`] stage 6 reads, and the store, pair stats, `G0` and
/// multilevel set it does not; the last two are re-derived, byte for byte,
/// from the directed view the run kept. The verified overlaps themselves are gone
/// once G0 is built from them; [`Overlapper::overlap_all`] recomputes them
/// for anyone who needs them.
#[derive(Debug, Clone)]
pub struct Stages {
    /// Preprocessed, strand-augmented reads.
    pub store: ReadStore,
    /// Per-subset-pair alignment work statistics.
    pub pair_stats: Vec<(usize, usize, PairStats)>,
    /// Level-0 overlap graph.
    pub graph: OverlapGraph,
    /// Multilevel graph set `{G0 … Gn}`.
    pub multilevel: MultilevelSet,
    /// What [`assemble_prepared`](FocusAssembler::assemble_prepared) reads.
    pub prepared: Prepared,
}

/// What [`prepare_from`](FocusAssembler::prepare_from) returns: the
/// [`Prepared`] stage 6 reads, and what it keeps to its end besides — the
/// store, the pair stats and `G0`'s directed view with its containments,
/// from which [`prepare_stages`](FocusAssembler::prepare_stages) re-derives
/// the rest of [`Stages`]. No level graph is among them.
pub(crate) struct Kept {
    store: ReadStore,
    pair_stats: Vec<(usize, usize, PairStats)>,
    directed: DiGraph,
    containments: Vec<(NodeId, NodeId)>,
    pub(crate) prepared: Prepared,
}

/// Where a run's reads came from, with how many there were: what decides
/// how many seed indexes alignment holds at once.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// Parsed reads, held for the whole run
    /// ([`prepare`](FocusAssembler::prepare)): every seed index is built up
    /// front, under any budget.
    Parsed(u64),
    /// Records streamed from a file
    /// ([`assemble_file`](FocusAssembler::assemble_file)): under a budget,
    /// one seed index at a time.
    Streamed(u64),
}

/// A complete assembly outcome.
#[derive(Debug, Clone)]
pub struct AssemblyResult {
    /// The assembled contigs.
    pub contigs: Vec<DnaString>,
    /// Contig statistics (Table III).
    pub stats: AssemblyStats,
    /// Partitioning outcome on the hybrid set.
    pub partition: PartitionResult,
    /// Distributed-stage report (timings, removal counts, paths), boxed so
    /// that an [`AssemblyResult`] stays small to move.
    pub report: Box<DistributedReport>,
}

impl AssemblyResult {
    /// Writes the contigs as FASTA — `contig_{i} len={bases}` headers, 70
    /// bases a line. The CLI and the job server both write through here, so
    /// a served job and a CLI run are byte-comparable.
    pub fn write_fasta<W: std::io::Write>(&self, out: W) -> Result<(), SeqError> {
        let records: Vec<Read> = self
            .contigs
            .iter()
            .enumerate()
            .map(|(i, c)| Read::new(format!("contig_{i} len={}", c.len()), c.clone()))
            .collect();
        fasta::write(out, &records, 70)
    }
}

impl FocusAssembler {
    /// Creates an assembler after validating `config`.
    pub fn new(config: FocusConfig) -> Result<FocusAssembler, FocusError> {
        config.validate()?;
        let recorder = Recorder::new(config.observability);
        Ok(FocusAssembler { config, recorder })
    }

    /// The configuration in use.
    pub fn config(&self) -> &FocusConfig {
        &self.config
    }

    /// The run's recorder: disabled (every record site is a single branch)
    /// unless [`FocusConfig::observability`] enables it. Snapshot or drain
    /// it after [`assemble`](FocusAssembler::assemble) to get metrics and
    /// trace events.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Runs stages 1–5: preprocessing, parallel alignment, overlap graph,
    /// multilevel coarsening, hybrid-set construction. The reads are held
    /// for the whole run, so the ledger charges them as `input-reads`.
    /// Returns only what stage 6 reads; the other stages are freed before
    /// this returns.
    pub fn prepare(&self, reads: &[Read]) -> Result<Prepared, FocusError> {
        self.prepare_parsed(reads).map(|kept| kept.prepared)
    }

    /// [`prepare`](FocusAssembler::prepare), keeping every stage's product:
    /// for the paper's figures and tables that compare the hybrid set with
    /// `G0` and the multilevel set. The pipeline frees `G0`'s undirected
    /// view and every multilevel level before hybrid selection, so both are
    /// re-derived here from the directed view it keeps, by the same public
    /// builders under a disabled recorder: the products are the ones the
    /// run built, and nothing is recorded twice.
    pub fn prepare_stages(&self, reads: &[Read]) -> Result<Stages, FocusError> {
        let kept = self.prepare_parsed(reads)?;
        let (pool, off) = (Pool::new(self.config.threads), Recorder::disabled());
        let graph = OverlapGraph::from_directed(kept.directed, kept.containments, &pool, &off);
        let g0 = graph.undirected.clone();
        let multilevel = MultilevelSet::build_on(g0, &self.config.coarsen, &pool, &off);
        Ok(Stages {
            store: kept.store,
            pair_stats: kept.pair_stats,
            graph,
            multilevel,
            prepared: kept.prepared,
        })
    }

    /// Stages 1–5 over parsed reads: the sequence behind
    /// [`prepare`](FocusAssembler::prepare) and
    /// [`prepare_stages`](FocusAssembler::prepare_stages).
    fn prepare_parsed(&self, reads: &[Read]) -> Result<Kept, FocusError> {
        let (rec, config) = (&self.recorder, &self.config);
        let _span = rec.span_args(
            "pipeline",
            "pipeline.prepare",
            &[("reads", reads.len() as i64)],
        );
        let pool = Pool::new_obs(config.threads, rec);
        let mut budget = RunBudget::new(config);
        budget.charge(
            rec,
            "input-reads",
            reads.iter().map(|r| r.approx_bytes() as u64).sum(),
        )?;
        let store = ReadStore::preprocess(reads, &config.trim)?;
        budget.charge(rec, "read-store", store.approx_bytes() as u64)?;
        let source = Source::Parsed(reads.len() as u64);
        let mut policy = CkptPolicy::off(rec);
        self.prepare_from(store, source, &pool, &mut policy, &mut budget)
            .map_err(Halt::into_error)
    }

    /// Runs stage 6 (partitioning + distributed trimming/traversal + contig
    /// construction) on prepared artifacts with `k` partitions.
    pub fn assemble_prepared(
        &self,
        prepared: &Prepared,
        k: usize,
    ) -> Result<AssemblyResult, FocusError> {
        let rec = &self.recorder;
        let _span = rec.span_args("pipeline", "pipeline.assemble", &[("k", k as i64)]);
        self.finish(prepared, k)
    }

    /// The full pipeline with the configured partition count.
    pub fn assemble(&self, reads: &[Read]) -> Result<AssemblyResult, FocusError> {
        let prepared = self.prepare(reads)?;
        self.assemble_prepared(&prepared, self.config.partitions)
    }

    /// Stages 2–5 over a preprocessed store whose bytes `budget` already
    /// holds, every stage on `pool`; an empty store is refused. Alignment
    /// runs when no valid checkpoint of it exists, holding one seed index
    /// at a time for a budgeted file run and every one otherwise — the one
    /// thing the in-core and the budgeted run do differently.
    pub(crate) fn prepare_from(
        &self,
        store: ReadStore,
        source: Source,
        pool: &Pool,
        policy: &mut CkptPolicy<'_>,
        budget: &mut RunBudget,
    ) -> Result<Kept, Halt> {
        let (rec, config) = (&self.recorder, &self.config);
        if store.is_empty() {
            return Err(Halt::Failed(FocusError::EmptyInput));
        }
        let (reads_in, indexes) = match source {
            Source::Streamed(reads) if config.memory_budget.is_some() => {
                (reads, Indexes::OneAtATime)
            }
            Source::Parsed(reads) | Source::Streamed(reads) => (reads, Indexes::AllUpFront),
        };
        if rec.is_enabled() {
            rec.add("pipeline.reads_in", reads_in);
            rec.add("pipeline.reads_kept", store.len() as u64);
        }
        let (overlaps, pair_stats) = policy.alignment(|| {
            let overlapper = Overlapper::new(&store, config.overlap)?;
            let subsets = store.split_subsets(config.subsets);
            Ok(overlapper.overlap_all_within(&subsets, pool, rec, budget.budget(), indexes)?)
        })?;
        let bytes = (overlaps.len() * std::mem::size_of::<Overlap>()) as u64;
        let overlaps_charge = budget.budget().try_reserve("overlaps", bytes)?;
        budget.gauge(rec);
        policy.stop_after_alignment()?;

        // Every stage below runs its batches on the pool; their task lists
        // are fixed by the input, so the stages are the same at any thread
        // count. Each graph dies at its last reader. The level-0 overlap
        // graph's directed half is the overlaps' last reader: they and
        // their charge go before the undirected half is derived from it.
        let (directed, containments) = OverlapGraph::directed_view(&store, &overlaps, pool, rec);
        drop((overlaps, overlaps_charge));
        budget.gauge(rec);
        let graph = OverlapGraph::from_directed(directed, containments, pool, rec);
        // The graphs, visible but not charged: `mem.*` stays out of logical
        // snapshots, and whether they enter the `MemoryBudget` is ROADMAP
        // item 8's decision. `g0_bytes` is G0 as built, both views and the
        // containments; `multilevel_bytes` is what selection keeps of the
        // multilevel set, its maps and node counts.
        rec.gauge("mem.graph.g0_bytes", graph.heap_bytes() as i64);
        let OverlapGraph {
            undirected,
            directed,
            containments,
        } = graph;

        // Coarsening keeps no level: G0's undirected view dies once level 1
        // is contracted from it, and each level once the next one is.
        // Hybrid selection reads the maps, the node counts, G0's directed
        // view and its containments, and the store.
        let mut node_counts = Vec::new();
        let maps = coarsen_on(undirected, &config.coarsen, pool, rec, |level| {
            node_counts.push(level.node_count());
        });
        let ancestry = maps.iter().map(|m| size_of_val(&m[..])).sum::<usize>();
        let ancestry = ancestry + size_of_val(&node_counts[..]);
        rec.gauge("mem.graph.multilevel_bytes", ancestry as i64);
        let hybrid = HybridSet::build_on(
            &node_counts,
            &maps,
            &directed,
            &containments,
            &store,
            pool,
            rec,
        );
        drop((node_counts, maps));
        rec.gauge("mem.graph.hybrid_bytes", hybrid.heap_bytes() as i64);

        let contigs = DistributedHybrid::node_contigs_on(&hybrid, &store, pool, rec);
        rec.sample_peak_rss();
        Ok(Kept {
            store,
            pair_stats,
            directed,
            containments,
            prepared: Prepared { hybrid, contigs },
        })
    }

    /// Stage 6 on `prepared` with `k` partitions: partitioning, the four
    /// distributed phases, contig emission.
    pub(crate) fn finish(
        &self,
        prepared: &Prepared,
        k: usize,
    ) -> Result<AssemblyResult, FocusError> {
        let (rec, config) = (&self.recorder, &self.config);
        let partition = partition_graph_set_obs(
            &prepared.hybrid.set,
            &PartitionConfig::new(k, config.partition_seed).with_threads(config.threads),
            rec,
        )?;

        let mut dh = DistributedHybrid::from_contigs(
            &prepared.hybrid,
            Arc::clone(&prepared.contigs),
            partition.finest().to_vec(),
            k,
        )?;
        let plan = match &config.fault {
            Some(inj) => FaultPlan::random(inj.seed, k, &inj.rates),
            None => FaultPlan::none(),
        };
        let dist_config = DistributedConfig {
            threads: config.threads,
        };
        let report = dh.run_with_faults_obs(&dist_config, plan, rec)?;

        let mut contigs = Vec::with_capacity(report.paths.len());
        for p in &report.paths {
            contigs.push(path_contig(&dh, p)?);
        }
        if config.dedup_rc {
            contigs = dedup_reverse_complements(contigs);
        }
        let stats = AssemblyStats::from_contigs(&contigs);
        if rec.is_enabled() {
            rec.add("pipeline.contigs", contigs.len() as u64);
            rec.gauge("pipeline.n50", stats.n50 as i64);
            rec.gauge("pipeline.total_bases", stats.total_bases as i64);
        }
        rec.sample_peak_rss();
        Ok(AssemblyResult {
            contigs,
            stats,
            partition,
            report: Box::new(report),
        })
    }
}

/// Merges the contigs along a maximal path into one sequence using the
/// hybrid edges' contig-level shifts: each node's contig contributes the
/// bases past the current end (the clusters' own contigs are per-column
/// consensus). A path step without a connecting edge means traversal's
/// post-condition was violated upstream; it surfaces as a typed error
/// rather than a panic.
fn path_contig(dh: &DistributedHybrid, path: &AssemblyPath) -> Result<DnaString, FocusError> {
    let first: NodeId = path.nodes[0];
    let mut seq = dh.contig(first).clone();
    let mut covered_to = seq.len() as i64;
    let mut offset = 0i64;
    for w in path.nodes.windows(2) {
        let Some(edge) = dh.graph.edge(w[0], w[1]) else {
            return Err(FocusError::Dist(fc_dist::DistError::PathCoverViolation(
                format!("path step {}->{} has no edge", w[0], w[1]),
            )));
        };
        offset += edge.shift as i64;
        let next = dh.contig(w[1]);
        let from = (covered_to - offset).max(0);
        if from < next.len() as i64 {
            seq.extend_from(&next.slice(from as usize, next.len()));
            covered_to = covered_to.max(offset + next.len() as i64);
        }
    }
    Ok(seq)
}

/// Keeps one representative per exact reverse-complement pair: the member
/// seen first, in the orientation it arrived in. A later contig equal to a
/// kept one or to its reverse complement is dropped, so a palindrome, or a
/// contig listed twice, is kept once.
fn dedup_reverse_complements(contigs: Vec<DnaString>) -> Vec<DnaString> {
    use std::collections::HashSet;
    let mut canonical_seen: HashSet<Vec<u8>> = HashSet::new();
    let mut out = Vec::with_capacity(contigs.len() / 2 + 1);
    for contig in contigs {
        let fwd = contig.to_ascii();
        let rc = contig.reverse_complement().to_ascii();
        let canonical = if fwd <= rc { fwd } else { rc };
        if canonical_seen.insert(canonical) {
            out.push(contig);
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fc_seq::Base;

    pub(crate) fn genome(len: usize, seed: u64) -> DnaString {
        let mut rng = fc_rng::Rng::new(seed);
        (0..len).map(|_| Base::from_code(rng.range(0..4))).collect()
    }

    /// Error-free tiling reads over a genome, as FASTA-style reads.
    pub(crate) fn tiled_reads(genome: &DnaString, read_len: usize, stride: usize) -> Vec<Read> {
        let mut reads = Vec::new();
        let mut start = 0;
        while start + read_len <= genome.len() {
            reads.push(Read::new(
                format!("r{start}"),
                genome.slice(start, start + read_len),
            ));
            start += stride;
        }
        reads
    }

    /// Writes `reads` as FASTQ, quality 30 throughout, to
    /// `fc-focus-{tag}-{pid}.fastq` in the system temp dir: what the tests
    /// of the file entry point stream.
    pub(crate) fn fastq_file(tag: &str, reads: &[Read]) -> std::path::PathBuf {
        let name = format!("fc-focus-{tag}-{}.fastq", std::process::id());
        let path = std::env::temp_dir().join(name);
        let mut text = Vec::new();
        fc_seq::fastq::write(&mut text, reads, 30).unwrap();
        std::fs::write(&path, text).unwrap();
        path
    }

    pub(crate) fn quick_config(k: usize) -> FocusConfig {
        let mut c = FocusConfig {
            partitions: k,
            ..Default::default()
        };
        c.trim.min_read_len = 30;
        c.overlap.min_overlap_len = 40;
        c
    }

    #[test]
    fn assembles_single_genome_into_covering_contigs() {
        let g = genome(3000, 7);
        let reads = tiled_reads(&g, 100, 40);
        let assembler = FocusAssembler::new(quick_config(4)).unwrap();
        let result = assembler.assemble(&reads).unwrap();
        assert!(!result.contigs.is_empty());
        // The longest contig should recover a large fraction of the genome
        // (both strands assemble, so expect ~genome length).
        assert!(
            result.stats.max_contig as f64 >= 0.9 * g.len() as f64,
            "max contig {} too short for genome {}",
            result.stats.max_contig,
            g.len()
        );
        // The assembly is strand-duplicated: total ≈ 2× genome.
        assert!(result.stats.total_bases >= g.len());
    }

    #[test]
    fn dedup_rc_halves_strand_duplicates() {
        let g = genome(2000, 21);
        let reads = tiled_reads(&g, 100, 40);
        let mut config = quick_config(4);
        let plain = FocusAssembler::new(config)
            .unwrap()
            .assemble(&reads)
            .unwrap();
        config.dedup_rc = true;
        let deduped = FocusAssembler::new(config)
            .unwrap()
            .assemble(&reads)
            .unwrap();
        assert!(deduped.stats.num_contigs <= plain.stats.num_contigs);
    }

    #[test]
    fn partition_count_preserves_contig_stats() {
        // Table III's property: assembly quality is partition-invariant.
        let g = genome(2500, 3);
        let reads = tiled_reads(&g, 100, 50);
        let assembler = FocusAssembler::new(quick_config(2)).unwrap();
        let prepared = assembler.prepare(&reads).unwrap();
        let r2 = assembler.assemble_prepared(&prepared, 2).unwrap();
        let r8 = assembler.assemble_prepared(&prepared, 8).unwrap();
        assert_eq!(r2.stats.max_contig, r8.stats.max_contig);
        assert_eq!(r2.stats.total_bases, r8.stats.total_bases);
        // Contig sets must be identical after joining.
        let mut a: Vec<String> = r2.contigs.iter().map(|c| c.to_string()).collect();
        let mut b: Vec<String> = r8.contigs.iter().map(|c| c.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Both calls ran on the one prepared contig list — a reference each
        // (fc-dist's `from_contigs` test pins shared, not copied), given
        // back when the call's distributed stage was dropped.
        assert_eq!(prepared.contigs.len(), prepared.hybrid.node_count());
        assert_eq!(Arc::strong_count(&prepared.contigs), 1);
    }

    #[test]
    fn disabled_recorder_leaves_no_metrics_or_events() {
        let g = genome(1500, 19);
        let reads = tiled_reads(&g, 100, 50);
        let assembler = FocusAssembler::new(quick_config(2)).unwrap();
        assembler.assemble(&reads).unwrap();
        assert!(!assembler.recorder().is_enabled());
        assert!(assembler.recorder().snapshot().is_empty());
        assert!(assembler.recorder().events().is_empty());
    }

    #[test]
    fn empty_input_is_an_error() {
        let assembler = FocusAssembler::new(quick_config(2)).unwrap();
        assert!(matches!(
            assembler.assemble(&[]),
            Err(FocusError::EmptyInput)
        ));
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let c = FocusConfig {
            partitions: 3,
            ..Default::default()
        };
        assert!(FocusAssembler::new(c).is_err());
    }

    #[test]
    fn dedup_reverse_complements_unit() {
        let a: DnaString = "ACGTT".parse().unwrap();
        let rc = a.reverse_complement();
        let out = dedup_reverse_complements(vec![a.clone(), rc]);
        assert_eq!(out.len(), 1);
        // Palindrome kept once.
        let p: DnaString = "ACGT".parse().unwrap();
        let out = dedup_reverse_complements(vec![p.clone(), p.clone()]);
        assert_eq!(out.len(), 1);
        // Distinct contigs all kept.
        let b: DnaString = "AAAAC".parse().unwrap();
        let out = dedup_reverse_complements(vec![a, b]);
        assert_eq!(out.len(), 2);
    }

    /// The first-seen member of a pair is kept as it arrived, even when it
    /// is the lexicographically greater strand.
    #[test]
    fn dedup_keeps_the_first_seen_strand() {
        let a: DnaString = "AACGT".parse().unwrap();
        let rc = a.reverse_complement();
        assert!(a.to_ascii() < rc.to_ascii());
        let out = dedup_reverse_complements(vec![rc.clone(), a.clone()]);
        assert_eq!(out, vec![rc]);
        let out = dedup_reverse_complements(vec![a.clone(), a.reverse_complement()]);
        assert_eq!(out, vec![a]);
    }
}
