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
//! enters the pipeline, which brings its own streaming ingest and, under a
//! memory budget, an `align` that keeps one seed index at a time.

use crate::checkpoint::{CkptPolicy, Halt};
use crate::config::{FocusConfig, FocusError};
use crate::ooc::{approx_index_bytes, RunBudget};
use crate::stats::AssemblyStats;
use fc_align::{Alignment, Overlap, Overlapper, PairStats, Pool};
use fc_dist::{AssemblyPath, DistributedConfig, DistributedHybrid, DistributedReport, FaultPlan};
use fc_graph::{HybridSet, MultilevelSet, NodeId, OverlapGraph};
use fc_obs::{MemoryBudget, Recorder};
use fc_partition::{partition_graph_set_obs, PartitionConfig, PartitionResult};
use fc_seq::{fasta, DnaString, Read, ReadStore, SeqError};
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
/// multilevel set it does not. The verified overlaps themselves are gone
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
        self.prepare_stages(reads).map(|stages| stages.prepared)
    }

    /// [`prepare`](FocusAssembler::prepare), keeping every stage's product:
    /// for the paper's figures and tables that compare the hybrid set with
    /// `G0` and the multilevel set.
    pub fn prepare_stages(&self, reads: &[Read]) -> Result<Stages, FocusError> {
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
        if store.is_empty() {
            return Err(FocusError::EmptyInput);
        }
        if rec.is_enabled() {
            rec.add("pipeline.reads_in", reads.len() as u64);
            rec.add("pipeline.reads_kept", store.len() as u64);
        }
        budget.charge(rec, "read-store", store.approx_bytes() as u64)?;
        let mem = budget.budget().clone();
        self.prepare_from(
            store,
            &pool,
            &mut CkptPolicy::off(rec),
            &mut budget,
            |store| align_in_core(config, store, &pool, rec, &mem),
        )
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
    /// holds, the graph stages on `pool`. `align` computes the alignment
    /// payload when no valid checkpoint of it exists — the one thing the
    /// in-core and the budgeted run do differently.
    pub(crate) fn prepare_from(
        &self,
        store: ReadStore,
        pool: &Pool,
        policy: &mut CkptPolicy<'_>,
        budget: &mut RunBudget,
        align: impl FnOnce(&ReadStore) -> Result<Alignment, FocusError>,
    ) -> Result<Stages, Halt> {
        let (rec, config) = (&self.recorder, &self.config);
        let (overlaps, pair_stats) = policy.alignment(|| align(&store))?;
        let bytes = (overlaps.len() * std::mem::size_of::<Overlap>()) as u64;
        let overlaps_charge = budget.budget().try_reserve("overlaps", bytes)?;
        budget.gauge(rec);
        policy.stop_after_alignment()?;

        // Every stage below runs its batches on the pool; their task lists
        // are fixed by the input, so the stages are the same at any thread
        // count. The level-0 overlap graph's directed half is the overlaps'
        // last reader: they and their charge go before the undirected half
        // is derived from it.
        let (directed, containments) = OverlapGraph::directed_view(&store, &overlaps, pool, rec);
        drop((overlaps, overlaps_charge));
        budget.gauge(rec);
        let graph = OverlapGraph::from_directed(directed, containments, pool, rec);

        let ml_g0 = graph.undirected.clone();
        let multilevel = MultilevelSet::build_on(ml_g0, &config.coarsen, pool, rec);
        let hybrid = HybridSet::build_on(&multilevel, &graph, &store, pool, rec);

        // The graphs, visible but not charged: `mem.*` stays out of logical
        // snapshots, and whether they enter the `MemoryBudget` is ROADMAP
        // item 8's decision. Level 0 of the multilevel set is G0's undirected
        // view (shared, not copied), so it is counted there.
        let multilevel_bytes = multilevel.set.heap_bytes() - multilevel.set.finest().heap_bytes();
        rec.gauge("mem.graph.g0_bytes", graph.heap_bytes() as i64);
        rec.gauge("mem.graph.multilevel_bytes", multilevel_bytes as i64);
        rec.gauge("mem.graph.hybrid_bytes", hybrid.heap_bytes() as i64);

        let contigs = DistributedHybrid::node_contigs_on(&hybrid, &store, pool, rec);
        rec.sample_peak_rss();
        Ok(Stages {
            store,
            pair_stats,
            graph,
            multilevel,
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

/// Stage 2 in core. `overlap_all` builds every subset's index up front, so
/// all of them are charged before it starts and until it returns.
pub(crate) fn align_in_core(
    config: &FocusConfig,
    store: &ReadStore,
    pool: &Pool,
    rec: &Recorder,
    mem: &MemoryBudget,
) -> Result<Alignment, FocusError> {
    let overlapper = Overlapper::new(store, config.overlap)?;
    let subsets = store.split_subsets(config.subsets);
    overlapper.check_capacity(&subsets)?;
    let indexes = subsets
        .iter()
        .map(|s| approx_index_bytes(s, store, config.overlap.k))
        .sum();
    let _indexes = mem.try_reserve("align-index", indexes)?;
    Ok(overlapper.overlap_all(&subsets, pool, rec)?)
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
