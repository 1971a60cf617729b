//! The distributed pipeline over a partitioned hybrid graph (paper §V).
//!
//! Runs, in order: transitive reduction, containment/false-edge removal,
//! dead-end trimming, bubble popping (together "graph trimming", Fig. 6),
//! then maximal-path traversal with master-side joining. Each phase executes
//! every partition's worker through the fault-tolerant
//! [`recovery`](crate::recovery) engine: worker scans are charged to the
//! simulated cluster under the run's [`FaultPlan`], results are gathered
//! with retry/backoff, lost scans are re-executed on survivors, and the
//! master applies the recorded mutations.

use crate::cluster::{CostModel, PhaseTiming, SimCluster};
use crate::error::DistError;
use crate::error_removal;
use crate::fault::{FaultPlan, FaultReport, PhaseId};
use crate::recovery::execute_phase;
use crate::simplify;
use crate::transitive;
use crate::traverse::{self, AssemblyPath};
use fc_exec::Pool;
use fc_graph::{DiGraph, HybridSet, NodeId};
use fc_obs::Recorder;
use fc_seq::{DnaString, ReadStore};
use std::sync::Arc;

/// Configuration of the distributed stage. The virtual-time cost model is
/// [`CostModel::default`], and a [`FaultPlan`] in effect is answered with
/// the retransmission, backoff, timeout and speculation constants of
/// [`crate::fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistributedConfig {
    /// Worker threads for the per-partition scans (`0` = available
    /// parallelism, `1` = exact serial path). Scans are pure, so results —
    /// including [`FaultPlan`] replays — are identical at any thread count.
    pub threads: usize,
}

/// Per-phase and aggregate outcome of the distributed stage.
#[derive(Debug, Clone)]
pub struct DistributedReport {
    /// Named phase timings in execution order.
    pub phases: Vec<(&'static str, PhaseTiming)>,
    /// Virtual time of the combined trimming phases (Fig. 6, "trimming").
    pub trimming_time: f64,
    /// Virtual time of traversal + joining (Fig. 6, "traversal").
    pub traversal_time: f64,
    /// Final maximal paths over live hybrid nodes.
    pub paths: Vec<AssemblyPath>,
    /// Transitive edges removed.
    pub transitive_removed: usize,
    /// Contained contig nodes removed.
    pub contained_removed: usize,
    /// False-positive edges removed.
    pub false_edges_removed: usize,
    /// Dead-end/bubble nodes removed.
    pub error_nodes_removed: usize,
    /// Messages exchanged with the master (retransmissions included).
    pub messages: u64,
    /// Message payload bytes (retransmissions included).
    pub bytes: u64,
    /// What the fault layer observed: crashes, retries, retransmitted
    /// bytes, speculative re-executions, recovery overhead, degraded flag.
    pub fault: FaultReport,
}

/// A partitioned hybrid graph ready for the distributed algorithms.
#[derive(Debug, Clone)]
pub struct DistributedHybrid {
    /// Working copy of the directed hybrid graph (mutated by simplification).
    pub graph: DiGraph,
    /// Partition of each hybrid node.
    pub parts: Vec<u32>,
    /// Number of partitions (= worker ranks).
    pub k: usize,
    /// Contig sequence per hybrid node (shared, never mutated).
    contigs: Arc<[DnaString]>,
    /// Read support (cluster size, `G'0`'s node weight) per hybrid node.
    support: Vec<u64>,
}

impl DistributedHybrid {
    /// Prepares the distributed stage from a hybrid set, its `G'0` partition
    /// assignment and the read store, building every node's contig
    /// ([`DistributedHybrid::node_contigs`]). The name is historical: there
    /// is no other contig construction, and `benchmark/` still calls it.
    pub fn with_consensus(
        hybrid: &HybridSet,
        store: &ReadStore,
        parts: Vec<u32>,
        k: usize,
    ) -> Result<DistributedHybrid, DistError> {
        let contigs = DistributedHybrid::node_contigs(hybrid, store);
        DistributedHybrid::from_contigs(hybrid, contigs, parts, k)
    }

    /// [`DistributedHybrid::node_contigs_on`] on one worker.
    pub fn node_contigs(hybrid: &HybridSet, store: &ReadStore) -> Arc<[DnaString]> {
        DistributedHybrid::node_contigs_on(hybrid, store, &Pool::serial(), &Recorder::disabled())
    }

    /// The contig sequence of every hybrid node, in node-id order: each
    /// cluster's per-column majority consensus, built by blocks of nodes on
    /// `pool` ([`HybridSet::contigs`]). They depend on the hybrid set and
    /// the store only — not on `parts` or `k` — so a partition-count sweep
    /// builds them once and shares them.
    pub fn node_contigs_on(
        hybrid: &HybridSet,
        store: &ReadStore,
        pool: &Pool,
        rec: &Recorder,
    ) -> Arc<[DnaString]> {
        hybrid.contigs(store, pool, rec).into()
    }

    /// Prepares the distributed stage from a hybrid set, its nodes' contig
    /// sequences ([`DistributedHybrid::node_contigs`]) and a `G'0` partition
    /// assignment over `k` partitions.
    pub fn from_contigs(
        hybrid: &HybridSet,
        contigs: Arc<[DnaString]>,
        parts: Vec<u32>,
        k: usize,
    ) -> Result<DistributedHybrid, DistError> {
        if parts.len() != hybrid.node_count() {
            return Err(DistError::PartitionLengthMismatch {
                got: parts.len(),
                expected: hybrid.node_count(),
            });
        }
        if contigs.len() != hybrid.node_count() {
            return Err(DistError::ContigCountMismatch {
                got: contigs.len(),
                expected: hybrid.node_count(),
            });
        }
        if k == 0 {
            return Err(DistError::NoRanks);
        }
        if let Some(&bad) = parts.iter().find(|&&p| p as usize >= k) {
            return Err(DistError::PartitionIdOutOfRange { id: bad, k });
        }
        let g0h = hybrid.set.finest();
        let nodes = 0..g0h.node_count() as NodeId;
        let support = nodes.map(|v| u64::from(g0h.node_weight(v))).collect();
        Ok(DistributedHybrid {
            graph: hybrid.directed.clone(),
            parts,
            k,
            contigs,
            support,
        })
    }

    /// Nodes of each partition, ascending.
    fn partition_nodes(&self) -> Vec<Vec<NodeId>> {
        let mut lists = vec![Vec::new(); self.k];
        for v in 0..self.graph.node_count() as NodeId {
            lists[self.parts[v as usize] as usize].push(v);
        }
        lists
    }

    /// Contig sequence of a hybrid node (post-construction view).
    pub fn contig(&self, v: NodeId) -> &DnaString {
        &self.contigs[v as usize]
    }

    /// Runs the full distributed pipeline under a fault-injection plan.
    ///
    /// Failures are handled per phase: crashed (or presumed-dead) ranks'
    /// partitions are re-scanned on survivors, message drops are
    /// retransmitted with exponential backoff, and stragglers are
    /// speculatively re-executed — see [`crate::recovery`]. Because every
    /// worker scan is pure over the current graph, the final paths of any
    /// recoverable run are **identical** to the fault-free run's; only the
    /// virtual timings and the [`FaultReport`] differ.
    pub fn run_with_faults(
        &mut self,
        config: &DistributedConfig,
        plan: FaultPlan,
    ) -> Result<DistributedReport, DistError> {
        self.run_with_faults_obs(config, plan, &Recorder::disabled())
    }

    /// [`DistributedHybrid::run_with_faults`] with the distributed stage's
    /// metrics recorded into `rec`. Phase boundaries are emitted as span
    /// events from the orchestrating thread; message, retry and fault
    /// counters are recorded once at end of run and mirror the returned
    /// report's [`FaultReport`] field for field. The pipeline itself is
    /// identical.
    pub fn run_with_faults_obs(
        &mut self,
        config: &DistributedConfig,
        plan: FaultPlan,
        rec: &Recorder,
    ) -> Result<DistributedReport, DistError> {
        let planned_faults = plan.events().len() as u64;
        let mut cluster = SimCluster::with_faults(self.k, CostModel::default(), plan)?;
        let pool = Pool::new(config.threads);
        let _run_span = rec.span_args(
            "dist",
            "dist.run",
            &[
                ("ranks", self.k as i64),
                ("nodes", self.graph.node_count() as i64),
                ("planned_faults", planned_faults as i64),
            ],
        );
        let mut timings = Vec::with_capacity(PhaseId::ALL.len());
        // Every phase's workers scan their own partition's nodes. Removal
        // never moves a node between partitions, so one listing serves the
        // whole run.
        let lists = self.partition_nodes();

        // --- Phase 1: transitive reduction (§V-A). ---
        let phase_span = rec.span("dist", "dist.phase.transitive_reduction");
        let run = execute_phase(
            &mut cluster,
            &pool,
            PhaseId::TransitiveReduction,
            self.k,
            |p, w| transitive::worker_scan(&self.graph, &lists[p], w),
            |r| 8 * r.len() as u64,
            rec,
        )?;
        drop(phase_span);
        let mut master_w = 0;
        let transitive_removed = transitive::master_remove(
            &mut self.graph,
            run.results.into_iter().flatten(),
            &mut master_w,
        );
        cluster.master_work(master_w);
        timings.push(run.timing);

        // --- Phase 2: containment + false-positive edges (§V-B). ---
        let phase_span = rec.span("dist", "dist.phase.containment_removal");
        let run = execute_phase(
            &mut cluster,
            &pool,
            PhaseId::ContainmentRemoval,
            self.k,
            |p, w| simplify::worker_scan(&self.graph, &lists[p], &self.contigs, w),
            |(dn, de)| 8 * (dn.len() + 2 * de.len()) as u64,
            rec,
        )?;
        drop(phase_span);
        let (node_recs, edge_recs): (Vec<_>, Vec<_>) = run.results.into_iter().unzip();
        let mut master_w = 0;
        let (contained_removed, false_edges_removed) = simplify::master_apply(
            &mut self.graph,
            node_recs.into_iter().flatten(),
            edge_recs.into_iter().flatten(),
            &mut master_w,
        );
        cluster.master_work(master_w);
        timings.push(run.timing);

        // --- Phase 3: dead ends + bubbles (§V-C). ---
        let phase_span = rec.span("dist", "dist.phase.error_removal");
        let run = execute_phase(
            &mut cluster,
            &pool,
            PhaseId::ErrorRemoval,
            self.k,
            |p, w| {
                let mut rec = error_removal::worker_dead_ends(&self.graph, &lists[p], w);
                rec.extend(error_removal::worker_bubbles(
                    &self.graph,
                    &lists[p],
                    &self.support,
                    w,
                ));
                rec
            },
            |r| 4 * r.len() as u64,
            rec,
        )?;
        drop(phase_span);
        let mut master_w = 0;
        let error_nodes_removed = error_removal::master_remove(
            &mut self.graph,
            run.results.into_iter().flatten(),
            &mut master_w,
        );
        cluster.master_work(master_w);
        timings.push(run.timing);
        cluster.barrier();
        let trimming_time = cluster.now();

        // --- Phase 4: traversal (§V-D). ---
        let phase_span = rec.span("dist", "dist.phase.traversal");
        let run = execute_phase(
            &mut cluster,
            &pool,
            PhaseId::Traversal,
            self.k,
            |p, w| traverse::worker_paths(&self.graph, &lists[p], w),
            |paths| paths.iter().map(|q| 4 * q.len() as u64 + 8).sum(),
            rec,
        )?;
        drop(phase_span);
        let mut master_w = 0;
        let paths = traverse::master_join(
            &self.graph,
            run.results.into_iter().flatten().collect(),
            &mut master_w,
        );
        cluster.master_work(master_w);
        timings.push(run.timing);
        cluster.barrier();
        let traversal_time = cluster.now() - trimming_time;

        let phases: Vec<(&'static str, PhaseTiming)> = timings
            .into_iter()
            .zip(PhaseId::ALL)
            .map(|(t, phase)| (phase.name(), t))
            .collect();

        // Structural post-condition (previously a debug assertion that
        // vanished in release builds): the paths must cover every live node
        // exactly once, fault or no fault.
        traverse::check_path_cover(&self.graph, &paths)?;

        let fault = cluster.fault_report().clone();
        if rec.is_enabled() {
            // End-of-run counters mirror the report exactly — tests assert
            // field-for-field parity with the returned `FaultReport`.
            rec.add("dist.messages", cluster.messages());
            rec.add("dist.bytes", cluster.bytes());
            rec.add("dist.faults_injected", planned_faults);
            rec.add("dist.fault.crashes", fault.crashes as u64);
            rec.add("dist.fault.retries", fault.retries as u64);
            rec.add("dist.fault.retransmitted_bytes", fault.retransmitted_bytes);
            rec.add(
                "dist.fault.speculative_reexecutions",
                fault.speculative_reexecutions as u64,
            );
            rec.gauge(
                "dist.fault.recovery_time_milli",
                (fault.recovery_time * 1000.0) as i64,
            );
            rec.gauge("dist.fault.degraded", i64::from(fault.degraded));
            rec.add("dist.paths", paths.len() as u64);
            rec.add("dist.transitive_removed", transitive_removed as u64);
            rec.add("dist.contained_removed", contained_removed as u64);
            rec.add("dist.false_edges_removed", false_edges_removed as u64);
            rec.add("dist.error_nodes_removed", error_nodes_removed as u64);
        }

        Ok(DistributedReport {
            phases,
            trimming_time,
            traversal_time,
            paths,
            transitive_removed,
            contained_removed,
            false_edges_removed,
            error_nodes_removed,
            messages: cluster.messages(),
            bytes: cluster.bytes(),
            fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_align::{Overlap, OverlapKind};
    use fc_graph::{CoarsenConfig, LayoutConfig, MultilevelSet, OverlapGraph};
    use fc_seq::{Read, ReadId};

    /// Builds a hybrid set from a linear tiling with a transitive shortcut.
    fn hybrid_case(n_reads: usize) -> (ReadStore, HybridSet) {
        let read_len = 100usize;
        let stride = 50usize;
        let genome: DnaString = (0..(n_reads * stride + read_len))
            .map(|i| fc_seq::Base::from_code(((i * 2654435761usize) >> 7) as u8 & 3))
            .collect();
        let reads: Vec<Read> = (0..n_reads)
            .map(|i| {
                Read::new(
                    format!("r{i}"),
                    genome.slice(i * stride, i * stride + read_len),
                )
            })
            .collect();
        let store = ReadStore::from_reads(reads);
        let mut overlaps: Vec<Overlap> = (0..n_reads - 1)
            .map(|i| Overlap {
                a: ReadId(i as u32),
                b: ReadId(i as u32 + 1),
                kind: OverlapKind::SuffixPrefix,
                shift: stride as u32,
                len: (read_len - stride) as u32,
                matches: (read_len - stride) as u32,
            })
            .collect();
        // Transitive two-hop overlaps.
        overlaps.extend((0..n_reads - 2).map(|i| Overlap {
            a: ReadId(i as u32),
            b: ReadId(i as u32 + 2),
            kind: OverlapKind::SuffixPrefix,
            shift: 2 * stride as u32,
            len: 1,
            matches: 1,
        }));
        let g = OverlapGraph::build(&store, &overlaps);
        let ml = MultilevelSet::build(
            g.undirected.clone(),
            &CoarsenConfig {
                min_nodes: 6,
                ..Default::default()
            },
        );
        let hs = HybridSet::build(&ml, &g, &store, &LayoutConfig);
        (store, hs)
    }

    fn round_robin_parts(n: usize, k: usize) -> Vec<u32> {
        (0..n).map(|i| (i % k) as u32).collect()
    }

    fn sorted_cover(report: &DistributedReport) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = report
            .paths
            .iter()
            .flat_map(|p| p.nodes.iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes
    }

    #[test]
    fn pipeline_runs_and_covers_all_live_nodes() {
        let (store, hs) = hybrid_case(40);
        let k = 4;
        let parts = round_robin_parts(hs.node_count(), k);
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
        let report = dh
            .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
            .unwrap();
        traverse::check_path_cover(&dh.graph, &report.paths).unwrap();
        assert!(report.trimming_time > 0.0);
        assert!(report.traversal_time > 0.0);
        assert!(report.messages >= 4 * k as u64);
        assert_eq!(report.phases.len(), 4);
        assert_eq!(report.fault, FaultReport::default());
    }

    #[test]
    fn rejects_bad_partition_input_with_typed_errors() {
        let (store, hs) = hybrid_case(20);
        let n = hs.node_count();
        assert!(matches!(
            DistributedHybrid::with_consensus(&hs, &store, vec![0; n + 1], 2),
            Err(DistError::PartitionLengthMismatch { .. })
        ));
        assert!(matches!(
            DistributedHybrid::with_consensus(&hs, &store, vec![5; n], 2),
            Err(DistError::PartitionIdOutOfRange { id: 5, k: 2 })
        ));
        assert!(matches!(
            DistributedHybrid::with_consensus(&hs, &store, vec![0; n], 0),
            Err(DistError::NoRanks)
        ));
        // One contig short: a typed error here, not an index panic in
        // `simplify::worker_scan`.
        let short: Arc<[DnaString]> = DistributedHybrid::node_contigs(&hs, &store)[1..].into();
        assert_eq!(
            DistributedHybrid::from_contigs(&hs, short, vec![0; n], 2).err(),
            Some(DistError::ContigCountMismatch {
                got: n - 1,
                expected: n
            })
        );
    }

    #[test]
    fn from_contigs_over_node_contigs_is_the_store_constructor() {
        let (store, hs) = hybrid_case(40);
        let k = 4;
        let parts = round_robin_parts(hs.node_count(), k);
        let shared = DistributedHybrid::node_contigs(&hs, &store);
        let mut a = DistributedHybrid::from_contigs(&hs, shared.clone(), parts.clone(), k).unwrap();
        let mut b = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
        for v in 0..hs.node_count() as NodeId {
            assert_eq!(a.contig(v), b.contig(v), "node {v}");
        }
        // Shared with the caller's list, not copied out of it.
        assert!(Arc::ptr_eq(&a.contigs, &shared));
        let ra = a
            .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
            .unwrap();
        let rb = b
            .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
            .unwrap();
        assert_eq!(ra.paths, rb.paths);
        assert_eq!(
            (ra.transitive_removed, ra.contained_removed),
            (rb.transitive_removed, rb.contained_removed)
        );
        assert_eq!(
            (ra.false_edges_removed, ra.error_nodes_removed),
            (rb.false_edges_removed, rb.error_nodes_removed)
        );
        assert_eq!((ra.messages, ra.bytes), (rb.messages, rb.bytes));
    }

    #[test]
    fn more_partitions_do_not_change_path_node_cover() {
        let (store, hs) = hybrid_case(60);
        let mut covers = Vec::new();
        for k in [1usize, 2, 4] {
            let parts = round_robin_parts(hs.node_count(), k);
            let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
            let report = dh
                .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
                .unwrap();
            covers.push(sorted_cover(&report));
        }
        assert_eq!(covers[0], covers[1]);
        assert_eq!(covers[1], covers[2]);
    }

    #[test]
    fn contiguous_partitions_give_fewer_subpath_breaks_than_scattered() {
        let (store, hs) = hybrid_case(80);
        let k = 4;
        let n = hs.node_count();
        // Scattered: round-robin. Contiguous-ish: block assignment.
        let scattered = round_robin_parts(n, k);
        let block: Vec<u32> = (0..n).map(|i| ((i * k) / n).min(k - 1) as u32).collect();
        let run = |parts: Vec<u32>| {
            let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
            dh.run_with_faults(&DistributedConfig::default(), FaultPlan::none())
                .unwrap()
                .paths
                .len()
        };
        // Both must cover the same nodes; the block partition cannot yield
        // more final paths than the scattered one after master joining
        // (joining heals boundaries, so counts are equal in the end — the
        // real difference is message volume; assert the invariant that
        // path counts match).
        assert_eq!(run(scattered), run(block));
    }

    #[test]
    fn single_crash_in_every_phase_preserves_paths_exactly() {
        let (store, hs) = hybrid_case(50);
        let k = 4;
        let parts = round_robin_parts(hs.node_count(), k);
        let clean_report = DistributedHybrid::with_consensus(&hs, &store, parts.clone(), k)
            .unwrap()
            .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
            .unwrap();
        for phase in PhaseId::ALL {
            for rank in 0..k {
                let mut dh =
                    DistributedHybrid::with_consensus(&hs, &store, parts.clone(), k).unwrap();
                let report = dh
                    .run_with_faults(
                        &DistributedConfig::default(),
                        FaultPlan::single_crash(phase, rank),
                    )
                    .unwrap();
                traverse::check_path_cover(&dh.graph, &report.paths).unwrap();
                // Not just the cover: the paths themselves are identical.
                assert_eq!(
                    report.paths,
                    clean_report.paths,
                    "crash of rank {rank} in {} changed the result",
                    phase.name()
                );
                assert_eq!(report.fault.crashes, 1);
                assert!(report.fault.degraded);
                assert!(report.fault.recovery_time > 0.0);
            }
        }
    }

    #[test]
    fn message_drops_are_retried_and_counted() {
        let (store, hs) = hybrid_case(40);
        let k = 2;
        let parts = round_robin_parts(hs.node_count(), k);
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts.clone(), k).unwrap();
        let clean = dh
            .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
            .unwrap();
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
        let report = dh
            .run_with_faults(
                &DistributedConfig::default(),
                FaultPlan::message_drops(PhaseId::TransitiveReduction, 1, 2),
            )
            .unwrap();
        assert_eq!(report.fault.retries, 2);
        assert!(report.fault.retransmitted_bytes > 0 || report.bytes == clean.bytes);
        assert_eq!(report.fault.crashes, 0);
        assert!(!report.fault.degraded);
        assert_eq!(report.paths, clean.paths);
        assert_eq!(report.messages, clean.messages + 2);
    }

    #[test]
    fn obs_fault_counters_mirror_the_fault_report_exactly() {
        let (store, hs) = hybrid_case(50);
        let k = 4;
        let parts = round_robin_parts(hs.node_count(), k);
        let mut plan = FaultPlan::single_crash(PhaseId::TransitiveReduction, 1);
        for event in FaultPlan::message_drops(PhaseId::ErrorRemoval, 2, 2).events() {
            plan.push(*event);
        }
        let planned = plan.events().len() as u64;
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
        let rec = Recorder::new(fc_obs::ObsOptions::logical());
        let report = dh
            .run_with_faults_obs(&DistributedConfig::default(), plan, &rec)
            .unwrap();
        let snapshot = rec.snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0);
        assert_eq!(counter("dist.fault.crashes"), report.fault.crashes as u64);
        assert_eq!(counter("dist.fault.retries"), report.fault.retries as u64);
        assert_eq!(
            counter("dist.fault.retransmitted_bytes"),
            report.fault.retransmitted_bytes
        );
        assert_eq!(
            counter("dist.fault.speculative_reexecutions"),
            report.fault.speculative_reexecutions as u64
        );
        assert_eq!(
            gauge("dist.fault.recovery_time_milli"),
            (report.fault.recovery_time * 1000.0) as i64
        );
        assert_eq!(
            gauge("dist.fault.degraded"),
            i64::from(report.fault.degraded)
        );
        assert_eq!(counter("dist.faults_injected"), planned);
        assert_eq!(counter("dist.messages"), report.messages);
        assert_eq!(counter("dist.bytes"), report.bytes);
        assert!(report.fault.crashes >= 1);
        assert!(report.fault.retries >= 2);
        assert!(
            counter("dist.recovery_rescans") >= 1,
            "a crash must force at least one recovery re-scan"
        );
        // Four phase spans plus the run span plus one exec.batch span per
        // phase fan-out, all balanced (B/E pairs).
        let begins = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, fc_obs::EventKind::Begin))
            .count();
        let ends = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, fc_obs::EventKind::End))
            .count();
        assert_eq!(begins, 9);
        assert_eq!(begins, ends);
    }

    #[test]
    fn obs_run_is_identical_to_plain_run() {
        let (store, hs) = hybrid_case(40);
        let k = 3;
        let parts = round_robin_parts(hs.node_count(), k);
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts.clone(), k).unwrap();
        let plain = dh
            .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
            .unwrap();
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
        let rec = Recorder::new(fc_obs::ObsOptions::logical());
        let obs = dh
            .run_with_faults_obs(&DistributedConfig::default(), FaultPlan::none(), &rec)
            .unwrap();
        assert_eq!(obs.paths, plain.paths);
        assert_eq!(obs.messages, plain.messages);
        assert_eq!(rec.snapshot().counters.get("dist.recovery_rescans"), None);
    }

    #[test]
    fn crashing_the_only_rank_is_unrecoverable() {
        let (store, hs) = hybrid_case(30);
        let parts = vec![0u32; hs.node_count()];
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, 1).unwrap();
        let err = dh
            .run_with_faults(
                &DistributedConfig::default(),
                FaultPlan::single_crash(PhaseId::ContainmentRemoval, 0),
            )
            .unwrap_err();
        assert_eq!(
            err,
            DistError::AllRanksDead {
                phase: PhaseId::ContainmentRemoval
            }
        );
    }

    #[test]
    fn faulty_run_charges_more_virtual_time_than_clean_run() {
        let (store, hs) = hybrid_case(60);
        let k = 4;
        let parts = round_robin_parts(hs.node_count(), k);
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts.clone(), k).unwrap();
        let clean = dh
            .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
            .unwrap();
        let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
        let faulty = dh
            .run_with_faults(
                &DistributedConfig::default(),
                FaultPlan::single_crash(PhaseId::ErrorRemoval, 2),
            )
            .unwrap();
        let total = |r: &DistributedReport| r.trimming_time + r.traversal_time;
        // Recovery can hide behind the master's serial time in the makespan,
        // but it can never make the run faster, and its own cost is always
        // visible in the report.
        assert!(
            total(&faulty) >= total(&clean),
            "recovery must not speed the run up: {} vs {}",
            total(&faulty),
            total(&clean)
        );
        assert!(faulty.fault.recovery_time > 0.0);
        assert!(faulty.fault.degraded);
    }

    mod props {
        use super::*;

        /// Any simultaneous crash set that leaves at least one survivor
        /// yields paths identical to the fault-free run; wiping out every
        /// rank is the typed `AllRanksDead` error. `mask` enumerates
        /// non-empty subsets of the 4 ranks, bit r = crash rank r.
        #[test]
        fn any_crash_set_with_a_survivor_preserves_paths() {
            fc_rng::cases(12, |rng| {
                let (mask, phase_idx) = (rng.range(1u8..16), rng.range(0usize..4));
                let (store, hs) = hybrid_case(30);
                let k = 4;
                let parts = round_robin_parts(hs.node_count(), k);
                let clean = DistributedHybrid::with_consensus(&hs, &store, parts.clone(), k)
                    .unwrap()
                    .run_with_faults(&DistributedConfig::default(), FaultPlan::none())
                    .unwrap();
                let ranks: Vec<usize> = (0..k).filter(|r| mask & (1 << r) != 0).collect();
                let phase = PhaseId::ALL[phase_idx];
                let plan = FaultPlan::crashes(phase, &ranks);
                let mut dh = DistributedHybrid::with_consensus(&hs, &store, parts, k).unwrap();
                let outcome = dh.run_with_faults(&DistributedConfig::default(), plan);
                if ranks.len() == k {
                    assert_eq!(outcome.unwrap_err(), DistError::AllRanksDead { phase });
                } else {
                    let report = outcome.unwrap();
                    assert_eq!(
                        &report.paths,
                        &clean.paths,
                        "crash set {:?} in {} changed the paths",
                        &ranks,
                        phase.name()
                    );
                    assert_eq!(report.fault.crashes as usize, ranks.len());
                    assert!(report.fault.degraded);
                    assert!(report.fault.recovery_time > 0.0);
                }
            });
        }
    }
}
