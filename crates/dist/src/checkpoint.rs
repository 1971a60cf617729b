//! Phase-level checkpoint hooks for the distributed pipeline.
//!
//! The driver offers to persist a [`DistPhaseState`] after every completed
//! §V phase through the [`DistCheckpoint`] trait. The trait is deliberately
//! storage-agnostic: the pipeline only decides *what* a durable phase
//! boundary contains, the caller (the `focus-core` pipeline, backed by a
//! `fc_ckpt::CheckpointStore`) decides where and how it is written. A
//! [`NoCheckpoint`] implementation keeps checkpoint-free runs free of
//! storage, not of cost: the driver refreshes the snapshot — a clone of the
//! working graph and an export of the cluster state — at all four phase
//! boundaries before it asks the hook anything, whatever the hook then does
//! with it.
//!
//! The state snapshot contains everything the driver mutates: the working
//! graph, the cluster's progress ([`ClusterState`]), per-phase timings and
//! removal counters, and — once traversal ran — the final paths. The fault
//! plan, cost model and retry policy are *not* stored; they are pure
//! functions of the run configuration and are rebuilt on resume, so skipped
//! phases never re-consume fault events.

use crate::cluster::{ClusterState, PhaseTiming};
use crate::fault::PhaseId;
use crate::traverse::AssemblyPath;
use fc_graph::DiGraph;

/// Everything the distributed driver has computed up to (and including) one
/// completed phase. Saving this after phase `i` and restoring it before
/// phase `i + 1` continues the run bit-identically.
#[derive(Debug, Clone, Default)]
pub struct DistPhaseState {
    /// The working graph after the phase's master-side mutations.
    pub graph: DiGraph,
    /// The simulated cluster's progress (clocks, liveness, counters).
    pub cluster: ClusterState,
    /// Timings of the completed phases, in [`PhaseId::ALL`] order.
    pub timings: Vec<PhaseTiming>,
    /// Transitive edges removed so far.
    pub transitive_removed: usize,
    /// Contained contig nodes removed so far.
    pub contained_removed: usize,
    /// False-positive edges removed so far.
    pub false_edges_removed: usize,
    /// Dead-end/bubble nodes removed so far.
    pub error_nodes_removed: usize,
    /// Virtual time at the end of the trimming phases (set once
    /// [`PhaseId::ErrorRemoval`] completed).
    pub trimming_time: f64,
    /// Virtual time of traversal + joining (set once [`PhaseId::Traversal`]
    /// completed).
    pub traversal_time: f64,
    /// Final maximal paths (set once [`PhaseId::Traversal`] completed).
    pub paths: Option<Vec<AssemblyPath>>,
}

impl fc_ckpt::Codec for DistPhaseState {
    fn encode(&self, w: &mut fc_ckpt::Writer) {
        self.graph.encode(w);
        self.cluster.encode(w);
        self.timings.encode(w);
        self.transitive_removed.encode(w);
        self.contained_removed.encode(w);
        self.false_edges_removed.encode(w);
        self.error_nodes_removed.encode(w);
        w.put_f64(self.trimming_time);
        w.put_f64(self.traversal_time);
        self.paths.encode(w);
    }

    fn decode(r: &mut fc_ckpt::Reader<'_>) -> Result<DistPhaseState, fc_ckpt::CkptError> {
        let graph = DiGraph::decode(r)?;
        let cluster = ClusterState::decode(r)?;
        let timings = Vec::<PhaseTiming>::decode(r)?;
        if timings.len() > PhaseId::ALL.len() {
            return Err(fc_ckpt::CkptError::Decode {
                detail: format!(
                    "{} phase timings recorded for a {}-phase pipeline",
                    timings.len(),
                    PhaseId::ALL.len()
                ),
            });
        }
        Ok(DistPhaseState {
            graph,
            cluster,
            timings,
            transitive_removed: usize::decode(r)?,
            contained_removed: usize::decode(r)?,
            false_edges_removed: usize::decode(r)?,
            error_nodes_removed: usize::decode(r)?,
            trimming_time: r.f64()?,
            traversal_time: r.f64()?,
            paths: Option::<Vec<AssemblyPath>>::decode(r)?,
        })
    }
}

/// Storage hook the distributed driver calls at phase boundaries.
pub trait DistCheckpoint {
    /// The newest durable phase state, if any: the last completed phase and
    /// the state saved after it. Called once, before the first phase runs.
    fn load(&mut self) -> Option<(PhaseId, DistPhaseState)>;

    /// Persists `state` after `phase` completed. Returning `false` requests
    /// an orderly stop right after the save — the chaos harness uses this to
    /// simulate a crash at an exact phase boundary. Storage failures must be
    /// handled internally (degrade and keep returning `true`); the pipeline
    /// never fails because a checkpoint could not be written.
    fn save(&mut self, phase: PhaseId, state: &DistPhaseState) -> bool;
}

/// The checkpoint-free mode: nothing to resume, every save succeeds without
/// touching storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCheckpoint;

impl DistCheckpoint for NoCheckpoint {
    fn load(&mut self) -> Option<(PhaseId, DistPhaseState)> {
        None
    }

    fn save(&mut self, _phase: PhaseId, _state: &DistPhaseState) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultReport;
    use fc_ckpt::{decode_from_slice, encode_to_vec};

    #[test]
    fn phase_state_round_trips() {
        let edge = fc_graph::DiEdge {
            to: 1,
            len: 40,
            shift: 12,
        };
        let g = DiGraph::from_edges(3, &[(0, edge)]);
        let state = DistPhaseState {
            graph: g,
            cluster: ClusterState {
                clocks: vec![10.0, 20.0],
                alive: vec![true, false],
                messages: 7,
                bytes: 900,
                fault: FaultReport {
                    crashes: 1,
                    degraded: true,
                    ..Default::default()
                },
            },
            timings: vec![PhaseTiming {
                makespan: 5.0,
                total_work_time: 9.0,
                tasks: 2,
            }],
            transitive_removed: 3,
            contained_removed: 1,
            false_edges_removed: 2,
            error_nodes_removed: 4,
            trimming_time: 123.0,
            traversal_time: 0.0,
            paths: Some(vec![AssemblyPath { nodes: vec![0, 1] }]),
        };
        let bytes = encode_to_vec(&state);
        let back: DistPhaseState = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.cluster, state.cluster);
        assert_eq!(back.timings, state.timings);
        assert_eq!(back.transitive_removed, 3);
        assert_eq!(back.paths, state.paths);
        assert_eq!(back.graph.node_count(), 3);
        assert_eq!(back.graph.out_degree(0), 1);
    }

    /// Hostile bytes end in a typed error: whatever is done to an encoded
    /// graph set or phase state — truncation, flipped, inserted and dropped
    /// bytes, a length field overwritten with a huge count — decoding
    /// returns `Ok` or `CkptError::Decode`, and a graph it does return can be
    /// walked and pruned without an out-of-range index.
    #[test]
    fn mutated_graph_records_never_panic() {
        use fc_graph::{CoarsenConfig, DiEdge, GraphSet, LevelGraph, MultilevelSet, NodeId};
        let ring: Vec<_> = (0..40u32).map(|i| (i, (i + 1) % 40, 1 + i % 7)).collect();
        let coarsen = CoarsenConfig {
            min_nodes: 4,
            ..Default::default()
        };
        let set = MultilevelSet::build(LevelGraph::from_edges(vec![1; 40], &ring), &coarsen).set;
        assert!(set.level_count() > 2);
        let chain = (0..11u32).flat_map(|i| {
            let edge = |to| DiEdge {
                to,
                len: 50 + i,
                shift: 40,
            };
            [(i, edge(i + 1)), (i, edge((i + 5) % 12))]
        });
        let mut graph = DiGraph::from_edges(12, &chain.collect::<Vec<_>>());
        graph.remove_node(7);
        graph.remove_edge(0, 1);
        let state = DistPhaseState {
            graph,
            paths: Some(vec![AssemblyPath { nodes: vec![0, 5] }]),
            ..Default::default()
        };
        let (set_bytes, state_bytes) = (encode_to_vec(&set), encode_to_vec(&state));
        let back = decode_from_slice::<GraphSet>(&set_bytes).unwrap();
        assert_eq!(back.levels, set.levels);
        assert_eq!(back.fine_to_coarse, set.fine_to_coarse);
        decode_from_slice::<DistPhaseState>(&state_bytes).unwrap();

        fc_rng::cases(512, |rng| {
            let mutate = |bytes: &[u8], rng: &mut fc_rng::Rng| {
                let mut bytes = bytes.to_vec();
                for _ in 0..rng.range(1..4) {
                    let pos = rng.range(0..bytes.len());
                    match rng.range(0u8..5) {
                        0 => bytes.truncate(pos),
                        1 => bytes[pos] ^= 1 << rng.range(0u8..8),
                        2 => bytes.insert(pos, rng.range(0u8..=255)),
                        3 => drop(bytes.remove(pos)),
                        _ => {
                            // A count no payload this size can hold.
                            let huge = rng.next_u64() | 1 << rng.range(24u32..64);
                            let end = (pos + 8).min(bytes.len());
                            bytes[pos..end].copy_from_slice(&huge.to_le_bytes()[..end - pos]);
                        }
                    }
                    if bytes.is_empty() {
                        break;
                    }
                }
                bytes
            };
            if let Ok(set) = decode_from_slice::<GraphSet>(&mutate(&set_bytes, rng)) {
                set.check_invariants().unwrap();
            }
            if let Ok(mut state) = decode_from_slice::<DistPhaseState>(&mutate(&state_bytes, rng)) {
                let g = &mut state.graph;
                let _ = g.check_invariants();
                for v in 0..g.node_count() as NodeId {
                    let _ = (g.out_edges(v).len(), g.in_neighbors(v).len());
                    g.remove_node(v);
                }
                assert_eq!(g.edge_count(), 0);
            }
        });
    }

    #[test]
    fn too_many_timings_rejected() {
        let mut state = DistPhaseState::default();
        state.timings = vec![
            PhaseTiming {
                makespan: 0.0,
                total_work_time: 0.0,
                tasks: 0
            };
            5
        ];
        let bytes = encode_to_vec(&state);
        assert!(decode_from_slice::<DistPhaseState>(&bytes).is_err());
    }

    #[test]
    fn no_checkpoint_is_inert() {
        let mut n = NoCheckpoint;
        assert!(n.load().is_none());
        assert!(n.save(PhaseId::Traversal, &DistPhaseState::default()));
    }
}
