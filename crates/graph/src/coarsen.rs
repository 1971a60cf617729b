//! Graph coarsening: heavy-edge matching and node merging (paper §II-C,
//! following Karypis & Kumar).
//!
//! [`coarsen_on`] is the one coarsening loop. It hands each level to its
//! caller once the next level has been contracted from it:
//! [`MultilevelSet::build_on`] keeps every level, and the pipeline keeps
//! none — only the fine→coarse maps and the node counts, all that hybrid
//! selection reads of the multilevel set — so no level outlives the
//! contraction that reads it.

use crate::level::{GraphSet, LevelGraph, NodeId};
use fc_exec::Pool;
use fc_obs::Recorder;
use fc_rng::Rng;

/// Histogram bounds for ratios expressed in permille (0–1000).
const PERMILLE_BOUNDS: &[u64] = &[100, 200, 300, 400, 500, 600, 700, 800, 900, 950, 1000];

/// Coarsening stops once a round keeps more than this share of the nodes.
const STAGNATION_RATIO: f64 = 0.95;

/// Seed of the random node visit order of the matching; round `r` uses
/// `MATCHING_SEED + r`.
const MATCHING_SEED: u64 = 0xF0C5;

/// Parameters controlling how far the multilevel set is coarsened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarsenConfig {
    /// Stop once the coarsest graph has at most this many nodes.
    pub min_nodes: usize,
    /// Hard cap on produced levels (the paper's data sets coarsened to ten
    /// levels).
    pub max_levels: usize,
}

impl Default for CoarsenConfig {
    fn default() -> CoarsenConfig {
        CoarsenConfig {
            min_nodes: 64,
            max_levels: 10,
        }
    }
}

/// The multilevel graph set `{G0 … Gn}` plus construction statistics.
#[derive(Debug, Clone)]
pub struct MultilevelSet {
    /// The level hierarchy (finest first).
    pub set: GraphSet,
}

impl MultilevelSet {
    /// Iteratively coarsens `g0` with heavy-edge matching until one of the
    /// stopping rules of `config` triggers.
    pub fn build(g0: LevelGraph, config: &CoarsenConfig) -> MultilevelSet {
        MultilevelSet::build_obs(g0, config, &Recorder::disabled())
    }

    /// [`MultilevelSet::build_on`] on one worker.
    pub fn build_obs(g0: LevelGraph, config: &CoarsenConfig, rec: &Recorder) -> MultilevelSet {
        MultilevelSet::build_on(g0, config, &Pool::serial(), rec)
    }

    /// [`MultilevelSet::build`] with each level's contraction by blocks of
    /// coarse rows on `pool` and coarsening metrics recorded into `rec`: per-level
    /// node/edge counts, the matching rate of every round (matched nodes
    /// per thousand), and the level count. The matching stays serial: its
    /// seeded visit order is its output. Coarsening is seed-deterministic,
    /// so the set and all of these are thread-count-invariant.
    pub fn build_on(
        g0: LevelGraph,
        config: &CoarsenConfig,
        pool: &Pool,
        rec: &Recorder,
    ) -> MultilevelSet {
        let mut levels = Vec::new();
        let fine_to_coarse = coarsen_on(g0, config, pool, rec, |level| levels.push(level));
        MultilevelSet {
            set: GraphSet {
                levels,
                fine_to_coarse,
            },
        }
    }

    /// Number of levels (n + 1 for `{G0 … Gn}`).
    pub fn level_count(&self) -> usize {
        self.set.level_count()
    }
}

/// The one coarsening loop behind [`MultilevelSet::build_on`]: coarsens
/// `g0` with heavy-edge matching until a stopping rule of `config`
/// triggers, handing each level to `done` once the next level has been
/// contracted from it (the coarsest when the loop stops), finest first,
/// and returns the fine→coarse maps. A caller that keeps no level holds
/// at most two graphs at once; one that keeps every level has the
/// multilevel set.
pub fn coarsen_on(
    g0: LevelGraph,
    config: &CoarsenConfig,
    pool: &Pool,
    rec: &Recorder,
    mut done: impl FnMut(LevelGraph),
) -> Vec<Vec<NodeId>> {
    let _span = rec.span_args(
        "graph",
        "coarsen.build",
        &[("nodes", g0.node_count() as i64)],
    );
    let mut current = g0;
    let mut maps = Vec::new();
    for round in 0..config.max_levels {
        if current.node_count() <= config.min_nodes {
            break;
        }
        let matching = heavy_edge_matching(&current, MATCHING_SEED.wrapping_add(round as u64));
        if rec.is_enabled() {
            let matched = matching
                .iter()
                .enumerate()
                .filter(|&(v, &m)| m != v as NodeId)
                .count();
            // Integer permille instead of a float ratio: the snapshot
            // format is integer-only to stay byte-deterministic.
            rec.observe_with(
                "coarsen.matching_rate_permille",
                (matched as u64 * 1000) / current.node_count().max(1) as u64,
                PERMILLE_BOUNDS,
            );
        }
        let (coarse, map) = contract_on(&current, &matching, pool, rec);
        if (coarse.node_count() as f64) > STAGNATION_RATIO * current.node_count() as f64 {
            break;
        }
        rec.instant(
            "graph",
            "coarsen.level",
            &[
                ("round", round as i64),
                ("nodes", coarse.node_count() as i64),
                ("edges", coarse.edge_count() as i64),
            ],
        );
        rec.observe("coarsen.level_nodes", coarse.node_count() as u64);
        rec.observe("coarsen.level_edges", coarse.edge_count() as u64);
        done(std::mem::replace(&mut current, coarse));
        maps.push(map);
    }
    rec.add("coarsen.levels", maps.len() as u64 + 1);
    done(current);
    maps
}

/// Computes a heavy-edge matching: nodes are visited in random order; an
/// unmatched node matches its unmatched neighbor of maximum edge weight
/// (ties to the smaller id for determinism).
///
/// Returns `mate[v]`: the matched partner, or `v` itself when unmatched.
pub fn heavy_edge_matching(g: &LevelGraph, seed: u64) -> Vec<NodeId> {
    let n = g.node_count();
    let mut mate: Vec<NodeId> = (0..n as NodeId).collect();
    let mut matched = vec![false; n];
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    Rng::new(seed).shuffle(&mut order);

    for &v in &order {
        if matched[v as usize] {
            continue;
        }
        let mut best: Option<(u32, NodeId)> = None;
        for &(u, w) in g.neighbors(v) {
            if matched[u as usize] {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bu)) => w > bw || (w == bw && u < bu),
            };
            if better {
                best = Some((w, u));
            }
        }
        if let Some((_, u)) = best {
            matched[v as usize] = true;
            matched[u as usize] = true;
            mate[v as usize] = u;
            mate[u as usize] = v;
        }
    }
    mate
}

/// Contracts a graph along a matching. Matched pairs merge into one coarse
/// node (weights summed); unmatched nodes carry over. Parallel coarse edges
/// accumulate weight; intra-pair edges fold away (self-loops are dropped, as
/// in the paper's model where edge weight inside a cluster is no longer cut).
///
/// Returns the coarse graph and the fine→coarse node map.
pub fn contract(g: &LevelGraph, mate: &[NodeId]) -> (LevelGraph, Vec<NodeId>) {
    contract_on(g, mate, &Pool::serial(), &Recorder::disabled())
}

/// [`contract`] with the coarse rows built by blocks on `pool`: the same
/// result at any thread count.
pub(crate) fn contract_on(
    g: &LevelGraph,
    mate: &[NodeId],
    pool: &Pool,
    rec: &Recorder,
) -> (LevelGraph, Vec<NodeId>) {
    let n = g.node_count();
    let mut map = vec![NodeId::MAX; n];
    let mut weights = Vec::new();
    for v in 0..n as NodeId {
        if map[v as usize] != NodeId::MAX {
            continue;
        }
        let m = mate[v as usize];
        let coarse = weights.len() as NodeId;
        map[v as usize] = coarse;
        let mut w = g.node_weight(v);
        if m != v {
            map[m as usize] = coarse;
            w += g.node_weight(m);
        }
        weights.push(w);
    }

    (g.contracted(&map, weights, pool, rec), map)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path graph with increasing edge weights.
    fn path(n: usize) -> LevelGraph {
        let edges: Vec<_> = (0..n - 1)
            .map(|i| (i as NodeId, (i + 1) as NodeId, (i + 1) as u32))
            .collect();
        LevelGraph::from_edges(vec![1; n], &edges)
    }

    #[test]
    fn matching_is_valid() {
        let g = path(10);
        let mate = heavy_edge_matching(&g, 1);
        for v in 0..10u32 {
            let m = mate[v as usize];
            assert_eq!(mate[m as usize], v, "matching not symmetric at {v}");
            if m != v {
                assert!(
                    g.edge_weight(v, m).is_some(),
                    "matched non-neighbors {v},{m}"
                );
            }
        }
    }

    #[test]
    fn matching_prefers_heavy_edges() {
        // Star: center 0, edges to 1 (w=1), 2 (w=100), 3 (w=5).
        let g = LevelGraph::from_edges(vec![1; 4], &[(0, 1, 1), (0, 2, 100), (0, 3, 5)]);
        // Whatever the visit order, if 0 initiates it must pick 2.
        // Force determinism by checking all seeds give a valid matching and
        // that when 0 is matched first its mate is 2.
        let mate = heavy_edge_matching(&g, 0);
        if mate[0] != 0 {
            // 0 got matched to someone; if 2 was still free when 0 chose,
            // it must be 2 unless 2 initiated first and chose 0 (also ok).
            assert!(mate[0] == 2 || mate[2] == 0);
        }
    }

    #[test]
    fn contract_conserves_node_weight_and_shrinks() {
        let g = path(11);
        let mate = heavy_edge_matching(&g, 3);
        let (coarse, map) = contract(&g, &mate);
        assert_eq!(coarse.total_node_weight(), g.total_node_weight());
        assert!(coarse.node_count() < g.node_count());
        assert!(coarse.node_count() >= g.node_count() / 2);
        assert_eq!(map.len(), g.node_count());
        coarse.check_invariants().unwrap();
        // Edge weight can only shrink (folded into merged nodes).
        assert!(coarse.total_edge_weight() <= g.total_edge_weight());
    }

    #[test]
    fn contract_accumulates_parallel_edges() {
        // Square 0-1-2-3-0; match (0,1) and (2,3): coarse graph has 2 nodes
        // joined by the two cross edges 1-2 (w=2) and 3-0 (w=4) -> weight 6.
        let g = LevelGraph::from_edges(vec![1; 4], &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]);
        let mate = vec![1, 0, 3, 2];
        let (coarse, map) = contract(&g, &mate);
        assert_eq!(coarse.node_count(), 2);
        assert_eq!(map, vec![0, 0, 1, 1]);
        assert_eq!(coarse.edge_weight(0, 1), Some(6));
        assert_eq!(coarse.node_weight(0), 2);
    }

    #[test]
    fn contract_saturates_parallel_edges() {
        // Matching (0,1) and (2,3) folds the cross edges 1-2 and 3-0 into one
        // coarse edge: 2 × 3·10⁹ saturates at u32::MAX instead of wrapping.
        let heavy = 3_000_000_000;
        let g = LevelGraph::from_edges(
            vec![1; 4],
            &[(0, 1, 1), (1, 2, heavy), (2, 3, 1), (3, 0, heavy)],
        );
        let (coarse, _) = contract(&g, &[1, 0, 3, 2]);
        assert_eq!(coarse.edge_weight(0, 1), Some(u32::MAX));
        coarse.check_invariants().unwrap();
    }

    #[test]
    fn multilevel_set_invariants_hold() {
        let g = path(200);
        let set = MultilevelSet::build(
            g,
            &CoarsenConfig {
                min_nodes: 10,
                ..Default::default()
            },
        );
        assert!(set.level_count() > 2, "expected several levels");
        set.set.check_invariants().unwrap();
        // Strictly decreasing node counts.
        for w in set.set.levels.windows(2) {
            assert!(w[1].node_count() < w[0].node_count());
        }
    }

    #[test]
    fn coarsening_stops_at_min_nodes_or_stagnation() {
        let g = LevelGraph::from_edges(vec![1; 50], &[]); // no edges: nothing can merge
        let set = MultilevelSet::build(g, &CoarsenConfig::default());
        assert_eq!(set.level_count(), 1, "edgeless graph must not coarsen");

        let g = path(1000);
        let config = CoarsenConfig {
            min_nodes: range_min(),
            ..Default::default()
        };
        let set = MultilevelSet::build(g, &config);
        assert!(set.set.coarsest().node_count() <= 1000);
        assert!(set.level_count() <= config.max_levels + 1);
    }

    fn range_min() -> usize {
        8
    }

    #[test]
    fn obs_records_levels_and_matching_rate() {
        let rec = Recorder::new(fc_obs::ObsOptions::logical());
        let set = MultilevelSet::build_obs(
            path(200),
            &CoarsenConfig {
                min_nodes: 10,
                ..Default::default()
            },
            &rec,
        );
        let snapshot = rec.snapshot();
        assert_eq!(
            snapshot.counters.get("coarsen.levels"),
            Some(&(set.level_count() as u64))
        );
        // One nodes/edges observation and one matching-rate observation per
        // produced coarse level.
        let coarse_levels = set.level_count() as u64 - 1;
        assert_eq!(
            snapshot
                .histograms
                .get("coarsen.level_nodes")
                .map(|h| h.count),
            Some(coarse_levels)
        );
        assert!(snapshot
            .histograms
            .get("coarsen.matching_rate_permille")
            .map(|h| h.count >= coarse_levels)
            .unwrap_or(false));
        // build() and build_obs() agree.
        let plain = MultilevelSet::build(
            path(200),
            &CoarsenConfig {
                min_nodes: 10,
                ..Default::default()
            },
        );
        assert_eq!(set.set.levels, plain.set.levels);
    }

    /// The set and the logical snapshot are the same at 1 and 3 threads,
    /// and on one worker `build_on` is `build_obs`.
    #[test]
    fn build_on_is_thread_count_invariant() {
        let config = CoarsenConfig {
            min_nodes: 10,
            ..Default::default()
        };
        let run = |threads: usize| {
            let rec = Recorder::new(fc_obs::ObsOptions::logical());
            let set = MultilevelSet::build_on(path(500), &config, &Pool::new(threads), &rec);
            (set.set.levels, set.set.fine_to_coarse, rec.snapshot_json())
        };
        let serial = run(1);
        assert!(serial.0.len() > 2);
        assert_eq!(run(3), serial);
        let rec = Recorder::new(fc_obs::ObsOptions::logical());
        let obs = MultilevelSet::build_obs(path(500), &config, &rec);
        assert_eq!((obs.set.levels, rec.snapshot_json()), (serial.0, serial.2));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = MultilevelSet::build(path(300), &CoarsenConfig::default());
        let b = MultilevelSet::build(path(300), &CoarsenConfig::default());
        assert_eq!(a.set.levels.len(), b.set.levels.len());
        for (ga, gb) in a.set.levels.iter().zip(&b.set.levels) {
            assert_eq!(ga, gb);
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;

    fn arb_graph(rng: &mut Rng) -> LevelGraph {
        let n = rng.range(2usize..40);
        let raw_edges = rng.vec(0..120, |r| {
            (r.range(0usize..40), r.range(0usize..40), r.range(1u32..100))
        });
        let edges: Vec<_> = raw_edges
            .into_iter()
            .map(|(u, v, w)| ((u % n) as NodeId, (v % n) as NodeId, w))
            .collect();
        LevelGraph::from_edges(vec![1; n], &edges)
    }

    /// Matching validity: symmetric, partners are adjacent.
    #[test]
    fn matching_valid() {
        fc_rng::cases(256, |rng| {
            let (g, seed) = (arb_graph(rng), rng.range(0u64..1000));
            let mate = heavy_edge_matching(&g, seed);
            for v in 0..g.node_count() as NodeId {
                let m = mate[v as usize];
                assert_eq!(mate[m as usize], v);
                if m != v {
                    assert!(g.edge_weight(v, m).is_some());
                }
            }
        });
    }

    /// Contraction conserves node weight and never grows edge weight;
    /// cut weight + folded weight equals original edge weight.
    #[test]
    fn contraction_conserves() {
        fc_rng::cases(256, |rng| {
            let (g, seed) = (arb_graph(rng), rng.range(0u64..1000));
            let mate = heavy_edge_matching(&g, seed);
            let (coarse, map) = contract(&g, &mate);
            assert_eq!(coarse.total_node_weight(), g.total_node_weight());
            coarse.check_invariants().unwrap();
            // Edge weight conservation: coarse edges carry exactly the
            // weight of fine edges whose endpoints map apart.
            let crossing: u64 = g
                .edges()
                .filter(|&(u, v, _)| map[u as usize] != map[v as usize])
                .map(|(_, _, w)| u64::from(w))
                .sum();
            assert_eq!(coarse.total_edge_weight(), crossing);
        });
    }
}
