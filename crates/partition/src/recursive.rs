//! Multilevel recursive bisection (paper §IV-C) and the full partitioning
//! pipeline.
//!
//! The coarsest graph is bisected with greedy growing + KL; the bisection is
//! projected level by level towards the finest graph, KL-refining after each
//! projection. Each produced partition is recursively bisected the same way
//! until `k = 2^i` partitions exist, then every level receives a global
//! k-way KL refinement.
//!
//! The recursion has natural task parallelism: step `i` bisects `2^i`
//! partitions independently, and the final k-way refinement treats each
//! level independently. Before a step's tasks start, every level's nodes are
//! bucketed by part once; a task borrows its buckets instead of filtering
//! whole levels. Every task's abstract work is recorded in
//! [`TaskRecord`]s so the simulated cluster (fc-dist) can schedule them onto
//! `p` processors and reproduce the paper's Fig. 4 speedup curve.
//!
//! # Copy levels: refined once, charged as if refined again
//!
//! The hybrid set repeats a level wherever every best representative sits
//! at or above it: level `l + 1` is then a copy of level `l`
//! ([`GraphSet::is_copy`]: identity map, equal graphs). Per-level work is
//! done once for a run of copies, and the results and task log are those
//! of refining every copy:
//!
//! * **Projection.** When a copy's bucket of `p` is the level above's, its
//!   local graph is the same and projection hands it the side above as it
//!   stands. If the refinement above settled (its last KL pass gained
//!   nothing) and the lopsidedness guard stays quiet, KL here would repeat
//!   that settled pass and change nothing: the copy takes the moves above
//!   and its task is charged the settled pass's work, with no extraction
//!   and no KL. Otherwise the copy is projected and refined as any level.
//!   Copies bucketed together share one `Members`, so "same bucket" is a
//!   pointer test before it is a slice comparison, and the guard's side
//!   weights, equal on every copy of a run, are summed once per run.
//! * **Buckets, repair, k-way.** Each is a pure function of the level and
//!   its assignment, so a run of copies whose assignments are equal is
//!   bucketed, repaired and k-way-refined once. Every copy still gets its
//!   own [`TaskKind::KwayLevel`] record with the run's work, and the run's
//!   `partition.kway_passes` / `partition.kway_pass_gain` records.
//!
//! Assignments, task logs and metrics are therefore those of refining every
//! copy; only `exec.tasks`, which counts pool items, drops by the k-way
//! items not run.

use crate::error::PartitionError;
use crate::grow::greedy_grow;
use crate::kl::{kl_refine, KlConfig};
use crate::kway::{kway_passes, record_passes, KwayConfig};
use crate::local::LocalGraph;
use crate::metrics::validate_partition;
use fc_exec::Pool;
use fc_graph::{GraphSet, LevelGraph, NodeId};
use fc_obs::Recorder;

/// Partitioning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Number of partitions; must be a power of two (recursive bisection,
    /// paper §IV).
    pub k: usize,
    /// Seed for greedy growing's random choices.
    pub seed: u64,
    /// KL bisection-refinement knobs.
    pub kl: KlConfig,
    /// Global k-way refinement knobs.
    pub kway: KwayConfig,
    /// Whether to run the final per-level k-way refinement.
    pub run_kway: bool,
    /// Worker threads for the task-parallel phases (`0` = available
    /// parallelism, `1` = exact serial path). Every bisection task derives
    /// its seed from `(seed, step, p)`, so the result is identical at any
    /// thread count.
    pub threads: usize,
}

impl PartitionConfig {
    /// Standard configuration for `k` partitions (serial execution).
    pub fn new(k: usize, seed: u64) -> PartitionConfig {
        PartitionConfig {
            k,
            seed,
            kl: KlConfig::default(),
            kway: KwayConfig::default(),
            run_kway: true,
            threads: 1,
        }
    }

    /// Sets the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> PartitionConfig {
        self.threads = threads;
        self
    }

    /// Validates that `k` is a positive power of two.
    pub fn validate(&self) -> Result<(), PartitionError> {
        if self.k == 0 || !self.k.is_power_of_two() {
            return Err(PartitionError::InvalidPartCount { k: self.k });
        }
        Ok(())
    }
}

/// What a recorded task did (for the simulated-cluster scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Bisection of one partition through all levels, at recursion `step`.
    Bisect {
        /// Recursion step (0-based); step `i` has `2^i` such tasks.
        step: usize,
        /// The partition id that was split.
        part: u32,
    },
    /// Global k-way refinement of one level.
    KwayLevel {
        /// The refined level.
        level: usize,
    },
}

/// One schedulable unit of partitioning work with its measured cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRecord {
    /// What the task was.
    pub kind: TaskKind,
    /// Abstract work units consumed (edge relaxations, gain evaluations …).
    pub work: u64,
}

/// The outcome of partitioning a graph set.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Number of partitions.
    pub k: usize,
    /// Partition assignment per level (same indexing as `set.levels`).
    pub parts_per_level: Vec<Vec<u32>>,
    /// Task log for scheduling simulations.
    pub tasks: Vec<TaskRecord>,
}

impl PartitionResult {
    /// Assignment on the finest level.
    pub fn finest(&self) -> &[u32] {
        &self.parts_per_level[0]
    }

    /// Total work across all tasks.
    pub fn total_work(&self) -> u64 {
        self.tasks.iter().map(|t| t.work).sum()
    }

    /// The task log as barrier-separated phases for the simulated cluster
    /// (paper §IV-C): one phase per recursive-bisection step (2^i
    /// concurrent tasks at step i), then one phase holding the per-level
    /// k-way refinement tasks (levels are independent). Each phase lists
    /// its tasks' work in log order.
    pub fn phases(&self) -> Vec<Vec<u64>> {
        let mut phases: Vec<Vec<u64>> = Vec::new();
        let mut kway: Vec<u64> = Vec::new();
        for t in &self.tasks {
            match t.kind {
                TaskKind::Bisect { step, .. } => {
                    if phases.len() <= step {
                        phases.resize_with(step + 1, Vec::new);
                    }
                    phases[step].push(t.work);
                }
                TaskKind::KwayLevel { .. } => kway.push(t.work),
            }
        }
        if !kway.is_empty() {
            phases.push(kway);
        }
        phases
    }
}

/// Partitions `set` into `config.k` parts by multilevel recursive bisection
/// with per-level KL refinement and optional global k-way refinement.
pub fn partition_graph_set(
    set: &GraphSet,
    config: &PartitionConfig,
) -> Result<PartitionResult, PartitionError> {
    partition_graph_set_obs(set, config, &Recorder::disabled())
}

/// [`partition_graph_set`] with partitioning metrics recorded into `rec`:
/// the finest-level edge-cut trajectory after every bisection step (counter
/// samples plus `partition.edge_cut_final`), balance in permille, per-task
/// bisection work, the task log's total work (`partition.work_units`, the
/// sum of every [`TaskRecord::work`]), and the k-way pass gains (via
/// [`crate::kway::kway_refine`]). The assignments and task log are
/// identical to the uninstrumented call; every metric derives from
/// seed-deterministic results, so all are thread-count-invariant.
pub fn partition_graph_set_obs(
    set: &GraphSet,
    config: &PartitionConfig,
    rec: &Recorder,
) -> Result<PartitionResult, PartitionError> {
    config.validate()?;
    let _span = rec.span_args(
        "partition",
        "partition.graph_set",
        &[
            ("k", config.k as i64),
            ("nodes", set.finest().node_count() as i64),
        ],
    );
    let mut parts: Vec<Vec<u32>> = set
        .levels
        .iter()
        .map(|g| vec![0u32; g.node_count()])
        .collect();
    let mut tasks = Vec::new();
    // `copies[l]`: level l + 1 repeats level l (module docs).
    let copies: Vec<bool> = (0..set.fine_to_coarse.len())
        .map(|l| set.is_copy(l))
        .collect();

    let pool = Pool::new(config.threads);
    let steps = config.k.trailing_zeros() as usize;
    for step in 0..steps {
        // The paper's task parallelism (§IV-C): the `2^step` bisections of a
        // step are result-independent. A task for partition `p` reads other
        // partitions' assignments only through the "is it `p` or `p_new`"
        // membership test, and sibling tasks only relabel values that are
        // neither (`q → q + 2^step` with `q ≠ p`), so membership answers are
        // identical whether siblings ran before it or not. Running every
        // task from a read-only snapshot and applying the returned move
        // lists after a step barrier is therefore bit-identical to the
        // serial in-place loop — at any thread count.
        let parts_ro: &[Vec<u32>] = &parts;
        // Every level's nodes bucketed by part, once for the whole step and
        // once for a run of copies: a task reads its own bucket instead of
        // filtering the level.
        let lead = copy_runs(&copies, parts_ro);
        let buckets: Vec<Option<Members>> = lead
            .iter()
            .enumerate()
            .map(|(l, &r)| (r == l).then(|| members_by_part(&parts_ro[l], 1 << step)))
            .collect();
        let members: Vec<&Members> = lead.iter().filter_map(|&r| buckets[r].as_ref()).collect();
        let outcomes = pool.map_obs(1usize << step, rec, |pi| {
            bisect_partition(set, &copies, parts_ro, &members, pi as u32, step, config)
        });
        for (pi, outcome) in outcomes.into_iter().enumerate() {
            let p_new = pi as u32 + (1 << step);
            for (level, moved) in outcome.moved.iter().enumerate() {
                for &v in moved {
                    parts[level][v as usize] = p_new;
                }
            }
            rec.observe("partition.bisect_work", outcome.work);
            tasks.push(TaskRecord {
                kind: TaskKind::Bisect {
                    step,
                    part: pi as u32,
                },
                work: outcome.work,
            });
        }
        if rec.is_enabled() {
            // Edge-cut / balance trajectory on the finest level after each
            // step barrier — the counter track Perfetto renders as the
            // §IV-C convergence curve.
            let cut = crate::metrics::edge_cut(set.finest(), &parts[0]);
            let balance = crate::metrics::partition_balance(set.finest(), &parts[0], 2 << step);
            rec.counter_sample("partition", "partition.edge_cut", cut as i64);
            rec.counter_sample(
                "partition",
                "partition.balance_permille",
                (balance * 1000.0) as i64,
            );
        }
    }

    // Recursive bisection cannot split a partition that holds a single
    // (possibly heavy) node, which strands the sibling id empty. Repair by
    // donating half of the node-richest partition's nodes to each empty id
    // — the granularity fix a master process applies before handing
    // partitions to workers. Repair and k-way are pure functions of the
    // level and its assignment, so a run of copies with equal assignments
    // is done once and its result copied.
    let lead = copy_runs(&copies, &parts);
    for level in 0..parts.len() {
        if lead[level] == level {
            repair_empty_partitions(&set.levels[level], &mut parts[level], config.k);
        } else {
            let (below, here) = parts.split_at_mut(level);
            here[0].clone_from(&below[level - 1]);
        }
    }

    if config.run_kway && config.k > 1 {
        // Level-parallel global refinement (§IV-D): each level's k-way pass
        // reads and writes only that level's assignment, so the levels run
        // concurrently and are reassembled in level order. A copy gets its
        // run's result, work and metric records.
        let leaders: Vec<(usize, Vec<u32>)> = std::mem::take(&mut parts)
            .into_iter()
            .enumerate()
            .filter(|&(level, _)| lead[level] == level)
            .collect();
        let refined = pool.map_items(
            leaders,
            rec,
            || (),
            |_, (level, mut assignment), ()| {
                let mut work = 0u64;
                let gains = kway_passes(
                    &set.levels[level],
                    &mut assignment,
                    config.k,
                    &config.kway,
                    &mut work,
                );
                (assignment, work, gains)
            },
        );
        let mut refined = refined.into_iter();
        let mut run = None;
        for (level, &r) in lead.iter().enumerate() {
            if r == level {
                run = refined.next();
            }
            if let Some((assignment, work, gains)) = &run {
                record_passes(rec, gains);
                parts.push(assignment.clone());
                tasks.push(TaskRecord {
                    kind: TaskKind::KwayLevel { level },
                    work: *work,
                });
            }
        }
    }

    // The finest level must be a complete k-partition. Coarser levels may
    // legitimately miss partitions whose creating bisection happened below
    // them (a coarse partition with a single node cannot be split there), so
    // they are only range-checked.
    validate_partition(&set.levels[0], &parts[0], config.k)?;
    for assignment in parts.iter().skip(1) {
        for (node, &part) in assignment.iter().enumerate() {
            if part as usize >= config.k {
                return Err(PartitionError::PartOutOfRange {
                    node,
                    part,
                    k: config.k,
                });
            }
        }
    }
    if rec.is_enabled() {
        let cut = crate::metrics::edge_cut(set.finest(), &parts[0]);
        let balance = crate::metrics::partition_balance(set.finest(), &parts[0], config.k);
        rec.add("partition.edge_cut_final", cut);
        rec.gauge(
            "partition.balance_final_permille",
            (balance * 1000.0) as i64,
        );
        rec.add("partition.tasks", tasks.len() as u64);
        rec.add(
            "partition.work_units",
            tasks.iter().map(|t| t.work).sum::<u64>(),
        );
    }
    Ok(PartitionResult {
        k: config.k,
        parts_per_level: parts,
        tasks,
    })
}

/// Runs of copy levels whose assignments are equal: `lead[l]` is the first
/// level of level `l`'s run.
fn copy_runs(copies: &[bool], parts: &[Vec<u32>]) -> Vec<usize> {
    let mut lead: Vec<usize> = Vec::with_capacity(parts.len());
    for l in 0..parts.len() {
        let same = l > 0 && copies[l - 1] && parts[l] == parts[l - 1];
        lead.push(if same { lead[l - 1] } else { l });
    }
    lead
}

/// One level's nodes bucketed by part.
struct Members {
    /// The nodes of each part `0..k`, ascending within a part.
    by_part: Vec<Vec<NodeId>>,
    /// Each node's index in its part's bucket.
    rank: Vec<u32>,
}

/// Buckets a level's nodes by part, ascending within a part, and records
/// each node's rank in its bucket.
fn members_by_part(assignment: &[u32], k: usize) -> Members {
    let mut by_part = vec![Vec::new(); k];
    let rank = assignment
        .iter()
        .enumerate()
        .map(|(v, &p)| {
            let bucket: &mut Vec<NodeId> = &mut by_part[p as usize];
            bucket.push(v as NodeId);
            bucket.len() as u32 - 1
        })
        .collect();
    Members { by_part, rank }
}

/// Fills empty partition ids (when the graph has enough nodes) by moving a
/// connected half of the node-richest partition into each empty id.
fn repair_empty_partitions(g: &LevelGraph, parts: &mut [u32], k: usize) {
    let n = g.node_count();
    if n < k {
        return;
    }
    let mut counts = vec![0usize; k];
    for &p in parts.iter() {
        counts[p as usize] += 1;
    }
    // BFS marks; all false between donations.
    let mut visited = vec![false; n];
    while let Some(empty) = counts.iter().position(|&c| c == 0) {
        // The node-richest part donates; among equals, the highest id.
        let Some(donor) = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= 2)
            .max_by_key(|&(_, &c)| c)
            .map(|(p, _)| p as u32)
        else {
            break;
        };
        let donor_nodes: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| parts[v as usize] == donor)
            .collect();
        // Gather a connected half via BFS over donor-internal edges.
        // `parts` is written only after the walk, so it is the membership
        // test.
        let take = donor_nodes.len() / 2;
        let mut taken = Vec::with_capacity(take);
        #[expect(
            clippy::disallowed_types,
            reason = "bounded by the donor part's node count: `visited` admits each node once"
        )]
        let mut queue = std::collections::VecDeque::from([donor_nodes[0]]);
        visited[donor_nodes[0] as usize] = true;
        // Donor nodes before this index are all visited.
        let mut next_unvisited = 0usize;
        while let Some(v) = queue.pop_front() {
            if taken.len() >= take {
                break;
            }
            taken.push(v);
            for &(u, _) in g.neighbors(v) {
                if parts[u as usize] == donor && !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
            // Disconnected donor: continue from the first unvisited donor
            // node.
            if queue.is_empty() && taken.len() < take {
                while next_unvisited < donor_nodes.len()
                    && visited[donor_nodes[next_unvisited] as usize]
                {
                    next_unvisited += 1;
                }
                if let Some(&next) = donor_nodes.get(next_unvisited) {
                    visited[next as usize] = true;
                    queue.push_back(next);
                }
            }
        }
        for &v in &donor_nodes {
            visited[v as usize] = false;
        }
        counts[donor as usize] -= taken.len();
        counts[empty] += taken.len();
        for v in taken {
            parts[v as usize] = empty as u32;
        }
    }
}

/// The subgraph of `g` induced by part `p` of the snapshot `assignment`:
/// a neighbor is inside exactly when the snapshot puts it in `p`, and its
/// local id is its rank in that bucket.
fn extract_part(g: &LevelGraph, assignment: &[u32], members: &Members, p: u32) -> LocalGraph {
    LocalGraph::extract_with(g, &members.by_part[p as usize], |u| {
        (assignment[u as usize] == p).then(|| members.rank[u as usize])
    })
}

/// What one bisection task produced: per-level lists of nodes to relabel
/// from `p` to `p_new`, plus the task's abstract work.
struct BisectOutcome {
    moved: Vec<Vec<NodeId>>,
    work: u64,
}

/// Splits partition `p` into `p` and `p_new = p + 2^step` across all
/// levels, seeded from `(config.seed, step, p)`: bisect the coarsest
/// level's induced subgraph, then project and KL-refine downwards. A copy
/// level whose bucket of `p` is the level above's takes the moves above
/// when refining them again would repeat a settled pass (module docs).
///
/// Reads `parts` as a pre-step snapshot and reports moves instead of writing
/// them, so sibling tasks of the same step can run concurrently. The task's
/// own level-above moves are overlaid during downward projection
/// (`above_side`), which reproduces exactly what the serial in-place
/// version would have read.
fn bisect_partition(
    set: &GraphSet,
    copies: &[bool],
    parts: &[Vec<u32>],
    members: &[&Members],
    p: u32,
    step: usize,
    config: &PartitionConfig,
) -> BisectOutcome {
    let p_new = p + (1 << step);
    let seed = config.seed.wrapping_add(((step as u64) << 32) | p as u64);
    let n_levels = set.level_count();
    let mut moved: Vec<Vec<NodeId>> = vec![Vec::new(); n_levels];
    let mut work = 0u64;
    // Find the coarsest level where this partition has at least two nodes.
    let mut top = n_levels - 1;
    while top > 0 && members[top].by_part[p as usize].len() < 2 {
        top -= 1;
    }

    // Initial bisection at `top`. `above_side` carries this task's own view
    // of the level above for the projection loop, indexed like that level's
    // bucket of `p`; `settled`, the work of its refinement's final pass when
    // that pass gained nothing.
    let mut above_side: Vec<bool>;
    let mut settled: Option<u64>;
    {
        let nodes: &[NodeId] = &members[top].by_part[p as usize];
        if nodes.len() < 2 {
            return BisectOutcome { moved, work }; // nothing to split
        }
        let local = extract_part(&set.levels[top], &parts[top], members[top], p);
        let mut side = greedy_grow(&local, seed, &mut work);
        settled = kl_refine(&local, &mut side, &config.kl, &mut work).settled;
        for (li, &v) in nodes.iter().enumerate() {
            if side[li] {
                moved[top].push(v);
            }
        }
        above_side = side;
    }

    // Project and refine downwards. `repeated`: the level above took the
    // copy shortcut, so its guard was quiet on the side this level sees.
    let mut repeated = false;
    for level in (0..top).rev() {
        let map = &set.fine_to_coarse[level];
        let graph = &set.levels[level];
        let nodes: &[NodeId] = &members[level].by_part[p as usize];
        // A copy of the level above with the same bucket of `p` has the
        // same local graph, and projection hands it the side above as it
        // stands. When that side settled and the guard below stays quiet,
        // KL would repeat the settled pass: charge it, take the moves above.
        // Copies bucketed together share one `Members`, so the bucket test
        // compares pointers first; and the guard weighs the same nodes and
        // sides on every level of a run, so it is summed once per run.
        let above_nodes: &[NodeId] = &members[level + 1].by_part[p as usize];
        if copies[level]
            && (std::ptr::eq(members[level], members[level + 1]) || nodes == above_nodes)
        {
            if let Some(pass) = settled {
                let quiet = repeated || {
                    let mut side_weight = [0u64, 0u64];
                    for (&v, &s) in nodes.iter().zip(&above_side) {
                        side_weight[usize::from(s)] += u64::from(graph.node_weight(v));
                    }
                    !lopsided(side_weight)
                };
                if quiet {
                    work += pass;
                    moved[level] = moved[level + 1].clone();
                    repeated = true;
                    continue;
                }
            }
        }
        repeated = false;
        let above_rank = &members[level + 1].rank;
        let local = extract_part(graph, &parts[level], members[level], p);
        let mut side = vec![false; nodes.len()];
        let mut side_weight = [0u64, 0u64];
        let mut drifters: Vec<usize> = Vec::new();
        for (li, &v) in nodes.iter().enumerate() {
            let anc = map[v as usize];
            // The ancestor's assignment seen through this task's overlay:
            // ancestors this task split — exactly those the snapshot puts
            // in `p`, found in `above_side` at their rank in that bucket —
            // read `p`/`p_new`, all others keep their snapshot value (which
            // can only be another partition — drifters — regardless of
            // sibling-task relabelings).
            let snapshot = parts[level + 1][anc as usize];
            let a = if snapshot == p && above_side[above_rank[anc as usize] as usize] {
                p_new
            } else {
                snapshot
            };
            if a == p || a == p_new {
                side[li] = a == p_new;
                side_weight[usize::from(a == p_new)] += u64::from(graph.node_weight(v));
            } else {
                // The ancestor drifted to another partition during an
                // earlier refinement; balance these rather than piling them
                // onto `p`.
                drifters.push(li);
            }
        }
        for li in drifters {
            let s = usize::from(side_weight[1] < side_weight[0]);
            side[li] = s == 1;
            side_weight[s] += u64::from(graph.node_weight(nodes[li]));
        }
        if lopsided(side_weight) {
            side = greedy_grow(&local, seed ^ 0x9E3779B9, &mut work);
        }
        settled = kl_refine(&local, &mut side, &config.kl, &mut work).settled;
        for (li, &v) in nodes.iter().enumerate() {
            if side[li] {
                moved[level].push(v);
            }
        }
        above_side = side;
    }
    BisectOutcome { moved, work }
}

/// The guard against a degenerate or badly lopsided projection: one side
/// holds more than three quarters of the weight.
fn lopsided(side_weight: [u64; 2]) -> bool {
    let total = side_weight[0] + side_weight[1];
    total > 0 && side_weight[0].max(side_weight[1]) * 4 > total * 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, partition_balance};
    use fc_graph::{CoarsenConfig, MultilevelSet};

    /// A long weighted path — the archetype of a "linear DNA" overlap graph.
    fn path_set(n: usize) -> GraphSet {
        let path: Vec<_> = (0..n - 1).map(|i| (i as u32, (i + 1) as u32, 50)).collect();
        MultilevelSet::build(
            LevelGraph::from_edges(vec![1; n], &path),
            &CoarsenConfig {
                min_nodes: 16,
                ..Default::default()
            },
        )
        .set
    }

    #[test]
    fn partitions_all_levels_consistently() {
        let set = path_set(512);
        let result = partition_graph_set(&set, &PartitionConfig::new(8, 42)).unwrap();
        assert_eq!(result.k, 8);
        assert_eq!(result.parts_per_level.len(), set.level_count());
        validate_partition(set.finest(), result.finest(), 8).unwrap();
        for assignment in &result.parts_per_level {
            assert!(assignment.iter().all(|&p| p < 8));
        }
    }

    #[test]
    fn path_cut_is_near_optimal() {
        let set = path_set(512);
        let result = partition_graph_set(&set, &PartitionConfig::new(8, 1)).unwrap();
        let cut = edge_cut(set.finest(), result.finest());
        // Optimal is 7 cut edges × 50 = 350; allow some slack.
        assert!(cut <= 3 * 350, "cut {cut} too far from optimal 350");
        // Measured 1.469 (a part of 94 unit-weight nodes where 64 is ideal;
        // seeds 2, 3 and 42 give up to 1.484): KL and k-way do not weigh
        // nodes. ROADMAP item 11: ≤ 1.10 or within 3 % of the floor.
        let balance = partition_balance(set.finest(), result.finest(), 8);
        assert!(balance < 1.5, "balance {balance} too loose");
    }

    #[test]
    fn task_log_matches_recursion_shape() {
        let set = path_set(256);
        let result = partition_graph_set(&set, &PartitionConfig::new(16, 5)).unwrap();
        // 1 + 2 + 4 + 8 bisection tasks.
        let bisects: Vec<_> = result
            .tasks
            .iter()
            .filter_map(|t| match t.kind {
                TaskKind::Bisect { step, .. } => Some(step),
                _ => None,
            })
            .collect();
        assert_eq!(bisects.len(), 15);
        for step in 0..4 {
            assert_eq!(bisects.iter().filter(|&&s| s == step).count(), 1 << step);
        }
        // One k-way task per level.
        let kway_count = result
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::KwayLevel { .. }))
            .count();
        assert_eq!(kway_count, set.level_count());
        assert!(result.total_work() > 0);
    }

    #[test]
    fn phases_group_by_step_then_kway() {
        let bisect = |step, work| TaskRecord {
            kind: TaskKind::Bisect { step, part: 0 },
            work,
        };
        let kway = |level, work| TaskRecord {
            kind: TaskKind::KwayLevel { level },
            work,
        };
        let result = PartitionResult {
            k: 4,
            parts_per_level: Vec::new(),
            tasks: vec![
                bisect(0, 100),
                bisect(1, 40),
                bisect(1, 60),
                kway(0, 10),
                kway(1, 20),
            ],
        };
        assert_eq!(result.phases(), vec![vec![100], vec![40, 60], vec![10, 20]]);
        let result = PartitionResult {
            tasks: vec![bisect(0, 5)],
            ..result
        };
        assert_eq!(
            result.phases(),
            vec![vec![5]],
            "no k-way phase without k-way tasks"
        );
    }

    #[test]
    fn k_equal_one_yields_single_partition() {
        let set = path_set(64);
        let result = partition_graph_set(&set, &PartitionConfig::new(1, 3)).unwrap();
        assert!(result.finest().iter().all(|&p| p == 0));
        assert!(result.tasks.is_empty());
    }

    #[test]
    fn rejects_non_power_of_two() {
        let set = path_set(64);
        assert!(partition_graph_set(&set, &PartitionConfig::new(6, 3)).is_err());
        assert!(partition_graph_set(&set, &PartitionConfig::new(0, 3)).is_err());
    }

    #[test]
    fn deterministic_in_seed() {
        let set = path_set(128);
        let a = partition_graph_set(&set, &PartitionConfig::new(4, 9)).unwrap();
        let b = partition_graph_set(&set, &PartitionConfig::new(4, 9)).unwrap();
        assert_eq!(a.parts_per_level, b.parts_per_level);
        let c = partition_graph_set(&set, &PartitionConfig::new(4, 10)).unwrap();
        // Different seed may legitimately give the same partition on such a
        // regular graph, but the result must still be valid.
        validate_partition(set.finest(), c.finest(), 4).unwrap();
    }

    #[test]
    fn works_without_kway_refinement() {
        let set = path_set(128);
        let mut config = PartitionConfig::new(4, 2);
        config.run_kway = false;
        let result = partition_graph_set(&set, &config).unwrap();
        assert!(result
            .tasks
            .iter()
            .all(|t| matches!(t.kind, TaskKind::Bisect { .. })));
        validate_partition(set.finest(), result.finest(), 4).unwrap();
    }

    #[test]
    fn single_level_set_is_supported() {
        // A graph too small/irregular to coarsen still partitions.
        let path: Vec<_> = (0..31).map(|i| (i, i + 1, 5)).collect();
        let g = LevelGraph::from_edges(vec![1; 32], &path);
        let set = GraphSet {
            levels: vec![g],
            fine_to_coarse: vec![],
        };
        let result = partition_graph_set(&set, &PartitionConfig::new(4, 7)).unwrap();
        validate_partition(set.finest(), result.finest(), 4).unwrap();
    }

    #[test]
    fn pooled_partitioning_is_bit_identical_to_serial() {
        let set = path_set(512);
        let serial = partition_graph_set(&set, &PartitionConfig::new(8, 42)).unwrap();
        for threads in [2, 4, 8] {
            let pooled =
                partition_graph_set(&set, &PartitionConfig::new(8, 42).with_threads(threads))
                    .unwrap();
            assert_eq!(
                pooled.parts_per_level, serial.parts_per_level,
                "assignments diverged at {threads} threads"
            );
            assert_eq!(
                pooled.tasks, serial.tasks,
                "task log diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn obs_partition_metrics_are_thread_invariant() {
        let set = path_set(512);
        let baseline = {
            let rec = fc_obs::Recorder::new(fc_obs::ObsOptions::logical());
            let result = partition_graph_set_obs(&set, &PartitionConfig::new(8, 42), &rec).unwrap();
            let plain = partition_graph_set(&set, &PartitionConfig::new(8, 42)).unwrap();
            assert_eq!(result.parts_per_level, plain.parts_per_level);
            rec.snapshot_json()
        };
        assert!(baseline.contains("partition.edge_cut_final"));
        assert!(baseline.contains("partition.bisect_work"));
        for threads in [2, 4, 8] {
            let rec = fc_obs::Recorder::new(fc_obs::ObsOptions::logical());
            partition_graph_set_obs(
                &set,
                &PartitionConfig::new(8, 42).with_threads(threads),
                &rec,
            )
            .unwrap();
            assert_eq!(
                rec.snapshot_json(),
                baseline,
                "metric snapshot differs at {threads} threads"
            );
        }
    }

    #[test]
    fn obs_edge_cut_counter_matches_final_cut() {
        let set = path_set(256);
        let rec = fc_obs::Recorder::new(fc_obs::ObsOptions::logical());
        let result = partition_graph_set_obs(&set, &PartitionConfig::new(8, 7), &rec).unwrap();
        let snapshot = rec.snapshot();
        assert_eq!(
            snapshot.counters.get("partition.edge_cut_final"),
            Some(&edge_cut(set.finest(), result.finest()))
        );
        // One edge-cut sample per bisection step (counter events).
        let samples = rec
            .events()
            .iter()
            .filter(|e| e.name == "partition.edge_cut")
            .count();
        assert_eq!(samples, 3, "k=8 has three bisection steps");
        assert_eq!(
            snapshot.counters.get("partition.tasks"),
            Some(&(result.tasks.len() as u64))
        );
        assert_eq!(
            snapshot.counters.get("partition.work_units"),
            Some(&result.total_work())
        );
    }

    #[test]
    fn repair_takes_from_the_last_of_equally_large_donors_in_bfs_order() {
        // Parts 0 and 1 hold four nodes each, part 2 is empty. Among equal
        // counts `max_by_key` keeps the last, so part 1 donates; the walk
        // starts at its first node (4) and follows 4's adjacency order.
        let g = LevelGraph::from_edges(vec![1; 8], &[(0, 1, 1), (4, 6, 1), (4, 5, 1), (6, 7, 1)]);
        let mut parts = vec![0, 0, 0, 0, 1, 1, 1, 1];
        repair_empty_partitions(&g, &mut parts, 3);
        assert_eq!(parts, vec![0, 0, 0, 0, 2, 1, 2, 1]);
    }

    #[test]
    fn repair_fills_several_empty_ids_from_a_disconnected_donor() {
        // Eight isolated nodes in part 0, parts 1..4 empty: every donation
        // restarts the walk at the donor's next unvisited node, and the
        // counts carried between donations pick the next donor.
        let g = LevelGraph::from_edges(vec![1; 8], &[]);
        let mut parts = vec![0u32; 8];
        repair_empty_partitions(&g, &mut parts, 4);
        // 1 takes half of part 0 (0..4); 2 takes half of the last of the
        // two four-node parts (part 1: nodes 0, 1); 3 takes half of part 0.
        assert_eq!(parts, vec![2, 2, 1, 1, 3, 3, 0, 0]);
        // Fewer nodes than parts: left alone.
        let mut tiny = vec![0u32; 2];
        repair_empty_partitions(&LevelGraph::from_edges(vec![1; 2], &[]), &mut tiny, 4);
        assert_eq!(tiny, vec![0, 0]);
    }

    #[test]
    fn kway_never_worsens_final_cut() {
        let set = path_set(256);
        let mut without = PartitionConfig::new(8, 13);
        without.run_kway = false;
        let base = partition_graph_set(&set, &without).unwrap();
        let with = partition_graph_set(&set, &PartitionConfig::new(8, 13)).unwrap();
        let cut_without = edge_cut(set.finest(), base.finest());
        let cut_with = edge_cut(set.finest(), with.finest());
        assert!(
            cut_with <= cut_without,
            "k-way made things worse: {cut_with} > {cut_without}"
        );
    }
}
