//! Global k-way Kernighan–Lin refinement (paper §IV-D, after Karypis &
//! Kumar's multilevel k-way scheme).
//!
//! Boundary nodes are examined in order of decreasing gain; a node moves to
//! the neighboring partition with maximal external weight, provided the
//! balance bound allows it. Moves are logged with partial gain sums; after a
//! pass, moves past the maximal partial sum are undone. A pass also stops
//! after fifty consecutive non-improving moves. Passes repeat until no
//! improvement remains.
//!
//! # What is kept across moves
//!
//! A node with no neighbor in another part has no target and can never be
//! chosen, so a pass keeps the ordered set of unlocked *boundary* nodes (and
//! per node the number of neighbors in other parts) and scans only those,
//! in ascending id — the tie-break order: equal gains go to the smallest id,
//! then to the part the node touches first. A move changes boundary status
//! only for the moved node and its neighbors, and only those are updated.
//!
//! # What `work` charges
//!
//! The paper's scheme evaluates every unlocked node for every move. That
//! cost — the degree sum of the unlocked nodes, kept as a running total — is
//! what each move is charged, not the boundary nodes actually read: `work`
//! is the virtual clock fc-dist schedules Fig. 4/5 with. The `reference`
//! module keeps the whole-level scan; `differential` holds the two to the
//! same parts, gain and work.

use fc_graph::LevelGraph;
use fc_obs::Recorder;
use std::collections::BTreeSet;

/// Safety cap on refinement passes.
const MAX_PASSES: usize = 8;

/// Tuning knobs of the k-way refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KwayConfig {
    /// Consecutive non-improving moves before a pass gives up (paper: 50).
    pub max_bad_moves: usize,
    /// Balance bound: a move into `Pj` is rejected when
    /// `weight(Pj) ≥ balance · weight(Pi)` (paper: 1.03).
    pub balance: f64,
}

impl Default for KwayConfig {
    fn default() -> KwayConfig {
        KwayConfig {
            max_bad_moves: 50,
            balance: 1.03,
        }
    }
}

/// Refines a k-partition in place; returns the total cut improvement.
/// Refinement metrics are recorded into `rec`: the pass count
/// (`partition.kway_passes`) and the per-pass applied gain
/// (`partition.kway_pass_gain`).
///
/// # Invariants
/// `parts` stays a valid `k`-partition throughout: its length is unchanged,
/// every id remains in `0..k`, and only whole moves are applied (an undone
/// pass suffix restores the pre-move assignment exactly). The returned
/// improvement equals `edge_cut` before the call minus `edge_cut` after.
pub fn kway_refine(
    g: &LevelGraph,
    parts: &mut [u32],
    k: usize,
    config: &KwayConfig,
    work: &mut u64,
    rec: &Recorder,
) -> u64 {
    let gains = kway_passes(g, parts, k, config, work);
    record_passes(rec, &gains);
    // Each pass keeps exactly its best prefix, so the applied gains sum to
    // the cut delta without measuring the cut.
    gains.iter().sum()
}

/// [`kway_refine`] without the metrics: the applied gain of every pass, in
/// order. Like the assignment and the work, it is a pure function of the
/// level and the assignment it starts from.
pub(crate) fn kway_passes(
    g: &LevelGraph,
    parts: &mut [u32],
    k: usize,
    config: &KwayConfig,
    work: &mut u64,
) -> Vec<u64> {
    let mut gains = Vec::new();
    if k < 2 || g.node_count() < 2 {
        return gains;
    }
    for _ in 0..MAX_PASSES {
        let gain = kway_pass(g, parts, k, config, work);
        gains.push(gain);
        if gain == 0 {
            break;
        }
    }
    gains
}

/// Records the metrics of a refinement whose passes gained `gains`.
pub(crate) fn record_passes(rec: &Recorder, gains: &[u64]) {
    for &gain in gains {
        rec.add("partition.kway_passes", 1);
        rec.observe("partition.kway_pass_gain", gain);
    }
}

/// One pass; returns the applied (positive) gain.
fn kway_pass(
    g: &LevelGraph,
    parts: &mut [u32],
    k: usize,
    config: &KwayConfig,
    work: &mut u64,
) -> u64 {
    let n = g.node_count();
    let mut part_weight = vec![0u64; k];
    // Per unlocked node: how many neighbors sit in another part. Only nodes
    // with a non-zero count can move, so only they are scanned.
    let mut foreign = vec![0u32; n];
    let mut boundary: BTreeSet<u32> = BTreeSet::new();
    // The paper's scheme evaluates every unlocked node per move; its cost,
    // the degree sum of the unlocked nodes, is charged as a running total.
    let mut unlocked_degree = 0u64;
    for v in 0..n as u32 {
        let pv = parts[v as usize];
        part_weight[pv as usize] += u64::from(g.node_weight(v));
        unlocked_degree += g.degree(v) as u64;
        let count = g
            .neighbors(v)
            .iter()
            .filter(|&&(u, _)| parts[u as usize] != pv)
            .count();
        foreign[v as usize] = count as u32;
        if count > 0 {
            boundary.insert(v);
        }
    }
    let mut locked = vec![false; n];
    let mut moves: Vec<(u32, u32, u32, i64)> = Vec::new(); // (node, from, to, gain)
    let mut cum = 0i64;
    let mut best_cum = 0i64;
    let mut best_index = 0usize;
    let mut bad_moves = 0usize;
    // Scratch: external weight per part (all zero between nodes) and the
    // parts a node touches, in first-touched order.
    let mut ext = vec![0i64; k];
    let mut touched: Vec<u32> = Vec::new();

    loop {
        *work += unlocked_degree;
        // Best admissible move over all unlocked boundary nodes, ascending
        // id: ties go to the smallest id, then to the first-touched part.
        let mut best: Option<(i64, u32, u32)> = None; // (gain, node, target)
        for &v in &boundary {
            let pi = parts[v as usize];
            let mut internal = 0i64;
            touched.clear();
            for &(u, w) in g.neighbors(v) {
                let pu = parts[u as usize];
                if pu == pi {
                    internal += w as i64;
                } else {
                    if ext[pu as usize] == 0 {
                        touched.push(pu);
                    }
                    ext[pu as usize] += w as i64;
                }
            }
            // A node never leaves a partition it is the last member of —
            // emptying a partition is never what refinement means.
            let would_empty = part_weight[pi as usize] == u64::from(g.node_weight(v));
            for &pj in &touched {
                let admissible = !would_empty
                    && (part_weight[pj as usize] as f64)
                        < config.balance * part_weight[pi as usize] as f64;
                if admissible {
                    let gain = ext[pj as usize] - internal;
                    if best.is_none_or(|(bg, _, _)| gain > bg) {
                        best = Some((gain, v, pj));
                    }
                }
            }
            for &pj in &touched {
                ext[pj as usize] = 0;
            }
        }
        let Some((gain, v, pj)) = best else { break };
        let pi = parts[v as usize];
        parts[v as usize] = pj;
        locked[v as usize] = true;
        boundary.remove(&v);
        unlocked_degree -= g.degree(v) as u64;
        let w_v = u64::from(g.node_weight(v));
        part_weight[pi as usize] -= w_v;
        part_weight[pj as usize] += w_v;
        // Boundary status changes only around the moved node: unlocked
        // neighbors left behind in `pi` gain a foreign neighbor, those in
        // `pj` lose one. Locked nodes are out of the scan for good, so their
        // counts are no longer kept.
        for &(u, _) in g.neighbors(v) {
            if locked[u as usize] {
                continue;
            }
            let pu = parts[u as usize];
            let count = &mut foreign[u as usize];
            if pu == pi {
                *count += 1;
                if *count == 1 {
                    boundary.insert(u);
                }
            } else if pu == pj {
                *count -= 1;
                if *count == 0 {
                    boundary.remove(&u);
                }
            }
        }
        cum += gain;
        moves.push((v, pi, pj, gain));
        if cum > best_cum {
            best_cum = cum;
            best_index = moves.len();
            bad_moves = 0;
        } else {
            bad_moves += 1;
            if bad_moves >= config.max_bad_moves {
                break;
            }
        }
    }

    // Undo everything past the best prefix.
    for &(v, from, _to, _) in moves[best_index..].iter().rev() {
        parts[v as usize] = from;
    }
    best_cum.max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, partition_balance, validate_partition};

    /// `kway_refine` at the default config, work and metrics discarded.
    fn refine(g: &LevelGraph, parts: &mut [u32], k: usize) -> u64 {
        kway_refine(
            g,
            parts,
            k,
            &KwayConfig::default(),
            &mut 0,
            &Recorder::disabled(),
        )
    }

    /// Three 4-cliques chained by single light edges.
    fn three_cliques() -> LevelGraph {
        let mut edges = Vec::new();
        for base in [0u32, 4, 8] {
            for i in 0..4 {
                for j in i + 1..4 {
                    edges.push((base + i, base + j, 10));
                }
            }
        }
        edges.extend([(3, 4, 1), (7, 8, 1)]);
        LevelGraph::from_edges(vec![1; 12], &edges)
    }

    #[test]
    fn repairs_misassigned_clique_members() {
        let g = three_cliques();
        // Swap one node between cliques 0 and 1 (balance preserved).
        let mut parts: Vec<u32> = (0..12).map(|v| (v / 4) as u32).collect();
        parts[0] = 1;
        parts[4] = 0;
        let before = edge_cut(&g, &parts);
        let gain = refine(&g, &mut parts, 3);
        let after = edge_cut(&g, &parts);
        assert_eq!(before - after, gain);
        assert_eq!(after, 2, "expected the two bridge edges only, got {after}");
        validate_partition(&g, &parts, 3).unwrap();
    }

    #[test]
    fn no_improvement_leaves_partition_unchanged() {
        let g = three_cliques();
        let mut parts: Vec<u32> = (0..12).map(|v| (v / 4) as u32).collect();
        let snapshot = parts.clone();
        let gain = refine(&g, &mut parts, 3);
        assert_eq!(gain, 0);
        assert_eq!(parts, snapshot);
    }

    #[test]
    fn respects_balance_bound_and_never_empties() {
        // Two nodes, one edge: any move would merge the partitions (gain 10)
        // but would empty one of them — both moves must be blocked.
        let g = LevelGraph::from_edges(vec![1; 2], &[(0, 1, 10)]);
        let mut parts = vec![0u32, 1];
        let gain = refine(&g, &mut parts, 2);
        assert_eq!(gain, 0);
        assert_eq!(parts, vec![0, 1]);

        // Heavy target: node 0 (w=1) next to a clique of weight 12 in P1;
        // the 1.03 bound must block 0's move into P1. P0 has a second node
        // so the no-emptying rule is not what blocks.
        let g2 = LevelGraph::from_edges(
            vec![1, 4, 4, 4, 1],
            &[(0, 1, 2), (1, 2, 9), (2, 3, 9), (1, 3, 9), (0, 4, 1)],
        );
        let mut parts = vec![0u32, 1, 1, 1, 0];
        refine(&g2, &mut parts, 2);
        // weight(P1)=12 ≥ 1.03·weight(P0)=2.06: node 0 must stay in P0.
        assert_eq!(parts[0], 0);
    }

    #[test]
    fn k_one_is_a_noop() {
        let g = three_cliques();
        let mut parts = vec![0u32; 12];
        assert_eq!(refine(&g, &mut parts, 1), 0);
    }

    #[test]
    fn balance_never_explodes() {
        let g = three_cliques();
        let mut parts: Vec<u32> = (0..12).map(|v| (v % 3) as u32).collect(); // scrambled
        refine(&g, &mut parts, 3);
        let balance = partition_balance(&g, &parts, 3);
        assert!(balance <= 2.0, "balance exploded: {balance}");
    }
}

/// The pass as it was before the boundary set: every move re-reads every
/// unlocked node and edge of the level. Kept as the oracle [`differential`]
/// compares `kway_pass` against.
#[cfg(test)]
mod reference {
    use super::{KwayConfig, LevelGraph};

    /// One pass; returns the applied (positive) gain.
    pub(super) fn kway_pass(
        g: &LevelGraph,
        parts: &mut [u32],
        k: usize,
        config: &KwayConfig,
        work: &mut u64,
    ) -> u64 {
        let n = g.node_count();
        let mut part_weight = vec![0u64; k];
        for v in 0..n {
            part_weight[parts[v] as usize] += u64::from(g.node_weight(v as u32));
        }
        let mut locked = vec![false; n];
        let mut moves: Vec<(u32, u32, u32, i64)> = Vec::new(); // (node, from, to, gain)
        let mut cum = 0i64;
        let mut best_cum = 0i64;
        let mut best_index = 0usize;
        let mut bad_moves = 0usize;

        loop {
            // Best admissible move over all unlocked boundary nodes.
            let mut best: Option<(i64, u32, u32)> = None; // (gain, node, target)
            let mut ext = vec![0i64; k]; // reused scratch: external weight per part
            for v in 0..n as u32 {
                if locked[v as usize] {
                    continue;
                }
                let pi = parts[v as usize];
                let mut internal = 0i64;
                let mut touched: Vec<u32> = Vec::new();
                for &(u, w) in g.neighbors(v) {
                    *work += 1;
                    let pu = parts[u as usize];
                    if pu == pi {
                        internal += w as i64;
                    } else {
                        if ext[pu as usize] == 0 {
                            touched.push(pu);
                        }
                        ext[pu as usize] += w as i64;
                    }
                }
                // Only boundary nodes (E_v > 0) are candidates. A node never
                // leaves a partition it is the last member of — emptying a
                // partition is never what refinement means.
                let would_empty = part_weight[pi as usize] == u64::from(g.node_weight(v));
                for &pj in &touched {
                    let admissible = !would_empty
                        && (part_weight[pj as usize] as f64)
                            < config.balance * part_weight[pi as usize] as f64;
                    if admissible {
                        let gain = ext[pj as usize] - internal;
                        let better = match best {
                            None => true,
                            Some((bg, bv, _)) => gain > bg || (gain == bg && v < bv),
                        };
                        if better {
                            best = Some((gain, v, pj));
                        }
                    }
                }
                for &pj in &touched {
                    ext[pj as usize] = 0;
                }
            }
            let Some((gain, v, pj)) = best else { break };
            let pi = parts[v as usize];
            parts[v as usize] = pj;
            locked[v as usize] = true;
            let w_v = u64::from(g.node_weight(v));
            part_weight[pi as usize] -= w_v;
            part_weight[pj as usize] += w_v;
            cum += gain;
            moves.push((v, pi, pj, gain));
            if cum > best_cum {
                best_cum = cum;
                best_index = moves.len();
                bad_moves = 0;
            } else {
                bad_moves += 1;
                if bad_moves >= config.max_bad_moves {
                    break;
                }
            }
        }

        // Undo everything past the best prefix.
        for &(v, from, _to, _) in moves[best_index..].iter().rev() {
            parts[v as usize] = from;
        }
        best_cum.max(0) as u64
    }
}

#[cfg(test)]
mod differential {
    use super::*;
    use crate::metrics::edge_cut;
    use crate::testgen;
    use fc_rng::Rng;

    fn reference_refine(
        g: &LevelGraph,
        parts: &mut [u32],
        k: usize,
        config: &KwayConfig,
        work: &mut u64,
    ) -> u64 {
        if k < 2 || g.node_count() < 2 {
            return 0;
        }
        let before = edge_cut(g, parts);
        for _ in 0..MAX_PASSES {
            if reference::kway_pass(g, parts, k, config, work) == 0 {
                break;
            }
        }
        before - edge_cut(g, parts)
    }

    /// Same parts, same gain, same work as the whole-level scan, on every
    /// family and size, for k in {2, 3, 16, 64}, from a block start, a block
    /// start with some nodes scattered (an eighth; about sixteen nodes on the
    /// large graphs), and on the small graphs a fully random start — the
    /// oracle re-reads the level for each of the moves a start needs. The
    /// scattered start also runs with loose knobs.
    #[test]
    fn kway_matches_reference_on_every_family() {
        let loose = KwayConfig {
            max_bad_moves: 4,
            balance: 1.5,
        };
        for (family, n, seed, g) in testgen::cases() {
            for k in [2usize, 3, 16, 64] {
                let mut rng = Rng::new(seed ^ ((k as u64) << 8));
                let block = |v: usize| (v * k / n.max(1)) as u32;
                let mut starts: Vec<Vec<u32>> = vec![
                    (0..n).map(block).collect(),
                    (0..n)
                        .map(|v| match rng.range(0..if n > 300 { 128 } else { 8 }) {
                            0 => rng.range(0..k as u32),
                            _ => block(v),
                        })
                        .collect(),
                ];
                if n <= 300 {
                    starts.push((0..n).map(|_| rng.range(0..k as u32)).collect());
                }
                let configs = [KwayConfig::default(), loose];
                for (si, start) in starts.iter().enumerate() {
                    for config in &configs[..if si == 1 { 2 } else { 1 }] {
                        let (mut parts, mut ref_parts) = (start.clone(), start.clone());
                        let (mut work, mut ref_work) = (0u64, 0u64);
                        let gain = kway_refine(
                            &g,
                            &mut parts,
                            k,
                            config,
                            &mut work,
                            &Recorder::disabled(),
                        );
                        let ref_gain =
                            reference_refine(&g, &mut ref_parts, k, config, &mut ref_work);
                        let case =
                            format!("{family:?} n={n} seed={seed} k={k} start={si} {config:?}");
                        assert_eq!(parts, ref_parts, "parts differ: {case}");
                        assert_eq!(gain, ref_gain, "gain differs: {case}");
                        assert_eq!(work, ref_work, "work differs: {case}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::metrics::edge_cut;
    use fc_rng::{cases, Rng};

    fn arb_case(rng: &mut Rng) -> (LevelGraph, Vec<u32>, usize) {
        let (n, k) = (rng.range(3usize..20), rng.range(2usize..5));
        let raw = rng.vec(1..60, |r| {
            (r.range(0usize..20), r.range(0usize..20), r.range(1u32..30))
        });
        let edges: Vec<_> = raw
            .into_iter()
            .map(|(u, v, w)| ((u % n) as u32, (v % n) as u32, w))
            .collect();
        let g = LevelGraph::from_edges(vec![1; n], &edges);
        (g, (0..n).map(|_| rng.range(0..k as u32)).collect(), k)
    }

    /// k-way refinement never worsens the cut, reports the exact delta,
    /// and keeps assignments in range.
    #[test]
    fn kway_never_worsens() {
        cases(256, |rng| {
            let (g, mut parts, k) = arb_case(rng);
            let before = edge_cut(&g, &parts);
            let gain = kway_refine(
                &g,
                &mut parts,
                k,
                &KwayConfig::default(),
                &mut 0,
                &Recorder::disabled(),
            );
            let after = edge_cut(&g, &parts);
            assert!(after <= before);
            assert_eq!(before - after, gain);
            assert!(parts.iter().all(|&p| (p as usize) < k));
        });
    }
}
