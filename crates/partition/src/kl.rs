//! Kernighan–Lin bisection refinement (paper §IV-B).
//!
//! Each pass swaps node pairs between the two sides in order of decreasing
//! gain, locking swapped nodes, then undoes everything after the maximal
//! partial gain sum. Pair selection follows the paper's `O(n² log n)`
//! scheme: both sides are kept sorted by D value and pairs are examined in
//! decreasing `D_a + D_b` order (diagonal scanning, after Dutt); the scan
//! stops as soon as `D_a + D_b ≤ g_max`, since a pair's gain
//! `D_a + D_b − 2·w(a,b)` can never beat that bound. A pass also terminates
//! early after fifty consecutive swaps without improving the best partial
//! sum (the paper's §IV-B speed-up).
//!
//! # What is kept across swaps
//!
//! The two queues are ordered sets keyed `(Reverse(D), id)` — descending D,
//! ties by id — built once per pass. A swap removes its pair and re-keys
//! only the pair's unlocked neighbors, the only nodes whose D it changed;
//! the diagonal scan then walks the sets exactly as it would walk freshly
//! sorted arrays. `w(a, ·)` for the row being scanned comes from one dense
//! row that is filled from `a`'s adjacency and zeroed again afterwards.
//!
//! # What `work` charges
//!
//! `work` is the virtual clock of the paper's algorithm (it schedules
//! fc-dist's Fig. 4/5 runs), not a count of what this implementation
//! touches: every swap is charged one unit per unlocked node (the paper
//! re-sorts both sides), one per pair the scan examines, and one per edge
//! relaxed, whatever the sets underneath did. The `reference` module keeps
//! the per-swap-sort pass that these counts describe literally; the
//! `differential` tests hold the two to the same sides, gain and work.

use crate::local::LocalGraph;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Safety cap on refinement passes (the paper iterates until no
/// improvement).
const MAX_PASSES: usize = 16;

/// Tuning knobs of the refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KlConfig {
    /// Consecutive non-improving swaps before a pass gives up (paper: 50).
    pub max_bad_moves: usize,
}

impl Default for KlConfig {
    fn default() -> KlConfig {
        KlConfig { max_bad_moves: 50 }
    }
}

/// Refines a bisection in place. Returns the total cut improvement across
/// all passes (≥ 0: a pass that cannot improve is fully undone). Work
/// counters accumulate into `work`.
pub fn kl_refine(local: &LocalGraph, side: &mut [bool], config: &KlConfig, work: &mut u64) -> u64 {
    let mut total_gain = 0u64;
    for _ in 0..MAX_PASSES {
        let pass_gain = kl_pass(local, side, config, work);
        if pass_gain == 0 {
            break;
        }
        total_gain += pass_gain;
    }
    total_gain
}

/// The unlocked nodes of one side in scan order: descending D, ties by id.
type DQueue = BTreeSet<(Reverse<i64>, u32)>;

/// One KL pass. Returns the applied (positive) gain, 0 if no improvement.
fn kl_pass(local: &LocalGraph, side: &mut [bool], config: &KlConfig, work: &mut u64) -> u64 {
    let n = local.len();
    if n < 2 {
        return 0;
    }
    // D value: external minus internal weight.
    let mut d = vec![0i64; n];
    for v in 0..n {
        for &(u, w) in &local.adj[v] {
            *work += 1;
            if side[v] != side[u as usize] {
                d[v] += w as i64;
            } else {
                d[v] -= w as i64;
            }
        }
    }

    // The two queues are built once and live for the whole pass; a swap
    // removes its pair and re-keys only the neighbors whose D it changed.
    let mut queues: [DQueue; 2] = [false, true].map(|s| {
        (0..n)
            .filter(|&v| side[v] == s)
            .map(|v| (Reverse(d[v]), v as u32))
            .collect()
    });
    let mut locked = vec![false; n];
    // w(a, ·) of the row being scanned; all zero between rows.
    let mut row = vec![0u64; n];
    let mut swaps: Vec<(u32, u32, i64)> = Vec::new();
    let mut cum = 0i64;
    let mut best_cum = 0i64;
    let mut best_index = 0usize; // number of swaps kept
    let mut bad_moves = 0usize;

    // A swap needs an unlocked node on each side.
    while let Some(&(Reverse(d_b_max), _)) = queues[1].first() {
        if queues[0].is_empty() {
            break;
        }
        // The paper's scheme re-sorts every unlocked node here; charge it.
        *work += (queues[0].len() + queues[1].len()) as u64;

        // Diagonal scan for the best pair.
        let mut gmax: Option<i64> = None;
        let mut best_pair = (0u32, 0u32);
        for &(Reverse(d_a), a) in &queues[0] {
            if gmax.is_some_and(|g| d_a + d_b_max <= g) {
                break; // no later row can beat gmax
            }
            for &(u, w) in &local.adj[a as usize] {
                row[u as usize] = w;
            }
            for &(Reverse(d_b), b) in &queues[1] {
                *work += 1;
                let bound = d_a + d_b;
                if gmax.is_some_and(|g| bound <= g) {
                    break; // rest of the row is dominated
                }
                let gain = bound - 2 * row[b as usize] as i64;
                if gmax.is_none_or(|g| gain > g) {
                    gmax = Some(gain);
                    best_pair = (a, b);
                }
            }
            for &(u, _) in &local.adj[a as usize] {
                row[u as usize] = 0;
            }
        }
        let Some(gain) = gmax else { break };
        let (a, b) = best_pair;

        // Swap, lock, update D values of unlocked neighbors.
        queues[0].remove(&(Reverse(d[a as usize]), a));
        queues[1].remove(&(Reverse(d[b as usize]), b));
        side[a as usize] = true;
        side[b as usize] = false;
        locked[a as usize] = true;
        locked[b as usize] = true;
        // `a` moved from A to B: nodes still in A see it leave (+2w), nodes
        // in B see it arrive (-2w); `b` mirrors that.
        for (moved, new_side) in [(a, true), (b, false)] {
            for &(u, w) in &local.adj[moved as usize] {
                *work += 1;
                let u = u as usize;
                if locked[u] {
                    continue;
                }
                let queue = &mut queues[usize::from(side[u])];
                queue.remove(&(Reverse(d[u]), u as u32));
                if side[u] != new_side {
                    d[u] += 2 * w as i64;
                } else {
                    d[u] -= 2 * w as i64;
                }
                queue.insert((Reverse(d[u]), u as u32));
            }
        }

        cum += gain;
        swaps.push((a, b, gain));
        if cum > best_cum {
            best_cum = cum;
            best_index = swaps.len();
            bad_moves = 0;
        } else {
            bad_moves += 1;
            if bad_moves >= config.max_bad_moves {
                break;
            }
        }
    }

    // Undo swaps past the best prefix (all of them if best_cum == 0).
    for &(a, b, _) in swaps[best_index..].iter().rev() {
        side[a as usize] = false;
        side[b as usize] = true;
    }
    best_cum.max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_graph::LevelGraph;

    fn extract_all(g: &LevelGraph) -> LocalGraph {
        let nodes: Vec<u32> = (0..g.node_count() as u32).collect();
        LocalGraph::extract(g, &nodes)
    }

    /// Two 5-cliques joined by a single light edge: the optimal bisection
    /// separates the cliques.
    fn two_cliques() -> LocalGraph {
        let mut edges = Vec::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    edges.push((base + i, base + j, 10));
                }
            }
        }
        edges.push((0, 5, 1));
        extract_all(&LevelGraph::from_edges(vec![1; 10], &edges))
    }

    #[test]
    fn recovers_clique_structure_from_bad_start() {
        let local = two_cliques();
        // Worst start: alternate sides across the cliques.
        let mut side: Vec<bool> = (0..10).map(|v| v % 2 == 0).collect();
        let before = local.cut(&side);
        let mut work = 0;
        let gain = kl_refine(&local, &mut side, &KlConfig::default(), &mut work);
        let after = local.cut(&side);
        assert_eq!(before - gain, after, "reported gain inconsistent with cut");
        assert_eq!(after, 1, "KL should find the single-edge cut, got {after}");
        // The cliques must be whole.
        assert!((1..5).all(|v| side[v] == side[0]));
        assert!((6..10).all(|v| side[v] == side[5]));
        assert_ne!(side[0], side[5]);
    }

    #[test]
    fn never_worsens_the_cut() {
        let local = two_cliques();
        let mut side: Vec<bool> = (0..10).map(|v| v >= 5).collect(); // already optimal
        let before = local.cut(&side);
        let mut work = 0;
        let gain = kl_refine(&local, &mut side, &KlConfig::default(), &mut work);
        assert_eq!(gain, 0);
        assert_eq!(local.cut(&side), before);
    }

    #[test]
    fn balance_is_preserved_by_pairwise_swaps() {
        let local = two_cliques();
        let mut side: Vec<bool> = (0..10).map(|v| v % 2 == 0).collect();
        let count_true = side.iter().filter(|&&s| s).count();
        let mut work = 0;
        kl_refine(&local, &mut side, &KlConfig::default(), &mut work);
        assert_eq!(side.iter().filter(|&&s| s).count(), count_true);
    }

    #[test]
    fn handles_degenerate_inputs() {
        let empty = LocalGraph {
            nodes: vec![],
            adj: vec![],
            node_w: vec![],
        };
        let mut side: Vec<bool> = vec![];
        let mut work = 0;
        assert_eq!(
            kl_refine(&empty, &mut side, &KlConfig::default(), &mut work),
            0
        );

        let g = LevelGraph::from_edges(vec![1], &[(0, 0, 5)]); // ignored self-loop
        let local = extract_all(&g);
        let mut side = vec![false];
        assert_eq!(
            kl_refine(&local, &mut side, &KlConfig::default(), &mut work),
            0
        );
    }

    #[test]
    fn bad_move_cutoff_terminates_and_stays_consistent() {
        // A cross-matching start is heavily improvable (pairing both
        // endpoints of two cut edges removes both); a tiny bad-move budget
        // must still terminate with gain == cut delta.
        // A perfect matching across sides.
        let matching: Vec<_> = (0..20u32).map(|i| (i, i + 20, 1)).collect();
        let g = LevelGraph::from_edges(vec![1; 40], &matching);
        let local = extract_all(&g);
        let mut side: Vec<bool> = (0..40).map(|v| v >= 20).collect();
        let before = local.cut(&side);
        let mut work = 0;
        let config = KlConfig { max_bad_moves: 3 };
        let gain = kl_refine(&local, &mut side, &config, &mut work);
        let after = local.cut(&side);
        assert_eq!(before - gain, after);
        assert!(after < before, "cross-matching should be improvable");
        // Side cardinality preserved by pairwise swaps.
        assert_eq!(side.iter().filter(|&&s| s).count(), 20);
    }
}

/// The pass as it was before the queues outlived a swap: both sides are
/// re-collected and re-sorted for every swap and every scanned row builds a
/// hash map. Kept as the oracle [`differential`] compares `kl_pass` against.
#[cfg(test)]
mod reference {
    use super::{KlConfig, LocalGraph};
    use std::collections::HashMap;

    /// One KL pass. Returns the applied (positive) gain, 0 if no improvement.
    pub(super) fn kl_pass(
        local: &LocalGraph,
        side: &mut [bool],
        config: &KlConfig,
        work: &mut u64,
    ) -> u64 {
        let n = local.len();
        if n < 2 {
            return 0;
        }
        // D value: external minus internal weight.
        let mut d = vec![0i64; n];
        for v in 0..n {
            for &(u, w) in &local.adj[v] {
                *work += 1;
                if side[v] != side[u as usize] {
                    d[v] += w as i64;
                } else {
                    d[v] -= w as i64;
                }
            }
        }

        let mut locked = vec![false; n];
        let mut swaps: Vec<(u32, u32, i64)> = Vec::new();
        let mut cum = 0i64;
        let mut best_cum = 0i64;
        let mut best_index = 0usize; // number of swaps kept
        let mut bad_moves = 0usize;

        loop {
            // Sorted unlocked nodes per side, descending D (ties by id for
            // determinism).
            let mut a_nodes: Vec<u32> = (0..n as u32)
                .filter(|&v| !locked[v as usize] && !side[v as usize])
                .collect();
            let mut b_nodes: Vec<u32> = (0..n as u32)
                .filter(|&v| !locked[v as usize] && side[v as usize])
                .collect();
            if a_nodes.is_empty() || b_nodes.is_empty() {
                break;
            }
            *work += (a_nodes.len() + b_nodes.len()) as u64;
            a_nodes.sort_unstable_by_key(|&v| (std::cmp::Reverse(d[v as usize]), v));
            b_nodes.sort_unstable_by_key(|&v| (std::cmp::Reverse(d[v as usize]), v));

            // Diagonal scan for the best pair.
            let mut gmax: Option<i64> = None;
            let mut best_pair = (0u32, 0u32);
            'outer: for &a in &a_nodes {
                let upper_best = d[a as usize] + d[b_nodes[0] as usize];
                if let Some(g) = gmax {
                    if upper_best <= g {
                        break 'outer; // no later row can beat gmax
                    }
                }
                // Neighbor weights of `a` for O(1) w(a, b) lookups in this row.
                let wa: HashMap<u32, u64> = local.adj[a as usize].iter().copied().collect();
                for &b in &b_nodes {
                    *work += 1;
                    let bound = d[a as usize] + d[b as usize];
                    if let Some(g) = gmax {
                        if bound <= g {
                            break; // rest of the row is dominated
                        }
                    }
                    let w_ab = wa.get(&b).copied().unwrap_or(0) as i64;
                    let gain = bound - 2 * w_ab;
                    if gmax.is_none_or(|g| gain > g) {
                        gmax = Some(gain);
                        best_pair = (a, b);
                    }
                }
            }
            let Some(gain) = gmax else { break };
            let (a, b) = best_pair;

            // Swap, lock, update D values of unlocked neighbors.
            side[a as usize] = true;
            side[b as usize] = false;
            locked[a as usize] = true;
            locked[b as usize] = true;
            for &(u, w) in &local.adj[a as usize] {
                *work += 1;
                if locked[u as usize] {
                    continue;
                }
                // `a` moved from A to B: nodes still in A see a leave (+2w),
                // nodes in B see a arrive (-2w).
                if !side[u as usize] {
                    d[u as usize] += 2 * w as i64;
                } else {
                    d[u as usize] -= 2 * w as i64;
                }
            }
            for &(u, w) in &local.adj[b as usize] {
                *work += 1;
                if locked[u as usize] {
                    continue;
                }
                if side[u as usize] {
                    d[u as usize] += 2 * w as i64;
                } else {
                    d[u as usize] -= 2 * w as i64;
                }
            }

            cum += gain;
            swaps.push((a, b, gain));
            if cum > best_cum {
                best_cum = cum;
                best_index = swaps.len();
                bad_moves = 0;
            } else {
                bad_moves += 1;
                if bad_moves >= config.max_bad_moves {
                    break;
                }
            }
        }

        // Undo swaps past the best prefix (all of them if best_cum == 0).
        for &(a, b, _) in swaps[best_index..].iter().rev() {
            side[a as usize] = false;
            side[b as usize] = true;
        }
        best_cum.max(0) as u64
    }
}

#[cfg(test)]
mod differential {
    use super::*;
    use crate::testgen;
    use fc_rng::Rng;

    fn reference_refine(
        local: &LocalGraph,
        side: &mut [bool],
        config: &KlConfig,
        work: &mut u64,
    ) -> u64 {
        let mut total_gain = 0u64;
        for _ in 0..MAX_PASSES {
            let pass_gain = reference::kl_pass(local, side, config, work);
            if pass_gain == 0 {
                break;
            }
            total_gain += pass_gain;
        }
        total_gain
    }

    /// Same sides, same gain, same work as the per-swap-sort pass, on every
    /// family and size, from balanced, random and one-sided starts. The
    /// large graphs start from two halves (what a projection hands KL) and
    /// run the default knobs only: the oracle sorts the level once per swap.
    #[test]
    fn kl_matches_reference_on_every_family() {
        let tight = KlConfig { max_bad_moves: 3 };
        for (family, n, seed, g) in testgen::cases() {
            let nodes: Vec<u32> = (0..n as u32).collect();
            let local = LocalGraph::extract(&g, &nodes);
            let mut rng = Rng::new(seed ^ 0x51DE);
            let large = n > 300;
            let starts: [Vec<bool>; 3] = [
                (0..n)
                    .map(|v| if large { v >= n / 2 } else { v % 2 == 1 })
                    .collect(),
                (0..n).map(|_| rng.bool(0.5)).collect(),
                (0..n).map(|v| v == 0).collect(),
            ];
            let configs = [KlConfig::default(), tight];
            for (si, start) in starts.iter().enumerate() {
                for config in &configs[..if large { 1 } else { 2 }] {
                    let (mut side, mut ref_side) = (start.clone(), start.clone());
                    let (mut work, mut ref_work) = (0u64, 0u64);
                    let gain = kl_refine(&local, &mut side, config, &mut work);
                    let ref_gain = reference_refine(&local, &mut ref_side, config, &mut ref_work);
                    let case = format!("{family:?} n={n} seed={seed} start={si} {config:?}");
                    assert_eq!(side, ref_side, "sides differ: {case}");
                    assert_eq!(gain, ref_gain, "gain differs: {case}");
                    assert_eq!(work, ref_work, "work differs: {case}");
                }
            }
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use fc_graph::LevelGraph;
    use fc_rng::{cases, Rng};

    fn arb_case(rng: &mut Rng) -> (LocalGraph, Vec<bool>) {
        let n = rng.range(4usize..24);
        let raw = rng.vec(1..80, |r| {
            (r.range(0usize..24), r.range(0usize..24), r.range(1u32..50))
        });
        let edges: Vec<_> = raw
            .into_iter()
            .map(|(u, v, w)| ((u % n) as u32, (v % n) as u32, w))
            .collect();
        let g = LevelGraph::from_edges(vec![1; n], &edges);
        let nodes: Vec<u32> = (0..n as u32).collect();
        let local = LocalGraph::extract(&g, &nodes);
        (local, (0..n).map(|_| rng.bool(0.5)).collect())
    }

    /// KL must never increase the cut, and the reported gain must match
    /// the observed cut delta exactly.
    #[test]
    fn kl_gain_matches_cut_delta() {
        cases(256, |rng| {
            let (local, mut side) = arb_case(rng);
            let before = local.cut(&side);
            let mut work = 0;
            let gain = kl_refine(&local, &mut side, &KlConfig::default(), &mut work);
            let after = local.cut(&side);
            assert!(after <= before);
            assert_eq!(before - after, gain);
        });
    }

    /// Side cardinalities are invariant under KL (pairwise swaps only).
    #[test]
    fn kl_preserves_cardinality() {
        cases(256, |rng| {
            let (local, mut side) = arb_case(rng);
            let ones = side.iter().filter(|&&s| s).count();
            let mut work = 0;
            kl_refine(&local, &mut side, &KlConfig::default(), &mut work);
            assert_eq!(side.iter().filter(|&&s| s).count(), ones);
        });
    }
}
