//! Greedy graph growing — the initial bisection (paper §IV-A).
//!
//! Two partitions are grown alternately from random seeds. Unassigned nodes
//! on the growing partition's horizon sit in a gain priority queue (gain =
//! weight into the partition minus weight to everything else). Growth of a
//! side stops when its accumulated edge weight exceeds 1.03× the other
//! side's (the paper's 3 % edge-weight balance bound); the whole process
//! stops once either side holds half the node weight, and leftovers go to
//! the lighter side.
//!
//! # What is kept across assignments
//!
//! Weighted degrees are summed once per call. The set of unassigned nodes
//! is a bitmap of 64-bit words, with each 512-node block's count of
//! unassigned nodes in a Fenwick tree over blocks. The reseed an empty
//! horizon asks for — "the `pick`-th unassigned node in index order" —
//! descends the blocks (4 levels at 4 780 nodes), popcounts at most eight
//! words and selects the bit inside one; assigning a node clears its bit
//! and updates `O(log(n / 512))` counts. The hybrid graph sets are mostly
//! isolated nodes, where nearly every step reseeds. The draw, and so the
//! node, are the ones a walk over the assignment array finds (the
//! `reference` module keeps that walk; `differential` compares).
//!
//! # What `work` charges
//!
//! One unit per edge relaxed and one per queue pop — the paper's growing
//! step, counted. Reseeding was never charged and still is not.

use crate::local::LocalGraph;
use fc_rng::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The paper's 3 % balance bound on partition edge weight during growth.
pub const EDGE_WEIGHT_BALANCE: f64 = 1.03;

/// Nodes per block of [`Unassigned`]'s bitmap: eight 64-bit words.
const BLOCK: usize = 512;

/// Which nodes are still unassigned: one bit per node in 64-bit words, and
/// each 512-node block's count of set bits in a Fenwick tree over blocks.
/// Assigning a node clears its bit and updates `O(log(n / 512))` counts;
/// the `pick`-th unassigned node in index order is found by descending the
/// blocks, popcounting at most eight words and selecting inside one.
struct Unassigned {
    /// Bit `v % 64` of word `v / 64` is set while node `v` is unassigned.
    words: Vec<u64>,
    /// 1-based; `tree[i]` counts the set bits of blocks `(i - lowbit(i), i]`.
    tree: Vec<u32>,
}

impl Unassigned {
    /// All of `0..n` unassigned.
    fn all(n: usize) -> Unassigned {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - n % 64) % 64;
        }
        // A node of a Fenwick tree over full blocks holds its range's block
        // count times the block size; only the last block may be short.
        let blocks = n.div_ceil(BLOCK);
        let tree = (0..=blocks)
            .map(|i| {
                let first = i - (i & i.wrapping_neg());
                ((i * BLOCK).min(n) - first * BLOCK) as u32
            })
            .collect();
        Unassigned { words, tree }
    }

    /// Clears the mark of `v` (which must be set).
    fn assign(&mut self, v: u32) {
        let v = v as usize;
        self.words[v / 64] &= !(1u64 << (v % 64));
        let mut i = v / BLOCK + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// The unassigned node with exactly `pick` unassigned nodes before it.
    /// `pick` must be below the number of marks left.
    fn nth(&self, pick: usize) -> u32 {
        let blocks = self.tree.len() - 1;
        let mut block = 0usize;
        let mut remaining = pick as u32;
        let mut step = blocks.checked_ilog2().map_or(0, |b| 1usize << b);
        // Descend to the longest prefix of blocks holding at most `pick` marks.
        while step > 0 {
            let next = block + step;
            if next <= blocks && self.tree[next] <= remaining {
                block = next;
                remaining -= self.tree[next];
            }
            step >>= 1;
        }
        // The node is in block `block`: find its word, then its bit.
        let mut w = block * (BLOCK / 64);
        loop {
            let ones = self.words[w].count_ones();
            if remaining < ones {
                return (w * 64) as u32 + select(self.words[w], remaining);
            }
            remaining -= ones;
            w += 1;
        }
    }
}

/// The position of the set bit of `word` with `rank` set bits below it;
/// `rank` must be below `word.count_ones()`.
fn select(mut word: u64, mut rank: u32) -> u32 {
    let mut base = 0;
    // Halve the window while the wanted bit's half is known, down to a byte.
    for width in [32, 16, 8] {
        let low = word & ((1u64 << width) - 1);
        let ones = low.count_ones();
        if rank < ones {
            word = low;
        } else {
            rank -= ones;
            word >>= width;
            base += width;
        }
    }
    for _ in 0..rank {
        word &= word - 1;
    }
    base + word.trailing_zeros()
}

/// Grows an initial bisection of `local`. Returns `side[v]` (false = P1,
/// true = P2) and adds the work performed (edge relaxations + queue pops) to
/// `work`.
///
/// Deterministic in `seed`. Handles disconnected subgraphs by reseeding when
/// a horizon empties.
pub fn greedy_grow(local: &LocalGraph, seed: u64, work: &mut u64) -> Vec<bool> {
    let n = local.len();
    let mut side = vec![false; n];
    if n < 2 {
        return side;
    }
    let mut rng = Rng::new(seed);
    let total_nw: u64 = local.total_node_weight();
    let wdeg: Vec<u64> = (0..n as u32).map(|v| local.weighted_degree(v)).collect();

    // Assignment state: 0 = unassigned, 1 = P1, 2 = P2.
    let mut assigned = vec![0u8; n];
    let mut unassigned = n;
    let mut unassigned_index = Unassigned::all(n);
    // Accumulated edge weight into each side per unassigned node.
    let mut into = vec![[0u64; 2]; n];
    // Lazy max-heaps of (gain, node) per side.
    let mut heaps: [BinaryHeap<(i64, Reverse<u32>)>; 2] = [BinaryHeap::new(), BinaryHeap::new()];
    let (mut nw, mut ew) = ([0u64; 2], [0u64; 2]);

    let gain = |into_s: u64, wdeg: u64| -> i64 { 2 * into_s as i64 - wdeg as i64 };

    // Assigns `v` to side `s` (0 or 1) and relaxes its neighbors.
    macro_rules! assign {
        ($v:expr, $s:expr) => {{
            let v = $v;
            let s = $s;
            assigned[v as usize] = s as u8 + 1;
            unassigned -= 1;
            unassigned_index.assign(v);
            nw[s] += local.node_w[v as usize];
            ew[s] += wdeg[v as usize];
            for &(u, w) in local.adj(v) {
                *work += 1;
                if assigned[u as usize] == 0 {
                    into[u as usize][s] += w;
                    let g = gain(into[u as usize][s], wdeg[u as usize]);
                    heaps[s].push((g, Reverse(u)));
                }
            }
        }};
    }

    // Which side is currently growing.
    let mut growing = 0usize;
    while unassigned > 0 && nw[0] < total_nw.div_ceil(2) && nw[1] < total_nw.div_ceil(2) {
        // Respect the edge-weight balance bound by switching sides.
        if (ew[growing] as f64) > EDGE_WEIGHT_BALANCE * ew[1 - growing] as f64 {
            growing = 1 - growing;
        }
        // Pop the best valid horizon node for the growing side.
        let mut chosen: Option<u32> = None;
        while let Some((g, Reverse(v))) = heaps[growing].pop() {
            *work += 1;
            if assigned[v as usize] != 0 {
                continue; // stale: already assigned
            }
            let current = gain(into[v as usize][growing], wdeg[v as usize]);
            if g != current {
                continue; // stale: gain changed since push
            }
            chosen = Some(v);
            break;
        }
        // Empty horizon (new side or disconnected piece): random seed, the
        // `pick`-th unassigned node in index order.
        let v = chosen.unwrap_or_else(|| unassigned_index.nth(rng.range(0..unassigned)));
        assign!(v, growing);
    }

    // Leftovers go to the lighter side.
    for (v, a) in assigned.iter_mut().enumerate() {
        if *a == 0 {
            let s = usize::from(nw[1] < nw[0]);
            *a = s as u8 + 1;
            nw[s] += local.node_w[v];
        }
    }
    for (s, &a) in side.iter_mut().zip(&assigned) {
        *s = a == 2;
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_graph::LevelGraph;

    fn local_path(n: usize) -> LocalGraph {
        let path: Vec<_> = (0..n - 1).map(|i| (i as u32, (i + 1) as u32, 10)).collect();
        let g = LevelGraph::from_edges(vec![1; n], &path);
        let nodes: Vec<u32> = (0..n as u32).collect();
        LocalGraph::extract(&g, &nodes)
    }

    fn side_weights(local: &LocalGraph, side: &[bool]) -> (u64, u64) {
        let mut w = (0u64, 0u64);
        for (v, &s) in side.iter().enumerate() {
            if s {
                w.1 += local.node_w[v];
            } else {
                w.0 += local.node_w[v];
            }
        }
        w
    }

    #[test]
    fn bisection_is_node_balanced() {
        let local = local_path(100);
        let mut work = 0;
        let side = greedy_grow(&local, 7, &mut work);
        let (w0, w1) = side_weights(&local, &side);
        assert_eq!(w0 + w1, 100);
        assert!(w0.abs_diff(w1) <= 2, "imbalanced: {w0} vs {w1}");
        assert!(work > 0);
    }

    #[test]
    fn path_graph_gets_a_small_cut() {
        // A good grower should cut a path in O(1) places, not scatter it.
        let local = local_path(200);
        let mut work = 0;
        let side = greedy_grow(&local, 3, &mut work);
        let cut = local.cut(&side);
        // Perfect = 10 (one edge); anything below 10 edges' worth is sane.
        assert!(cut <= 60, "cut too high for a path: {cut}");
    }

    #[test]
    fn handles_disconnected_graphs() {
        let chains: Vec<_> = (0..4)
            .flat_map(|c| (0..9).map(move |i| (c * 10 + i, c * 10 + i + 1, 5)))
            .collect();
        let g = LevelGraph::from_edges(vec![1; 40], &chains);
        let nodes: Vec<u32> = (0..40).collect();
        let local = LocalGraph::extract(&g, &nodes);
        let mut work = 0;
        let side = greedy_grow(&local, 11, &mut work);
        let (w0, w1) = side_weights(&local, &side);
        assert!(w0.abs_diff(w1) <= 2, "imbalanced: {w0} vs {w1}");
    }

    #[test]
    fn tiny_inputs() {
        let mut work = 0;
        let empty = LocalGraph::extract(&LevelGraph::from_edges(vec![], &[]), &[]);
        assert!(greedy_grow(&empty, 1, &mut work).is_empty());
        let single = local_path(2);
        let side = greedy_grow(&single, 1, &mut work);
        assert_eq!(side.len(), 2);
        // Two nodes must be split one per side.
        assert_ne!(side[0], side[1]);
    }

    #[test]
    fn deterministic_in_seed() {
        let local = local_path(64);
        let mut w1 = 0;
        let mut w2 = 0;
        assert_eq!(
            greedy_grow(&local, 9, &mut w1),
            greedy_grow(&local, 9, &mut w2)
        );
    }

    #[test]
    fn respects_node_weights() {
        // One heavy node (weight 50) + 50 light nodes in a path.
        let g = LevelGraph::from_edges(
            std::iter::once(50u32)
                .chain(std::iter::repeat_n(1, 50))
                .collect(),
            &(0..50).map(|i| (i, i + 1, 3)).collect::<Vec<_>>(),
        );
        let nodes: Vec<u32> = (0..51).collect();
        let local = LocalGraph::extract(&g, &nodes);
        let mut work = 0;
        let side = greedy_grow(&local, 5, &mut work);
        let (w0, w1) = side_weights(&local, &side);
        // Total 100; the heavy node forces its side to ~50.
        assert!(w0.abs_diff(w1) <= 51, "degenerate split: {w0} vs {w1}");
        assert_eq!(w0 + w1, 100);
    }
}

/// Growing as it was before the Fenwick tree: weighted degrees re-summed on
/// every use and each reseed found by walking `assigned` from the start.
/// Kept as the oracle [`differential`] compares `greedy_grow` against.
#[cfg(test)]
mod reference {
    use super::{LocalGraph, EDGE_WEIGHT_BALANCE};
    use fc_rng::Rng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Grows an initial bisection of `local`. Returns `side[v]` (false = P1,
    /// true = P2) and adds the work performed (edge relaxations + queue pops) to
    /// `work`.
    ///
    /// Deterministic in `seed`. Handles disconnected subgraphs by reseeding when
    /// a horizon empties.
    pub(super) fn greedy_grow(local: &LocalGraph, seed: u64, work: &mut u64) -> Vec<bool> {
        let n = local.len();
        let mut side = vec![false; n];
        if n == 0 {
            return side;
        }
        if n == 1 {
            return side;
        }
        let mut rng = Rng::new(seed);
        let total_nw: u64 = local.total_node_weight();

        // Assignment state: 0 = unassigned, 1 = P1, 2 = P2.
        let mut assigned = vec![0u8; n];
        let mut unassigned = n;
        // Accumulated edge weight into each side per unassigned node.
        let mut into = vec![[0u64; 2]; n];
        // Lazy max-heaps of (gain, node) per side.
        let mut heaps: [BinaryHeap<(i64, Reverse<u32>)>; 2] =
            [BinaryHeap::new(), BinaryHeap::new()];
        let (mut nw, mut ew) = ([0u64; 2], [0u64; 2]);

        let gain = |into_s: u64, wdeg: u64| -> i64 { 2 * into_s as i64 - wdeg as i64 };

        // Assigns `v` to side `s` (0 or 1) and relaxes its neighbors.
        macro_rules! assign {
            ($v:expr, $s:expr) => {{
                let v = $v;
                let s = $s;
                assigned[v as usize] = s as u8 + 1;
                unassigned -= 1;
                nw[s] += local.node_w[v as usize];
                ew[s] += local.weighted_degree(v);
                for &(u, w) in local.adj(v) {
                    *work += 1;
                    if assigned[u as usize] == 0 {
                        into[u as usize][s] += w;
                        let g = gain(into[u as usize][s], local.weighted_degree(u));
                        heaps[s].push((g, Reverse(u)));
                    }
                }
            }};
        }

        // Which side is currently growing.
        let mut growing = 0usize;
        while unassigned > 0 && nw[0] < total_nw.div_ceil(2) && nw[1] < total_nw.div_ceil(2) {
            // Respect the edge-weight balance bound by switching sides.
            if (ew[growing] as f64) > EDGE_WEIGHT_BALANCE * ew[1 - growing] as f64 {
                growing = 1 - growing;
            }
            // Pop the best valid horizon node for the growing side.
            let mut chosen: Option<u32> = None;
            while let Some((g, Reverse(v))) = heaps[growing].pop() {
                *work += 1;
                if assigned[v as usize] != 0 {
                    continue; // stale: already assigned
                }
                let current = gain(into[v as usize][growing], local.weighted_degree(v));
                if g != current {
                    continue; // stale: gain changed since push
                }
                chosen = Some(v);
                break;
            }
            let v = match chosen {
                Some(v) => v,
                None => {
                    // Empty horizon (new side or disconnected piece): random seed.
                    let mut pick = rng.range(0..unassigned);
                    let mut found = 0u32;
                    for (u, &a) in assigned.iter().enumerate() {
                        if a == 0 {
                            if pick == 0 {
                                found = u as u32;
                                break;
                            }
                            pick -= 1;
                        }
                    }
                    found
                }
            };
            assign!(v, growing);
        }

        // Leftovers go to the lighter side.
        for (v, a) in assigned.iter_mut().enumerate() {
            if *a == 0 {
                let s = usize::from(nw[1] < nw[0]);
                *a = s as u8 + 1;
                nw[s] += local.node_w[v];
            }
        }
        for (s, &a) in side.iter_mut().zip(&assigned) {
            *s = a == 2;
        }
        side
    }
}

#[cfg(test)]
mod differential {
    use super::*;
    use crate::testgen;
    use fc_rng::Rng;

    /// Same sides and same work as the linear-reseed grower, on every family
    /// and size, for several seeds each.
    #[test]
    fn grow_matches_reference_on_every_family() {
        for (family, n, case_seed, g) in testgen::cases() {
            let nodes: Vec<u32> = (0..n as u32).collect();
            let local = LocalGraph::extract(&g, &nodes);
            for seed in [0, 9, case_seed ^ 0x9E37_79B9] {
                let (mut work, mut ref_work) = (0u64, 0u64);
                let side = greedy_grow(&local, seed, &mut work);
                let ref_side = reference::greedy_grow(&local, seed, &mut ref_work);
                let case = format!("{family:?} n={n} case={case_seed} seed={seed}");
                assert_eq!(side, ref_side, "sides differ: {case}");
                assert_eq!(work, ref_work, "work differs: {case}");
            }
        }
    }

    /// The index's `pick`-th unassigned node is the one the linear walk over
    /// the assignment array finds, for every legal `pick`, at sizes around
    /// one block, several blocks and several block levels.
    #[test]
    fn reseed_pick_equals_the_linear_walk() {
        for n in [1usize, 2, 3, 17, 64, 65, 300, 511, 512, 513, 2_000] {
            check_picks(n);
        }
    }

    /// As above, at sizes that take the Fenwick descent over blocks through
    /// four and seven levels.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn reseed_pick_equals_the_linear_walk_across_block_levels() {
        for n in [4_097usize, 40_961] {
            check_picks(n);
        }
    }

    /// Every pick before any assignment, then every pick after each of
    /// three rounds of random assignments (about half, then a quarter, then
    /// nearly all of what is left), against the linear walk.
    fn check_picks(n: usize) {
        let mut rng = Rng::new(n as u64);
        let mut index = Unassigned::all(n);
        let mut assigned = vec![false; n];
        // Before any assignment the k-th unassigned node is node k.
        for pick in 0..n {
            assert_eq!(index.nth(pick), pick as u32, "n={n} pick={pick}");
        }
        for p in [0.5, 0.5, 0.95] {
            for (v, mark) in assigned.iter_mut().enumerate() {
                if !*mark && rng.bool(p) {
                    *mark = true;
                    index.assign(v as u32);
                }
            }
            let walk: Vec<u32> = (0..n as u32).filter(|&v| !assigned[v as usize]).collect();
            for (pick, &expected) in walk.iter().enumerate() {
                assert_eq!(index.nth(pick), expected, "n={n} pick={pick}");
            }
        }
    }

    /// Selecting inside one word: every set bit of a few patterns, found
    /// by rank.
    #[test]
    fn select_finds_each_set_bit_by_rank() {
        for word in [
            1u64,
            u64::MAX,
            1 << 63,
            0x8000_0001_0000_0100,
            0xF0F0_0000_0F0F_00FF,
        ] {
            let bits: Vec<u32> = (0..64).filter(|&b| word >> b & 1 == 1).collect();
            for (rank, &bit) in bits.iter().enumerate() {
                assert_eq!(select(word, rank as u32), bit, "word={word:#x} rank={rank}");
            }
        }
    }
}
