//! Seeded graph families for the differential tests in [`crate::grow`],
//! [`crate::kl`] and [`crate::kway`].

use fc_graph::LevelGraph;
use fc_rng::Rng;

/// The shapes the partitioner meets, plus the ones that stress tie-breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    Path,
    TwoCliquesBridge,
    Star,
    SparseRandom,
    DenseRandom,
    /// Every edge and node weighs 1: gains tie constantly.
    AllEqual,
    /// What the hybrid graph set looks like: at least 90 % isolated nodes,
    /// the rest in chains of 2–6.
    HybridLike,
    /// One node carries half the total weight.
    HeavyNode,
}

pub(crate) const FAMILIES: [Family; 8] = [
    Family::Path,
    Family::TwoCliquesBridge,
    Family::Star,
    Family::SparseRandom,
    Family::DenseRandom,
    Family::AllEqual,
    Family::HybridLike,
    Family::HeavyNode,
];

pub(crate) const SIZES: [usize; 7] = [0, 1, 2, 3, 17, 300, 2_000];

/// Seeds per `(family, size)`: many small cases, few large ones — the
/// oracles are quadratic and `cargo test` runs them unoptimized.
pub(crate) fn seeds_for(n: usize) -> std::ops::Range<u64> {
    match n {
        0..=3 => 0..2,
        4..=17 => 0..6,
        18..=300 => 0..2,
        _ => 0..1,
    }
}

/// Adds `edges` random edges. Up to 300 nodes both endpoints are uniform;
/// above, the second lies within eight ids of the first, so that a block
/// start is a decent partition the way a projected bisection is — from a
/// start that cuts everything the oracles need minutes unoptimized.
fn random_edges(g: &mut Vec<(u32, u32, u32)>, n: usize, rng: &mut Rng, edges: usize, max_w: u32) {
    if n < 2 {
        return;
    }
    let span = if n > 300 { 8 } else { n - 1 };
    for _ in 0..edges {
        let u = rng.range(0..n);
        let v = (u + 1 + rng.range(0..span)) % n;
        g.push((u as u32, v as u32, rng.range(1..=max_w)));
    }
}

/// Builds the `n`-node member of `family` for `seed`.
pub(crate) fn build(family: Family, n: usize, seed: u64) -> LevelGraph {
    let mut rng = Rng::new(seed ^ ((family as u64) << 40) ^ ((n as u64) << 20));
    let mut weights = vec![1u32; n];
    let mut g = Vec::new();
    match family {
        Family::Path => {
            for i in 1..n {
                g.push((i as u32 - 1, i as u32, rng.range(1..=60)));
            }
        }
        Family::TwoCliquesBridge => {
            // Cliques are capped so the 2 000-node case stays quadratic in
            // the cap, not in `n`; the remainder hangs off as two tails.
            let half = n / 2;
            let clique = half.min(24);
            for base in [0, half] {
                for i in 0..clique {
                    for j in i + 1..clique {
                        g.push(((base + i) as u32, (base + j) as u32, 10));
                    }
                }
                for i in clique.max(1)..half {
                    g.push(((base + i - 1) as u32, (base + i) as u32, 3));
                }
            }
            if half > 0 && half < n {
                g.push((0, half as u32, 1));
            }
        }
        Family::Star => {
            for i in 1..n {
                g.push((0, i as u32, rng.range(1..=9)));
            }
        }
        Family::SparseRandom => {
            random_edges(&mut g, n, &mut rng, n + n / 2, 50);
        }
        Family::DenseRandom => {
            // Average degree up to 16 (complete below 9 nodes); 12 above 300.
            random_edges(
                &mut g,
                n,
                &mut rng,
                n * if n > 300 { 6 } else { n.min(8) },
                30,
            );
        }
        Family::AllEqual => {
            random_edges(&mut g, n, &mut rng, 3 * n, 1);
        }
        Family::HybridLike => {
            // Chains cover about 5 % of the nodes, scattered over the ids.
            let mut v = 0usize;
            while v < n {
                if rng.range(0..80) == 0 {
                    let len = rng.range(2..7).min(n - v);
                    for i in 1..len {
                        g.push(((v + i - 1) as u32, (v + i) as u32, rng.range(20..100)));
                    }
                    v += len;
                } else {
                    v += 1;
                }
            }
        }
        Family::HeavyNode => {
            if n > 0 {
                weights[rng.range(0..n)] = n as u32;
            }
            random_edges(&mut g, n, &mut rng, 2 * n, 20);
        }
    }
    LevelGraph::from_edges(weights, &g)
}

/// Every `(family, size, seed)` case with its graph.
pub(crate) fn cases() -> impl Iterator<Item = (Family, usize, u64, LevelGraph)> {
    FAMILIES.into_iter().flat_map(|family| {
        SIZES.into_iter().flat_map(move |n| {
            seeds_for(n).map(move |seed| (family, n, seed, build(family, n, seed)))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_like_is_mostly_isolated_nodes() {
        for seed in 0..4 {
            let g = build(Family::HybridLike, 2_000, seed);
            let isolated = (0..2_000).filter(|&v| g.degree(v) == 0).count();
            assert!(isolated >= 1_800, "only {isolated} isolated nodes");
            assert!(isolated < 2_000, "no chains at all");
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn every_family_builds_every_size() {
        for (family, n, seed, g) in cases() {
            assert_eq!(g.node_count(), n, "{family:?} seed {seed}");
            g.check_invariants().unwrap();
        }
    }
}
