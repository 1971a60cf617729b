//! Distributed variant detection on the hybrid graph.
//!
//! The paper's discussion (§VI-D) names variant detection as the next
//! analysis to run on the distributed hybrid graph: "For example, variant
//! detection algorithms can be implemented to be run on the distributed
//! hybrid graph." This module implements that extension.
//!
//! A *variant site* is a bubble whose two branches both carry substantial
//! read support — unlike an error bubble (one thin branch, removed by
//! [`crate::error_removal`]), a balanced bubble is evidence of genuine sequence
//! polymorphism (a strain variant in a metagenome, a heterozygous site in a
//! diploid). Workers scan their own partitions for such bubbles and emit
//! candidate records; the master deduplicates. The graph is *not* mutated:
//! variant detection is a read-only analysis pass.

use crate::cluster::SimCluster;
use fc_graph::{DiGraph, NodeId};
use fc_seq::DnaString;
use std::collections::HashSet;

/// Limits and thresholds for variant calling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantConfig {
    /// Maximum nodes in one bubble branch.
    pub max_branch_len: usize,
    /// Minimum read support (cluster size sum) on *each* branch; below
    /// this, the bubble is an error candidate, not a variant.
    pub min_branch_support: u64,
    /// Minimum support ratio `min(a, b) / max(a, b)` for a balanced bubble.
    pub min_support_ratio: f64,
}

impl Default for VariantConfig {
    fn default() -> VariantConfig {
        VariantConfig {
            max_branch_len: 6,
            min_branch_support: 2,
            min_support_ratio: 0.2,
        }
    }
}

/// One candidate variant site.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Node where the branches diverge.
    pub opens_at: NodeId,
    /// Node where the branches reconverge.
    pub closes_at: NodeId,
    /// Interior nodes of the better-supported branch.
    pub major_branch: Vec<NodeId>,
    /// Interior nodes of the lesser-supported branch.
    pub minor_branch: Vec<NodeId>,
    /// Read support of the major branch.
    pub major_support: u64,
    /// Read support of the minor branch.
    pub minor_support: u64,
}

impl Variant {
    /// Support ratio `minor / major` in `(0, 1]`.
    pub fn support_ratio(&self) -> f64 {
        if self.major_support == 0 {
            0.0
        } else {
            self.minor_support as f64 / self.major_support as f64
        }
    }

    /// Canonical key for master-side deduplication.
    fn key(&self) -> (NodeId, NodeId, Vec<NodeId>, Vec<NodeId>) {
        (
            self.opens_at,
            self.closes_at,
            self.major_branch.clone(),
            self.minor_branch.clone(),
        )
    }
}

/// Interior paths reachable from `start` within `max_len` hops, excluding
/// walks that pass back through `origin`. Maps each reached node to the
/// interior nodes of the (BFS-shortest) path `start … node`, exclusive of
/// `node` itself but inclusive of `start`.
fn branch_paths(
    g: &DiGraph,
    origin: NodeId,
    start: NodeId,
    max_len: usize,
    work: &mut u64,
) -> std::collections::HashMap<NodeId, Vec<NodeId>> {
    let mut paths = std::collections::HashMap::new();
    paths.insert(start, Vec::new());
    let mut frontier = vec![start];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for &u in &frontier {
            let mut to_u = paths[&u].clone();
            to_u.push(u);
            for e in g.out_edges(u) {
                *work += 1;
                if e.to == origin || paths.contains_key(&e.to) {
                    continue;
                }
                paths.insert(e.to, to_u.clone());
                next.push(e.to);
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    paths
}

/// One worker's variant scan over its partition.
///
/// For every branching node `v`, each pair of out-neighbors is probed with
/// bounded BFS; if the two branches reconverge on a common node `w`, the two
/// interior paths form a bubble `v → … → w`. Real hybrid graphs produced by
/// strain mixtures are not clean unary diamonds (flank contigs cross-link
/// the branches), which is why reconvergence is detected by reachability
/// rather than unary-chain walking.
pub fn worker_scan(
    g: &DiGraph,
    nodes: &[NodeId],
    support: &[u64],
    config: &VariantConfig,
    work: &mut u64,
) -> Vec<Variant> {
    let mut variants = Vec::new();
    for &v in nodes {
        if g.is_removed(v) || g.out_degree(v) < 2 {
            continue;
        }
        let starts: Vec<NodeId> = g.out_edges(v).iter().map(|e| e.to).collect();
        let maps: Vec<_> = starts
            .iter()
            .map(|&s| branch_paths(g, v, s, config.max_branch_len, work))
            .collect();
        for i in 0..starts.len() {
            for j in i + 1..starts.len() {
                *work += 1;
                // Nearest reconvergence: common reachable node with the
                // smallest combined interior length.
                let mut best: Option<(usize, NodeId)> = None;
                for (&w, path_i) in &maps[i] {
                    if let Some(path_j) = maps[j].get(&w) {
                        // A branch start appearing on the other path means
                        // the "branches" are nested, not parallel.
                        if w == starts[i] || w == starts[j] {
                            continue;
                        }
                        let cost = path_i.len() + path_j.len();
                        if best.is_none_or(|(c, bw)| cost < c || (cost == c && w < bw)) {
                            best = Some((cost, w));
                        }
                    }
                }
                let Some((_, w)) = best else { continue };
                let int_i = &maps[i][&w];
                let int_j = &maps[j][&w];
                if int_i.iter().any(|n| int_j.contains(n)) {
                    continue; // shared interior: not two alleles
                }
                let weight = |interior: &[NodeId]| -> u64 {
                    interior.iter().map(|&n| support[n as usize]).sum()
                };
                let (wi, wj) = (weight(int_i), weight(int_j));
                let (major, minor, w_major, w_minor) = if wi >= wj {
                    (int_i.clone(), int_j.clone(), wi, wj)
                } else {
                    (int_j.clone(), int_i.clone(), wj, wi)
                };
                if w_minor < config.min_branch_support {
                    continue; // an error bubble, not a variant
                }
                if w_major > 0 && (w_minor as f64 / w_major as f64) < config.min_support_ratio {
                    continue;
                }
                variants.push(Variant {
                    opens_at: v,
                    closes_at: w,
                    major_branch: major,
                    minor_branch: minor,
                    major_support: w_major,
                    minor_support: w_minor,
                });
            }
        }
    }
    variants
}

/// Extracts the two allele sequences of a variant from per-node contigs
/// (concatenated branch interiors; empty for a pure deletion branch).
pub fn allele_sequences(variant: &Variant, contigs: &[DnaString]) -> (DnaString, DnaString) {
    let concat = |branch: &[NodeId]| {
        let mut seq = DnaString::new();
        for &n in branch {
            seq.extend_from(&contigs[n as usize]);
        }
        seq
    };
    (concat(&variant.major_branch), concat(&variant.minor_branch))
}

/// Runs the distributed variant scan over a partitioned hybrid graph:
/// every partition's worker scans concurrently (simulated), results are
/// gathered and deduplicated by the master. Returns the variants and the
/// virtual makespan.
pub fn detect_variants(
    g: &DiGraph,
    parts: &[u32],
    k: usize,
    support: &[u64],
    config: &VariantConfig,
    cluster: &mut SimCluster,
) -> Vec<Variant> {
    let mut lists = vec![Vec::new(); k];
    for v in 0..g.node_count() as NodeId {
        if !g.is_removed(v) {
            lists[parts[v as usize] as usize].push(v);
        }
    }
    let mut found = Vec::new();
    let mut works = Vec::with_capacity(k);
    for nodes in &lists {
        let mut w = 0;
        found.push(worker_scan(g, nodes, support, config, &mut w));
        works.push(w);
    }
    cluster.run_phase(&works);
    let payloads: Vec<u64> = found.iter().map(|f| 32 * f.len() as u64).collect();
    cluster.gather_to_master(&payloads);

    // Master: deduplicate (a bubble whose open/close nodes sit in different
    // partitions is reported by both owners).
    let mut seen = HashSet::new();
    let mut unique = Vec::new();
    for v in found.into_iter().flatten() {
        if seen.insert(v.key()) {
            unique.push(v);
        }
    }
    unique.sort_by_key(|v| (v.opens_at, v.closes_at));
    unique
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::CostModel;
    use fc_graph::DiEdge;

    fn edge(to: NodeId) -> DiEdge {
        DiEdge {
            to,
            len: 50,
            shift: 50,
        }
    }

    /// Balanced diamond: 0→{1,2}→3→4; both branches well supported.
    fn balanced_bubble() -> (DiGraph, Vec<u64>) {
        let g = DiGraph::from_edges(
            5,
            &[
                (0, edge(1)),
                (0, edge(2)),
                (1, edge(3)),
                (2, edge(3)),
                (3, edge(4)),
            ],
        );
        (g, vec![20, 9, 7, 20, 20])
    }

    #[test]
    fn balanced_bubble_is_a_variant() {
        let (g, support) = balanced_bubble();
        let mut work = 0;
        let variants = worker_scan(
            &g,
            &[0, 1, 2, 3, 4],
            &support,
            &VariantConfig::default(),
            &mut work,
        );
        assert_eq!(variants.len(), 1);
        let v = &variants[0];
        assert_eq!(v.opens_at, 0);
        assert_eq!(v.closes_at, 3);
        assert_eq!(v.major_branch, vec![1]);
        assert_eq!(v.minor_branch, vec![2]);
        assert_eq!(v.major_support, 9);
        assert_eq!(v.minor_support, 7);
        assert!((v.support_ratio() - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn error_bubble_is_not_a_variant() {
        let (g, mut support) = balanced_bubble();
        support[2] = 1; // thin branch: error, not polymorphism
        let mut work = 0;
        let variants = worker_scan(
            &g,
            &[0, 1, 2, 3, 4],
            &support,
            &VariantConfig::default(),
            &mut work,
        );
        assert!(
            variants.is_empty(),
            "error bubble reported as variant: {variants:?}"
        );
    }

    #[test]
    fn unbalanced_support_ratio_filtered() {
        let (g, mut support) = balanced_bubble();
        support[1] = 100;
        support[2] = 5; // ratio 0.05 < 0.2
        let mut work = 0;
        let variants = worker_scan(
            &g,
            &[0, 1, 2, 3, 4],
            &support,
            &VariantConfig::default(),
            &mut work,
        );
        assert!(variants.is_empty());
    }

    #[test]
    fn distributed_scan_deduplicates_cross_partition_sites() {
        let (g, support) = balanced_bubble();
        let parts = vec![0u32, 1, 0, 1, 1];
        let mut cluster = SimCluster::new(2, CostModel::default()).unwrap();
        let variants = detect_variants(
            &g,
            &parts,
            2,
            &support,
            &VariantConfig::default(),
            &mut cluster,
        );
        assert_eq!(
            variants.len(),
            1,
            "cross-partition bubble must dedup: {variants:?}"
        );
        assert!(cluster.messages() >= 2);
    }

    #[test]
    fn allele_sequences_concatenate_branch_contigs() {
        let (g, support) = balanced_bubble();
        let _ = (g, support);
        let contigs: Vec<DnaString> = ["AAAA", "CCGG", "TTTT", "GGGG", "ACGT"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let v = Variant {
            opens_at: 0,
            closes_at: 3,
            major_branch: vec![1],
            minor_branch: vec![2],
            major_support: 9,
            minor_support: 7,
        };
        let (major, minor) = allele_sequences(&v, &contigs);
        assert_eq!(major.to_string(), "CCGG");
        assert_eq!(minor.to_string(), "TTTT");
    }

    #[test]
    fn graph_is_not_mutated() {
        let (g, support) = balanced_bubble();
        let before_edges = g.edge_count();
        let mut cluster = SimCluster::new(1, CostModel::default()).unwrap();
        let parts = vec![0u32; 5];
        detect_variants(
            &g,
            &parts,
            1,
            &support,
            &VariantConfig::default(),
            &mut cluster,
        );
        assert_eq!(g.edge_count(), before_edges);
        assert_eq!(g.live_node_count(), 5);
    }
}
