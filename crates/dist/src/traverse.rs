//! Distributed graph traversal: maximal-path extraction (paper §V-D).
//!
//! Each worker walks its own partition: starting from an unvisited node, the
//! path extends along out-edges while the edge is the *unique* out-edge of
//! the tail and the *unique* in-edge of its target and the target lies in
//! the same partition; then symmetrically backwards along in-edges. The
//! master joins sub-paths across partition boundaries when the connecting
//! edge is unambiguous on both sides.

use crate::error::DistError;
use fc_graph::{DiGraph, NodeId};

fn cover_violation(message: String) -> DistError {
    DistError::PathCoverViolation(message)
}

/// An extracted path of hybrid nodes, ordered along the target sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssemblyPath {
    /// Node sequence; consecutive nodes are joined by dovetail edges.
    pub nodes: Vec<NodeId>,
}

impl AssemblyPath {
    /// First node of the path.
    ///
    /// # Panics
    ///
    /// Panics on an empty path. Traversal never produces one — every path
    /// starts from a live seed node — so constructing an `AssemblyPath`
    /// with no nodes is a caller bug.
    #[expect(
        clippy::expect_used,
        reason = "AssemblyPath is only constructed by traversal, which always seeds a \
                  path with its start node; the panic is a documented caller-bug guard"
    )]
    pub fn left(&self) -> NodeId {
        *self.nodes.first().expect("paths are non-empty")
    }

    /// Last node of the path.
    ///
    /// # Panics
    ///
    /// Panics on an empty path; see [`AssemblyPath::left`].
    #[expect(
        clippy::expect_used,
        reason = "as for left(): traversal never builds an empty path"
    )]
    pub fn right(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Paths are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// One worker's traversal of its partition: `nodes` are the partition's
/// nodes, ascending. Returns the sub-paths; every live node of the
/// partition appears in exactly one. A neighbor is in the partition when
/// it is in `nodes`, and only `nodes` are marked and scanned, so the walk
/// costs the partition's size, not the graph's.
pub fn worker_paths(g: &DiGraph, nodes: &[NodeId], work: &mut u64) -> Vec<AssemblyPath> {
    debug_assert!(nodes.is_sorted(), "a partition's nodes ascend");
    // `in_path[i]`: `nodes[i]` is on a path already.
    let mut in_path = vec![false; nodes.len()];
    // The index of a not-yet-walked node of this partition.
    let unwalked =
        |in_path: &[bool], u: NodeId| nodes.binary_search(&u).ok().filter(|&i| !in_path[i]);
    let mut paths = Vec::new();
    for (i, &v) in nodes.iter().enumerate() {
        if g.is_removed(v) || in_path[i] {
            continue;
        }
        let mut path = vec![v];
        in_path[i] = true;

        // Extend forward.
        let mut tail = v;
        loop {
            *work += 1;
            if g.out_degree(tail) != 1 {
                break;
            }
            let next = g.out_edges(tail)[0].to;
            if g.in_degree(next) != 1 {
                break;
            }
            let Some(j) = unwalked(&in_path, next) else {
                break;
            };
            path.push(next);
            in_path[j] = true;
            tail = next;
        }
        // Extend backward: append the predecessors nearest first, then
        // reverse them and turn them to the front.
        let ahead = path.len();
        let mut head = v;
        loop {
            *work += 1;
            if g.in_degree(head) != 1 {
                break;
            }
            let prev = g.in_neighbors(head)[0];
            if g.out_degree(prev) != 1 {
                break;
            }
            let Some(j) = unwalked(&in_path, prev) else {
                break;
            };
            path.push(prev);
            in_path[j] = true;
            head = prev;
        }
        let behind = path.len() - ahead;
        path[ahead..].reverse();
        path.rotate_right(behind);
        paths.push(AssemblyPath { nodes: path });
    }
    paths
}

/// Master-side joining of worker sub-paths (paper §V-D): `p1 + p2` join when
/// the right endpoint of `p1` has a single out-edge, it points at the left
/// endpoint of `p2`, and that endpoint has no other in-edges. Joins chain
/// transitively.
pub fn master_join(
    g: &DiGraph,
    mut sub_paths: Vec<AssemblyPath>,
    work: &mut u64,
) -> Vec<AssemblyPath> {
    // Each node's sub-path when it is a left endpoint, for O(1) successor
    // lookup; `NONE` elsewhere.
    const NONE: u32 = u32::MAX;
    let mut left_of = vec![NONE; g.node_count()];
    for (i, p) in sub_paths.iter().enumerate() {
        left_of[p.left() as usize] = i as u32;
    }
    let n = sub_paths.len();
    let mut successor: Vec<Option<usize>> = vec![None; n];
    let mut has_predecessor = vec![false; n];

    for (i, path) in sub_paths.iter().enumerate() {
        *work += 1;
        let tail = path.right();
        if g.out_degree(tail) != 1 {
            continue;
        }
        let next = g.out_edges(tail)[0].to;
        if g.in_degree(next) != 1 {
            continue; // ambiguous join point: keep paths separate
        }
        let j = left_of[next as usize];
        if j != NONE {
            let j = j as usize;
            if i != j && !has_predecessor[j] {
                successor[i] = Some(j);
                has_predecessor[j] = true;
            }
        }
    }

    // Emit chains starting from paths without predecessors. A chain takes
    // its first sub-path's nodes and appends the rest, so a lone sub-path
    // is moved, not copied.
    let mut consumed = vec![false; n];
    let mut joined = Vec::new();
    for start in 0..n {
        if has_predecessor[start] || consumed[start] {
            continue;
        }
        *work += 1;
        consumed[start] = true;
        let mut nodes = std::mem::take(&mut sub_paths[start].nodes);
        let mut cur = successor[start];
        while let Some(i) = cur {
            *work += 1;
            consumed[i] = true;
            nodes.extend_from_slice(&sub_paths[i].nodes);
            cur = successor[i];
        }
        joined.push(AssemblyPath { nodes });
    }
    // Cycles of sub-paths (rare: circular sequences) are skipped above;
    // pick them up so no node is lost.
    for i in 0..n {
        if !consumed[i] {
            consumed[i] = true;
            let mut nodes = std::mem::take(&mut sub_paths[i].nodes);
            let mut cur = i;
            while let Some(j) = successor[cur].filter(|&j| !consumed[j]) {
                consumed[j] = true;
                nodes.extend_from_slice(&sub_paths[j].nodes);
                cur = j;
            }
            joined.push(AssemblyPath { nodes });
        }
    }
    joined
}

/// Validates that `paths` cover every live node exactly once and that
/// consecutive nodes are connected by edges — the structural contract of
/// traversal. [`crate::DistributedHybrid::run_with_faults_obs`] checks it
/// after every run, release builds included, and returns the violation as
/// an error.
pub fn check_path_cover(g: &DiGraph, paths: &[AssemblyPath]) -> Result<(), DistError> {
    let mut seen = vec![false; g.node_count()];
    for path in paths {
        for w in path.nodes.windows(2) {
            if g.edge(w[0], w[1]).is_none() {
                return Err(cover_violation(format!(
                    "path step {}->{} has no edge",
                    w[0], w[1]
                )));
            }
        }
        for &v in &path.nodes {
            if g.is_removed(v) {
                return Err(cover_violation(format!("path contains removed node {v}")));
            }
            if seen[v as usize] {
                return Err(cover_violation(format!("node {v} appears in two paths")));
            }
            seen[v as usize] = true;
        }
    }
    for v in g.live_nodes() {
        if !seen[v as usize] {
            return Err(cover_violation(format!("live node {v} not covered")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_graph::DiEdge;

    fn edge(to: NodeId) -> DiEdge {
        DiEdge {
            to,
            len: 50,
            shift: 50,
        }
    }

    /// The nodes of partition `own`, ascending, as a distributed run lists
    /// them.
    fn part(parts: &[u32], own: u32) -> Vec<NodeId> {
        (0..parts.len() as NodeId)
            .filter(|&v| parts[v as usize] == own)
            .collect()
    }

    fn chain(n: usize) -> DiGraph {
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i as NodeId, edge((i + 1) as NodeId)));
        }
        DiGraph::from_edges(n, &edges)
    }

    #[test]
    fn single_partition_chain_is_one_path() {
        let g = chain(6);
        let parts = vec![0u32; 6];
        let mut work = 0;
        let sub = worker_paths(&g, &part(&parts, 0), &mut work);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].nodes, vec![0, 1, 2, 3, 4, 5]);
        check_path_cover(&g, &sub).unwrap();
    }

    #[test]
    fn paths_stop_at_partition_boundary_and_master_joins() {
        let g = chain(6);
        let parts = vec![0, 0, 0, 1, 1, 1];
        let mut work = 0;
        let mut sub = worker_paths(&g, &part(&parts, 0), &mut work);
        sub.extend(worker_paths(&g, &part(&parts, 1), &mut work));
        assert_eq!(sub.len(), 2);
        let joined = master_join(&g, sub, &mut work);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].nodes, vec![0, 1, 2, 3, 4, 5]);
        check_path_cover(&g, &joined).unwrap();
    }

    #[test]
    fn branch_points_split_paths() {
        // 0→1→2, plus 5→2 (2 has in-degree 2), 2→3→4.
        let mut edges = Vec::new();
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (5, 2)] {
            edges.push((u, edge(v)));
        }
        let g = DiGraph::from_edges(6, &edges);
        let parts = vec![0u32; 6];
        let mut work = 0;
        let sub = worker_paths(&g, &part(&parts, 0), &mut work);
        check_path_cover(&g, &sub).unwrap();
        // No path may run through the ambiguous junction at 2.
        for p in &sub {
            for w in p.nodes.windows(2) {
                assert!(
                    (w[1] != 2),
                    "path continues through ambiguous in-degree-2 node: {:?}",
                    p.nodes
                );
            }
        }
    }

    #[test]
    fn master_does_not_join_ambiguous_boundaries() {
        // Two sub-paths both feeding node 3: 0→1, 2, and 1→3, 2→3.
        let g = DiGraph::from_edges(5, &[(0, edge(1)), (1, edge(3)), (2, edge(3)), (3, edge(4))]);
        let parts = vec![0, 0, 1, 2, 2];
        let mut work = 0;
        let mut sub = worker_paths(&g, &part(&parts, 0), &mut work);
        sub.extend(worker_paths(&g, &part(&parts, 1), &mut work));
        sub.extend(worker_paths(&g, &part(&parts, 2), &mut work));
        let joined = master_join(&g, sub, &mut work);
        check_path_cover(&g, &joined).unwrap();
        // Node 3 has in-degree 2: nothing may join onto the path starting
        // at 3.
        for p in &joined {
            if p.nodes.contains(&3) {
                assert_eq!(p.left(), 3, "ambiguous join performed: {:?}", p.nodes);
            }
        }
    }

    #[test]
    fn cycles_are_preserved() {
        let g = DiGraph::from_edges(3, &[(0, edge(1)), (1, edge(2)), (2, edge(0))]);
        let parts = vec![0u32; 3];
        let mut work = 0;
        let sub = worker_paths(&g, &part(&parts, 0), &mut work);
        let joined = master_join(&g, sub, &mut work);
        check_path_cover(&g, &joined).unwrap();
        assert_eq!(joined.iter().map(|p| p.len()).sum::<usize>(), 3);
    }

    #[test]
    fn removed_nodes_not_traversed() {
        let mut g = chain(4);
        g.remove_node(2);
        let parts = vec![0u32; 4];
        let mut work = 0;
        let sub = worker_paths(&g, &part(&parts, 0), &mut work);
        check_path_cover(&g, &sub).unwrap();
        assert_eq!(sub.iter().map(|p| p.len()).sum::<usize>(), 3);
    }

    /// A chain whose smallest id is its tail: the walk starts there and
    /// grows the whole path backward, 4 999 steps, in linear time, and the
    /// path is the one the insert-at-front walk builds.
    #[test]
    fn long_backward_extension_is_the_reference_path() {
        let n = 5_000;
        let edges: Vec<_> = (1..n as NodeId).map(|v| (v, edge(v - 1))).collect();
        let g = DiGraph::from_edges(n, &edges);
        let parts = vec![0u32; n];
        let (mut work, mut ref_work) = (0, 0);
        let sub = worker_paths(&g, &part(&parts, 0), &mut work);
        let ref_sub = reference::worker_paths(&g, &parts, 0, &mut ref_work);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].nodes, (0..n as NodeId).rev().collect::<Vec<_>>());
        assert_eq!(sub, ref_sub);
        assert_eq!(work, ref_work);
    }
}

/// Traversal as it was before rank-local marks: every worker scans all
/// nodes for its own and grows paths backward by inserting at the front;
/// the master indexes sub-paths in a `HashMap` and copies each one. Kept as
/// the oracle [`differential`] compares against.
#[cfg(test)]
mod reference {
    use super::AssemblyPath;
    use fc_graph::{DiGraph, NodeId};
    use std::collections::HashMap;

    pub(super) fn worker_paths(
        g: &DiGraph,
        parts: &[u32],
        own: u32,
        work: &mut u64,
    ) -> Vec<AssemblyPath> {
        let mut in_path = vec![false; g.node_count()];
        let mut paths = Vec::new();
        for v in 0..g.node_count() as NodeId {
            if parts[v as usize] != own || g.is_removed(v) || in_path[v as usize] {
                continue;
            }
            let mut nodes = vec![v];
            in_path[v as usize] = true;

            // Extend forward.
            let mut tail = v;
            loop {
                *work += 1;
                if g.out_degree(tail) != 1 {
                    break;
                }
                let next = g.out_edges(tail)[0].to;
                if g.in_degree(next) != 1 || parts[next as usize] != own || in_path[next as usize] {
                    break;
                }
                nodes.push(next);
                in_path[next as usize] = true;
                tail = next;
            }
            // Extend backward.
            let mut head = v;
            loop {
                *work += 1;
                if g.in_degree(head) != 1 {
                    break;
                }
                let prev = g.in_neighbors(head)[0];
                if g.out_degree(prev) != 1 || parts[prev as usize] != own || in_path[prev as usize]
                {
                    break;
                }
                nodes.insert(0, prev);
                in_path[prev as usize] = true;
                head = prev;
            }
            paths.push(AssemblyPath { nodes });
        }
        paths
    }

    pub(super) fn master_join(
        g: &DiGraph,
        sub_paths: Vec<AssemblyPath>,
        work: &mut u64,
    ) -> Vec<AssemblyPath> {
        let left_of: HashMap<NodeId, usize> = sub_paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.left(), i))
            .collect();
        let n = sub_paths.len();
        let mut successor: Vec<Option<usize>> = vec![None; n];
        let mut has_predecessor = vec![false; n];

        for (i, path) in sub_paths.iter().enumerate() {
            *work += 1;
            let tail = path.right();
            if g.out_degree(tail) != 1 {
                continue;
            }
            let next = g.out_edges(tail)[0].to;
            if g.in_degree(next) != 1 {
                continue;
            }
            if let Some(&j) = left_of.get(&next) {
                if i != j && !has_predecessor[j] {
                    successor[i] = Some(j);
                    has_predecessor[j] = true;
                }
            }
        }

        let mut consumed = vec![false; n];
        let mut joined = Vec::new();
        for start in 0..n {
            if has_predecessor[start] || consumed[start] {
                continue;
            }
            let mut nodes = Vec::new();
            let mut cur = Some(start);
            while let Some(i) = cur {
                *work += 1;
                consumed[i] = true;
                nodes.extend(sub_paths[i].nodes.iter().copied());
                cur = successor[i];
            }
            joined.push(AssemblyPath { nodes });
        }
        for i in 0..n {
            if !consumed[i] {
                let mut nodes = Vec::new();
                let mut cur = i;
                loop {
                    consumed[cur] = true;
                    nodes.extend(sub_paths[cur].nodes.iter().copied());
                    match successor[cur] {
                        Some(j) if !consumed[j] => cur = j,
                        _ => break,
                    }
                }
                joined.push(AssemblyPath { nodes });
            }
        }
        joined
    }
}

#[cfg(test)]
mod differential {
    use super::*;
    use fc_graph::DiEdge;
    use fc_rng::Rng;

    /// A random graph of unary runs along the id order or a shuffled one,
    /// with extra edges that make branch points, runs closed into cycles,
    /// and some nodes removed.
    fn random_graph(rng: &mut Rng) -> DiGraph {
        let n = rng.range(1usize..400);
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        if rng.bool(0.5) {
            rng.shuffle(&mut order);
        }
        let e = |to| DiEdge {
            to,
            len: 50,
            shift: 50,
        };
        let mut edges = Vec::new();
        let mut run_start = 0;
        for i in 1..n {
            if rng.bool(0.85) {
                edges.push((order[i - 1], e(order[i])));
            } else {
                if rng.bool(0.2) && i - 1 > run_start {
                    edges.push((order[i - 1], e(order[run_start])));
                }
                run_start = i;
            }
        }
        for _ in 0..rng.range(0..=n / 8) {
            let (u, v) = (rng.range(0..n), rng.range(0..n));
            edges.push((u as NodeId, e(v as NodeId)));
        }
        let mut g = DiGraph::from_edges(n, &edges);
        for v in 0..n as NodeId {
            if rng.bool(0.05) {
                g.remove_node(v);
            }
        }
        g
    }

    /// Random parts in `0..k`: scattered node by node, or in blocks of
    /// consecutive ids.
    fn random_parts(rng: &mut Rng, n: usize) -> (Vec<u32>, usize) {
        let k = rng.range(1usize..=64);
        let parts = if rng.bool(0.5) {
            (0..n).map(|_| rng.range(0..k) as u32).collect()
        } else {
            let block = rng.range(1..=n.max(1));
            (0..n).map(|v| ((v / block) % k) as u32).collect()
        };
        (parts, k)
    }

    /// Same sub-paths and work per rank, and the same joined paths and
    /// master work, as the full-scan walk and the `HashMap` join.
    #[test]
    fn traversal_matches_reference_on_random_graphs_and_partitions() {
        fc_rng::cases(200, |rng| {
            let g = random_graph(rng);
            let (parts, k) = random_parts(rng, g.node_count());
            let mut lists = vec![Vec::new(); k];
            for v in 0..g.node_count() as NodeId {
                lists[parts[v as usize] as usize].push(v);
            }
            let (mut sub, mut ref_sub) = (Vec::new(), Vec::new());
            for (own, nodes) in lists.iter().enumerate() {
                let (mut work, mut ref_work) = (0, 0);
                let paths = worker_paths(&g, nodes, &mut work);
                let ref_paths = reference::worker_paths(&g, &parts, own as u32, &mut ref_work);
                assert_eq!(paths, ref_paths, "rank {own} of {k}");
                assert_eq!(work, ref_work, "rank {own} of {k}");
                sub.extend(paths);
                ref_sub.extend(ref_paths);
            }
            let (mut work, mut ref_work) = (0, 0);
            let joined = master_join(&g, sub, &mut work);
            assert_eq!(joined, reference::master_join(&g, ref_sub, &mut ref_work));
            assert_eq!(work, ref_work);
            check_path_cover(&g, &joined).unwrap();
        });
    }
}
