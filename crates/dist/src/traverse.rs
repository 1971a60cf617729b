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
use std::collections::HashMap;

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
    pub fn left(&self) -> NodeId {
        *self.nodes.first().expect("paths are non-empty")
    }

    /// Last node of the path.
    ///
    /// # Panics
    ///
    /// Panics on an empty path; see [`AssemblyPath::left`].
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

/// One worker's traversal of its partition. `parts[v]` gives every node's
/// partition; `own` is this worker's partition id. Returns the sub-paths;
/// every live node of the partition appears in exactly one.
pub fn worker_paths(g: &DiGraph, parts: &[u32], own: u32, work: &mut u64) -> Vec<AssemblyPath> {
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
            if g.out_degree(prev) != 1 || parts[prev as usize] != own || in_path[prev as usize] {
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

/// Master-side joining of worker sub-paths (paper §V-D): `p1 + p2` join when
/// the right endpoint of `p1` has a single out-edge, it points at the left
/// endpoint of `p2`, and that endpoint has no other in-edges. Joins chain
/// transitively.
pub fn master_join(g: &DiGraph, sub_paths: Vec<AssemblyPath>, work: &mut u64) -> Vec<AssemblyPath> {
    // Map each path's left endpoint to its index for O(1) successor lookup.
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
            continue; // ambiguous join point: keep paths separate
        }
        if let Some(&j) = left_of.get(&next) {
            if i != j && !has_predecessor[j] {
                successor[i] = Some(j);
                has_predecessor[j] = true;
            }
        }
    }

    // Emit chains starting from paths without predecessors.
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
    // Cycles of sub-paths (rare: circular sequences) are skipped above;
    // pick them up so no node is lost.
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

/// Validates that `paths` cover every live node exactly once and that
/// consecutive nodes are connected by edges — the structural contract of
/// traversal. Used by tests and the driver's debug assertions.
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
        let sub = worker_paths(&g, &parts, 0, &mut work);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].nodes, vec![0, 1, 2, 3, 4, 5]);
        check_path_cover(&g, &sub).unwrap();
    }

    #[test]
    fn paths_stop_at_partition_boundary_and_master_joins() {
        let g = chain(6);
        let parts = vec![0, 0, 0, 1, 1, 1];
        let mut work = 0;
        let mut sub = worker_paths(&g, &parts, 0, &mut work);
        sub.extend(worker_paths(&g, &parts, 1, &mut work));
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
        let sub = worker_paths(&g, &parts, 0, &mut work);
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
        let mut sub = worker_paths(&g, &parts, 0, &mut work);
        sub.extend(worker_paths(&g, &parts, 1, &mut work));
        sub.extend(worker_paths(&g, &parts, 2, &mut work));
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
        let sub = worker_paths(&g, &parts, 0, &mut work);
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
        let sub = worker_paths(&g, &parts, 0, &mut work);
        check_path_cover(&g, &sub).unwrap();
        assert_eq!(sub.iter().map(|p| p.len()).sum::<usize>(), 3);
    }
}
