//! Graphviz (DOT) and GFA export for visual inspection of assembly graphs.
//!
//! Not part of the paper's pipeline, but indispensable for debugging graph
//! algorithms: `dot -Tsvg graph.dot -o graph.svg` renders the output of
//! these functions. Partition assignments render as fill colors.

use crate::digraph::DiGraph;
use crate::level::NodeId;
use std::fmt::Write as _;

/// A small categorical palette; partition `p` uses `PALETTE[p % len]`.
const PALETTE: &[&str] = &[
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462", "#b3de69", "#fccde5",
    "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
];

/// Renders a directed overlap/hybrid graph as DOT. Removed nodes are
/// omitted; edge labels show overlap length and shift.
pub fn digraph_to_dot(g: &DiGraph, parts: Option<&[u32]>) -> String {
    let mut out =
        String::from("digraph overlap {\n  rankdir=LR;\n  node [shape=box, style=filled];\n");
    for v in g.live_nodes() {
        let color = node_color(parts, v);
        let _ = writeln!(out, "  n{v} [label=\"{v}\", fillcolor=\"{color}\"];");
    }
    for v in g.live_nodes() {
        for e in g.out_edges(v) {
            let _ = writeln!(
                out,
                "  n{v} -> n{} [label=\"len={} shift={}\"];",
                e.to, e.len, e.shift
            );
        }
    }
    out.push_str("}\n");
    out
}

fn node_color(parts: Option<&[u32]>, v: NodeId) -> &'static str {
    match parts {
        Some(p) => PALETTE[p[v as usize] as usize % PALETTE.len()],
        None => "#ffffff",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DiEdge;

    #[test]
    fn digraph_dot_omits_removed_nodes() {
        let mut g = DiGraph::from_edges(
            3,
            &[
                (
                    0,
                    DiEdge {
                        to: 1,
                        len: 50,
                        shift: 40,
                    },
                ),
                (
                    1,
                    DiEdge {
                        to: 2,
                        len: 60,
                        shift: 30,
                    },
                ),
            ],
        );
        g.remove_node(2);
        let dot = digraph_to_dot(&g, None);
        assert!(dot.contains("n0 -> n1"));
        assert!(!dot.contains("n2"));
        assert!(dot.contains("len=50 shift=40"));
    }

    #[test]
    fn nodes_are_colored_by_partition() {
        let g = DiGraph::from_edges(2, &[]);
        let dot = digraph_to_dot(&g, Some(&[0, 1]));
        assert!(dot.contains(PALETTE[0]));
        assert!(dot.contains(PALETTE[1]));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn uncolored_nodes_are_white() {
        let g = DiGraph::from_edges(1, &[]);
        let dot = digraph_to_dot(&g, None);
        assert!(dot.contains("#ffffff"));
    }
}

/// Renders a directed hybrid/overlap graph as GFA v1 (the standard
/// assembly-graph interchange format readable by Bandage and friends).
///
/// Each live node becomes an `S` (segment) line whose sequence comes from
/// `segment` (return `None` to emit `*`, sequence omitted). Each edge
/// becomes an `L` (link) line whose overlap is the edge's alignment length
/// as a `<n>M` CIGAR. All segments are emitted on the `+` strand: the
/// assembler's strand-augmented read set made orientation explicit at the
/// node level.
pub fn digraph_to_gfa(g: &DiGraph, segment: impl Fn(NodeId) -> Option<String>) -> String {
    let mut out = String::from("H\tVN:Z:1.0\n");
    for v in g.live_nodes() {
        match segment(v) {
            Some(seq) => {
                let _ = writeln!(out, "S\t{v}\t{seq}\tLN:i:{}", seq.len());
            }
            None => {
                let _ = writeln!(out, "S\t{v}\t*");
            }
        }
    }
    for v in g.live_nodes() {
        for e in g.out_edges(v) {
            let _ = writeln!(out, "L\t{v}\t+\t{}\t+\t{}M", e.to, e.len);
        }
    }
    out
}

#[cfg(test)]
mod gfa_tests {
    use super::*;
    use crate::digraph::DiEdge;

    #[test]
    fn gfa_has_header_segments_and_links() {
        let g = DiGraph::from_edges(
            3,
            &[
                (
                    0,
                    DiEdge {
                        to: 1,
                        len: 55,
                        shift: 45,
                    },
                ),
                (
                    1,
                    DiEdge {
                        to: 2,
                        len: 60,
                        shift: 40,
                    },
                ),
            ],
        );
        let gfa = digraph_to_gfa(&g, |v| {
            if v == 0 {
                Some("ACGT".to_string())
            } else {
                None
            }
        });
        let lines: Vec<&str> = gfa.lines().collect();
        assert_eq!(lines[0], "H\tVN:Z:1.0");
        assert!(lines.contains(&"S\t0\tACGT\tLN:i:4"));
        assert!(lines.contains(&"S\t1\t*"));
        assert!(lines.contains(&"L\t0\t+\t1\t+\t55M"));
        assert!(lines.contains(&"L\t1\t+\t2\t+\t60M"));
    }

    #[test]
    fn gfa_omits_removed_nodes() {
        let mut g = DiGraph::from_edges(
            2,
            &[(
                0,
                DiEdge {
                    to: 1,
                    len: 50,
                    shift: 50,
                },
            )],
        );
        g.remove_node(1);
        let gfa = digraph_to_gfa(&g, |_| None);
        assert!(!gfa.contains("S\t1"));
        assert!(!gfa.contains("L\t"));
    }
}
