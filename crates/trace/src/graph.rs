//! The interaction graph of Figure 1(d) and the C5 structure analysis.
//!
//! "If the number of ratings between node i to node j exceeds 20, we drew an
//! edge between the two nodes. … The black nodes on the graph are suspected
//! colluders since they rate each other with high rating frequency. … the
//! suspected colluders rate each other in pairs. There is no closed
//! structure with 3 or more nodes. … The figure has three nodes connecting
//! together, but they are still in a pair-wise manner."
//!
//! [`InteractionGraph`] builds the undirected high-frequency graph and
//! classifies its connected components: isolated **pairs**, acyclic
//! **chains/stars** ("three nodes connecting together … still pair-wise"),
//! and **closed structures** (components containing a cycle — the group
//! collusion the paper never observed, C5).

use crate::model::Trace;
use collusion_reputation::id::NodeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Shape of one connected component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComponentKind {
    /// Exactly two nodes joined by one edge — the canonical colluding pair.
    Pair,
    /// Three or more nodes, acyclic (a chain or star): multiple pair-wise
    /// relations sharing a node, still "pair-wise" per the paper.
    Chain,
    /// Contains a cycle of ≥3 nodes — a closed structure / group collusion.
    Closed,
}

/// One connected component of the interaction graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// Member nodes, ascending.
    pub nodes: Vec<NodeId>,
    /// Number of (undirected) edges among them.
    pub edges: usize,
    /// Structural classification.
    pub kind: ComponentKind,
}

/// Undirected high-frequency interaction graph.
#[derive(Clone, Debug, Default)]
pub struct InteractionGraph {
    adjacency: BTreeMap<NodeId, BTreeSet<NodeId>>,
    edge_count: usize,
}

impl InteractionGraph {
    /// Build the graph from a trace: an undirected edge joins `i` and `j`
    /// when the ratings between them (both directions combined) exceed
    /// `threshold`.
    pub fn from_trace(trace: &Trace, threshold: u64) -> Self {
        let mut counts: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        for r in &trace.records {
            let key = if r.rater < r.ratee { (r.rater, r.ratee) } else { (r.ratee, r.rater) };
            *counts.entry(key).or_default() += 1;
        }
        let mut g = InteractionGraph::default();
        for ((a, b), c) in counts {
            if c > threshold && a != b {
                g.add_edge(a, b);
            }
        }
        g
    }

    /// Insert an undirected edge (idempotent).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(a, b, "self-edges are not allowed");
        let inserted = self.adjacency.entry(a).or_default().insert(b);
        self.adjacency.entry(b).or_default().insert(a);
        if inserted {
            self.edge_count += 1;
        }
    }

    /// Nodes with at least one edge — the paper's "black nodes"
    /// (suspected colluders).
    pub fn nodes(&self) -> Vec<NodeId> {
        self.adjacency.keys().copied().collect()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of a node (0 when absent).
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency.get(&node).map(BTreeSet::len).unwrap_or(0)
    }

    /// Whether `a`–`b` is an edge.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// Connected components, each classified; ordered by smallest member.
    pub fn components(&self) -> Vec<Component> {
        let mut visited: BTreeSet<NodeId> = BTreeSet::new();
        let mut out = Vec::new();
        for &start in self.adjacency.keys() {
            if visited.contains(&start) {
                continue;
            }
            // BFS
            let mut stack = vec![start];
            let mut members = BTreeSet::new();
            members.insert(start);
            visited.insert(start);
            while let Some(n) = stack.pop() {
                for &next in &self.adjacency[&n] {
                    if members.insert(next) {
                        visited.insert(next);
                        stack.push(next);
                    }
                }
            }
            let edges = members.iter().map(|n| self.adjacency[n].len()).sum::<usize>() / 2;
            let kind = if members.len() == 2 {
                ComponentKind::Pair
            } else if edges >= members.len() {
                ComponentKind::Closed
            } else {
                ComponentKind::Chain
            };
            out.push(Component { nodes: members.into_iter().collect(), edges, kind });
        }
        out
    }

    /// Number of triangles (3-cycles) in the graph — zero in the paper's
    /// Overstock observation (C5).
    pub fn triangle_count(&self) -> usize {
        let mut triangles = 0;
        for (&a, neigh) in &self.adjacency {
            for &b in neigh.iter().filter(|&&b| b > a) {
                for &c in self.adjacency[&b].iter().filter(|&&c| c > b) {
                    if neigh.contains(&c) {
                        triangles += 1;
                    }
                }
            }
        }
        triangles
    }

    /// Summary counts by component kind: (pairs, chains, closed).
    pub fn structure_census(&self) -> (usize, usize, usize) {
        let mut pairs = 0;
        let mut chains = 0;
        let mut closed = 0;
        for c in self.components() {
            match c.kind {
                ComponentKind::Pair => pairs += 1,
                ComponentKind::Chain => chains += 1,
                ComponentKind::Closed => closed += 1,
            }
        }
        (pairs, chains, closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TraceRecord;
    use crate::overstock::{generate, OverstockConfig};

    fn n(v: u64) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn edges_require_exceeding_threshold() {
        let mut t = Trace::new(30);
        for d in 0..21u64 {
            t.records.push(TraceRecord { rater: n(1), ratee: n(2), stars: 5, day: d % 30 });
        }
        for d in 0..20u64 {
            t.records.push(TraceRecord { rater: n(3), ratee: n(4), stars: 5, day: d % 30 });
        }
        let g = InteractionGraph::from_trace(&t, 20);
        assert!(g.has_edge(n(1), n(2)));
        assert!(!g.has_edge(n(3), n(4)), "exactly 20 must NOT exceed the threshold");
    }

    #[test]
    fn bidirectional_counts_combine() {
        let mut t = Trace::new(30);
        for d in 0..11u64 {
            t.records.push(TraceRecord { rater: n(1), ratee: n(2), stars: 5, day: d });
            t.records.push(TraceRecord { rater: n(2), ratee: n(1), stars: 5, day: d });
        }
        let g = InteractionGraph::from_trace(&t, 20);
        assert!(g.has_edge(n(1), n(2)), "11+11 combined exceeds 20");
    }

    #[test]
    fn component_kinds() {
        let mut g = InteractionGraph::default();
        // pair
        g.add_edge(n(1), n(2));
        // chain of three ("three nodes connecting together … still pair-wise")
        g.add_edge(n(10), n(11));
        g.add_edge(n(11), n(12));
        // triangle (closed)
        g.add_edge(n(20), n(21));
        g.add_edge(n(21), n(22));
        g.add_edge(n(22), n(20));
        let comps = g.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].kind, ComponentKind::Pair);
        assert_eq!(comps[1].kind, ComponentKind::Chain);
        assert_eq!(comps[2].kind, ComponentKind::Closed);
        assert_eq!(g.structure_census(), (1, 1, 1));
        assert_eq!(g.triangle_count(), 1);
    }

    #[test]
    fn degrees_and_counts() {
        let mut g = InteractionGraph::default();
        g.add_edge(n(1), n(2));
        g.add_edge(n(1), n(3));
        g.add_edge(n(1), n(2)); // duplicate ignored
        assert_eq!(g.degree(n(1)), 2);
        assert_eq!(g.degree(n(2)), 1);
        assert_eq!(g.degree(n(9)), 0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.nodes(), vec![n(1), n(2), n(3)]);
    }

    #[test]
    #[should_panic(expected = "self-edges")]
    fn self_edge_rejected() {
        let mut g = InteractionGraph::default();
        g.add_edge(n(1), n(1));
    }

    #[test]
    fn figure_1d_pairwise_structure_on_synthetic_overstock() {
        let t = generate(&OverstockConfig::paper(0.01, 17));
        let g = InteractionGraph::from_trace(&t.trace, 20);
        let (pairs, _chains, closed) = g.structure_census();
        assert_eq!(closed, 0, "paper observed no closed structures (C5)");
        assert_eq!(g.triangle_count(), 0);
        assert!(pairs >= 28, "expected ≈30 colluding pairs visible, got {pairs}");
        // every ground-truth pair is an edge
        for &(a, b) in &t.pairs {
            assert!(g.has_edge(a, b), "ground-truth pair ({a},{b}) missing");
        }
    }

    #[test]
    fn injected_groups_show_up_as_closed_structures() {
        let mut cfg = OverstockConfig::paper(0.01, 18);
        cfg.colluding_groups = vec![3, 5];
        let t = generate(&cfg);
        let g = InteractionGraph::from_trace(&t.trace, 20);
        let (_, _, closed) = g.structure_census();
        assert_eq!(closed, 2, "both injected groups must appear closed");
        assert!(g.triangle_count() >= 11, "3-clique has 1 triangle, 5-clique has 10");
    }
}
