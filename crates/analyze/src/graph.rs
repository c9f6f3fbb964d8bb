//! Predicate dependency graph and strongly connected components.
//!
//! [`Digraph`] is the one graph the analyzer searches — Tarjan's algorithm
//! and the shortest in-component path behind every witness cycle — for the
//! predicate graph here and the position graph of the termination pass.
//! Its Tarjan is `wfdl_core::scc::tarjan`, the one the engine condenses
//! ground programs with, so the analyzer stays a leaf crate over
//! `wfdl-core`.
//!
//! Nodes of the predicate graph are predicates (dense [`PredId`]s); an edge `h → b` records that a
//! rule with head `h` reads `b` in its body, with negative polarity when the
//! body literal is negated. The SCC decomposition drives the stratification
//! report.

use std::collections::VecDeque;
use wfdl_core::csr::Csr;
use wfdl_core::scc::{tarjan, Identity};
use wfdl_core::{PredId, SkolemProgram};

/// A directed graph over the dense nodes `0..n`: the one graph type the
/// analyzer's passes search. Edges are numbered in the order they were
/// given, and row `v` of one CSR holds node `v`'s out-edges in that order
/// (a stable counting sort), so component ids and witness paths follow
/// the program's rule order.
#[derive(Debug)]
pub struct Digraph {
    /// Edge → the node it leads to.
    to: Vec<u32>,
    /// Row `v`: the out-edges of node `v`.
    out: Csr<u32>,
}

impl Digraph {
    /// The graph over `nodes` nodes with the edges `(from, to)`, numbered
    /// in order.
    pub fn new(nodes: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Digraph {
        let by_source = (edges.clone().enumerate()).map(|(e, (from, _))| (from, e as u32));
        Digraph {
            to: edges.map(|(_, to)| to).collect(),
            out: Csr::count(nodes, by_source),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.out.num_rows()
    }

    /// The out-edges of node `v`, in edge order.
    pub fn out_edges(&self, v: usize) -> &[u32] {
        self.out.row(v)
    }

    /// Strongly connected components: `wfdl_core`'s Tarjan with every
    /// node a root, in node order. Returns the component id of each node;
    /// ids are dense, in emission order, and deterministic for a given
    /// edge order.
    pub fn sccs(&self) -> Vec<u32> {
        let n = wfdl_core::dense_u32(self.num_nodes(), "graph node");
        let succ = |v: u32| (self.out_edges(v as usize).iter()).map(|&e| self.to[e as usize]);
        tarjan(n, &mut Identity, succ).comp_of
    }

    /// Shortest path `from ⇝ to` restricted to one component (BFS over
    /// edges whose endpoints share `comp[..] == cid`). Returns the edges
    /// traversed, in order (none when `from == to`), or `None` if `to` is
    /// unreachable.
    pub fn path_within_component(
        &self,
        comp: &[u32],
        cid: u32,
        from: usize,
        to: usize,
    ) -> Option<Vec<u32>> {
        // Per node: the node and the edge it was reached through.
        let mut prev: Vec<Option<(usize, u32)>> = vec![None; self.num_nodes()];
        let mut seen = vec![false; self.num_nodes()];
        let mut queue = VecDeque::new();
        seen[from] = true;
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            if v == to {
                let mut edges = Vec::new();
                let mut cur = to;
                while let Some((p, e)) = prev[cur] {
                    edges.push(e);
                    cur = p;
                }
                edges.reverse();
                return Some(edges);
            }
            for &e in self.out_edges(v) {
                let w = self.to[e as usize] as usize;
                if comp[w] == cid && !seen[w] {
                    seen[w] = true;
                    prev[w] = Some((v, e));
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

/// One dependency edge `from → to` (head reads body).
#[derive(Clone, Copy, Debug)]
pub struct DepEdge {
    /// Head predicate of the contributing rule.
    pub from: PredId,
    /// Body predicate read by the rule.
    pub to: PredId,
    /// True when the body literal is negated.
    pub negated: bool,
    /// Index of the contributing rule in the program.
    pub rule: usize,
}

/// Predicate dependency graph over a skolemized program.
#[derive(Debug)]
pub struct PredGraph {
    /// All edges, in rule order (deterministic).
    pub edges: Vec<DepEdge>,
    /// The same edges over predicate indices.
    pub graph: Digraph,
}

impl PredGraph {
    /// Builds the dependency graph of `program` over `num_preds` predicates.
    pub fn build(num_preds: usize, program: &SkolemProgram) -> PredGraph {
        let mut edges = Vec::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            let body = (rule.body_pos.iter().map(|a| (a, false)))
                .chain(rule.body_neg.iter().map(|a| (a, true)));
            for (a, negated) in body {
                edges.push(DepEdge {
                    from: rule.head_pred,
                    to: a.pred,
                    negated,
                    rule: ri,
                });
            }
        }
        let ends = edges
            .iter()
            .map(|e| (e.from.index() as u32, e.to.index() as u32));
        let graph = Digraph::new(num_preds, ends);
        PredGraph { edges, graph }
    }

    /// Number of predicate nodes.
    pub fn num_preds(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Shortest path `from ⇝ to` within component `cid` (see
    /// [`Digraph::path_within_component`]), as the predicates it visits,
    /// both endpoints included.
    pub fn path_within_component(
        &self,
        comp: &[u32],
        cid: u32,
        from: PredId,
        to: PredId,
    ) -> Option<Vec<PredId>> {
        let edges = self
            .graph
            .path_within_component(comp, cid, from.index(), to.index())?;
        let visited = edges.iter().map(|&e| self.edges[e as usize].to);
        Some(std::iter::once(from).chain(visited).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_core::{HeadTerm, RTerm, RuleAtom, SkolemRule, Universe, Var};

    fn v(i: u32) -> RTerm {
        RTerm::Var(Var::new(i))
    }

    fn rule(u: &Universe, head: PredId, pos: &[PredId], neg: &[PredId]) -> SkolemRule {
        // All atoms unary over the same variable: guard trivially holds.
        let mk = |p: &PredId| RuleAtom::new(*p, vec![v(0)]);
        SkolemRule::new(
            u,
            pos.iter().map(mk).collect(),
            neg.iter().map(mk).collect(),
            head,
            vec![HeadTerm::Var(Var::new(0))],
        )
        .unwrap()
    }

    #[test]
    fn scc_groups_mutual_recursion() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let e = u.pred("e", 1).unwrap();
        let prog = SkolemProgram {
            rules: vec![
                rule(&u, p, &[q], &[]),
                rule(&u, q, &[p], &[]),
                rule(&u, p, &[e], &[]),
            ],
        };
        let g = PredGraph::build(u.num_preds(), &prog);
        let comp = g.graph.sccs();
        assert_eq!(comp[p.index()], comp[q.index()]);
        assert_ne!(comp[p.index()], comp[e.index()]);
    }

    #[test]
    fn path_within_component_finds_cycle_back() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let r = u.pred("r", 1).unwrap();
        let prog = SkolemProgram {
            rules: vec![
                rule(&u, p, &[q], &[]),
                rule(&u, q, &[r], &[]),
                rule(&u, r, &[p], &[]),
            ],
        };
        let g = PredGraph::build(u.num_preds(), &prog);
        let comp = g.graph.sccs();
        let cid = comp[p.index()];
        let path = g.path_within_component(&comp, cid, q, p).unwrap();
        assert_eq!(path, vec![q, r, p]);
    }
}
