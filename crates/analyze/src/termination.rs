//! Pass 3: chase-termination risk via weak acyclicity.
//!
//! Builds the Fagin-style position dependency graph: nodes are (predicate,
//! argument) positions; a rule with body variable `v` at position `u`
//! contributes a *regular* edge `u → w` for every head position `w` where
//! `v` reappears, and a *special* edge `u → w` for every head position `w`
//! holding a Skolem term with `v` among its arguments. A cycle through a
//! special edge means the program is not weakly acyclic: the chase can
//! generate fresh nulls forever and is only stopped by the depth/atom
//! budgets ([`Code::W002`]). The witness names the position cycle and the
//! contributing rule chain.
//!
//! Weak acyclicity is a sound over-approximation: every flagged program
//! *can* diverge on some database, but a particular database may still
//! saturate early.

use crate::graph::Digraph;
use crate::report::{Code, Diagnostic};
use wfdl_core::{HeadTerm, PredId, RTerm, SkolemProgram, Universe, Var};

/// One edge of the position graph.
#[derive(Clone, Copy, Debug)]
struct PosEdge {
    from: usize,
    to: usize,
    special: bool,
    rule: usize,
}

struct PosGraph {
    base: Vec<usize>,
    edges: Vec<PosEdge>,
    graph: Digraph,
}

impl PosGraph {
    fn describe(&self, universe: &Universe, i: usize) -> String {
        // Invert the dense index; positions per predicate are contiguous.
        let p = match self.base.binary_search(&i) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        let arg = i - self.base[p];
        format!("{}[{}]", universe.pred_name(PredId::from_index(p)), arg)
    }
}

fn build(universe: &Universe, program: &SkolemProgram) -> PosGraph {
    let mut base = Vec::with_capacity(universe.num_preds() + 1);
    let mut total = 0;
    for p in universe.pred_ids() {
        base.push(total);
        total += universe.pred_arity(p);
    }
    base.push(total);
    let idx = |pred: PredId, arg: usize| base[pred.index()] + arg;
    let mut edges = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        // Body positions of each variable (positive body only, as in the
        // standard weak-acyclicity definition).
        let nv = rule.num_vars() as usize;
        let mut var_pos: Vec<Vec<usize>> = vec![Vec::new(); nv];
        for a in &rule.body_pos {
            for (i, t) in a.args.iter().enumerate() {
                if let RTerm::Var(v) = t {
                    var_pos[v.index()].push(idx(a.pred, i));
                }
            }
        }
        let mut add = |from: usize, to: usize, special: bool| {
            edges.push(PosEdge {
                from,
                to,
                special,
                rule: ri,
            });
        };
        for (j, t) in rule.head_args.iter().enumerate() {
            let to = idx(rule.head_pred, j);
            match t {
                HeadTerm::Const(_) => {}
                HeadTerm::Var(v) => {
                    for &from in &var_pos[v.index()] {
                        add(from, to, false);
                    }
                }
                HeadTerm::Skolem(_, args) => {
                    let mut seen: Vec<Var> = Vec::new();
                    for v in args.iter() {
                        if seen.contains(v) {
                            continue;
                        }
                        seen.push(*v);
                        for &from in &var_pos[v.index()] {
                            add(from, to, true);
                        }
                    }
                }
            }
        }
    }
    let ends = edges.iter().map(|e| (e.from as u32, e.to as u32));
    let graph = Digraph::new(total, ends);
    PosGraph { base, edges, graph }
}

/// Output of the termination pass.
#[derive(Clone, Debug)]
pub struct TerminationReport {
    /// True iff the program is weakly acyclic (chase terminates on every
    /// database).
    pub weakly_acyclic: bool,
}

/// Runs the pass, appending one W002 per offending rule to `diags`.
pub fn run(
    universe: &Universe,
    program: &SkolemProgram,
    diags: &mut Vec<Diagnostic>,
) -> TerminationReport {
    let g = build(universe, program);
    let comp = g.graph.sccs();
    let mut flagged_rules: Vec<usize> = Vec::new();
    for e in &g.edges {
        if !e.special || comp[e.from] != comp[e.to] {
            continue;
        }
        if flagged_rules.contains(&e.rule) {
            continue;
        }
        flagged_rules.push(e.rule);
        // Witness: the special edge closed into a cycle back to its source.
        let back = if e.from == e.to {
            Vec::new()
        } else {
            g.graph
                .path_within_component(&comp, comp[e.from], e.to, e.from)
                .unwrap_or_default()
        };
        let mut cycle = format!(
            "{} ~∃~> {}",
            g.describe(universe, e.from),
            g.describe(universe, e.to)
        );
        let mut rules: Vec<usize> = vec![e.rule];
        for &be in &back {
            let b = g.edges[be as usize];
            cycle.push_str(if b.special { " ~∃~> " } else { " -> " });
            cycle.push_str(&g.describe(universe, b.to));
            if !rules.contains(&b.rule) {
                rules.push(b.rule);
            }
        }
        let rule = &program.rules[e.rule];
        let chain: Vec<String> = rules
            .iter()
            .map(|&ri| crate::fragment::rule_render(universe, &program.rules[ri]))
            .collect();
        diags.push(
            Diagnostic::new(
                Code::W002,
                format!(
                    "not weakly acyclic: existential position cycle {cycle}; the chase \
                     may generate nulls indefinitely and stop only at the depth/atom \
                     budget (rule chain: {})",
                    chain.join(" ; ")
                ),
            )
            .with_span(rule.span())
            .with_pred(universe.pred_name(rule.head_pred))
            .with_rule(crate::fragment::rule_render(universe, rule)),
        );
    }
    TerminationReport {
        weakly_acyclic: flagged_rules.is_empty(),
    }
}
