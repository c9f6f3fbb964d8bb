//! Goal-directed program slicing (magic-set-style relevance closure).
//!
//! Given the goal predicates of a query, computes the backward-reachable
//! cone over the predicate dependency graph: the set of predicates (and
//! the rules defining them) that can influence the well-founded verdict
//! of any goal atom. The walk follows **both positive and negative**
//! edges — under the well-founded semantics a goal's verdict can depend
//! on the falsity of an atom just as much as on its truth, so dropping
//! negative dependencies would change answers (Drabent–Małuszyński's
//! relevance condition for hybrid rules).
//!
//! The closure property the downstream engine relies on: a rule is in
//! the slice iff its **head** predicate is, and then every body
//! predicate (positive or negative) of that rule is also in the slice.
//! Consequently a chase/solve restricted to slice predicates derives
//! exactly the atoms a full solve derives over those predicates, with
//! identical derivation depths — verdicts of in-slice atoms are
//! preserved bit-for-bit (see `tests/sliced_agreement.rs` at the
//! workspace root).

use crate::graph::PredGraph;
use wfdl_core::{PredId, SkolemProgram};

/// The backward-reachable slice of a program from a set of goal
/// predicates. See the module docs for the closure property.
#[derive(Clone, Debug)]
pub struct ProgramSlice {
    /// Slice membership per predicate, indexed by [`PredId::index`].
    pub pred_mask: Vec<bool>,
    /// Slice membership per rule of the source program: a rule is in the
    /// slice iff its head predicate is.
    pub rule_mask: Vec<bool>,
    /// Number of predicates in the slice.
    pub preds_in_slice: usize,
    /// Number of rules in the slice.
    pub rules_in_slice: usize,
    /// Dependency components (predicate-level SCCs) intersecting the
    /// slice. Components are counted over predicates that occur in the
    /// program or in the goal set, so unused interned predicates do not
    /// inflate the totals.
    pub components_in_slice: usize,
    /// Total dependency components of the full program, on the same
    /// counting basis as [`ProgramSlice::components_in_slice`].
    pub components_total: usize,
}

impl ProgramSlice {
    /// Computes the relevance closure of `goals` over `program`.
    ///
    /// `num_preds` is the universe's predicate count (the dense id
    /// space); goal predicates outside the program simply contribute a
    /// one-predicate slice with no rules.
    pub fn compute(num_preds: usize, program: &SkolemProgram, goals: &[PredId]) -> ProgramSlice {
        let deps = PredGraph::build(num_preds, program);
        let mut pred_mask = vec![false; num_preds];
        let mut queue: Vec<PredId> = Vec::new();
        for &g in goals {
            if g.index() < num_preds && !pred_mask[g.index()] {
                pred_mask[g.index()] = true;
                queue.push(g);
            }
        }
        while let Some(p) = queue.pop() {
            for &e in deps.graph.out_edges(p.index()) {
                let w = deps.edges[e as usize].to;
                if !pred_mask[w.index()] {
                    pred_mask[w.index()] = true;
                    queue.push(w);
                }
            }
        }

        let rule_mask: Vec<bool> = program
            .rules
            .iter()
            .map(|r| pred_mask[r.head_pred.index()])
            .collect();

        // Component counts: restrict to predicates mentioned by the
        // program (edge endpoints) or named as goals, so every interned-
        // but-unused predicate does not show up as a singleton component.
        let mut mentioned = vec![false; num_preds];
        for e in &deps.edges {
            mentioned[e.from.index()] = true;
            mentioned[e.to.index()] = true;
        }
        for &g in goals {
            if g.index() < num_preds {
                mentioned[g.index()] = true;
            }
        }
        let comp = deps.graph.sccs();
        let num_comps = comp.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut comp_mentioned = vec![false; num_comps];
        let mut comp_in_slice = vec![false; num_comps];
        for i in 0..num_preds {
            if mentioned[i] {
                comp_mentioned[comp[i] as usize] = true;
                if pred_mask[i] {
                    comp_in_slice[comp[i] as usize] = true;
                }
            }
        }

        ProgramSlice {
            preds_in_slice: pred_mask.iter().filter(|&&b| b).count(),
            rules_in_slice: rule_mask.iter().filter(|&&b| b).count(),
            components_in_slice: comp_in_slice.iter().filter(|&&b| b).count(),
            components_total: comp_mentioned.iter().filter(|&&b| b).count(),
            pred_mask,
            rule_mask,
        }
    }

    /// True iff `p` is in the slice. Predicates interned after the slice
    /// was computed read `false`.
    #[inline]
    pub fn contains(&self, p: PredId) -> bool {
        self.pred_mask.get(p.index()).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_core::{HeadTerm, RTerm, RuleAtom, SkolemRule, Universe, Var};

    fn rule(u: &Universe, head: PredId, pos: &[PredId], neg: &[PredId]) -> SkolemRule {
        let mk = |p: &PredId| RuleAtom::new(*p, vec![RTerm::Var(Var::new(0))]);
        #[allow(clippy::unwrap_used)]
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
    fn slice_follows_negative_edges_and_drops_unrelated() {
        let mut u = Universe::new();
        #[allow(clippy::unwrap_used)]
        let (out, mid, src, excl, other, feed) = (
            u.pred("out", 1).unwrap(),
            u.pred("mid", 1).unwrap(),
            u.pred("src", 1).unwrap(),
            u.pred("excl", 1).unwrap(),
            u.pred("other", 1).unwrap(),
            u.pred("feed", 1).unwrap(),
        );
        let prog = SkolemProgram {
            rules: vec![
                rule(&u, out, &[mid], &[]),
                rule(&u, mid, &[src], &[excl]), // negative edge must be followed
                rule(&u, other, &[feed], &[]),  // unrelated: dropped
            ],
        };
        let s = ProgramSlice::compute(u.num_preds(), &prog, &[out]);
        assert!(s.contains(out) && s.contains(mid) && s.contains(src) && s.contains(excl));
        assert!(!s.contains(other) && !s.contains(feed));
        assert_eq!(s.rule_mask, vec![true, true, false]);
        assert_eq!(s.rules_in_slice, 2);
        // Closure property: every body pred of an in-slice rule is in-slice.
        for (ri, r) in prog.rules.iter().enumerate() {
            if s.rule_mask[ri] {
                for a in r.body_pos.iter().chain(r.body_neg.iter()) {
                    assert!(s.contains(a.pred));
                }
            }
        }
        assert!(s.components_in_slice < s.components_total);
    }

    #[test]
    fn goal_outside_program_is_a_trivial_slice() {
        let mut u = Universe::new();
        #[allow(clippy::unwrap_used)]
        let p = u.pred("p", 1).unwrap();
        let prog = SkolemProgram { rules: vec![] };
        let s = ProgramSlice::compute(u.num_preds(), &prog, &[p]);
        assert!(s.contains(p));
        assert_eq!(s.rules_in_slice, 0);
        assert_eq!((s.components_in_slice, s.components_total), (1, 1));
    }
}
