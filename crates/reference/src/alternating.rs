//! Van Gelder's alternating fixpoint — an independent WFS engine used to
//! cross-validate [`crate::wp::WpEngine`] and as an ablation baseline.
//!
//! Let `S(J)` be the minimal model of the Gelfond–Lifschitz reduct `P^J`
//! (drop every rule with a negative body atom in `J`, then delete the
//! remaining negative literals). `S` is antitone, so `S∘S` is monotone:
//!
//! * `I_0 = ∅`, `J_k = S(I_k)`, `I_(k+1) = S(J_k)`;
//! * `I` ascends to the set of **true** atoms, `J` descends to the set of
//!   **possible** atoms; `false = universe \ J_∞`, `unknown = J_∞ \ I_∞`.
//!
//! This coincides with `lfp(W_P)` (van Gelder 1989); the workspace tests
//! assert that agreement on every program they touch, including thousands of
//! random ones.

use crate::StagedResult;
use wfdl_core::BitSet;
use wfdl_storage::GroundProgram;
use wfdl_wfs::result::EngineResult;

/// The alternating-fixpoint engine. Borrows the ground program's dense
/// local ids and CSR indexes directly.
pub struct AlternatingEngine<'a> {
    prog: &'a GroundProgram,
}

impl<'a> AlternatingEngine<'a> {
    /// Prepares the engine for a ground program.
    pub fn new(prog: &'a GroundProgram) -> Self {
        AlternatingEngine { prog }
    }

    /// Runs the alternation to its fixpoint.
    pub fn solve(&self) -> EngineResult {
        self.solve_staged().result
    }

    /// Runs the alternation to its fixpoint, recording the round at which
    /// each atom was decided.
    #[allow(clippy::needless_range_loop)] // parallel arrays are indexed together
    pub fn solve_staged(&self) -> StagedResult {
        let d = self.prog;
        let n = d.num_atoms();

        let mut i_set = BitSet::with_capacity(n); // true underestimate
        let mut j_set = self.reduct_closure(&i_set); // possible overestimate

        let mut stage_of = vec![0u32; n];
        let mut stage = 1u32;
        // Atoms outside the initial overestimate are false at stage 1.
        for a in 0..n {
            if !j_set.contains(a) {
                stage_of[a] = stage;
            }
        }

        loop {
            let new_i = self.reduct_closure(&j_set);
            let new_j = self.reduct_closure(&new_i);
            let done = new_i == i_set && new_j == j_set;
            stage += 1;
            for a in 0..n {
                if new_i.contains(a) && !i_set.contains(a) {
                    stage_of[a] = stage;
                }
                if !new_j.contains(a) && j_set.contains(a) {
                    stage_of[a] = stage;
                }
            }
            i_set = new_i;
            j_set = new_j;
            if done {
                stage -= 1;
                break;
            }
        }

        let mut truth_false = BitSet::with_capacity(n);
        for a in 0..n {
            if !j_set.contains(a) {
                truth_false.insert(a);
            }
        }
        crate::result_from_ground(d, &i_set, &truth_false, &stage_of, stage)
    }

    /// `S(J)`: least model of the GL-reduct w.r.t. the assumed-true set `J`.
    #[allow(clippy::needless_range_loop)] // parallel arrays are indexed together
    fn reduct_closure(&self, j: &BitSet) -> BitSet {
        let d = self.prog;
        let n = d.num_atoms();
        let mut derived = BitSet::with_capacity(n);
        let mut queue: Vec<u32> = Vec::new();

        let mut missing: Vec<u32> = vec![0; d.num_rules()];
        for r in 0..d.num_rules() {
            if d.neg_local(r).iter().any(|&b| j.contains(b as usize)) {
                missing[r] = u32::MAX; // rule removed by the reduct
                continue;
            }
            missing[r] = d.pos_local(r).len() as u32;
            if missing[r] == 0 {
                let h = d.head_local(r);
                if derived.insert(h as usize) {
                    queue.push(h);
                }
            }
        }
        for &f in d.facts_local() {
            if derived.insert(f as usize) {
                queue.push(f);
            }
        }
        while let Some(a) = queue.pop() {
            for &rid in d.rules_with_pos_local(a) {
                let r = rid.index();
                if missing[r] == u32::MAX || missing[r] == 0 {
                    continue;
                }
                missing[r] -= d.pos_local(r).iter().filter(|&&b| b == a).count() as u32;
                if missing[r] == 0 {
                    let h = d.head_local(r);
                    if derived.insert(h as usize) {
                        queue.push(h);
                    }
                }
            }
        }
        derived
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wp::{StepMode, WpEngine};
    use wfdl_core::{AtomId, Truth};
    use wfdl_storage::{GroundProgramBuilder, GroundRule};

    fn a(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    #[test]
    fn agrees_with_wp_on_basics() {
        // Mix of negation, loops, facts.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![a(1)]));
        b.add_rule(GroundRule::new(a(3), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(4), vec![a(4)], vec![]));
        b.add_rule(GroundRule::new(a(5), vec![a(0)], vec![a(4)]));
        let p = b.finish();
        let alt = AlternatingEngine::new(&p).solve();
        let wp = WpEngine::new(&p).solve(StepMode::Accelerated);
        for atom in p.atoms() {
            assert_eq!(alt.value(*atom), wp.value(*atom), "{atom:?}");
        }
        // Spot-check the semantics directly.
        assert_eq!(alt.value(a(1)), Truth::Unknown);
        assert_eq!(alt.value(a(2)), Truth::Unknown);
        assert_eq!(alt.value(a(3)), Truth::Unknown);
        assert_eq!(alt.value(a(4)), Truth::False);
        assert_eq!(alt.value(a(5)), Truth::True);
    }

    #[test]
    fn three_valued_structure() {
        // a1 :- not a2; a2 :- not a1; a3 :- a1; a3 :- a2; a4 :- not a3.
        // a1,a2 unknown; a3 unknown; a4 unknown.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(2)]));
        b.add_rule(GroundRule::new(a(2), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(3), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(3), vec![a(2)], vec![]));
        b.add_rule(GroundRule::new(a(4), vec![], vec![a(3)]));
        let p = b.finish();
        let alt = AlternatingEngine::new(&p).solve();
        for i in 1..=4 {
            assert_eq!(alt.value(a(i)), Truth::Unknown, "a{i}");
        }
    }

    #[test]
    fn totally_false_program() {
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        let p = b.finish();
        let alt = AlternatingEngine::new(&p).solve_staged();
        assert_eq!(alt.value(a(0)), Truth::False);
        assert_eq!(alt.value(a(1)), Truth::False);
        // Both decided at the very first stage (outside S(∅)'s closure).
        assert_eq!(alt.stage_of(a(0)), Some(1));
    }
}
