//! The definitional WFS engine: iterating `W_P(I) = T_P(I) ∪ ¬.U_P(I)`
//! (Section 2.6) to its least fixpoint on a finite ground normal program.
//!
//! Two stepping regimes share one fixpoint:
//!
//! * [`StepMode::Literal`] applies `W_P` exactly as defined, one application
//!   per stage — this is what reproduces the paper's stage-by-stage
//!   Example 9 arithmetic;
//! * [`StepMode::Accelerated`] closes `T_P` to saturation before each
//!   unfounded-set computation, which reaches the same least fixpoint in far
//!   fewer (and cheaper) rounds.
//!
//! The greatest unfounded set `U_P(I)` is computed as the complement of the
//! least fixpoint of the "possibly founded" operator
//! `Γ_I(X) = {a | ∃r: H(r) = a, ∀b ∈ B⁺(r): ¬b ∉ I ∧ b ∈ X, ∀b ∈ B⁻(r): b ∉ I}`
//! — the standard van Gelder characterization — using Dowling–Gallier
//! counters.
//!
//! This engine is an **oracle**, not a production path: the default
//! SCC-modular engine ([`wfdl_wfs::scc`]) runs the same alternating rounds in
//! place, component by component, and no longer builds sub-programs for
//! this one to solve. [`WpEngine::with_assumed_unknown`] is kept as the
//! reference `tests/component_oracle.rs` checks that evaluator against.

use crate::StagedResult;
use wfdl_core::BitSet;
use wfdl_storage::GroundProgram;
use wfdl_wfs::result::EngineResult;

/// How `W_P` is iterated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StepMode {
    /// One `W_P` application per stage (the paper's definition).
    Literal,
    /// `T_P`-closure before each unfounded-set round (same fixpoint).
    #[default]
    Accelerated,
}

/// The `W_P` fixpoint engine. Borrows the ground program's dense local
/// ids and CSR indexes directly — construction allocates nothing beyond
/// the two option bitsets.
pub struct WpEngine<'a> {
    prog: &'a GroundProgram,
    /// Atoms that may never be declared false (excluded from every
    /// unfounded set). Empty under the paper's UNA semantics; populated
    /// with null-containing atoms to obtain the conservative no-UNA
    /// approximation used in the Example 2 comparison (labelled nulls might
    /// denote equal values, so non-derivation of a null-atom cannot justify
    /// its falsity).
    frozen: BitSet,
    /// Atoms assumed **undefined** by an outer evaluation (how the
    /// SCC-modular engine's per-component sub-programs used to carry
    /// lower-component unknowns; today its differential oracle does): they
    /// are never declared false *and* they seed the possibly-founded set, so a
    /// head depending positively on one stays undefined instead of
    /// collapsing to false. The caller guarantees they head no rule and
    /// are not facts, so they can never become true either.
    assumed: BitSet,
}

impl<'a> WpEngine<'a> {
    /// Prepares the engine for a ground program.
    pub fn new(prog: &'a GroundProgram) -> Self {
        WpEngine {
            prog,
            frozen: BitSet::new(),
            assumed: BitSet::new(),
        }
    }

    /// Freezes a set of atoms: they are never added to an unfounded set,
    /// so rules negating them never fire. Unknown atoms are returned by
    /// [`WpEngine::solve`] as `Unknown`.
    pub fn with_frozen(mut self, atoms: impl IntoIterator<Item = wfdl_core::AtomId>) -> Self {
        for a in atoms {
            if let Some(i) = self.prog.local_id(a) {
                self.frozen.insert(i as usize);
            }
        }
        self
    }

    /// Marks local atom ids as externally-undefined (never false, and
    /// seeding the possibly-founded set). The contract the SCC-modular
    /// engine's in-place evaluator implements for undefined lower inputs;
    /// kept as that evaluator's reference in `tests/component_oracle.rs`.
    ///
    /// An assumed atom must have no derivation in this program — heading a
    /// rule or being a fact would let `T_P` prove it true while the
    /// unfounded computation simultaneously treats it as permanently
    /// undefined, yielding a model that is neither the program's WFS nor
    /// the intended partial evaluation.
    pub fn with_assumed_unknown(mut self, local_ids: impl IntoIterator<Item = u32>) -> Self {
        for i in local_ids {
            debug_assert!(
                self.prog.rules_with_head_local(i).is_empty(),
                "assumed-unknown atom {i} heads a rule"
            );
            debug_assert!(
                !self.prog.facts_local().contains(&i),
                "assumed-unknown atom {i} is a fact"
            );
            self.assumed.insert(i as usize);
        }
        self
    }

    /// The ground program this engine evaluates.
    pub fn ground(&self) -> &GroundProgram {
        self.prog
    }

    /// Computes `lfp(W_P)`.
    pub fn solve(&self, mode: StepMode) -> EngineResult {
        self.solve_staged(mode).result
    }

    /// Computes `lfp(W_P)` and the stage at which each literal entered it.
    pub fn solve_staged(&self, mode: StepMode) -> StagedResult {
        let n = self.prog.num_atoms();
        let mut truth = State::new(n);
        let mut stage = 0u32;
        loop {
            stage += 1;
            let changed = match mode {
                StepMode::Literal => self.literal_step(&mut truth, stage),
                StepMode::Accelerated => self.accelerated_step(&mut truth, stage),
            };
            if !changed {
                // The counted stage did nothing; report the last productive one.
                stage -= 1;
                break;
            }
        }
        truth.into_result(self.prog, stage)
    }

    /// One application of `W_P`: `T_P(I)` (single step) plus `¬.U_P(I)`.
    #[allow(clippy::needless_range_loop)] // parallel arrays are indexed together
    fn literal_step(&self, s: &mut State, stage: u32) -> bool {
        let d = self.prog;
        let mut new_true: Vec<u32> = Vec::new();
        for &f in d.facts_local() {
            if !s.is_true(f) {
                new_true.push(f);
            }
        }
        'rules: for r in 0..d.num_rules() {
            let h = d.head_local(r);
            if s.is_true(h) {
                continue;
            }
            for &b in d.pos_local(r) {
                if !s.is_true(b) {
                    continue 'rules;
                }
            }
            for &b in d.neg_local(r) {
                if !s.is_false(b) {
                    continue 'rules;
                }
            }
            new_true.push(h);
        }
        let unfounded = self.greatest_unfounded(s);
        let mut changed = false;
        for a in new_true {
            changed |= s.set_true(a, stage);
        }
        for a in unfounded {
            if !s.is_false(a) {
                changed |= s.set_false(a, stage);
            }
        }
        changed
    }

    /// `T_P`-closure followed by one unfounded-set round.
    fn accelerated_step(&self, s: &mut State, stage: u32) -> bool {
        let mut changed = self.tp_closure(s, stage);
        let unfounded = self.greatest_unfounded(s);
        for a in unfounded {
            if !s.is_false(a) {
                changed |= s.set_false(a, stage);
            }
        }
        changed
    }

    /// Saturates `T_P` over the current interpretation with counters.
    #[allow(clippy::needless_range_loop)] // parallel arrays are indexed together
    fn tp_closure(&self, s: &mut State, stage: u32) -> bool {
        let d = self.prog;
        // missing[r] = positive body atoms not yet true.
        let mut missing: Vec<u32> = (0..d.num_rules())
            .map(|r| d.pos_local(r).iter().filter(|&&b| !s.is_true(b)).count() as u32)
            .collect();
        let mut queue: Vec<u32> = Vec::new();
        let mut changed = false;
        let fire = |r: usize, s: &mut State, queue: &mut Vec<u32>, changed: &mut bool| {
            // All negatives must be false in the CURRENT interpretation
            // (T_P requires ¬.B⁻(r) ⊆ I, which is stable within a stage).
            if d.neg_local(r).iter().all(|&b| s.is_false(b)) {
                let h = d.head_local(r);
                if s.set_true(h, stage) {
                    *changed = true;
                    queue.push(h);
                }
            }
        };
        for &f in d.facts_local() {
            if s.set_true(f, stage) {
                changed = true;
                queue.push(f);
            }
        }
        // Already-satisfied rules (e.g. true atoms from earlier stages).
        for r in 0..d.num_rules() {
            if missing[r] == 0 {
                fire(r, s, &mut queue, &mut changed);
            }
        }
        while let Some(a) = queue.pop() {
            for &rid in d.rules_with_pos_local(a) {
                let r = rid.index();
                // Only decrement for atoms that just became true; an atom is
                // enqueued exactly once (set_true is idempotent). Bodies are
                // deduplicated by GroundRule::new — the same invariant
                // scc.rs's single-decrement propagation relies on — so this
                // recount always finds exactly one occurrence; it is kept as
                // a guard in case that invariant ever changes.
                if missing[r] > 0 {
                    missing[r] -= d.pos_local(r).iter().filter(|&&b| b == a).count() as u32;
                    if missing[r] == 0 {
                        fire(r, s, &mut queue, &mut changed);
                    }
                }
            }
        }
        changed
    }

    /// The greatest unfounded set `U_P(I)` (dense indices).
    #[allow(clippy::needless_range_loop)] // parallel arrays are indexed together
    fn greatest_unfounded(&self, s: &State) -> Vec<u32> {
        let d = self.prog;
        let n = d.num_atoms();
        let mut founded = BitSet::with_capacity(n);
        let mut queue: Vec<u32> = Vec::new();

        // A rule can support its head iff no positive body atom is false in
        // I and no negative body atom is true in I.
        let mut live = vec![false; d.num_rules()];
        let mut missing: Vec<u32> = vec![0; d.num_rules()];
        for r in 0..d.num_rules() {
            let pos_ok = d.pos_local(r).iter().all(|&b| !s.is_false(b));
            let neg_ok = d.neg_local(r).iter().all(|&b| !s.is_true(b));
            live[r] = pos_ok && neg_ok;
            if live[r] {
                missing[r] = d.pos_local(r).len() as u32;
                if missing[r] == 0 {
                    let h = d.head_local(r);
                    if founded.insert(h as usize) {
                        queue.push(h);
                    }
                }
            }
        }
        for &f in d.facts_local() {
            if founded.insert(f as usize) {
                queue.push(f);
            }
        }
        // Externally-undefined atoms are possibly true, so they count as
        // founded support — without becoming derivable in T_P.
        for a in self.assumed.iter() {
            if founded.insert(a) {
                queue.push(a as u32);
            }
        }
        while let Some(a) = queue.pop() {
            for &rid in d.rules_with_pos_local(a) {
                let r = rid.index();
                if !live[r] || missing[r] == 0 {
                    continue;
                }
                missing[r] -= d.pos_local(r).iter().filter(|&&b| b == a).count() as u32;
                if missing[r] == 0 {
                    let h = d.head_local(r);
                    if founded.insert(h as usize) {
                        queue.push(h);
                    }
                }
            }
        }
        (0..n as u32)
            .filter(|&a| {
                !founded.contains(a as usize)
                    && !self.frozen.contains(a as usize)
                    && !self.assumed.contains(a as usize)
            })
            .collect()
    }
}

/// Mutable truth state shared by the stepping functions.
struct State {
    truth_true: BitSet,
    truth_false: BitSet,
    stage_of: Vec<u32>,
}

impl State {
    fn new(n: usize) -> Self {
        State {
            truth_true: BitSet::with_capacity(n),
            truth_false: BitSet::with_capacity(n),
            stage_of: vec![0; n],
        }
    }

    #[inline]
    fn is_true(&self, a: u32) -> bool {
        self.truth_true.contains(a as usize)
    }

    #[inline]
    fn is_false(&self, a: u32) -> bool {
        self.truth_false.contains(a as usize)
    }

    fn set_true(&mut self, a: u32, stage: u32) -> bool {
        debug_assert!(!self.is_false(a), "atom {a} set true but already false");
        let fresh = self.truth_true.insert(a as usize);
        if fresh {
            self.stage_of[a as usize] = stage;
        }
        fresh
    }

    fn set_false(&mut self, a: u32, stage: u32) -> bool {
        debug_assert!(!self.is_true(a), "atom {a} set false but already true");
        let fresh = self.truth_false.insert(a as usize);
        if fresh {
            self.stage_of[a as usize] = stage;
        }
        fresh
    }

    fn into_result(self, prog: &GroundProgram, stages: u32) -> StagedResult {
        crate::result_from_ground(
            prog,
            &self.truth_true,
            &self.truth_false,
            &self.stage_of,
            stages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_core::{AtomId, Truth};
    use wfdl_storage::{GroundProgramBuilder, GroundRule};

    fn a(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    fn solve(b: GroundProgramBuilder, mode: StepMode) -> EngineResult {
        WpEngine::new(&b.finish()).solve(mode)
    }

    #[test]
    fn positive_chain() {
        // fact a0; a0 -> a1; a1 -> a2. Everything true; a3 mentioned only
        // negatively stays... (not mentioned here). All derivable true.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![a(1)], vec![]));
        for mode in [StepMode::Literal, StepMode::Accelerated] {
            let r = solve(b.clone(), mode);
            assert_eq!(r.value(a(0)), Truth::True);
            assert_eq!(r.value(a(1)), Truth::True);
            assert_eq!(r.value(a(2)), Truth::True);
        }
    }

    #[test]
    fn unsupported_atom_is_false() {
        // fact a0; rule a2 -> a1. a2 has no support: both a1,a2 false.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(2)], vec![]));
        let r = solve(b, StepMode::Accelerated);
        assert_eq!(r.value(a(0)), Truth::True);
        assert_eq!(r.value(a(1)), Truth::False);
        assert_eq!(r.value(a(2)), Truth::False);
    }

    #[test]
    fn negation_simple() {
        // fact a0; a0, not a1 -> a2. a1 unfounded → false; a2 true.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![a(1)]));
        let r = solve(b, StepMode::Literal);
        assert_eq!(r.value(a(1)), Truth::False);
        assert_eq!(r.value(a(2)), Truth::True);
    }

    #[test]
    fn self_negation_is_unknown() {
        // a0 :- not a0  → a0 unknown (classic).
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(0)]));
        for mode in [StepMode::Literal, StepMode::Accelerated] {
            let r = solve(b.clone(), mode);
            assert_eq!(r.value(a(0)), Truth::Unknown, "{mode:?}");
        }
    }

    #[test]
    fn mutual_negation_is_unknown() {
        // a0 :- not a1. a1 :- not a0. Both unknown.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        let r = solve(b, StepMode::Accelerated);
        assert_eq!(r.value(a(0)), Truth::Unknown);
        assert_eq!(r.value(a(1)), Truth::Unknown);
    }

    #[test]
    fn positive_loop_is_false() {
        // a0 :- a1. a1 :- a0. Unfounded pair → both false.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        let r = solve(b, StepMode::Literal);
        assert_eq!(r.value(a(0)), Truth::False);
        assert_eq!(r.value(a(1)), Truth::False);
    }

    #[test]
    fn win_move_path_of_three() {
        // Positions 0 -> 1 -> 2 (2 has no move).
        // win(X) :- move(X,Y), not win(Y).  Atom i = win(position i);
        // move atoms folded into rule structure: win0 :- not win1; win1 :- not win2.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(2)]));
        let r = solve(b, StepMode::Literal);
        // win2: no rule → false (lost). win1: true (move to lost). win0: false.
        assert_eq!(r.value(a(2)), Truth::False);
        assert_eq!(r.value(a(1)), Truth::True);
        assert_eq!(r.value(a(0)), Truth::False);
    }

    #[test]
    fn draw_cycle_is_unknown() {
        // 0 <-> 1 cycle: both drawn (unknown).
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        b.add_rule(GroundRule::new(a(2), vec![], vec![a(0)]));
        // 2 -> 0: also drawn? win(2) :- not win(0): win(0) unknown → unknown.
        let r = solve(b, StepMode::Accelerated);
        assert_eq!(r.value(a(0)), Truth::Unknown);
        assert_eq!(r.value(a(1)), Truth::Unknown);
        assert_eq!(r.value(a(2)), Truth::Unknown);
    }

    #[test]
    fn modes_agree_on_nontrivial_program() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![a(3)]));
        b.add_rule(GroundRule::new(a(3), vec![a(0)], vec![a(4)]));
        b.add_rule(GroundRule::new(a(4), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(5), vec![a(4)], vec![a(5)]));
        let p = b.finish();
        let lit = WpEngine::new(&p).solve(StepMode::Literal);
        let acc = WpEngine::new(&p).solve(StepMode::Accelerated);
        for i in 0..6 {
            assert_eq!(lit.value(a(i)), acc.value(a(i)), "atom {i}");
        }
        // Literal stepping needs at least as many stages.
        assert!(lit.stages >= acc.stages);
    }

    #[test]
    fn duplicate_atom_in_body_counts_once() {
        // head :- b, b (after GroundRule dedup this is a single b).
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0), a(0)], vec![]));
        let r = solve(b, StepMode::Accelerated);
        assert_eq!(r.value(a(1)), Truth::True);
    }

    #[test]
    fn stage_numbers_are_recorded() {
        // Chain: stage numbers strictly increase along the chain in
        // Literal mode.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![a(1)], vec![]));
        let r = WpEngine::new(&b.finish()).solve_staged(StepMode::Literal);
        let s0 = r.stage_of(a(0)).unwrap();
        let s1 = r.stage_of(a(1)).unwrap();
        let s2 = r.stage_of(a(2)).unwrap();
        assert!(s0 < s1 && s1 < s2, "{s0} {s1} {s2}");
    }
}
