//! The forward-proof operator `Ŵ_P` (Definitions 5 & 7, Theorem 8),
//! evaluated directly on a chase segment.
//!
//! ## From subforest proofs to aliveness
//!
//! A *forward proof* of `a` is a finite subforest `π` of `F⁺(P)` containing
//! a goal node labelled `a`, closed under parents, in which every edge
//! rule's positive side atoms are supported by `π`-nodes of strictly
//! smaller derivation level. Its *negative hypotheses* `N(π)` are the
//! negative body atoms of the edge rules used.
//!
//! On the condensed segment this collapses to an **aliveness least
//! fixpoint**: an atom is alive iff it is a database fact or some rule
//! instance derives it whose guard and positive side atoms are all alive
//! and whose negative side atoms pass a mode-dependent test against the
//! current interpretation `I`:
//!
//! * **strict** (`∀b ∈ B⁻: ¬b ∈ I`) — alive atoms are exactly those with a
//!   forward proof `π` such that `¬.N(π) ⊆ I` (the positive half of `Ŵ`);
//! * **avoid** (`∀b ∈ B⁻: b ∉ I`) — alive atoms are exactly those with a
//!   forward proof `π` such that `N(π) ∩ I = ∅`; an atom *not* alive in
//!   this mode has every proof blocked, so its negation enters `Ŵ(I)`.
//!
//! Min-level supports always satisfy the level-strictness requirement of
//! Definition 5(3) (every node's body atoms are present in the forest
//! strictly before the node itself), so the level bookkeeping of the
//! explicit forest imposes no extra constraint on *which atoms* have proofs
//! — only on which subforests count as proofs. The equivalence is exercised
//! by tests against the explicit forest and the other two engines.
//!
//! Atoms that never occur in the forest have no forward proof, so their
//! negations enter at stage 1 — exactly the paper's
//! `Ŵ_{P,1} ⊇ {¬a | a ∉ label(F⁺(P))}` in Example 9. The engine's
//! interpretation covers the segment's atoms; the solver layer maps absent
//! atoms to `False`.

use crate::{StageMap, StagedResult};
use wfdl_chase::{ChaseSegment, InstanceId, SegAtomId};
use wfdl_core::{AtomId, BitSet, Interp};
use wfdl_wfs::result::EngineResult;

/// The `Ŵ_P` engine over a chase segment.
///
/// Runs directly on the segment's dense ids and CSR occurrence indexes —
/// no per-engine hash map, no per-atom allocation: the segment already
/// stores everything the aliveness fixpoint needs.
pub struct ForwardEngine<'a> {
    seg: &'a ChaseSegment,
}

impl<'a> ForwardEngine<'a> {
    /// Prepares the engine for a segment.
    pub fn new(seg: &'a ChaseSegment) -> Self {
        ForwardEngine { seg }
    }

    /// Admissibility of every instance under **both** regimes in one pass
    /// over the negative side atoms: `(strict, avoid)`. A hypothesis atom
    /// that never occurs in the forest has no forward proof, so its
    /// negation is in `Ŵ_{P,1}` (Example 9); treat it as false here.
    fn admissibility(&self, interp: &Interp) -> (Vec<bool>, Vec<bool>) {
        let num = self.seg.num_instances();
        let mut strict = vec![true; num];
        let mut avoid = vec![true; num];
        for ii in 0..num {
            let id = InstanceId::from_index(ii);
            for &b in self.seg.neg_atoms(id) {
                if strict[ii] && !interp.is_false(b) && self.seg.contains(b) {
                    strict[ii] = false;
                }
                if avoid[ii] && interp.is_true(b) {
                    avoid[ii] = false;
                }
                if !strict[ii] && !avoid[ii] {
                    break;
                }
            }
        }
        (strict, avoid)
    }

    /// Aliveness least fixpoint for a precomputed admissibility vector.
    fn alive_with(&self, admissible: &[bool]) -> BitSet {
        let n = self.seg.atoms().len();
        let num = self.seg.num_instances();
        let mut alive = BitSet::with_capacity(n);
        let mut queue: Vec<u32> = Vec::new();
        let mut missing: Vec<u32> = (0..num)
            .map(|ii| self.seg.num_distinct_pos(InstanceId::from_index(ii)))
            .collect();

        for &fs in self.seg.fact_segs() {
            if alive.insert(fs.index()) {
                queue.push(fs.index() as u32);
            }
        }
        // Instances with empty positive bodies cannot exist (guarded rules
        // always have a guard), so seeding from facts is enough.
        while let Some(a) = queue.pop() {
            for &iid in self
                .seg
                .instances_with_body_seg(SegAtomId::from_index(a as usize))
            {
                let ii = iid.index();
                if !admissible[ii] || missing[ii] == 0 {
                    continue;
                }
                missing[ii] -= 1;
                if missing[ii] == 0 {
                    let h = self.seg.head_seg(iid).index();
                    if alive.insert(h) {
                        queue.push(h as u32);
                    }
                }
            }
        }
        alive
    }

    /// One application of `Ŵ_P` restricted to the segment's atoms. The two
    /// aliveness passes share a single admissibility sweep over the
    /// instances' negative sides.
    pub fn step(&self, interp: &Interp) -> Interp {
        let (strict, avoid) = self.admissibility(interp);
        let provable = self.alive_with(&strict);
        let not_refuted = self.alive_with(&avoid);
        let mut out = Interp::new();
        for (i, sa) in self.seg.atoms().iter().enumerate() {
            if provable.contains(i) {
                out.set_true(sa.atom);
            } else if !not_refuted.contains(i) {
                out.set_false(sa.atom);
            }
        }
        out
    }

    /// Iterates `Ŵ_P` from `∅` to its least fixpoint.
    pub fn solve(&self) -> EngineResult {
        self.solve_staged().result
    }

    /// Iterates `Ŵ_P` from `∅` to its least fixpoint, recording the stage
    /// at which each literal entered it.
    pub fn solve_staged(&self) -> StagedResult {
        let mut interp = Interp::new();
        let mut stage_map = StageMap::default();
        let mut stage = 0u32;
        loop {
            stage += 1;
            let next = self.step(&interp);
            let mut changed = false;
            for sa in self.seg.atoms() {
                let old = interp.value(sa.atom);
                let new = next.value(sa.atom);
                if old != new {
                    debug_assert!(old.is_unknown(), "Ŵ must be monotone");
                    changed = true;
                    stage_map.insert(sa.atom, stage);
                }
            }
            interp = next;
            if !changed {
                stage -= 1;
                break;
            }
        }
        StagedResult {
            result: EngineResult {
                interp,
                stages: stage,
                stats: None,
                memo: None,
                truncation: None,
                cone: None,
            },
            stage: stage_map,
        }
    }

    /// Instances deriving a segment atom (by id); empty for atoms outside
    /// the segment.
    pub fn derivers(&self, atom: AtomId) -> &[InstanceId] {
        self.seg.instances_with_head(atom)
    }

    /// The segment this engine runs on.
    pub fn segment(&self) -> &ChaseSegment {
        self.seg
    }

    /// Looks up the segment index of an atom.
    pub fn segment_index(&self, atom: AtomId) -> Option<u32> {
        self.seg.seg_id(atom).map(|s| s.index() as u32)
    }

    /// Convenience: materializes an instance by id.
    pub fn instance(&self, id: u32) -> wfdl_chase::RuleInstance {
        self.seg.instance(InstanceId::from_index(id as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_chase::{paper::example4, ChaseBudget, ChaseSegment};
    use wfdl_core::{Truth, Universe};

    fn solve_example4(depth: u32) -> (Universe, ChaseSegment, StagedResult) {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(depth));
        let eng = ForwardEngine::new(&seg);
        let res = eng.solve_staged();
        (u, seg, res)
    }

    fn atom(u: &Universe, pred: &str, args: &[&str]) -> Option<AtomId> {
        let p = u.lookup_pred(pred)?;
        let ts: Option<Vec<_>> = args.iter().map(|a| lookup_term(u, a)).collect();
        u.atoms.lookup(p, &ts?)
    }

    /// Parses `0`, `1`, or nested `f(x,y,z)` renderings used in tests.
    fn lookup_term(u: &Universe, s: &str) -> Option<wfdl_core::TermId> {
        if let Some(rest) = s.strip_prefix("f(") {
            let inner = &rest[..rest.len() - 1];
            let mut parts = Vec::new();
            let mut depth = 0usize;
            let mut cur = String::new();
            for c in inner.chars() {
                match c {
                    '(' => {
                        depth += 1;
                        cur.push(c);
                    }
                    ')' => {
                        depth -= 1;
                        cur.push(c);
                    }
                    ',' if depth == 0 => {
                        parts.push(cur.clone());
                        cur.clear();
                    }
                    _ => cur.push(c),
                }
            }
            parts.push(cur);
            let f = u.lookup_skolem("sk_r1_0")?;
            let args: Option<Vec<_>> = parts.iter().map(|p| lookup_term(u, p)).collect();
            u.terms.lookup_skolem(f, &args?)
        } else {
            u.lookup_constant(s)
        }
    }

    #[test]
    fn example9_verdicts_on_segment() {
        let (u, seg, res) = solve_example4(6);
        assert!(!seg.complete);
        // Paper (Example 9): P(0,tj) true, Q(tj) false, S(0) false, T(0) true.
        let t0 = atom(&u, "T", &["0"]).unwrap();
        assert_eq!(res.value(t0), Truth::True, "T(0) must be well-founded");
        let s0 = atom(&u, "S", &["0"]).unwrap();
        assert_eq!(res.value(s0), Truth::False, "S(0) must be unfounded");
        let p01 = atom(&u, "P", &["0", "1"]).unwrap();
        assert_eq!(res.value(p01), Truth::True);
        let q1 = atom(&u, "Q", &["f(0,0,1)"]);
        if let Some(q) = q1 {
            // Q(a) where a = f(0,0,1): false per the paper.
            assert_eq!(res.value(q), Truth::False);
        }
        let pa = atom(&u, "P", &["0", "f(0,0,1)"]).unwrap();
        assert_eq!(res.value(pa), Truth::True);
    }

    #[test]
    fn example9_stage_grows_with_depth() {
        // T(0) enters the fixpoint only after the whole P/Q alternation has
        // resolved, so its entry stage must grow with segment depth — the
        // finite shadow of `T(0) ∈ Ŵ_{P,ω+2}`.
        let (u4, _, res4) = solve_example4(4);
        let (u8, _, res8) = solve_example4(8);
        let t0_4 = atom(&u4, "T", &["0"]).unwrap();
        let t0_8 = atom(&u8, "T", &["0"]).unwrap();
        let s4 = res4.stage_of(t0_4).unwrap();
        let s8 = res8.stage_of(t0_8).unwrap();
        assert!(
            s8 > s4,
            "entry stage should grow with depth: depth4 -> {s4}, depth8 -> {s8}"
        );
    }

    #[test]
    fn stage1_contains_r_chain_and_absent_negations() {
        let (u, seg, res) = solve_example4(5);
        // R-atoms are provable without hypotheses: stage 1.
        let r001 = atom(&u, "R", &["0", "0", "1"]).unwrap();
        assert_eq!(res.stage_of(r001), Some(1));
        // Q(1) is refuted at stage 2 (needs P(0,0) ∈ Ŵ_{P,1}).
        let q1 = atom(&u, "Q", &["1"]).unwrap();
        assert_eq!(res.stage_of(q1), Some(2));
        assert_eq!(res.value(q1), Truth::False);
        // P(0,1) needs ¬Q(1): stage 3.
        let p01 = atom(&u, "P", &["0", "1"]).unwrap();
        assert_eq!(res.stage_of(p01), Some(3));
        // Sanity: every segment atom is decided on this (truncated but
        // well-behaved) example.
        for sa in seg.atoms() {
            assert!(!res.value(sa.atom).is_unknown(), "{:?}", sa.atom);
        }
    }
}
