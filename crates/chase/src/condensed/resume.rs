//! Resuming a segment with new facts: the saturation state a build
//! retains, and the builder seeded from it.

use super::saturate::{Builder, Pending};
use super::{ChaseSegment, NONE};
use std::collections::VecDeque;
use std::fmt;
use wfdl_core::budget::FaultSite;
use wfdl_core::{AtomId, BitSet, ChunkVec, Footprint, RowPool, SkolemProgram, SolveBudget};
use wfdl_core::{TruncationReason, Universe};

/// The saturation state besides the [`Forest`](super::segment::Forest): a
/// build works on it in place, and the segment keeps it so that
/// [`ChaseSegment::resume_with`] can continue exactly where the build
/// stopped — parked instances with their watch lists, the per-atom
/// expansion bits, the uncollected expansion queue (non-empty only when a
/// runtime budget stopped the build mid-saturation), and the structured
/// truncation reason.
#[derive(Clone, Debug, Default)]
pub(super) struct ResumeState {
    /// One bit per segment atom: its (predicate's) rules were instantiated.
    /// Replaces a hash set of `(rule, atom)` pairs — expansion attempts
    /// every rule of the guard predicate in one sweep, so pair granularity
    /// is never needed.
    pub(super) expanded: ChunkVec<bool>,
    /// Segment ids of the facts (`fact_seg` as a set).
    pub(super) fact_set: BitSet,
    /// Atoms the depth budget keeps from expanding (see
    /// `Builder::depth_blocked`): carried so a resume re-counts only the
    /// atoms it added or relaxed.
    pub(super) depth_blocked: usize,
    /// Parked instances and their bodies, one row each.
    pub(super) pending: ChunkVec<Pending>,
    pub(super) pend_pos: RowPool<AtomId>,
    pub(super) pend_neg: RowPool<AtomId>,
    /// Intrusive watch lists per **universe** atom id (missing side atoms
    /// are not yet segment atoms): per-atom head/tail cursors into the
    /// entry pool `watch_next`/`watch_pend`.
    pub(super) watch_head: ChunkVec<u32>,
    pub(super) watch_tail: ChunkVec<u32>,
    pub(super) watch_next: ChunkVec<u32>,
    pub(super) watch_pend: ChunkVec<u32>,
    pub(super) expand_queue: VecDeque<u32>,
    /// First structural cap or runtime budget trip observed, if any.
    pub(super) truncation: Option<TruncationReason>,
}

impl ResumeState {
    /// The heap bytes of the chunked arrays, shared or not.
    pub(super) fn footprint(&self) -> Footprint {
        [
            self.expanded.footprint(),
            self.pending.footprint(),
            self.pend_pos.footprint(),
            self.pend_neg.footprint(),
            self.watch_head.footprint(),
            self.watch_tail.footprint(),
            self.watch_next.footprint(),
            self.watch_pend.footprint(),
        ]
        .into_iter()
        .sum()
    }

    /// Appends a watch-list entry for `uid` → pending instance `pend`.
    pub(super) fn watch(&mut self, uid: usize, pend: u32) {
        if self.watch_head.len() <= uid {
            self.watch_head.resize(uid + 1, NONE);
            self.watch_tail.resize(uid + 1, NONE);
        }
        let e = self.watch_next.len() as u32;
        self.watch_next.push(NONE);
        self.watch_pend.push(pend);
        let tail = self.watch_tail[uid];
        if tail == NONE {
            self.watch_head[uid] = e;
        } else {
            self.watch_next[tail as usize] = e;
        }
        self.watch_tail[uid] = e;
    }
}

/// Error returned by [`ChaseSegment::resume_with`] when a segment cannot
/// be resumed: cap-truncated saturation is discovery-order dependent, so
/// continuing it could diverge from a build over the grown database.
/// Callers should re-chase from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeError {
    /// Why the original build was truncated.
    pub reason: TruncationReason,
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment was truncated by the {}; re-chase from scratch",
            self.reason
        )
    }
}

impl std::error::Error for ResumeError {}

impl ChaseSegment {
    /// True iff this segment can be resumed with additional facts: the
    /// original saturation must not have been truncated by the atom or
    /// instance caps (cap truncation is discovery-order dependent, so a
    /// resumed run could diverge from a fresh one). Depth truncation is
    /// fine — the depth gate is a per-atom property of the final minima —
    /// and so are runtime budget trips (deadline / cancellation / memory),
    /// which stop at a round boundary with the full saturation state
    /// retained.
    pub fn can_resume(&self) -> bool {
        !matches!(
            self.resume.truncation,
            Some(TruncationReason::AtomCap | TruncationReason::InstanceCap)
        )
    }

    /// Continues saturation after `new_facts` join the database, reusing
    /// every atom, rule instance and parked instance of this segment
    /// instead of re-chasing from scratch.
    ///
    /// `program` must be the program this segment was built with (same
    /// rules, same order) and `new_facts` must be ground, null-free,
    /// interned in `universe` and not already database facts; the budget
    /// is inherited. As long as [`ChaseSegment::can_resume`] holds, the
    /// resumed segment contains exactly what a [`ChaseSegment::build`]
    /// over the grown database — the empty segment resumed with all its
    /// facts — would: the same atoms, instances, minimal depths and
    /// minimal levels. It does saturation work proportional to the *new*
    /// derivations only (the inherited arrays are shared chunk by chunk
    /// and copied only where the resume writes, nothing is recounted). A
    /// fact that was previously derived at positive depth is relaxed to
    /// depth and level 0 and the improvement propagated to its
    /// consequences — the one case in which a resume reads this segment's
    /// occurrence rows.
    ///
    /// # Errors
    ///
    /// Returns [`ResumeError`] (instead of resuming) if the segment was
    /// cap-truncated (`!can_resume()`); the caller should re-chase from
    /// scratch.
    pub fn resume_with(
        &self,
        universe: &mut Universe,
        program: &SkolemProgram,
        new_facts: &[AtomId],
    ) -> Result<ChaseSegment, ResumeError> {
        self.resume_budgeted(universe, program, new_facts, &SolveBudget::unlimited())
    }

    /// [`ChaseSegment::resume_with`] with runtime resource limits, polled
    /// at every round boundary of the resumed saturation.
    ///
    /// # Errors
    ///
    /// Returns [`ResumeError`] if the segment was cap-truncated.
    pub fn resume_budgeted(
        &self,
        universe: &mut Universe,
        program: &SkolemProgram,
        new_facts: &[AtomId],
        solve: &SolveBudget,
    ) -> Result<ChaseSegment, ResumeError> {
        if !self.can_resume() {
            return Err(ResumeError {
                reason: self.resume.truncation.unwrap_or(TruncationReason::AtomCap),
            });
        }
        Ok(Builder::new(universe, program, self, solve.clone()).run_delta(new_facts))
    }
}

impl Builder<'_> {
    /// Continues the base's saturation with the delta facts.
    pub(super) fn run_delta(mut self, new_facts: &[AtomId]) -> ChaseSegment {
        // Resume-boundary fault injection, over a non-empty base only (a
        // build is no resume to its caller): trip kinds stop the resumed
        // saturation at its first round boundary (delta facts registered
        // and relaxed, expansions deferred to the next resume).
        if !self.base.is_empty() {
            if let Some(r) = self.solve.fire_fault(FaultSite::ResumeBoundary) {
                self.trip(r);
            }
        }
        for &fact in new_facts {
            self.add_fact(fact);
        }
        self.drain();
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condensed::tests::{assert_segments_equivalent, ordered_digest, v};
    use crate::paper::example4;
    use crate::ChaseBudget;
    use wfdl_core::{Program, RuleAtom, Tgd};
    use wfdl_storage::Database;

    #[test]
    fn resume_equals_fresh_build_on_example4() {
        // Build with half the seeds, resume with the rest; compare to a
        // fresh chase over the union (shared universe, so atom ids align).
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let budget = ChaseBudget::depth(4);
        let base = ChaseSegment::build(&mut u, &db, &prog, budget);
        assert!(base.can_resume());

        // Delta: a second independent chain seed plus its P-base.
        let r = u.lookup_pred("R").unwrap();
        let p = u.lookup_pred("P").unwrap();
        let c = u.constant("c9");
        let d = u.constant("d9");
        let rcd = u.atom(r, vec![c, c, d]).unwrap();
        let pcc = u.atom(p, vec![c, c]).unwrap();

        let resumed = base
            .resume_with(&mut u, &prog, &[rcd, pcc])
            .expect("resumable");

        let mut union_db = db.clone();
        union_db.insert(&u, rcd).unwrap();
        union_db.insert(&u, pcc).unwrap();
        let fresh = ChaseSegment::build(&mut u, &union_db, &prog, budget);
        assert_segments_equivalent(&u, &fresh, &resumed);
        assert!(resumed.num_instances() > base.num_instances());
        // Nothing was relaxed, so neither run built its relaxation index
        // and the resume never read the base's occurrence rows (only the
        // recount above read the resumed segment's).
        assert_eq!(base.stats().relaxations, 0);
        assert_eq!(resumed.stats().relaxations, 0);
        assert!(base.occurrences.get().is_none());

        // A resumed segment resumes again.
        let e = u.constant("e9");
        let ree = u.atom(r, vec![e, e, c]).unwrap();
        let again = resumed
            .resume_with(&mut u, &prog, &[ree])
            .expect("resumable");
        union_db.insert(&u, ree).unwrap();
        let fresh = ChaseSegment::build(&mut u, &union_db, &prog, budget);
        assert!(again.occurrences.get().is_none());
        assert_segments_equivalent(&u, &fresh, &again);
        assert!(again.num_instances() > resumed.num_instances());
    }

    #[test]
    fn resume_relaxes_previously_derived_atom_to_fact_depth() {
        // q(c) is first derived at depth 1; inserting it as a fact must
        // relax it (and its consequences) to depth 0 — matching a fresh
        // chase over the union.
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(q, vec![v(0)])],
            )
            .unwrap(),
        );
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(q, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(rr, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let qc = u.atom(q, vec![c]).unwrap();
        let rc = u.atom(rr, vec![c]).unwrap();
        let mut db = Database::new();
        db.insert(&u, pc).unwrap();
        let base = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        assert_eq!(base.meta(qc).unwrap().depth, 1);
        assert_eq!(base.meta(rc).unwrap().depth, 2);

        assert!(base.occurrences.get().is_none());
        let resumed = base.resume_with(&mut u, &sk, &[qc]).expect("resumable");
        // Relaxing the inherited q(c) walked the *base's* body rows.
        assert!(resumed.stats().relaxations > 0);
        assert!(base.occurrences.get().is_some());
        assert!(resumed.occurrences.get().is_none());
        assert_eq!(resumed.meta(qc).unwrap().depth, 0);
        assert_eq!(resumed.meta(qc).unwrap().level, 0);
        assert_eq!(resumed.meta(rc).unwrap().depth, 1);
        assert_eq!(resumed.num_facts(), 2);

        let mut union_db = db.clone();
        union_db.insert(&u, qc).unwrap();
        let fresh = ChaseSegment::build(&mut u, &union_db, &sk, ChaseBudget::unbounded());
        assert_segments_equivalent(&u, &fresh, &resumed);
    }

    #[test]
    fn resume_fires_parked_side_conditions() {
        // guard q(X), side r(X) -> done(X): the instance parks during the
        // base build and must fire when the resume delivers r(c).
        let mut u = Universe::new();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let done = u.pred("done", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(q, vec![v(0)]), RuleAtom::new(rr, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(done, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let c = u.constant("c");
        let qc = u.atom(q, vec![c]).unwrap();
        let rc = u.atom(rr, vec![c]).unwrap();
        let donec = u.atom(done, vec![c]).unwrap();
        let mut db = Database::new();
        db.insert(&u, qc).unwrap();
        let base = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        assert_eq!(base.pending_at_end, 1);
        assert!(!base.contains(donec));

        let resumed = base.resume_with(&mut u, &sk, &[rc]).expect("resumable");
        assert!(resumed.contains(donec), "parked instance fired on resume");
        assert_eq!(resumed.pending_at_end, 0);
        assert!(resumed.complete);
    }

    #[test]
    fn resume_can_unblock_depth_truncation() {
        // Base: p(c) at depth limit 1 derives q(c) which sits gated at the
        // budget boundary (q guards a rule), so the base is truncated.
        // Inserting q(c) as a fact relaxes it to depth 0, the gate opens,
        // and the resumed segment is complete — exactly like a fresh build.
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(q, vec![v(0)])],
            )
            .unwrap(),
        );
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(q, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(rr, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let qc = u.atom(q, vec![c]).unwrap();
        let rc = u.atom(rr, vec![c]).unwrap();
        let mut db = Database::new();
        db.insert(&u, pc).unwrap();
        let base = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::depth(1));
        assert!(!base.complete, "q(c) is gated at depth 1");
        assert!(!base.contains(rc));

        let resumed = base.resume_with(&mut u, &sk, &[qc]).expect("resumable");
        assert!(resumed.contains(rc));
        assert!(resumed.complete, "no atom is gated after the relaxation");
        let mut union_db = db.clone();
        union_db.insert(&u, qc).unwrap();
        let fresh = ChaseSegment::build(&mut u, &union_db, &sk, ChaseBudget::depth(1));
        assert_segments_equivalent(&u, &fresh, &resumed);
    }

    #[test]
    fn cap_truncated_segments_refuse_resume() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(
            &mut u,
            &db,
            &prog,
            ChaseBudget::depth(64).with_max_atoms(10),
        );
        assert!(!seg.can_resume());
        assert_eq!(seg.truncation(), Some(TruncationReason::AtomCap));
        let err = seg
            .resume_with(&mut u, &prog, &[])
            .expect_err("cap-truncated segments must refuse resume");
        assert_eq!(err.reason, TruncationReason::AtomCap);
    }

    #[test]
    fn budget_trip_resume_reaches_exactly_the_uninterrupted_segment() {
        use wfdl_core::budget::{FaultKind, FaultPlan};
        // Uninterrupted reference.
        let reference = {
            let mut u = Universe::new();
            let (db, prog) = example4(&mut u);
            let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(4));
            ordered_digest(&u, &seg)
        };
        for round in [0u64, 1, 2] {
            for kind in [
                FaultKind::TripDeadline,
                FaultKind::TripMem,
                FaultKind::TripCancel,
            ] {
                let mut u = Universe::new();
                let (db, prog) = example4(&mut u);
                let solve = SolveBudget::unlimited().with_fault(FaultPlan {
                    site: FaultSite::ChaseRound(round),
                    kind,
                });
                let seg =
                    ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
                assert!(!seg.complete, "round {round} {kind:?}");
                assert!(seg.truncation().unwrap().is_budget_trip());
                assert!(seg.can_resume());
                // Resuming with an empty delta continues exactly where the
                // tripped run stopped — bit-identical to never tripping.
                let resumed = seg.resume_with(&mut u, &prog, &[]).expect("resumable");
                assert_eq!(
                    ordered_digest(&u, &resumed),
                    reference,
                    "resume after {kind:?} at round {round} diverged"
                );
            }
        }
    }

    #[test]
    fn merge_phase_trip_keeps_round_coherent() {
        use wfdl_core::budget::{FaultKind, FaultPlan};
        let reference = {
            let mut u = Universe::new();
            let (db, prog) = example4(&mut u);
            let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(4));
            ordered_digest(&u, &seg)
        };
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let solve = SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::ChaseMerge(1),
            kind: FaultKind::TripDeadline,
        });
        let seg = ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
        assert!(!seg.complete);
        assert_eq!(seg.stats().rounds, 1, "stopped right after round 1's merge");
        let resumed = seg.resume_with(&mut u, &prog, &[]).expect("resumable");
        assert_eq!(ordered_digest(&u, &resumed), reference);
    }
}
