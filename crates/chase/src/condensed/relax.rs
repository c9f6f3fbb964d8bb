//! Depth/level relaxation: the minima an atom's later, shallower
//! derivations lower, and the depth gate they reopen.

use super::saturate::Builder;
use super::segment::SegmentAtom;
use super::NONE;
use crate::instance::SegAtomId;
use wfdl_core::AtomId;

/// Intrusive per-segment-atom lists of the instances whose positive body
/// mentions the atom, one entry per occurrence, in instance order — what
/// depth/level relaxation walks. `head`/`tail` are cursors per atom into
/// the entry pool `next`/`inst`; entries are appended, never freed.
pub(super) struct BodyLists {
    pub(super) head: Vec<u32>,
    pub(super) tail: Vec<u32>,
    pub(super) next: Vec<u32>,
    pub(super) inst: Vec<u32>,
}

impl BodyLists {
    /// Appends an entry for segment atom `s` → instance.
    pub(super) fn link(&mut self, s: SegAtomId, inst: u32) {
        let e = self.next.len() as u32;
        self.next.push(NONE);
        self.inst.push(inst);
        let tail = self.tail[s.index()];
        if tail == NONE {
            self.head[s.index()] = e;
        } else {
            self.next[tail as usize] = e;
        }
        self.tail[s.index()] = e;
    }
}

impl<'a> Builder<'a> {
    /// The relaxation index built before this run fires its first instance
    /// and appended to by every `fire` — the reference the lazily seeded
    /// index is tested against.
    #[cfg(test)]
    fn with_body_lists(mut self) -> Self {
        self.body_lists = Some(self.seed_body_lists());
        self
    }

    /// True iff an atom with applicable rules, at `depth`, unexpanded, sits
    /// at the depth budget: it could have children beyond the budgeted
    /// depth.
    fn gated(&self, atom: AtomId, depth: u32, expanded: bool) -> bool {
        !expanded
            && depth >= self.base.budget.max_depth
            && self
                .rules_by_guard_pred
                .get(self.universe.atoms.pred(atom).index())
                .is_some_and(|r| !r.is_empty())
    }

    /// How many atoms the depth budget keeps from expanding; the segment is
    /// a truncation iff there is one. Read off the final depth minima (not
    /// a sticky in-run flag), so a resume that relaxes a previously gated
    /// atom below the budget reports completeness exactly. A resume starts
    /// from the base's count and looks only at the atoms it added or
    /// relaxed — nothing else can have changed depth or expansion state;
    /// over the empty base, that is every atom.
    pub(super) fn depth_blocked(&mut self) -> usize {
        if self.base.budget.max_depth == u32::MAX {
            return 0;
        }
        let (base, atoms) = (self.base, self.forest.atoms.len());
        let now = |b: &Self, i: usize| {
            let SegmentAtom { atom, depth, .. } = b.forest.atoms[i];
            b.gated(atom, depth, b.resume.expanded[i])
        };
        let mut relaxed = std::mem::take(&mut self.relaxed);
        relaxed.sort_unstable();
        relaxed.dedup();
        let mut blocked = base.resume.depth_blocked;
        for &ai in &relaxed {
            let i = ai as usize;
            let before = base.forest.atoms[i];
            blocked -= self.gated(before.atom, before.depth, base.resume.expanded[i]) as usize;
            blocked += now(self, i) as usize;
        }
        blocked += (base.forest.atoms.len()..atoms)
            .filter(|&i| now(self, i))
            .count();
        // `drain` relaxes to fixpoint before it stops, so every inherited
        // atom whose depth moved is in `relaxed`.
        debug_assert!(self.relax_queue.is_empty());
        debug_assert_eq!(blocked, (0..atoms).filter(|&i| now(self, i)).count());
        blocked
    }

    /// Builds the relaxation index over the instances this run has fired so
    /// far — entry for entry what `fire` would have appended had the index
    /// existed from the start, so relaxation visits instances in the same
    /// order either way.
    fn seed_body_lists(&self) -> BodyLists {
        let mut lists = BodyLists {
            head: vec![NONE; self.forest.atoms.len()],
            tail: vec![NONE; self.forest.atoms.len()],
            next: Vec::new(),
            inst: Vec::new(),
        };
        for i in self.base.num_instances()..self.forest.inst_src_rule.len() {
            for &s in self.forest.pos.row(i) {
                lists.link(s, i as u32);
            }
        }
        lists
    }

    /// Propagates a depth/level improvement of `atoms[ai]` to the heads of
    /// every instance whose body mentions it, and re-checks the depth gate.
    pub(super) fn relax(&mut self, ai: u32) {
        self.stats.relaxations += 1;
        let depth = self.forest.atoms[ai as usize].depth;
        // The atom may now be allowed to expand where it previously hit the
        // depth gate.
        if depth < self.base.budget.max_depth {
            self.resume.expand_queue.push_back(ai);
        }
        // An atom of the base: its depth gate may have changed, and the
        // instances inherited with it have their body occurrences in the
        // base's rows (the lists below only cover instances fired this run).
        let base = self.base;
        if (ai as usize) < base.forest.atoms.len() {
            self.relaxed.push(ai);
            for &iid in base.instances_with_body_seg(SegAtomId::from_index(ai as usize)) {
                self.relax_instance(iid.index());
            }
        }
        // `relax_instance` touches minima and the relax queue only, so the
        // index can sit outside `self` for the walk.
        let lists = match self.body_lists.take() {
            Some(lists) => lists,
            None => self.seed_body_lists(),
        };
        let mut e = lists.head[ai as usize];
        while e != NONE {
            let iid = lists.inst[e as usize] as usize;
            e = lists.next[e as usize];
            self.relax_instance(iid);
        }
        self.body_lists = Some(lists);
    }

    /// Re-derives instance `iid`'s head depth/level from its current body
    /// minima, queueing the head if it improved.
    fn relax_instance(&mut self, iid: usize) {
        let child_depth = self.forest.atoms[self.forest.inst_guard[iid].index()].depth + 1;
        let mut child_level = 0u32;
        for &s in self.forest.pos.row(iid) {
            child_level = child_level.max(self.forest.atoms[s.index()].level);
        }
        let child_level = child_level + 1;
        let hi = self.forest.inst_head[iid].index();
        let meta = &mut self.forest.atoms[hi];
        if child_depth < meta.depth || child_level < meta.level {
            meta.depth = meta.depth.min(child_depth);
            meta.level = meta.level.min(child_level);
            self.relax_queue.push_back(hi as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condensed::tests::{
        assert_ground_programs_identical, assert_occurrences_recount, assert_segments_equivalent,
        ordered_digest, unary_atom, unary_program, LATE_FIRE_LOWERS_A_LEVEL,
    };
    use crate::{ChaseBudget, ChaseSegment};
    use wfdl_core::{SolveBudget, Universe};
    use wfdl_storage::Database;

    /// `x(c)` is first derived at the depth budget (3) and passed over; a
    /// parked instance guarded by the fact `g(c)` re-derives it at depth 1 a
    /// round later, which must put it back in the expansion queue. Its
    /// consequence `y(c)` is in turn re-derived shallower once `w(c)` shows
    /// up, through an instance fired after the index was seeded.
    const REDERIVED_SHALLOWER_REOPENS_A_GATE: &[(&[&str], &str)] = &[
        (&["a"], "b"),
        (&["b"], "b2"),
        (&["b2"], "x"), // x(c): depth 3, gated
        (&["x"], "y"),
        (&["b2", "x"], "z"),
        (&["g", "b2"], "m"), // parked; m(c): depth 1, in round 2
        (&["m"], "m2"),
        (&["m2"], "late"),     // late(c): round 4
        (&["g", "late"], "x"), // parked; x(c): depth 1
        (&["y"], "w"),
        (&["g", "w"], "y"), // parked; y(c): depth 2 → 1, so w(c): 3 → 2
    ];

    /// Builds `rules` over the facts `preds(c)` twice, each in a universe of
    /// its own — the relaxation index seeded on the first relaxation, and
    /// kept from the first instance on — and checks the two agree in every
    /// id, minimum and ground rule. Returns the first.
    fn build_both_ways(
        rules: &[(&[&str], &str)],
        facts: &[&str],
        budget: ChaseBudget,
    ) -> (Universe, ChaseSegment) {
        let build = |eager: bool| {
            let mut u = Universe::new();
            let sk = unary_program(&mut u, rules);
            let mut db = Database::new();
            for p in facts {
                let f = unary_atom(&mut u, p, "c");
                db.insert(&u, f).unwrap();
            }
            let empty = ChaseSegment::empty(budget);
            let b = Builder::new(&mut u, &sk, &empty, SolveBudget::unlimited());
            let seg = if eager { b.with_body_lists() } else { b }.run_delta(db.facts());
            (u, seg)
        };
        let (u, seg) = build(false);
        let (eager_u, eager) = build(true);
        assert_eq!(ordered_digest(&u, &seg), ordered_digest(&eager_u, &eager));
        assert_ground_programs_identical(&eager.to_ground_program(), &seg.to_ground_program());
        assert_eq!(seg.stats().relaxations, eager.stats().relaxations);
        assert_occurrences_recount(&seg);
        (u, seg)
    }

    #[test]
    fn late_fire_inside_a_fresh_build_relaxes_through_the_seeded_index() {
        let (mut u, seg) = build_both_ways(
            LATE_FIRE_LOWERS_A_LEVEL,
            &["a", "g", "s"],
            ChaseBudget::unbounded(),
        );
        assert!(seg.stats().relaxations > 0);
        let level = |u: &mut Universe, p: &str| seg.meta(unary_atom(u, p, "c")).unwrap().level;
        assert_eq!(
            level(&mut u, "h"),
            2,
            "lowered from 3 by the parked instance"
        );
        assert_eq!(level(&mut u, "k"), 3, "followed through the seeded index");
    }

    #[test]
    fn rederivation_inside_a_fresh_build_reopens_a_depth_gate() {
        let (mut u, seg) = build_both_ways(
            REDERIVED_SHALLOWER_REOPENS_A_GATE,
            &["a", "g"],
            ChaseBudget::depth(3),
        );
        assert!(seg.stats().relaxations >= 2);
        let depth = |u: &mut Universe, p: &str| seg.meta(unary_atom(u, p, "c")).unwrap().depth;
        assert_eq!(depth(&mut u, "x"), 1);
        assert_eq!(depth(&mut u, "y"), 1, "x(c) expanded after all");
        assert_eq!(
            depth(&mut u, "w"),
            2,
            "relaxed through an instance fired after seeding"
        );
        assert!(seg.complete);
    }

    #[test]
    fn resume_relaxes_through_old_rows_and_the_seeded_index() {
        // The delta's n(c) fires `n, h -> k2` before its s(c) lets the parked
        // instance lower h(c): relaxing h(c) must reach the inherited
        // `a, h -> k` (the base's rows) and the resume's own `n, h -> k2`
        // (the index, seeded at that point from the resume's instances).
        let resume = |eager: bool| {
            let mut u = Universe::new();
            let sk = unary_program(&mut u, LATE_FIRE_LOWERS_A_LEVEL);
            let mut db = Database::new();
            for p in ["a", "g"] {
                let f = unary_atom(&mut u, p, "c");
                db.insert(&u, f).unwrap();
            }
            let base = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
            assert_eq!(base.stats().relaxations, 0);
            let delta = [unary_atom(&mut u, "n", "c"), unary_atom(&mut u, "s", "c")];
            let b = Builder::new(&mut u, &sk, &base, SolveBudget::unlimited());
            let resumed = if eager { b.with_body_lists() } else { b }.run_delta(&delta);
            assert!(base.occurrences.get().is_some());
            for f in delta {
                db.insert(&u, f).unwrap();
            }
            let fresh = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
            assert_segments_equivalent(&u, &fresh, &resumed);
            (u, resumed)
        };
        let (mut u, resumed) = resume(false);
        let (eager_u, eager) = resume(true);
        assert_eq!(
            ordered_digest(&u, &resumed),
            ordered_digest(&eager_u, &eager)
        );
        assert_ground_programs_identical(&eager.to_ground_program(), &resumed.to_ground_program());
        assert!(resumed.stats().relaxations > 0);
        assert_eq!(resumed.stats().relaxations, eager.stats().relaxations);
        let level = |u: &mut Universe, p: &str| resumed.meta(unary_atom(u, p, "c")).unwrap().level;
        assert_eq!(level(&mut u, "h"), 2);
        assert_eq!(level(&mut u, "k"), 3, "an inherited instance");
        assert_eq!(level(&mut u, "k2"), 3, "an instance of the resume");
    }
}
