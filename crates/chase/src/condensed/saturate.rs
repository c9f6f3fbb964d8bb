//! Saturation: the builder's rounds of collecting a frontier and applying
//! its matches (interning, firing, parking on missing side atoms).

use super::relax::BodyLists;
use super::resume::ResumeState;
use super::segment::{ChaseSegment, ChaseStats, Forest, SegmentAtom};
use super::NONE;
use crate::instance::SegAtomId;
use crate::plan::Plan;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;
use wfdl_core::budget::FaultSite;
use wfdl_core::{AtomId, ChunkVec, SkolemProgram, SolveBudget, TermId, TruncationReason, Universe};

/// An instance parked until its side atoms appear; its bodies are the
/// rows of the same index in the pending row pools.
#[derive(Clone, Copy, Debug)]
pub(super) struct Pending {
    src_rule: u32,
    guard: u32,
    head: AtomId,
    missing: u32,
}

pub(super) struct Builder<'a> {
    pub(super) universe: &'a mut Universe,
    /// Runtime limits (deadline / cancellation / memory), polled at round
    /// boundaries. Unlimited budgets cost one branch per round.
    pub(super) solve: SolveBudget,
    /// Rule indexes per guard predicate (flat, [`wfdl_core::PredId`]-indexed).
    pub(super) rules_by_guard_pred: Vec<Vec<u32>>,
    /// Every rule compiled against its guard, by rule index.
    plans: Vec<Plan>,

    /// The segment being resumed — [`ChaseSegment::empty`] for a build:
    /// depth/level relaxation over its instances walks its body-occurrence
    /// rows (`body_lists` only covers the instances fired by this run).
    pub(super) base: &'a ChaseSegment,

    /// The segment under construction, built in place.
    pub(super) forest: Forest,
    /// The rest of the saturation state, which the segment keeps.
    pub(super) resume: ResumeState,
    /// The relaxation index over this run's instances. `None` until the
    /// first [`Builder::relax`] — most builds never relax — which seeds it
    /// from `pos_seg`; from then on `fire` appends to it.
    pub(super) body_lists: Option<BodyLists>,
    pub(super) relax_queue: VecDeque<u32>,
    /// Inherited atoms whose depth improved during a resume — the only
    /// ones whose depth gate can have changed (with repeats).
    pub(super) relaxed: Vec<u32>,

    /// Current round's expansion frontier, in expand-queue (= discovery)
    /// order; reused across rounds.
    pub(super) frontier: Vec<u32>,
    pub(super) stats: ChaseStats,

    // --- reusable scratch buffers (zero steady-state allocation) ---
    /// The arguments of the frontier atom being matched.
    guard_args: Vec<TermId>,
    scratch_args: Vec<TermId>,
    scratch_pos: Vec<AtomId>,
    /// Segment ids of `scratch_pos` (`NONE` = not in the segment yet): what
    /// `fire` records.
    scratch_seg: Vec<u32>,
    scratch_neg: Vec<AtomId>,
    scratch_missing: Vec<AtomId>,
}

impl<'a> Builder<'a> {
    /// Seeds a builder with the full state of `base`, so saturation can
    /// continue from its frontier under its budget. Each array is a clone
    /// that shares every chunk with `base`: the resume copies the chunks it
    /// writes, nothing else. Over the empty segment the atom map is sized
    /// to the universe once, as a build has always done.
    pub(super) fn new(
        universe: &'a mut Universe,
        program: &'a SkolemProgram,
        base: &'a ChaseSegment,
        solve: SolveBudget,
    ) -> Self {
        let mut rules_by_guard_pred: Vec<Vec<u32>> = Vec::new();
        for (i, rule) in program.rules.iter().enumerate() {
            let p = rule.guard_atom().pred.index();
            if rules_by_guard_pred.len() <= p {
                rules_by_guard_pred.resize_with(p + 1, Vec::new);
            }
            rules_by_guard_pred[p].push(i as u32);
        }
        let plans = (program.rules.iter())
            .map(|rule| Plan::compile(universe, rule))
            .collect();
        let mut forest = base.forest.clone();
        if base.is_empty() {
            forest.seg_of = ChunkVec::from_elem(NONE, universe.atoms.len());
        }
        // Uncollected expansion work from a budget-tripped build comes
        // along in the queue, so the resume continues exactly where the
        // tripped run stopped (a cleanly quiesced build leaves it empty).
        let mut resume = base.resume.clone();
        // A previous run's budget trip belongs to that run — the resume
        // polls its own budget. Cap truncation never reaches this point
        // (`resume_budgeted` refuses those segments).
        resume.truncation = None;
        Builder {
            universe,
            solve,
            rules_by_guard_pred,
            plans,
            base,
            forest,
            resume,
            body_lists: None,
            relax_queue: VecDeque::new(),
            relaxed: Vec::new(),
            frontier: Vec::new(),
            stats: ChaseStats {
                effective_threads: 1,
                ..ChaseStats::default()
            },
            guard_args: Vec::new(),
            scratch_args: Vec::new(),
            scratch_pos: Vec::new(),
            scratch_seg: Vec::new(),
            scratch_neg: Vec::new(),
            scratch_missing: Vec::new(),
        }
    }

    /// The saturation work loop: rounds of *relax to fixpoint → collect
    /// the expansion frontier → apply it*.
    ///
    /// The frontier is consumed in expand-queue order and each atom's
    /// rules in `rules_by_guard_pred` order, so `SegAtomId` assignment,
    /// depth/level minima, instance order, cap behavior and universe
    /// interning order are a function of the input alone.
    pub(super) fn drain(&mut self) {
        let budgeted = !self.solve.is_unlimited();
        loop {
            while let Some(ai) = self.relax_queue.pop_front() {
                self.relax(ai);
            }
            // Round boundary: relaxation is at fixpoint and every apply
            // step has finished, so stopping here leaves the saturation state
            // fully coherent (the uncollected expand queue is retained for
            // resume). Only runtime budget trips stop the loop; the
            // structural caps keep their historical peter-out semantics.
            if budgeted && self.trip_at_round_boundary() {
                break;
            }
            let collect_start = Instant::now();
            self.collect_frontier();
            self.stats.match_ns += collect_start.elapsed().as_nanos() as u64;
            if self.frontier.is_empty() {
                // Nothing passed the gates; relaxation cannot have run
                // since the queue was drained above, so saturation is done.
                break;
            }
            self.stats.rounds += 1;
            self.stats.frontier_atoms += self.frontier.len() as u64;

            let apply_start = Instant::now();
            self.apply_frontier();
            self.stats.merge_ns += apply_start.elapsed().as_nanos() as u64;

            // Apply-step fault injection (after the round's matches have
            // been applied, so trip kinds still stop at a coherent boundary).
            if budgeted {
                if let Some(r) = self
                    .solve
                    .fire_fault(FaultSite::ChaseMerge(self.stats.rounds))
                {
                    while let Some(ai) = self.relax_queue.pop_front() {
                        self.relax(ai);
                    }
                    self.trip(r);
                    break;
                }
            }
        }
    }

    /// Polls the fault plan and the runtime budget at a round boundary;
    /// records the first trip and reports whether saturation must stop.
    fn trip_at_round_boundary(&mut self) -> bool {
        if (self.resume.truncation).is_some_and(TruncationReason::is_budget_trip) {
            // Tripped before the loop (resume-boundary fault injection).
            return true;
        }
        if let Some(r) = self
            .solve
            .fire_fault(FaultSite::ChaseRound(self.stats.rounds))
        {
            self.trip(r);
            return true;
        }
        let mem = if self.solve.wants_mem() {
            self.mem_bytes()
        } else {
            0
        };
        if let Some(r) = self.solve.check(mem) {
            self.trip(r);
            return true;
        }
        false
    }

    /// Records the first truncation reason; later trips never overwrite it.
    pub(super) fn trip(&mut self, reason: TruncationReason) {
        if self.resume.truncation.is_none() {
            self.resume.truncation = Some(reason);
        }
    }

    /// The builder's pool footprint in bytes — every chunk and the
    /// capacity of every array that grows with the segment, shared with
    /// the segment being resumed or not, O(chunks). This is what the
    /// memory budget is accounted against: a resume is charged for the
    /// model it extends.
    pub(super) fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let lists = self.body_lists.as_ref().map_or(0, |l| {
            l.head.capacity() + l.tail.capacity() + l.next.capacity() + l.inst.capacity()
        });
        let u32s = lists
            + self.resume.expand_queue.capacity()
            + self.relax_queue.capacity()
            + self.relaxed.capacity()
            + self.frontier.capacity();
        (self.forest.footprint() + self.resume.footprint()).held
            + self.resume.fact_set.heap_bytes()
            + u32s * size_of::<u32>()
    }

    /// Drains the expand queue through the expansion gates into
    /// `frontier`, marking collected atoms expanded. Gate order matches
    /// the historical per-atom expansion exactly: rule-less and
    /// depth-gated atoms stay **unmarked** so `blocked_by_depth` and the
    /// resume path still see them.
    fn collect_frontier(&mut self) {
        self.frontier.clear();
        while let Some(ai) = self.resume.expand_queue.pop_front() {
            let SegmentAtom { atom, depth, .. } = self.forest.atoms[ai as usize];
            let pred = self.universe.atoms.pred(atom).index();
            match self.rules_by_guard_pred.get(pred) {
                Some(rules) if !rules.is_empty() => {}
                _ => continue,
            }
            if depth >= self.base.budget.max_depth {
                // Could have children beyond the budgeted depth;
                // `blocked_by_depth` reads the truncation off the final
                // minima, and a later relaxation re-queues the atom.
                continue;
            }
            if self.resume.expanded[ai as usize] {
                // Re-queued by relaxation after its rules already
                // instantiated — nothing new can fire.
                continue;
            }
            self.resume.expanded[ai as usize] = true;
            self.frontier.push(ai);
        }
    }

    /// The apply step: matches each frontier atom, in frontier order,
    /// against the plans of its predicate's rules, in `rules_by_guard_pred`
    /// order, and applies every match on the spot. A match reads only the
    /// atom's arguments, which nothing changes, so matching as the round
    /// goes finds what matching the whole frontier first would.
    fn apply_frontier(&mut self) {
        // Out of `self` for the round: nothing a match calls reads a plan.
        let plans = std::mem::take(&mut self.plans);
        for i in 0..self.frontier.len() {
            let ai = self.frontier[i];
            let atom = self.forest.atoms[ai as usize].atom;
            let node = self.universe.atoms.node(atom);
            let pred = node.pred.index();
            self.guard_args.clear();
            self.guard_args.extend_from_slice(node.args);
            // The frontier gate only admits atoms with at least one rule.
            for k in 0..self.rules_by_guard_pred[pred].len() {
                let ri = self.rules_by_guard_pred[pred][k];
                let plan = &plans[ri as usize];
                if plan.matches(&self.guard_args) {
                    self.apply_match(ai, ri, plan);
                }
            }
        }
        self.plans = plans;
    }

    /// Registers a database fact: a brand-new atom enters at depth and
    /// level 0; an atom previously *derived* at positive depth is relaxed
    /// to 0 and the improvement propagated.
    pub(super) fn add_fact(&mut self, fact: AtomId) {
        match self.lookup_seg(fact) {
            None => {
                let idx = self.forest.atoms.len();
                self.add_atom(fact, 0, 0);
                self.mark_fact(idx);
            }
            Some(s) => {
                self.mark_fact(s as usize);
                let meta = &mut self.forest.atoms[s as usize];
                if meta.depth > 0 || meta.level > 0 {
                    meta.depth = 0;
                    meta.level = 0;
                    self.relax_queue.push_back(s);
                }
            }
        }
    }

    fn mark_fact(&mut self, seg: usize) {
        if self.resume.fact_set.insert(seg) {
            self.forest.fact_seg.push(SegAtomId::from_index(seg));
        }
    }

    /// Assembles the segment.
    pub(super) fn finish(mut self) -> ChaseSegment {
        let pending_at_end = self.resume.pending.iter().filter(|p| p.missing > 0).count();
        self.resume.depth_blocked = self.depth_blocked();
        let complete = self.resume.truncation.is_none() && self.resume.depth_blocked == 0;
        ChaseSegment {
            occurrences: OnceLock::new(),
            complete,
            pending_at_end,
            budget: self.base.budget,
            inherited_instances: self.base.num_instances(),
            inherited_atoms: self.base.forest.atoms.len(),
            stats: self.stats,
            forest: self.forest,
            resume: self.resume,
        }
    }

    /// Segment id of an interned atom, if materialized.
    #[inline]
    fn lookup_seg(&self, atom: AtomId) -> Option<u32> {
        match self.forest.seg_of.get(atom.index()) {
            Some(&s) if s != NONE => Some(s),
            _ => None,
        }
    }

    /// Registers a new atom, queuing it for expansion and firing pending
    /// instances that were waiting for it. Assumes not present.
    fn add_atom(&mut self, atom: AtomId, depth: u32, level: u32) {
        let uid = atom.index();
        if self.forest.seg_of.len() <= uid {
            self.forest.seg_of.resize(uid + 1, NONE);
        }
        debug_assert_eq!(self.forest.seg_of[uid], NONE, "atom already in segment");
        let idx = self.forest.atoms.len() as u32;
        self.forest.atoms.push(SegmentAtom { atom, depth, level });
        self.forest.seg_of[uid] = idx;
        self.resume.expanded.push(false);
        if let Some(lists) = &mut self.body_lists {
            lists.head.push(NONE);
            lists.tail.push(NONE);
        }
        self.resume.expand_queue.push_back(idx);
        // Wake pending instances watching this atom. Detach the list first;
        // entries are append-only, so traversal stays valid while nested
        // fires push new entries for *other* atoms.
        if uid < self.resume.watch_head.len() {
            let mut e = self.resume.watch_head[uid];
            self.resume.watch_head[uid] = NONE;
            self.resume.watch_tail[uid] = NONE;
            while e != NONE {
                let next = self.resume.watch_next[e as usize];
                let p = self.resume.watch_pend[e as usize] as usize;
                self.resume.pending[p].missing -= 1;
                if self.resume.pending[p].missing == 0 {
                    self.fire_pending(p);
                }
                e = next;
            }
        }
    }

    /// Applies one guard match of the frontier atom `ai` (its arguments
    /// in `guard_args`) against rule `ri`'s plan: interns the positive
    /// side atoms in body order, the negated atoms, then the head's Skolem
    /// terms and the head, and fires the instance or parks it on its
    /// missing side atoms. Interning allocates ids, which is why matches
    /// are applied in canonical (frontier) order.
    ///
    /// The guard is the frontier atom itself, so it is neither interned
    /// nor looked up again; every other positive body atom's segment id is
    /// resolved here, once, for the missing check and for `fire`.
    fn apply_match(&mut self, ai: u32, ri: u32, plan: &Plan) {
        let guard_atom = self.forest.atoms[ai as usize].atom;
        self.scratch_pos.clear();
        self.scratch_seg.clear();
        let mut any_missing = false;
        for side in plan.pos.iter() {
            let (id, seg) = match side {
                None => (guard_atom, ai),
                Some(a) => {
                    let id = a.intern(self.universe, &self.guard_args, &mut self.scratch_args);
                    (id, self.lookup_seg(id).unwrap_or(NONE))
                }
            };
            any_missing |= seg == NONE;
            self.scratch_pos.push(id);
            self.scratch_seg.push(seg);
        }
        self.scratch_neg.clear();
        for a in plan.neg.iter() {
            let id = a.intern(self.universe, &self.guard_args, &mut self.scratch_args);
            self.scratch_neg.push(id);
        }
        let head = (plan.head).intern(self.universe, &self.guard_args, &mut self.scratch_args);

        if !any_missing {
            self.fire(ri, ai, head);
            return;
        }
        self.scratch_missing.clear();
        for (&a, &seg) in self.scratch_pos.iter().zip(&self.scratch_seg) {
            if seg == NONE {
                self.scratch_missing.push(a);
            }
        }
        self.scratch_missing.sort_unstable();
        self.scratch_missing.dedup();
        let pidx = self.resume.pending.len() as u32;
        self.resume.pending.push(Pending {
            src_rule: ri,
            guard: ai,
            head,
            missing: self.scratch_missing.len() as u32,
        });
        self.resume.pend_pos.push(self.scratch_pos.iter().copied());
        self.resume.pend_neg.push(self.scratch_neg.iter().copied());
        for i in 0..self.scratch_missing.len() {
            let m = self.scratch_missing[i];
            self.resume.watch(m.index(), pidx);
        }
    }

    /// Fires a parked instance whose last missing side atom just appeared:
    /// stages its body (every atom a segment atom by now) back into the
    /// scratch buffers and records it.
    fn fire_pending(&mut self, p: usize) {
        let pd = self.resume.pending[p];
        self.scratch_seg.clear();
        for &a in self.resume.pend_pos.row(p) {
            self.scratch_seg.push(self.forest.seg_of[a.index()]);
        }
        self.scratch_neg.clear();
        self.scratch_neg
            .extend_from_slice(self.resume.pend_neg.row(p));
        self.fire(pd.src_rule, pd.guard, pd.head);
    }

    /// Records a fired instance (positive body in `scratch_seg`, negative
    /// in `scratch_neg`, all positive atoms present) and derives its head.
    /// The scratch buffers are fully consumed before the head derivation
    /// can recurse into nested fires.
    fn fire(&mut self, src_rule: u32, guard: u32, head: AtomId) {
        if self.forest.inst_src_rule.len() >= self.base.budget.max_instances {
            self.trip(TruncationReason::InstanceCap);
            return;
        }
        let head_seg = self.lookup_seg(head);
        if head_seg.is_none() && self.forest.atoms.len() >= self.base.budget.max_atoms {
            // The head would exceed the atom cap; drop the instance whole
            // so every recorded instance's head is a segment atom.
            self.trip(TruncationReason::AtomCap);
            return;
        }

        let iid = self.forest.inst_src_rule.len() as u32;
        self.forest.inst_src_rule.push(src_rule);
        self.forest
            .inst_guard
            .push(SegAtomId::from_index(guard as usize));
        let hseg = head_seg.unwrap_or(self.forest.atoms.len() as u32);
        self.forest
            .inst_head
            .push(SegAtomId::from_index(hseg as usize));
        let child_depth = self.forest.atoms[guard as usize].depth + 1;
        let mut child_level = 0u32;
        for &s in &self.scratch_seg {
            debug_assert_ne!(s, NONE, "fired instance has a missing body atom");
            child_level = child_level.max(self.forest.atoms[s as usize].level);
            if let Some(lists) = &mut self.body_lists {
                lists.link(SegAtomId::from_index(s as usize), iid);
            }
        }
        let child_level = child_level + 1;
        (self.forest.pos).push(
            self.scratch_seg
                .iter()
                .map(|&s| SegAtomId::from_index(s as usize)),
        );
        self.forest.neg.push(self.scratch_neg.iter().copied());

        match head_seg {
            None => self.add_atom(head, child_depth, child_level),
            Some(hi) => {
                let meta = &mut self.forest.atoms[hi as usize];
                if child_depth < meta.depth || child_level < meta.level {
                    meta.depth = meta.depth.min(child_depth);
                    meta.level = meta.level.min(child_level);
                    self.relax_queue.push_back(hi);
                }
            }
        }
    }
}
