//! Condensed chase segments: a finite, depth-bounded materialization of the
//! guarded chase forest `F⁺(P)` for `P = D ∪ Σf`.
//!
//! ## Why "condensed"
//!
//! The forest of Section 2.5 attaches a child for a ground rule `r` under
//! *every* node labelled `guard(r)`, so identical subtrees repeat (in the
//! paper's Example 6 figure, `S(0)` and `T(0)` appear under every `R`-node).
//! For computation only two things matter, and both are per-*atom*, not
//! per-node:
//!
//! 1. the set of ground rule instances discovered (they form the finite
//!    ground normal program the WFS engines run on), and
//! 2. each atom's minimal forest depth and minimal derivation level
//!    (`level_P(a)`, Section 2.5), which the forward-proof machinery of
//!    Section 3 consumes.
//!
//! A [`ChaseSegment`] therefore stores one record per distinct atom plus the
//! deduplicated rule instances. The faithful node-per-occurrence forest is
//! available separately in [`crate::explicit`] and is proven equivalent (in
//! labels, edges, depths and levels) by integration tests.
//!
//! ## Saturation
//!
//! Guardedness makes saturation join-free: matching a rule's guard against a
//! concrete atom binds *all* universal variables, so the remaining positive
//! body atoms are ground "side conditions". Each rule is compiled once per
//! build into a plan (`plan.rs`) over its guard's argument positions, so a
//! match is a few array compares and an instance is gathered straight from
//! the guard's arguments. Instances whose side conditions are not yet
//! present wait in a pending list with Dowling–Gallier-style watch
//! counters. Atom depths/levels are maintained as minima by a relaxation
//! worklist, because a later-discovered derivation may be shallower than
//! the first one.
//!
//! ## Hash-free memory layout
//!
//! Saturation runs entirely on **dense indexes and flat pools** — after the
//! one unavoidable hash per *newly interned* term/atom in the universe, no
//! hot-path step hashes anything:
//!
//! * every discovered atom gets a dense [`SegAtomId`] **once** in
//!   `add_atom`; the reverse map `seg_of` is a flat array indexed by the
//!   universe's (equally dense) [`AtomId`], so membership tests and id
//!   conversion are single array reads;
//! * instance bodies live in shared arena pools (`pos_seg` / `neg_atoms`)
//!   addressed by CSR offsets — zero per-instance boxes;
//! * the Dowling–Gallier watch lists and the depth/level relaxation index
//!   (`instances-with-atom-in-body`) are intrusive linked lists over flat
//!   entry pools with per-atom head/tail cursors — the relaxation index is
//!   built by the first relaxation, which most builds never run;
//! * the "did this (rule, atom) pair instantiate already?" set collapses to
//!   one bit per segment atom, because expansion always attempts every rule
//!   guarded by the atom's predicate in one sweep;
//! * guard/head/body occurrence indexes are CSR arrays (counting sort)
//!   mirroring [`GroundProgram`]'s layout, counted by the first accessor
//!   that reads one — saturation, grounding and the engine never do — and
//!   [`ChaseSegment::to_ground_program`] hands the segment off as a
//!   straight array translation — no per-atom hash lookups.
//! * every array is a copy-on-write chunked array ([`ChunkVec`],
//!   [`RowPool`]): a build appends to flat tails at a `Vec`'s speed, and a
//!   resume starts from clones that share the segment's frozen chunks and
//!   copies only the chunks it writes.

use crate::budget::ChaseBudget;
use crate::instance::{InstanceId, RuleInstance, SegAtomId};
use crate::plan::Plan;
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;
use wfdl_core::budget::FaultSite;
use wfdl_core::{
    AtomId, BitSet, ChunkVec, Footprint, RowPool, SkolemProgram, SolveBudget, TermId,
    TruncationReason, Universe,
};
use wfdl_storage::{Database, GroundProgram, Room};

/// Sentinel for "no entry" in the flat index arrays.
const NONE: u32 = u32::MAX;

/// Per-build counters for the saturation loop, exposed as
/// [`ChaseSegment::stats`] and printed by `wfdl run --stats`.
///
/// The timings cover the collect and apply steps of every round; frontier
/// atoms are matched, and their instances interned and fired, in the apply
/// step. These counters are diagnostics only — nothing downstream may depend on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Always `1`. Accepted and ignored for the frozen benchmark; removed
    /// by the benchmark issue that drops `cold_solve_auto_s`.
    #[doc(hidden)]
    pub effective_threads: usize,
    /// Saturation rounds (frontier batches) executed.
    pub rounds: u64,
    /// Total atoms expanded through the frontier.
    pub frontier_atoms: u64,
    /// Depth/level relaxations run: atoms whose minima improved after they
    /// were first derived and were propagated to their consequences. `0`
    /// means the relaxation index was never built.
    pub relaxations: u64,
    /// Nanoseconds spent collecting the rounds' frontiers: the gates
    /// that pick the atoms whose rules are matched (all rounds). The
    /// matching itself runs inside the apply step, in
    /// [`ChaseStats::merge_ns`].
    pub match_ns: u64,
    /// Nanoseconds spent applying the rounds' frontiers — matching,
    /// interning and firing (all rounds).
    pub merge_ns: u64,
}

/// Per-atom metadata within a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentAtom {
    /// The interned atom.
    pub atom: AtomId,
    /// Minimal depth of a node labelled with this atom in `F⁺(P)`.
    pub depth: u32,
    /// Minimal derivation level `level_P(a)` (Section 2.5).
    pub level: u32,
}

/// A finite segment of the condensed guarded chase forest.
///
/// Atoms are identified by dense [`SegAtomId`]s (positions in
/// [`ChaseSegment::atoms`]); rule instances by dense [`InstanceId`]s. All
/// per-instance and per-atom indexes are flat CSR arrays — see the module
/// docs for the layout.
///
/// Every array is a copy-on-write [`ChunkVec`] or [`RowPool`], frozen when
/// the build finishes: a resume starts from clones that share every chunk
/// with this segment and copies only the chunks it writes.
#[derive(Clone, Debug)]
pub struct ChaseSegment {
    atoms: ChunkVec<SegmentAtom>,
    /// `seg_of[AtomId::index()]` = the atom's [`SegAtomId`] (or `NONE`).
    seg_of: ChunkVec<u32>,
    /// Fact atoms as segment ids, in database insertion order. Fresh
    /// builds place them first (`0..num_facts()`); resumed builds append
    /// delta facts wherever discovery put them.
    fact_seg: ChunkVec<SegAtomId>,
    /// Originating rule per instance.
    inst_src_rule: ChunkVec<u32>,
    /// Guard atom per instance.
    inst_guard: ChunkVec<SegAtomId>,
    /// Head atom per instance (always a segment atom).
    inst_head: ChunkVec<SegAtomId>,
    /// Positive bodies (guard included, rule order), one row per instance.
    pos: RowPool<SegAtomId>,
    /// Negative bodies (rule order), one row per instance. Kept as
    /// universe ids because hypotheses need not occur in the segment.
    neg: RowPool<AtomId>,
    /// The occurrence indexes, counted from the instance arrays above by
    /// the first accessor that reads one (no solve does; see
    /// [`Occurrences`]).
    occurrences: OnceLock<Occurrences>,
    /// True iff saturation quiesced with no budget limit hit: the segment
    /// *is* the full chase (always the case for non-existential programs).
    pub complete: bool,
    /// Number of instances still waiting for side atoms when saturation
    /// stopped (diagnostic; nonzero is normal for truncated segments).
    pub pending_at_end: usize,
    budget: ChaseBudget,
    /// Number of instances inherited from the segment this one was resumed
    /// from (`0` for fresh builds): instances `inherited_instances..` are
    /// the ones discovered by the resume, the basis for incremental
    /// grounding ([`ChaseSegment::to_ground_program_from`]).
    inherited_instances: usize,
    /// Number of atoms inherited likewise: atoms `inherited_atoms..` are
    /// the ones the resume added.
    inherited_atoms: usize,
    /// Counters for the saturation run that produced this segment (for a
    /// resumed segment: the resume run only).
    stats: ChaseStats,
    /// Saturation state retained for [`ChaseSegment::resume_with`].
    resume: ResumeState,
}

/// One occurrence index: the instances of each segment atom's row, ascending;
/// CSR over [`SegAtomId`].
#[derive(Clone, Debug)]
struct OccurrenceRows {
    off: Vec<u32>,
    instances: Vec<InstanceId>,
}

impl OccurrenceRows {
    #[inline]
    fn row(&self, id: SegAtomId) -> &[InstanceId] {
        let a = id.index();
        &self.instances[self.off[a] as usize..self.off[a + 1] as usize]
    }
}

/// What [`ChaseSegment::instances_with_guard_seg`] & co. read. Saturation,
/// grounding and the engine never do — the readers are the explicit forest,
/// the type computation, WCHECK, the reference engines and a resume that
/// relaxes an inherited atom — so a segment is built without it.
#[derive(Clone, Debug)]
struct Occurrences {
    /// Instances guarded by each segment atom.
    guard: OccurrenceRows,
    /// Instances deriving each segment atom.
    head: OccurrenceRows,
    /// Instances with each segment atom in their positive body, once per
    /// instance.
    body: OccurrenceRows,
    /// Distinct positive-body size per instance (bodies may repeat an atom
    /// after instantiation).
    pos_distinct: Vec<u32>,
}

/// Saturation state that `finish` would otherwise discard, retained so
/// [`ChaseSegment::resume_with`] can continue exactly where the build
/// stopped: parked instances with their watch lists, the per-atom
/// expansion bits, the uncollected expansion queue (non-empty only when a
/// runtime budget stopped the build mid-saturation), and the structured
/// truncation reason.
#[derive(Clone, Debug)]
struct ResumeState {
    expanded: ChunkVec<bool>,
    /// Segment ids of the facts (`fact_seg` as a set).
    fact_set: BitSet,
    /// Atoms the depth budget keeps from expanding (see
    /// `Builder::depth_blocked`): carried so a resume re-counts only the
    /// atoms it added or relaxed.
    depth_blocked: usize,
    pending: ChunkVec<Pending>,
    pend_pos: RowPool<AtomId>,
    pend_neg: RowPool<AtomId>,
    watch_head: ChunkVec<u32>,
    watch_tail: ChunkVec<u32>,
    watch_next: ChunkVec<u32>,
    watch_pend: ChunkVec<u32>,
    expand_queue: Vec<u32>,
    truncation: Option<TruncationReason>,
}

/// Error returned by [`ChaseSegment::resume_with`] when a segment cannot
/// be resumed: cap-truncated saturation is discovery-order dependent, so
/// continuing it could diverge from a fresh build. Callers should re-chase
/// from scratch.
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
    /// Saturates the chase of `D ∪ Σf` within `budget`, with no runtime
    /// resource limits.
    pub fn build(
        universe: &mut Universe,
        db: &Database,
        program: &SkolemProgram,
        budget: ChaseBudget,
    ) -> ChaseSegment {
        Self::build_budgeted(universe, db, program, budget, &SolveBudget::unlimited())
    }

    /// Saturates the chase of `D ∪ Σf` within `budget`, polling `solve`
    /// (deadline / cancellation / memory budget) at every round boundary.
    /// A trip stops saturation at a clean boundary: the produced segment
    /// is truncated ([`ChaseSegment::truncation`] reports why) but fully
    /// coherent and **resumable** — a later
    /// [`ChaseSegment::resume_with`] continues exactly where this build
    /// stopped.
    pub fn build_budgeted(
        universe: &mut Universe,
        db: &Database,
        program: &SkolemProgram,
        budget: ChaseBudget,
        solve: &SolveBudget,
    ) -> ChaseSegment {
        Builder::new(universe, program, budget, solve.clone()).run(db)
    }

    /// [`ChaseSegment::build_budgeted`] restricted to the predicates of
    /// `mask` (indexed by [`wfdl_core::PredId`], `true` = in slice):
    /// only facts over in-mask predicates are seeded and only rules with
    /// in-mask heads fire. `mask` must be **relevance-closed** — every
    /// body predicate (positive or negative) of every rule whose head is
    /// in the mask must itself be in the mask — which is exactly what
    /// `wfdl-analyze`'s `ProgramSlice` computes. Under that closure the
    /// restricted saturation derives the same atoms, at the same
    /// depth/level minima, as the full chase restricted to those
    /// predicates, so downstream verdicts over in-mask atoms agree
    /// bit-for-bit with the full solve.
    pub fn build_restricted_budgeted(
        universe: &mut Universe,
        db: &Database,
        program: &SkolemProgram,
        budget: ChaseBudget,
        solve: &SolveBudget,
        mask: &[bool],
    ) -> ChaseSegment {
        let mut b = Builder::new(universe, program, budget, solve.clone());
        b.restrict_to(mask);
        b.run(db)
    }

    /// All segment atoms with metadata, in discovery order (indexed by
    /// [`SegAtomId`]). Facts are the first entries for fresh builds;
    /// resumed builds interleave delta facts, so iterate
    /// [`ChaseSegment::fact_segs`] to find them.
    #[inline]
    pub fn atoms(&self) -> &ChunkVec<SegmentAtom> {
        &self.atoms
    }

    /// Number of database facts in the segment.
    #[inline]
    pub fn num_facts(&self) -> usize {
        self.fact_seg.len()
    }

    /// The database facts as segment ids, in database insertion order.
    #[inline]
    pub fn fact_segs(&self) -> &ChunkVec<SegAtomId> {
        &self.fact_seg
    }

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

    /// Why saturation stopped short, if it did: the recorded budget or cap
    /// trip, or [`TruncationReason::DepthCap`] when only the depth bound
    /// blocked further expansion. `None` iff [`ChaseSegment::complete`].
    pub fn truncation(&self) -> Option<TruncationReason> {
        if self.complete {
            None
        } else {
            self.resume.truncation.or(Some(TruncationReason::DepthCap))
        }
    }

    /// Continues saturation after `new_facts` join the database, reusing
    /// every atom, rule instance and parked instance of this segment
    /// instead of re-chasing from scratch.
    ///
    /// `program` must be the program this segment was built with (same
    /// rules, same order) and `new_facts` must be ground, null-free,
    /// interned in `universe` and not already database facts; the budget
    /// is inherited. As long as [`ChaseSegment::can_resume`] holds, the
    /// resumed segment contains exactly what a fresh
    /// [`ChaseSegment::build`] over the grown database would — the same
    /// atoms, instances, minimal depths and minimal levels — while doing
    /// saturation work proportional to the *new* derivations only (the
    /// inherited arrays are shared chunk by chunk and copied only where the
    /// resume writes, nothing is recounted). A fact that
    /// was previously derived at positive depth is relaxed to depth and
    /// level 0 and the improvement propagated to its consequences — the
    /// one case in which a resume reads this segment's occurrence rows.
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
        Ok(Builder::from_segment(universe, program, self, solve.clone()).run_delta(new_facts))
    }

    /// Number of discovered rule instances.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.inst_src_rule.len()
    }

    /// Iterates over all instance ids in discovery order.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstanceId> {
        (0..self.inst_src_rule.len()).map(InstanceId::from_index)
    }

    /// The dense segment id of `atom`, if it occurs in the segment. One
    /// array read — no hashing.
    #[inline]
    pub fn seg_id(&self, atom: AtomId) -> Option<SegAtomId> {
        match self.seg_of.get(atom.index()) {
            Some(&s) if s != NONE => Some(SegAtomId::from_index(s as usize)),
            _ => None,
        }
    }

    /// The universe atom with segment id `id`.
    #[inline]
    pub fn atom_of(&self, id: SegAtomId) -> AtomId {
        self.atoms[id.index()].atom
    }

    /// Metadata for a segment id.
    #[inline]
    pub fn meta_of(&self, id: SegAtomId) -> SegmentAtom {
        self.atoms[id.index()]
    }

    /// Metadata for `atom`, if it occurs in the segment.
    pub fn meta(&self, atom: AtomId) -> Option<SegmentAtom> {
        self.seg_id(atom).map(|s| self.atoms[s.index()])
    }

    /// True iff `atom` occurs in the segment (i.e. in `label(F⁺(P))`, up to
    /// truncation).
    #[inline]
    pub fn contains(&self, atom: AtomId) -> bool {
        self.seg_id(atom).is_some()
    }

    /// Originating skolemized-program rule of an instance.
    #[inline]
    pub fn src_rule(&self, id: InstanceId) -> u32 {
        self.inst_src_rule[id.index()]
    }

    /// Guard atom of an instance, as a segment id.
    #[inline]
    pub fn guard_seg(&self, id: InstanceId) -> SegAtomId {
        self.inst_guard[id.index()]
    }

    /// Guard atom of an instance, as a universe id.
    #[inline]
    pub fn guard_atom(&self, id: InstanceId) -> AtomId {
        self.atom_of(self.inst_guard[id.index()])
    }

    /// Head atom of an instance, as a segment id.
    #[inline]
    pub fn head_seg(&self, id: InstanceId) -> SegAtomId {
        self.inst_head[id.index()]
    }

    /// Head atom of an instance, as a universe id.
    #[inline]
    pub fn head_atom(&self, id: InstanceId) -> AtomId {
        self.atom_of(self.inst_head[id.index()])
    }

    /// Positive body of an instance (guard included, rule order) as
    /// segment ids. Fired instances only reference segment atoms, so this
    /// is total.
    #[inline]
    pub fn pos_seg(&self, id: InstanceId) -> &[SegAtomId] {
        self.pos.row(id.index())
    }

    /// Number of **distinct** atoms in an instance's positive body.
    #[inline]
    pub fn num_distinct_pos(&self, id: InstanceId) -> u32 {
        self.occurrences().pos_distinct[id.index()]
    }

    /// Negative body of an instance (rule order), as universe ids —
    /// hypotheses may lie outside the segment.
    #[inline]
    pub fn neg_atoms(&self, id: InstanceId) -> &[AtomId] {
        self.neg.row(id.index())
    }

    /// Materializes an instance as an owned [`RuleInstance`] (allocates two
    /// boxes; display/test convenience, not a hot-path API).
    pub fn instance(&self, id: InstanceId) -> RuleInstance {
        RuleInstance {
            src_rule: self.src_rule(id),
            guard_atom: self.guard_atom(id),
            pos: self.pos_seg(id).iter().map(|&s| self.atom_of(s)).collect(),
            neg: self.neg_atoms(id).into(),
            head: self.head_atom(id),
        }
    }

    /// Instances whose guard matched the segment atom `id`.
    #[inline]
    pub fn instances_with_guard_seg(&self, id: SegAtomId) -> &[InstanceId] {
        self.occurrences().guard.row(id)
    }

    /// Instances deriving the segment atom `id`.
    #[inline]
    pub fn instances_with_head_seg(&self, id: SegAtomId) -> &[InstanceId] {
        self.occurrences().head.row(id)
    }

    /// Instances with the segment atom `id` in their positive body
    /// (deduplicated per instance).
    #[inline]
    pub fn instances_with_body_seg(&self, id: SegAtomId) -> &[InstanceId] {
        self.occurrences().body.row(id)
    }

    /// The heap bytes of the segment's chunked arrays: all it holds, and
    /// the part no other segment holds — for a resumed segment, what the
    /// resume copied or added.
    pub fn footprint(&self) -> Footprint {
        let r = &self.resume;
        [
            self.atoms.footprint(),
            self.seg_of.footprint(),
            self.fact_seg.footprint(),
            self.inst_src_rule.footprint(),
            self.inst_guard.footprint(),
            self.inst_head.footprint(),
            self.pos.footprint(),
            self.neg.footprint(),
            r.expanded.footprint(),
            r.pending.footprint(),
            r.pend_pos.footprint(),
            r.pend_neg.footprint(),
            r.watch_head.footprint(),
            r.watch_tail.footprint(),
            r.watch_next.footprint(),
            r.watch_pend.footprint(),
        ]
        .into_iter()
        .sum()
    }

    /// The occurrence indexes, counted on the first call.
    fn occurrences(&self) -> &Occurrences {
        self.occurrences.get_or_init(|| self.count_occurrences())
    }

    /// Calls `f(instance, segment atom)` once per distinct positive body
    /// atom of every instance (bodies are short; a linear prior-occurrence
    /// scan beats any set).
    fn for_each_body_atom(&self, mut f: impl FnMut(usize, SegAtomId)) {
        for (i, row) in self.pos.rows().enumerate() {
            for (k, &s) in row.iter().enumerate() {
                if !row[..k].contains(&s) {
                    f(i, s);
                }
            }
        }
    }

    /// One counting sort over the instance arrays: the guard, head and
    /// distinct-positive-body rows of every segment atom, and each
    /// instance's distinct body size.
    fn count_occurrences(&self) -> Occurrences {
        let n = self.atoms.len();
        let num_inst = self.num_instances();
        let mut counts = [vec![0u32; n], vec![0u32; n], vec![0u32; n]];
        let mut pos_distinct = vec![0u32; num_inst];
        for i in 0..num_inst {
            counts[0][self.inst_guard[i].index()] += 1;
            counts[1][self.inst_head[i].index()] += 1;
        }
        self.for_each_body_atom(|i, s| {
            counts[2][s.index()] += 1;
            pos_distinct[i] += 1;
        });
        let zero = InstanceId::from_index(0);
        let [mut guard, mut head, mut body] = counts.map(|counts| {
            let mut off = Vec::with_capacity(n + 1);
            let mut acc = 0u32;
            off.push(0);
            for &c in &counts {
                acc += c;
                off.push(acc);
            }
            // `counts` becomes the fill cursor of each row.
            let mut fill = counts;
            fill.copy_from_slice(&off[..n]);
            let instances = vec![zero; acc as usize];
            (OccurrenceRows { off, instances }, fill)
        });
        let drop_at = |(rows, fill): &mut (OccurrenceRows, Vec<u32>), row: usize, i: usize| {
            rows.instances[fill[row] as usize] = InstanceId::from_index(i);
            fill[row] += 1;
        };
        for i in 0..num_inst {
            drop_at(&mut guard, self.inst_guard[i].index(), i);
            drop_at(&mut head, self.inst_head[i].index(), i);
        }
        self.for_each_body_atom(|i, s| drop_at(&mut body, s.index(), i));
        Occurrences {
            guard: guard.0,
            head: head.0,
            body: body.0,
            pos_distinct,
        }
    }

    /// Instances whose guard matched `atom`. Atoms outside the segment
    /// guard nothing, so unknown atoms yield an empty slice.
    pub fn instances_with_guard(&self, atom: AtomId) -> &[InstanceId] {
        match self.seg_id(atom) {
            Some(s) => self.instances_with_guard_seg(s),
            None => &[],
        }
    }

    /// Instances deriving `atom`; empty for atoms outside the segment.
    pub fn instances_with_head(&self, atom: AtomId) -> &[InstanceId] {
        match self.seg_id(atom) {
            Some(s) => self.instances_with_head_seg(s),
            None => &[],
        }
    }

    /// The budget the segment was built with.
    pub fn budget(&self) -> ChaseBudget {
        self.budget
    }

    /// Counters for the saturation run that produced this segment. For a
    /// resumed segment these cover the resume run only — the inherited
    /// bulk did its work in the previous build.
    pub fn stats(&self) -> ChaseStats {
        self.stats
    }

    /// Largest atom depth materialized.
    pub fn max_depth_reached(&self) -> u32 {
        self.atoms.iter().map(|a| a.depth).max().unwrap_or(0)
    }

    /// Largest derivation level materialized.
    pub fn max_level_reached(&self) -> u32 {
        self.atoms.iter().map(|a| a.level).max().unwrap_or(0)
    }

    /// Extracts the finite ground normal program (facts + instances) that
    /// the WFS fixpoint engines evaluate: the extension of the empty
    /// program by the whole segment.
    pub fn to_ground_program(&self) -> GroundProgram {
        self.ground_onto(&GroundProgram::default(), 0, 0)
    }

    /// Extracts the ground program of a **resumed** segment by extending
    /// `prev` — the program extracted from the segment this one was
    /// resumed from — with only the delta's facts, atoms and instances.
    /// Its atoms, facts and rules are [`ChaseSegment::to_ground_program`]'s
    /// in the same order, but `prev`'s atoms keep their local ids.
    pub fn to_ground_program_from(&self, prev: &GroundProgram) -> GroundProgram {
        self.ground_onto(prev, self.inherited_atoms, self.inherited_instances)
    }

    /// Grounds the atoms `first_atom..`, the instances `first_inst..` and
    /// the facts after `prev`'s onto `prev` ([`GroundProgram::extension`]).
    /// This is a **straight array translation**: the new atoms come sorted
    /// out of one bitmap scan, every instance is fed as a candidate from
    /// the segment's own arrays, and the extension drops the instances
    /// that ground to the same rule — no hash probe, no binary search and
    /// no per-instance allocation anywhere on this path.
    fn ground_onto(
        &self,
        prev: &GroundProgram,
        first_atom: usize,
        first_inst: usize,
    ) -> GroundProgram {
        let (num_inst, first_fact) = (self.num_instances(), prev.facts().len());
        debug_assert!(first_inst <= num_inst && first_fact <= self.fact_seg.len());
        let instances = (first_inst..num_inst).map(InstanceId::from_index);

        // Positive bodies hold segment atoms only: the new segment atoms
        // and the new instances' hypotheses cover every atom `prev` lacks.
        let mut fresh = BitSet::with_capacity(self.seg_of.len());
        for sa in self.atoms.iter_from(first_atom) {
            fresh.insert(sa.atom.index());
        }
        for i in instances.clone() {
            for &a in self.neg_atoms(i) {
                fresh.insert(a.index());
            }
        }
        let new_atoms = (fresh.iter().map(AtomId::from_index)).filter(|&a| !prev.mentions(a));
        let room = Room {
            atoms: fresh.len(),
            atom_ids: self.seg_of.len(),
            facts: self.fact_seg.len() - first_fact,
            rules: num_inst - first_inst,
            pos: self.pos.num_elements_from(first_inst),
            neg: self.neg.num_elements_from(first_inst),
        };
        let mut ground = prev.extension(new_atoms, room);
        for &f in self.fact_seg.iter_from(first_fact) {
            ground.push_fact(self.atom_of(f));
        }
        for i in instances {
            let pos = self.pos_seg(i).iter().map(|&s| self.atom_of(s));
            ground.push_candidate(self.head_atom(i), pos, self.neg_atoms(i).iter().copied());
        }
        ground.finish()
    }
}

/// An instance parked until its side atoms appear; its bodies are the
/// rows of the same index in the pending row pools.
#[derive(Clone, Copy, Debug)]
struct Pending {
    src_rule: u32,
    guard: u32,
    head: AtomId,
    missing: u32,
}

/// Intrusive per-segment-atom lists of the instances whose positive body
/// mentions the atom, one entry per occurrence, in instance order — what
/// depth/level relaxation walks. `head`/`tail` are cursors per atom into
/// the entry pool `next`/`inst`; entries are appended, never freed.
struct BodyLists {
    head: Vec<u32>,
    tail: Vec<u32>,
    next: Vec<u32>,
    inst: Vec<u32>,
}

impl BodyLists {
    /// Appends an entry for segment atom `s` → instance.
    fn link(&mut self, s: SegAtomId, inst: u32) {
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

struct Builder<'a> {
    universe: &'a mut Universe,
    program: &'a SkolemProgram,
    budget: ChaseBudget,
    /// Runtime limits (deadline / cancellation / memory), polled at round
    /// boundaries. Unlimited budgets cost one branch per round.
    solve: SolveBudget,
    /// Rule indexes per guard predicate (flat, [`wfdl_core::PredId`]-indexed).
    rules_by_guard_pred: Vec<Vec<u32>>,
    /// Every rule compiled against its guard, by rule index.
    plans: Vec<Plan>,
    /// Predicate restriction for goal-directed builds: when set, only
    /// facts whose predicate is in the mask are seeded, and only rules
    /// whose head predicate is in the mask fire (the mask's relevance
    /// closure guarantees those rules read in-mask bodies only).
    restrict: Option<&'a [bool]>,

    /// The segment being resumed, if any: depth/level relaxation over its
    /// instances walks its body-occurrence rows (`body_lists` only covers
    /// the instances fired by this run).
    old: Option<&'a ChaseSegment>,

    // --- final segment state, built in place ---
    atoms: ChunkVec<SegmentAtom>,
    seg_of: ChunkVec<u32>,
    fact_seg: ChunkVec<SegAtomId>,
    fact_set: BitSet,
    inst_src_rule: ChunkVec<u32>,
    inst_guard: ChunkVec<SegAtomId>,
    inst_head: ChunkVec<SegAtomId>,
    pos: RowPool<SegAtomId>,
    neg: RowPool<AtomId>,

    /// One bit per segment atom: its (predicate's) rules were instantiated.
    /// Replaces a hash set of `(rule, atom)` pairs — expansion attempts
    /// every rule of the guard predicate in one sweep, so pair granularity
    /// is never needed.
    expanded: ChunkVec<bool>,
    /// The relaxation index over this run's instances. `None` until the
    /// first [`Builder::relax`] — most builds never relax — which seeds it
    /// from `pos_seg`; from then on `fire` appends to it.
    body_lists: Option<BodyLists>,
    /// Intrusive watch lists per **universe** atom id (missing side atoms
    /// are not yet segment atoms), same entry-pool shape.
    watch_head: ChunkVec<u32>,
    watch_tail: ChunkVec<u32>,
    watch_next: ChunkVec<u32>,
    watch_pend: ChunkVec<u32>,
    /// Parked instances and their bodies, one row each.
    pending: ChunkVec<Pending>,
    pend_pos: RowPool<AtomId>,
    pend_neg: RowPool<AtomId>,

    expand_queue: VecDeque<u32>,
    relax_queue: VecDeque<u32>,
    /// Inherited atoms whose depth improved during a resume — the only
    /// ones whose depth gate can have changed (with repeats; unused by
    /// fresh builds).
    relaxed: Vec<u32>,

    /// Current round's expansion frontier, in expand-queue (= discovery)
    /// order; reused across rounds.
    frontier: Vec<u32>,
    stats: ChaseStats,

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

    /// First structural cap or runtime budget trip observed, if any.
    truncation: Option<TruncationReason>,
}

impl<'a> Builder<'a> {
    fn new(
        universe: &'a mut Universe,
        program: &'a SkolemProgram,
        budget: ChaseBudget,
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
        Builder {
            universe,
            program,
            budget,
            solve,
            rules_by_guard_pred,
            plans,
            restrict: None,
            old: None,
            atoms: ChunkVec::new(),
            seg_of: ChunkVec::new(),
            fact_seg: ChunkVec::new(),
            fact_set: BitSet::new(),
            inst_src_rule: ChunkVec::new(),
            inst_guard: ChunkVec::new(),
            inst_head: ChunkVec::new(),
            pos: RowPool::new(),
            neg: RowPool::new(),
            expanded: ChunkVec::new(),
            body_lists: None,
            watch_head: ChunkVec::new(),
            watch_tail: ChunkVec::new(),
            watch_next: ChunkVec::new(),
            watch_pend: ChunkVec::new(),
            pending: ChunkVec::new(),
            pend_pos: RowPool::new(),
            pend_neg: RowPool::new(),
            expand_queue: VecDeque::new(),
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
            truncation: None,
        }
    }

    /// Seeds a builder with the full state of an already-saturated
    /// segment, so saturation can continue from its frontier. Each array is
    /// a clone that shares every chunk with `old`: the resume copies the
    /// chunks it writes, nothing else.
    fn from_segment(
        universe: &'a mut Universe,
        program: &'a SkolemProgram,
        old: &'a ChaseSegment,
        solve: SolveBudget,
    ) -> Self {
        let mut b = Builder::new(universe, program, old.budget, solve);
        b.atoms = old.atoms.clone();
        b.seg_of = old.seg_of.clone();
        b.fact_seg = old.fact_seg.clone();
        b.inst_src_rule = old.inst_src_rule.clone();
        b.inst_guard = old.inst_guard.clone();
        b.inst_head = old.inst_head.clone();
        b.pos = old.pos.clone();
        b.neg = old.neg.clone();
        let r = &old.resume;
        b.fact_set = r.fact_set.clone();
        b.expanded = r.expanded.clone();
        b.pending = r.pending.clone();
        b.pend_pos = r.pend_pos.clone();
        b.pend_neg = r.pend_neg.clone();
        b.watch_head = r.watch_head.clone();
        b.watch_tail = r.watch_tail.clone();
        b.watch_next = r.watch_next.clone();
        b.watch_pend = r.watch_pend.clone();
        // Uncollected expansion work from a budget-tripped build: restoring
        // the queue makes the resume continue exactly where the tripped run
        // stopped. A cleanly quiesced build always leaves it empty.
        b.expand_queue = r.expand_queue.iter().copied().collect();
        // A previous run's budget trip belongs to that run — the resume
        // polls its own budget. Cap truncation never reaches this point
        // (`resume_budgeted` refuses those segments).
        b.truncation = None;
        b.old = Some(old);
        b
    }

    /// The relaxation index built before this run fires its first instance
    /// and appended to by every `fire` — the reference the lazily seeded
    /// index is tested against.
    #[cfg(test)]
    fn with_body_lists(mut self) -> Self {
        self.body_lists = Some(self.seed_body_lists());
        self
    }

    /// Restricts this (fresh) builder to the predicates of `mask`:
    /// rules with out-of-mask heads never fire, out-of-mask facts are
    /// never seeded. The caller must pass a relevance-closed mask (every
    /// body predicate of every in-mask-headed rule is itself in-mask) —
    /// `wfdl-analyze`'s `ProgramSlice` computes exactly that — so the
    /// restricted saturation derives the same atoms at the same depths
    /// as the full chase would over the mask's predicates.
    fn restrict_to(&mut self, mask: &'a [bool]) {
        let program = self.program;
        for rules in &mut self.rules_by_guard_pred {
            rules.retain(|&ri| {
                let head = program.rules[ri as usize].head_pred.index();
                mask.get(head).copied().unwrap_or(false)
            });
        }
        self.restrict = Some(mask);
    }

    fn run(mut self, db: &Database) -> ChaseSegment {
        self.seg_of = ChunkVec::from_elem(NONE, self.universe.atoms.len());
        for &fact in db.facts() {
            if let Some(mask) = self.restrict {
                let pred = self.universe.atoms.pred(fact);
                if !mask.get(pred.index()).copied().unwrap_or(false) {
                    continue;
                }
            }
            self.add_fact(fact);
        }
        self.drain();
        self.finish()
    }

    /// Continues a resumed build with the delta facts.
    fn run_delta(mut self, new_facts: &[AtomId]) -> ChaseSegment {
        // Resume-boundary fault injection: trip kinds stop the resumed
        // saturation at its first round boundary (delta facts registered
        // and relaxed, expansions deferred to the next resume).
        if let Some(r) = self.solve.fire_fault(FaultSite::ResumeBoundary) {
            self.trip(r);
        }
        for &fact in new_facts {
            self.add_fact(fact);
        }
        self.drain();
        self.finish()
    }

    /// True iff an atom with applicable rules, at `depth`, unexpanded, sits
    /// at the depth budget: it could have children beyond the budgeted
    /// depth.
    fn gated(&self, atom: AtomId, depth: u32, expanded: bool) -> bool {
        !expanded
            && depth >= self.budget.max_depth
            && self
                .rules_by_guard_pred
                .get(self.universe.atoms.pred(atom).index())
                .is_some_and(|r| !r.is_empty())
    }

    /// How many atoms the depth budget keeps from expanding; the segment is
    /// a truncation iff there is one. Read off the final depth minima (not
    /// a sticky in-run flag), so a resume that relaxes a previously gated
    /// atom below the budget reports completeness exactly. A fresh build
    /// looks at every atom; a resume starts from the inherited count and
    /// looks only at the atoms it added or relaxed — nothing else can have
    /// changed depth or expansion state.
    fn depth_blocked(&mut self) -> usize {
        if self.budget.max_depth == u32::MAX {
            return 0;
        }
        let now = |b: &Self, i: usize| b.gated(b.atoms[i].atom, b.atoms[i].depth, b.expanded[i]);
        let Some(old) = self.old else {
            return (0..self.atoms.len()).filter(|&i| now(self, i)).count();
        };
        let mut relaxed = std::mem::take(&mut self.relaxed);
        relaxed.sort_unstable();
        relaxed.dedup();
        let mut blocked = old.resume.depth_blocked;
        for &ai in &relaxed {
            let i = ai as usize;
            if i < old.atoms.len() {
                let before = old.atoms[i];
                blocked -= self.gated(before.atom, before.depth, old.resume.expanded[i]) as usize;
                blocked += now(self, i) as usize;
            }
        }
        blocked += (old.atoms.len()..self.atoms.len())
            .filter(|&i| now(self, i))
            .count();
        // `drain` relaxes to fixpoint before it stops, so every inherited
        // atom whose depth moved is in `relaxed`.
        debug_assert!(self.relax_queue.is_empty());
        debug_assert_eq!(
            blocked,
            (0..self.atoms.len()).filter(|&i| now(self, i)).count()
        );
        blocked
    }

    /// The saturation work loop: rounds of *relax to fixpoint → collect
    /// the expansion frontier → apply it*.
    ///
    /// The frontier is consumed in expand-queue order and each atom's
    /// rules in `rules_by_guard_pred` order, so `SegAtomId` assignment,
    /// depth/level minima, instance order, cap behavior and universe
    /// interning order are a function of the input alone.
    fn drain(&mut self) {
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
        if self
            .truncation
            .is_some_and(TruncationReason::is_budget_trip)
        {
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
    fn trip(&mut self, reason: TruncationReason) {
        if self.truncation.is_none() {
            self.truncation = Some(reason);
        }
    }

    /// The builder's pool footprint in bytes — every chunk and the
    /// capacity of every array that grows with the segment, shared with
    /// the segment being resumed or not, O(chunks). This is what the
    /// memory budget is accounted against: a resume is charged for the
    /// model it extends.
    fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let lists = self.body_lists.as_ref().map_or(0, |l| {
            l.head.capacity() + l.tail.capacity() + l.next.capacity() + l.inst.capacity()
        });
        let u32s = lists
            + self.expand_queue.capacity()
            + self.relax_queue.capacity()
            + self.relaxed.capacity()
            + self.frontier.capacity();
        self.atoms.heap_bytes()
            + self.seg_of.heap_bytes()
            + self.fact_seg.heap_bytes()
            + self.inst_src_rule.heap_bytes()
            + self.inst_guard.heap_bytes()
            + self.inst_head.heap_bytes()
            + self.pos.heap_bytes()
            + self.neg.heap_bytes()
            + self.expanded.heap_bytes()
            + self.pending.heap_bytes()
            + self.pend_pos.heap_bytes()
            + self.pend_neg.heap_bytes()
            + self.watch_head.heap_bytes()
            + self.watch_tail.heap_bytes()
            + self.watch_next.heap_bytes()
            + self.watch_pend.heap_bytes()
            + u32s * size_of::<u32>()
            + self.fact_set.heap_bytes()
    }

    /// Drains the expand queue through the expansion gates into
    /// `frontier`, marking collected atoms expanded. Gate order matches
    /// the historical per-atom expansion exactly: rule-less and
    /// depth-gated atoms stay **unmarked** so `blocked_by_depth` and the
    /// resume path still see them.
    fn collect_frontier(&mut self) {
        self.frontier.clear();
        while let Some(ai) = self.expand_queue.pop_front() {
            let SegmentAtom { atom, depth, .. } = self.atoms[ai as usize];
            let pred = self.universe.atoms.pred(atom).index();
            match self.rules_by_guard_pred.get(pred) {
                Some(rules) if !rules.is_empty() => {}
                _ => continue,
            }
            if depth >= self.budget.max_depth {
                // Could have children beyond the budgeted depth;
                // `blocked_by_depth` reads the truncation off the final
                // minima, and a later relaxation re-queues the atom.
                continue;
            }
            if self.expanded[ai as usize] {
                // Re-queued by relaxation after its rules already
                // instantiated — nothing new can fire.
                continue;
            }
            self.expanded[ai as usize] = true;
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
            let node = self.universe.atoms.node(self.atoms[ai as usize].atom);
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
    fn add_fact(&mut self, fact: AtomId) {
        match self.lookup_seg(fact) {
            None => {
                let idx = self.atoms.len();
                self.add_atom(fact, 0, 0);
                self.mark_fact(idx);
            }
            Some(s) => {
                self.mark_fact(s as usize);
                let meta = &mut self.atoms[s as usize];
                if meta.depth > 0 || meta.level > 0 {
                    meta.depth = 0;
                    meta.level = 0;
                    self.relax_queue.push_back(s);
                }
            }
        }
    }

    fn mark_fact(&mut self, seg: usize) {
        if self.fact_set.insert(seg) {
            self.fact_seg.push(SegAtomId::from_index(seg));
        }
    }

    /// Assembles the segment.
    fn finish(mut self) -> ChaseSegment {
        let pending_at_end = self.pending.iter().filter(|p| p.missing > 0).count();
        let depth_blocked = self.depth_blocked();
        let complete = self.truncation.is_none() && depth_blocked == 0;
        ChaseSegment {
            atoms: self.atoms,
            seg_of: self.seg_of,
            fact_seg: self.fact_seg,
            inst_src_rule: self.inst_src_rule,
            inst_guard: self.inst_guard,
            inst_head: self.inst_head,
            pos: self.pos,
            neg: self.neg,
            occurrences: OnceLock::new(),
            complete,
            pending_at_end,
            budget: self.budget,
            inherited_instances: self.old.map_or(0, |o| o.num_instances()),
            inherited_atoms: self.old.map_or(0, |o| o.atoms.len()),
            stats: self.stats,
            resume: ResumeState {
                expanded: self.expanded,
                fact_set: self.fact_set,
                depth_blocked,
                pending: self.pending,
                pend_pos: self.pend_pos,
                pend_neg: self.pend_neg,
                watch_head: self.watch_head,
                watch_tail: self.watch_tail,
                watch_next: self.watch_next,
                watch_pend: self.watch_pend,
                expand_queue: self.expand_queue.into_iter().collect(),
                truncation: self.truncation,
            },
        }
    }

    /// Segment id of an interned atom, if materialized.
    #[inline]
    fn lookup_seg(&self, atom: AtomId) -> Option<u32> {
        match self.seg_of.get(atom.index()) {
            Some(&s) if s != NONE => Some(s),
            _ => None,
        }
    }

    /// Registers a new atom, queuing it for expansion and firing pending
    /// instances that were waiting for it. Assumes not present.
    fn add_atom(&mut self, atom: AtomId, depth: u32, level: u32) {
        let uid = atom.index();
        if self.seg_of.len() <= uid {
            self.seg_of.resize(uid + 1, NONE);
        }
        debug_assert_eq!(self.seg_of[uid], NONE, "atom already in segment");
        let idx = self.atoms.len() as u32;
        self.atoms.push(SegmentAtom { atom, depth, level });
        self.seg_of[uid] = idx;
        self.expanded.push(false);
        if let Some(lists) = &mut self.body_lists {
            lists.head.push(NONE);
            lists.tail.push(NONE);
        }
        self.expand_queue.push_back(idx);
        // Wake pending instances watching this atom. Detach the list first;
        // entries are append-only, so traversal stays valid while nested
        // fires push new entries for *other* atoms.
        if uid < self.watch_head.len() {
            let mut e = self.watch_head[uid];
            self.watch_head[uid] = NONE;
            self.watch_tail[uid] = NONE;
            while e != NONE {
                let next = self.watch_next[e as usize];
                let p = self.watch_pend[e as usize] as usize;
                self.pending[p].missing -= 1;
                if self.pending[p].missing == 0 {
                    self.fire_pending(p);
                }
                e = next;
            }
        }
    }

    /// Appends a watch-list entry for `uid` → pending instance `pend`.
    fn watch_push(&mut self, uid: usize, pend: u32) {
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
        let guard_atom = self.atoms[ai as usize].atom;
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
        let pidx = self.pending.len() as u32;
        self.pending.push(Pending {
            src_rule: ri,
            guard: ai,
            head,
            missing: self.scratch_missing.len() as u32,
        });
        self.pend_pos.push(self.scratch_pos.iter().copied());
        self.pend_neg.push(self.scratch_neg.iter().copied());
        for i in 0..self.scratch_missing.len() {
            let m = self.scratch_missing[i];
            self.watch_push(m.index(), pidx);
        }
    }

    /// Fires a parked instance whose last missing side atom just appeared:
    /// stages its body (every atom a segment atom by now) back into the
    /// scratch buffers and records it.
    fn fire_pending(&mut self, p: usize) {
        let pd = self.pending[p];
        self.scratch_seg.clear();
        for &a in self.pend_pos.row(p) {
            self.scratch_seg.push(self.seg_of[a.index()]);
        }
        self.scratch_neg.clear();
        self.scratch_neg.extend_from_slice(self.pend_neg.row(p));
        self.fire(pd.src_rule, pd.guard, pd.head);
    }

    /// Records a fired instance (positive body in `scratch_seg`, negative
    /// in `scratch_neg`, all positive atoms present) and derives its head.
    /// The scratch buffers are fully consumed before the head derivation
    /// can recurse into nested fires.
    fn fire(&mut self, src_rule: u32, guard: u32, head: AtomId) {
        if self.inst_src_rule.len() >= self.budget.max_instances {
            self.trip(TruncationReason::InstanceCap);
            return;
        }
        let head_seg = self.lookup_seg(head);
        if head_seg.is_none() && self.atoms.len() >= self.budget.max_atoms {
            // The head would exceed the atom cap; drop the instance whole
            // so every recorded instance's head is a segment atom.
            self.trip(TruncationReason::AtomCap);
            return;
        }

        let iid = self.inst_src_rule.len() as u32;
        self.inst_src_rule.push(src_rule);
        self.inst_guard.push(SegAtomId::from_index(guard as usize));
        let hseg = head_seg.unwrap_or(self.atoms.len() as u32);
        self.inst_head.push(SegAtomId::from_index(hseg as usize));
        let child_depth = self.atoms[guard as usize].depth + 1;
        let mut child_level = 0u32;
        for &s in &self.scratch_seg {
            debug_assert_ne!(s, NONE, "fired instance has a missing body atom");
            child_level = child_level.max(self.atoms[s as usize].level);
            if let Some(lists) = &mut self.body_lists {
                lists.link(SegAtomId::from_index(s as usize), iid);
            }
        }
        let child_level = child_level + 1;
        (self.pos).push(
            self.scratch_seg
                .iter()
                .map(|&s| SegAtomId::from_index(s as usize)),
        );
        self.neg.push(self.scratch_neg.iter().copied());

        match head_seg {
            None => self.add_atom(head, child_depth, child_level),
            Some(hi) => {
                let meta = &mut self.atoms[hi as usize];
                if child_depth < meta.depth || child_level < meta.level {
                    meta.depth = meta.depth.min(child_depth);
                    meta.level = meta.level.min(child_level);
                    self.relax_queue.push_back(hi);
                }
            }
        }
    }

    /// Builds the relaxation index over the instances this run has fired so
    /// far — entry for entry what `fire` would have appended had the index
    /// existed from the start, so relaxation visits instances in the same
    /// order either way.
    fn seed_body_lists(&self) -> BodyLists {
        let mut lists = BodyLists {
            head: vec![NONE; self.atoms.len()],
            tail: vec![NONE; self.atoms.len()],
            next: Vec::new(),
            inst: Vec::new(),
        };
        for i in self.old.map_or(0, |o| o.num_instances())..self.inst_src_rule.len() {
            for &s in self.pos.row(i) {
                lists.link(s, i as u32);
            }
        }
        lists
    }

    /// Propagates a depth/level improvement of `atoms[ai]` to the heads of
    /// every instance whose body mentions it, and re-checks the depth gate.
    fn relax(&mut self, ai: u32) {
        self.stats.relaxations += 1;
        if self.old.is_some() {
            self.relaxed.push(ai);
        }
        let depth = self.atoms[ai as usize].depth;
        // The atom may now be allowed to expand where it previously hit the
        // depth gate.
        if depth < self.budget.max_depth {
            self.expand_queue.push_back(ai);
        }
        // Instances inherited from a resumed segment: their body
        // occurrences are the old segment's rows (the lists below only
        // cover instances fired this run).
        if let Some(old) = self.old {
            if (ai as usize) < old.atoms.len() {
                for &iid in old.instances_with_body_seg(SegAtomId::from_index(ai as usize)) {
                    self.relax_instance(iid.index());
                }
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
        let child_depth = self.atoms[self.inst_guard[iid].index()].depth + 1;
        let mut child_level = 0u32;
        for &s in self.pos.row(iid) {
            child_level = child_level.max(self.atoms[s.index()].level);
        }
        let child_level = child_level + 1;
        let hi = self.inst_head[iid].index();
        let meta = &mut self.atoms[hi];
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
    use crate::paper::example4;
    use wfdl_core::{Program, RTerm, RuleAtom, Tgd, Var};

    fn v(i: u32) -> RTerm {
        RTerm::Var(Var::new(i))
    }

    #[test]
    fn example4_segment_depth3_matches_figure() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        // The figure shows, up to depth 3: R-chain R(0,0,1), R(0,1,a),
        // R(0,a,b), R(0,b,c); P(0,0), P(0,1), P(0,a), P(0,b);
        // Q(1), Q(a), Q(b); S(0); T(0).
        let labels: Vec<String> = seg
            .atoms()
            .iter()
            .map(|sa| u.display_atom(sa.atom).to_string())
            .collect();
        for expected in ["R(0,0,1)", "P(0,0)", "P(0,1)", "Q(1)", "S(0)", "T(0)"] {
            assert!(
                labels.iter().any(|l| l == expected),
                "missing {expected}; got {labels:?}"
            );
        }
        // The R-chain reaches depth 3.
        assert_eq!(seg.max_depth_reached(), 3);
        // Depth was capped, so the segment must report truncation.
        assert!(!seg.complete);
        // Counts: R: 4 atoms (depths 0..3); P: 4 (0 and children of R-chain
        // at depths 1..3); Q: 3 (depths 1..3); S: 1; T: 1.
        assert_eq!(seg.atoms().len(), 13, "{labels:?}");
    }

    #[test]
    fn example4_levels_and_depths() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(2));
        let r = u.lookup_pred("R").unwrap();
        let p = u.lookup_pred("P").unwrap();
        let zero = u.constant("0");
        let one = u.constant("1");
        let r001 = u.atom(r, vec![zero, zero, one]).unwrap();
        let m = seg.meta(r001).unwrap();
        assert_eq!((m.depth, m.level), (0, 0));
        // P(0,1) is derived from R(0,0,1) and P(0,0): depth 1, level 1.
        let p01 = u.atom(p, vec![zero, one]).unwrap();
        let m = seg.meta(p01).unwrap();
        assert_eq!((m.depth, m.level), (1, 1));
        // a = f(0,0,1); P(0,a) needs P(0,1) (level 1) and R(0,1,a) (level 1)
        // so its level is 2, depth 2.
        let f = u
            .lookup_skolem("sk_r1_0")
            .expect("skolem fn named after rule label");
        let a_term = u.skolem_term(f, vec![zero, zero, one]).unwrap();
        let p0a = u.atom(p, vec![zero, a_term]).unwrap();
        let m = seg.meta(p0a).unwrap();
        assert_eq!((m.depth, m.level), (2, 2));
    }

    #[test]
    fn nonexistential_program_completes_unbounded() {
        let mut u = Universe::new();
        let e = u.pred("edge", 2).unwrap();
        let rch = u.pred("reach", 2).unwrap();
        // edge(X,Y) -> reach(X,Y)
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(e, vec![v(0), v(1)])],
                vec![],
                vec![RuleAtom::new(rch, vec![v(0), v(1)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let mut db = Database::new();
        let a = u.constant("a");
        let b = u.constant("b");
        let eab = u.atom(e, vec![a, b]).unwrap();
        db.insert(&u, eab).unwrap();
        let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        assert!(seg.complete);
        assert_eq!(seg.atoms().len(), 2);
        assert_eq!(seg.num_instances(), 1);
        let gp = seg.to_ground_program();
        assert_eq!(gp.num_rules(), 1);
        assert_eq!(gp.facts().len(), 1);
    }

    #[test]
    fn side_conditions_fire_late() {
        // p(X) -> q(X); q(X), r(X) ... r arrives only via another rule.
        // s(X) -> r(X); q(X) with side condition r(X): use a rule
        // q2(X) guard q(X) with side r(X).
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let rr = u.pred("r", 1).unwrap();
        let s = u.pred("s", 1).unwrap();
        let done = u.pred("done", 1).unwrap();
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
                vec![RuleAtom::new(s, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(rr, vec![v(0)])],
            )
            .unwrap(),
        );
        // guard q(X), side r(X) -> done(X)
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
        let mut db = Database::new();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let sc = u.atom(s, vec![c]).unwrap();
        db.insert(&u, pc).unwrap();
        db.insert(&u, sc).unwrap();
        let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        let donec = u.atom(done, vec![c]).unwrap();
        assert!(seg.contains(donec), "pending side condition must fire");
        assert!(seg.complete);
        assert_eq!(seg.pending_at_end, 0);
    }

    #[test]
    fn pending_that_never_fires_keeps_segment_complete() {
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
        let mut db = Database::new();
        let c = u.constant("c");
        let qc = u.atom(q, vec![c]).unwrap();
        db.insert(&u, qc).unwrap();
        let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
        // r(c) never exists, so the instance never fires — but the chase is
        // still complete (nothing was cut off by a budget).
        assert!(seg.complete);
        assert_eq!(seg.pending_at_end, 1);
        assert_eq!(seg.num_instances(), 0);
    }

    /// A discovery-order-sensitive digest: segment atoms in `SegAtomId`
    /// order with metadata, instances in `InstanceId` order with raw body
    /// spans. Any divergence in interning or merge order shows up here.
    fn ordered_digest(u: &Universe, seg: &ChaseSegment) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for sa in seg.atoms() {
            writeln!(
                out,
                "{} d{} l{}",
                u.display_atom(sa.atom),
                sa.depth,
                sa.level
            )
            .unwrap();
        }
        for iid in seg.instance_ids() {
            let pos: Vec<String> = seg
                .pos_seg(iid)
                .iter()
                .map(|&s| s.index().to_string())
                .collect();
            let neg: Vec<String> = seg
                .neg_atoms(iid)
                .iter()
                .map(|&a| u.display_atom(a).to_string())
                .collect();
            writeln!(
                out,
                "r{} g{} h{} [{}] [{}]",
                seg.src_rule(iid),
                seg.guard_seg(iid).index(),
                seg.head_seg(iid).index(),
                pos.join(","),
                neg.join(",")
            )
            .unwrap();
        }
        writeln!(
            out,
            "complete={} pending={}",
            seg.complete, seg.pending_at_end
        )
        .unwrap();
        out
    }

    #[test]
    fn stats_count_rounds_and_frontier() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        let s = seg.stats();
        assert!(s.rounds > 0);
        // Every expanded atom crossed the frontier exactly once.
        assert!(s.frontier_atoms as usize <= seg.atoms().len());
        assert!(s.frontier_atoms > 0);
    }

    #[test]
    fn atom_cap_marks_incomplete() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(
            &mut u,
            &db,
            &prog,
            ChaseBudget::depth(64).with_max_atoms(10),
        );
        assert!(!seg.complete);
        assert!(seg.atoms().len() <= 10);
        // The dense invariant: every recorded instance's head is a segment
        // atom even when the atom cap truncated the chase.
        for iid in seg.instance_ids() {
            assert!(seg.head_seg(iid).index() < seg.atoms().len());
        }
    }

    /// Asserts two segments are equal up to discovery order: same atom set
    /// with identical depth/level minima, same fact set, same instance
    /// multiset, same completeness.
    type InstKey = (u32, AtomId, Vec<AtomId>, Vec<AtomId>, AtomId);

    fn assert_segments_equivalent(u: &Universe, a: &ChaseSegment, b: &ChaseSegment) {
        let key = |seg: &ChaseSegment| {
            let mut atoms: Vec<(AtomId, u32, u32)> = seg
                .atoms()
                .iter()
                .map(|sa| (sa.atom, sa.depth, sa.level))
                .collect();
            atoms.sort_unstable();
            let mut facts: Vec<AtomId> = seg.fact_segs().iter().map(|&f| seg.atom_of(f)).collect();
            facts.sort_unstable();
            let mut insts: Vec<InstKey> = seg
                .instance_ids()
                .map(|i| {
                    let inst = seg.instance(i);
                    let mut pos: Vec<AtomId> = inst.pos.to_vec();
                    pos.sort_unstable();
                    let mut neg: Vec<AtomId> = inst.neg.to_vec();
                    neg.sort_unstable();
                    (inst.src_rule, inst.guard_atom, pos, neg, inst.head)
                })
                .collect();
            insts.sort();
            (atoms, facts, insts, seg.complete)
        };
        let (ka, kb) = (key(a), key(b));
        assert_eq!(ka.0, kb.0, "atom depth/level minima differ");
        assert_eq!(ka.1, kb.1, "fact sets differ");
        assert_eq!(ka.2.len(), kb.2.len(), "instance counts differ");
        assert_eq!(ka.2, kb.2, "instance multisets differ");
        assert_eq!(ka.3, kb.3, "completeness differs");
        let _ = u;
        assert_occurrences_recount(a);
        assert_occurrences_recount(b);
    }

    /// The occurrence rows a segment answers with — counted on this first
    /// read, whether the segment was built fresh or resumed — against a
    /// naive recount from its instance arrays: per segment atom, the
    /// instances it guards, heads and occurs in (once per instance),
    /// ascending.
    fn assert_occurrences_recount(seg: &ChaseSegment) {
        let n = seg.atoms().len();
        let mut rows = vec![(Vec::new(), Vec::new(), Vec::new()); n];
        for i in seg.instance_ids() {
            rows[seg.guard_seg(i).index()].0.push(i);
            rows[seg.head_seg(i).index()].1.push(i);
            let mut body = seg.pos_seg(i).to_vec();
            body.sort_unstable();
            body.dedup();
            assert_eq!(seg.num_distinct_pos(i) as usize, body.len(), "{i:?}");
            for s in body {
                rows[s.index()].2.push(i);
            }
        }
        for (a, (guard, head, body)) in rows.into_iter().enumerate() {
            let s = SegAtomId::from_index(a);
            assert_eq!(seg.instances_with_guard_seg(s), guard, "guard row {a}");
            assert_eq!(seg.instances_with_head_seg(s), head, "head row {a}");
            assert_eq!(seg.instances_with_body_seg(s), body, "body row {a}");
        }
    }

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
    fn incremental_grounding_equals_from_scratch() {
        // `early`: the delta's facts are interned before the base chase, so
        // their ids sit below the base's nulls; otherwise they come last.
        // Either way the extension appends them: the inherited local ids
        // stay, and the early leg differs from the from-scratch program in
        // its local ids only.
        for early in [false, true] {
            let mut u = Universe::new();
            let (db, prog) = example4(&mut u);
            let budget = ChaseBudget::depth(4);
            let r = u.lookup_pred("R").unwrap();
            let p = u.lookup_pred("P").unwrap();
            let delta = |u: &mut Universe, (c, d): (&str, &str)| {
                let (c, d) = (u.constant(c), u.constant(d));
                [
                    u.atom(r, vec![c, c, d]).unwrap(),
                    u.atom(p, vec![c, c]).unwrap(),
                ]
            };
            let seeds = [("c9", "d9"), ("d9", "c9")];
            let interned_early = early.then(|| seeds.map(|seed| delta(&mut u, seed)));
            let base = ChaseSegment::build(&mut u, &db, &prog, budget);

            // Two deltas in a row: the second extends an extended program.
            let (mut seg, mut ground) = (base.clone(), base.to_ground_program());
            for (k, seed) in seeds.into_iter().enumerate() {
                let facts = interned_early.map_or_else(|| delta(&mut u, seed), |all| all[k]);
                seg = seg.resume_with(&mut u, &prog, &facts).expect("resumable");
                let extended = seg.to_ground_program_from(&ground);
                let scratch = seg.to_ground_program();
                if early {
                    assert_ne!(
                        scratch.atoms(),
                        extended.atoms(),
                        "the case this leg is for"
                    );
                    assert_same_ground_program(&scratch, &extended);
                } else {
                    assert_ground_programs_identical(&scratch, &extended);
                }
                assert!(extended.num_rules() > ground.num_rules());
                assert_eq!(
                    extended.atoms().to_vec()[..ground.num_atoms()],
                    ground.atoms().to_vec()
                );
                ground = extended;
            }
        }
    }

    /// The same ground program through `AtomId`s, whatever the local ids:
    /// atoms, facts, rules and occurrence rows.
    fn assert_same_ground_program(scratch: &GroundProgram, extended: &GroundProgram) {
        let mut atoms = extended.atoms().to_vec();
        atoms.sort_unstable();
        assert_eq!(*scratch.atoms(), atoms);
        assert_eq!(scratch.facts(), extended.facts());
        assert_eq!(scratch.num_rules(), extended.num_rules());
        assert!(scratch.rules().eq(extended.rules()));
        for &atom in scratch.atoms() {
            assert_eq!(
                scratch.rules_with_head(atom),
                extended.rules_with_head(atom)
            );
            assert_eq!(scratch.rules_with_pos(atom), extended.rules_with_pos(atom));
            assert_eq!(scratch.rules_with_neg(atom), extended.rules_with_neg(atom));
        }
    }

    /// Every array two ground programs expose, occurrence rows included.
    fn assert_ground_programs_identical(scratch: &GroundProgram, extended: &GroundProgram) {
        assert_eq!(scratch.atoms(), extended.atoms());
        assert_eq!(scratch.facts(), extended.facts());
        assert_eq!(scratch.facts_local(), extended.facts_local());
        assert_eq!(scratch.num_rules(), extended.num_rules());
        for r in 0..scratch.num_rules() {
            assert_eq!(scratch.head_local(r), extended.head_local(r), "rule {r}");
            assert_eq!(scratch.pos_local(r), extended.pos_local(r), "rule {r}");
            assert_eq!(scratch.neg_local(r), extended.neg_local(r), "rule {r}");
        }
        for l in 0..scratch.num_atoms() as u32 {
            assert_eq!(
                scratch.rules_with_head_local(l),
                extended.rules_with_head_local(l)
            );
            assert_eq!(
                scratch.rules_with_pos_local(l),
                extended.rules_with_pos_local(l)
            );
            assert_eq!(
                scratch.rules_with_neg_local(l),
                extended.rules_with_neg_local(l)
            );
        }
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
    fn depth_truncation_reports_depth_cap() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        assert!(!seg.complete);
        assert_eq!(seg.truncation(), Some(TruncationReason::DepthCap));
        assert!(seg.can_resume(), "depth truncation stays resumable");
    }

    #[test]
    fn expired_deadline_trips_before_first_round() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let solve = SolveBudget::unlimited()
            .with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let seg = ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
        assert!(!seg.complete);
        assert_eq!(seg.truncation(), Some(TruncationReason::Deadline));
        assert_eq!(seg.stats().rounds, 0, "tripped before any round ran");
        // Facts are registered even when the deadline trips immediately.
        assert_eq!(seg.num_facts(), db.facts().len());
        assert!(seg.can_resume(), "deadline trips stop at a clean boundary");
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

    #[test]
    fn mem_budget_trips_on_tiny_limit() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let solve = SolveBudget::unlimited().with_mem_limit(1);
        let seg = ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
        assert!(!seg.complete);
        assert_eq!(seg.truncation(), Some(TruncationReason::MemBudget));
        assert!(seg.can_resume());
    }

    #[test]
    fn unknown_atom_queries_return_empty_slices() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        // An atom interned after the chase — never part of the segment.
        let fresh_pred = u.pred("fresh", 1).unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let foreign = u.atom(fresh_pred, vec![zero]).unwrap();
        assert!(!seg.contains(foreign));
        assert_eq!(seg.seg_id(foreign), None);
        assert!(seg.meta(foreign).is_none());
        assert!(seg.instances_with_guard(foreign).is_empty());
        assert!(seg.instances_with_head(foreign).is_empty());
        // A segment atom that heads nothing / guards nothing still answers
        // with (possibly empty) slices rather than a miss.
        let t = u.lookup_pred("T").unwrap();
        let t0 = u.atom(t, vec![zero]).unwrap();
        assert!(seg.contains(t0));
        assert!(seg.instances_with_guard(t0).is_empty(), "T guards no rule");
        assert!(!seg.instances_with_head(t0).is_empty());
    }

    #[test]
    fn csr_accessors_mirror_instance_arrays() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(4));
        assert!(seg.num_instances() > 0);
        assert!(seg.occurrences.get().is_none(), "counted on first read");
        for iid in seg.instance_ids() {
            let inst = seg.instance(iid);
            // Dense accessors agree with the materialized view.
            assert_eq!(seg.guard_atom(iid), inst.guard_atom);
            assert_eq!(seg.head_atom(iid), inst.head);
            assert_eq!(seg.src_rule(iid), inst.src_rule);
            let pos: Vec<AtomId> = seg.pos_seg(iid).iter().map(|&s| seg.atom_of(s)).collect();
            assert_eq!(pos.as_slice(), inst.pos.as_ref());
            assert_eq!(seg.neg_atoms(iid), inst.neg.as_ref());
            // Occurrence rows contain the instance.
            assert!(seg
                .instances_with_guard_seg(seg.guard_seg(iid))
                .contains(&iid));
            assert!(seg
                .instances_with_head_seg(seg.head_seg(iid))
                .contains(&iid));
            for &s in seg.pos_seg(iid) {
                assert!(seg.instances_with_body_seg(s).contains(&iid));
            }
            // Distinct-count matches a naive dedup.
            let mut dedup = pos.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(seg.num_distinct_pos(iid) as usize, dedup.len());
        }
        // Round-trip seg ids.
        for (i, sa) in seg.atoms().iter().enumerate() {
            let sid = seg.seg_id(sa.atom).expect("segment atom has a seg id");
            assert_eq!(sid.index(), i);
            assert_eq!(seg.atom_of(sid), sa.atom);
        }
    }

    /// Rules `b1(X), …, bn(X) -> h(X)` over unary predicates, in order; the
    /// first body atom is the guard.
    fn unary_program(u: &mut Universe, rules: &[(&[&str], &str)]) -> SkolemProgram {
        let mut prog = Program::new();
        for (body, head) in rules {
            let atom = |u: &mut Universe, p: &str| RuleAtom::new(u.pred(p, 1).unwrap(), vec![v(0)]);
            let body = body.iter().map(|p| atom(u, p)).collect();
            let head = vec![atom(u, head)];
            prog.push(Tgd::new(u, body, vec![], head).unwrap());
        }
        prog.skolemize(u).unwrap()
    }

    fn unary_atom(u: &mut Universe, pred: &str, constant: &str) -> AtomId {
        let (p, c) = (u.pred(pred, 1).unwrap(), u.constant(constant));
        u.atom(p, vec![c]).unwrap()
    }

    /// A parked instance that fires late lowers its head's level, and an
    /// instance already fired with that head in its body follows.
    const LATE_FIRE_LOWERS_A_LEVEL: &[(&[&str], &str)] = &[
        (&["a"], "b"),      // b(c): level 1
        (&["a", "b"], "c"), // c(c): level 2
        (&["a", "c"], "h"), // h(c): level 3 …
        (&["a", "h"], "k"), // … and k(c): level 4, all while a(c) expands
        (&["g", "r"], "h"), // parked on r(c); fires at level 2
        (&["s"], "r"),      // r(c): level 1, once s(c) expands
        (&["n", "h"], "k2"),
    ];

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
            let b = Builder::new(&mut u, &sk, budget, SolveBudget::unlimited());
            let seg = if eager { b.with_body_lists() } else { b }.run(&db);
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
            let b = Builder::from_segment(&mut u, &sk, &base, SolveBudget::unlimited());
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

    #[test]
    fn mem_bytes_counts_every_growable_pool() {
        use std::mem::size_of;
        // Parked instances and a relaxation (so the index exists): every
        // pool below is in use.
        let mut u = Universe::new();
        let sk = unary_program(&mut u, LATE_FIRE_LOWERS_A_LEVEL);
        let facts: Vec<AtomId> = (0..200)
            .flat_map(|i| ["a", "g", "s"].map(|p| (p, i)))
            .map(|(p, i)| unary_atom(&mut u, p, &format!("c{i}")))
            .collect();
        let budget = ChaseBudget::unbounded();
        let mut b = Builder::new(&mut u, &sk, budget, SolveBudget::unlimited());
        let before = b.mem_bytes();
        for &f in &facts {
            b.add_fact(f);
        }
        b.drain();
        assert!(b.stats.relaxations > 0);
        assert!(!b.pending.is_empty());
        let lists = b.body_lists.as_ref().expect("seeded by the relaxation");
        let by_hand = b.atoms.heap_bytes()
            + b.seg_of.heap_bytes()
            + b.fact_seg.heap_bytes()
            + b.fact_set.heap_bytes()
            + b.inst_src_rule.heap_bytes()
            + b.inst_guard.heap_bytes()
            + b.inst_head.heap_bytes()
            + b.pos.heap_bytes()
            + b.neg.heap_bytes()
            + b.expanded.heap_bytes()
            + (lists.head.capacity() + lists.tail.capacity()) * 4
            + (lists.next.capacity() + lists.inst.capacity()) * 4
            + b.watch_head.heap_bytes()
            + b.watch_tail.heap_bytes()
            + b.watch_next.heap_bytes()
            + b.watch_pend.heap_bytes()
            + b.pending.heap_bytes()
            + b.pend_pos.heap_bytes()
            + b.pend_neg.heap_bytes()
            + (b.expand_queue.capacity() + b.relax_queue.capacity()) * 4
            + b.relaxed.capacity() * 4
            + b.frontier.capacity() * 4;
        assert_eq!(b.mem_bytes(), by_hand);
        assert!(by_hand > before + facts.len() * size_of::<SegmentAtom>());
    }
}
