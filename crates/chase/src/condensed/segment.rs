//! The segment itself: its atom and instance arrays and their accessors.

use super::occurrences::Occurrences;
use super::resume::ResumeState;
use super::NONE;
use crate::budget::ChaseBudget;
use crate::instance::{InstanceId, RuleInstance, SegAtomId};
use std::sync::OnceLock;
use wfdl_core::{
    AtomId, ChunkVec, Footprint, RowPool, SkolemProgram, SolveBudget, TruncationReason, Universe,
};
use wfdl_storage::Database;

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
    pub(super) forest: Forest,
    /// The occurrence indexes, counted from the instance arrays by the
    /// first accessor that reads one (no solve does; see [`Occurrences`]).
    pub(super) occurrences: OnceLock<Occurrences>,
    /// True iff saturation quiesced with no budget limit hit: the segment
    /// *is* the full chase (always the case for non-existential programs).
    pub complete: bool,
    /// Number of instances still waiting for side atoms when saturation
    /// stopped (diagnostic; nonzero is normal for truncated segments).
    pub pending_at_end: usize,
    pub(super) budget: ChaseBudget,
    /// Number of instances inherited from the segment this one was resumed
    /// from (`0` for a build): instances `inherited_instances..` are
    /// the ones discovered by the resume, the basis for incremental
    /// grounding ([`ChaseSegment::to_ground_program_from`]).
    pub(super) inherited_instances: usize,
    /// Number of atoms inherited likewise: atoms `inherited_atoms..` are
    /// the ones the resume added.
    pub(super) inherited_atoms: usize,
    /// Counters for the saturation run that produced this segment (for a
    /// resumed segment: the resume run only).
    pub(super) stats: ChaseStats,
    /// Saturation state retained for [`ChaseSegment::resume_with`].
    pub(super) resume: ResumeState,
}

/// The atoms and rule instances of a segment: what a build appends to, in
/// place, and the segment it finishes holds.
#[derive(Clone, Debug, Default)]
pub(super) struct Forest {
    pub(super) atoms: ChunkVec<SegmentAtom>,
    /// `seg_of[AtomId::index()]` = the atom's [`SegAtomId`] (or `NONE`).
    pub(super) seg_of: ChunkVec<u32>,
    /// Fact atoms as segment ids, in database insertion order. A build
    /// places them first (`0..num_facts()`); a resume of a non-empty
    /// segment appends delta facts wherever discovery put them.
    pub(super) fact_seg: ChunkVec<SegAtomId>,
    /// Originating rule per instance.
    pub(super) inst_src_rule: ChunkVec<u32>,
    /// Guard atom per instance.
    pub(super) inst_guard: ChunkVec<SegAtomId>,
    /// Head atom per instance (always a segment atom).
    pub(super) inst_head: ChunkVec<SegAtomId>,
    /// Positive bodies (guard included, rule order), one row per instance.
    pub(super) pos: RowPool<SegAtomId>,
    /// Negative bodies (rule order), one row per instance. Kept as
    /// universe ids because hypotheses need not occur in the segment.
    pub(super) neg: RowPool<AtomId>,
}

impl Forest {
    /// The heap bytes of the arrays, shared or not.
    pub(super) fn footprint(&self) -> Footprint {
        [
            self.atoms.footprint(),
            self.seg_of.footprint(),
            self.fact_seg.footprint(),
            self.inst_src_rule.footprint(),
            self.inst_guard.footprint(),
            self.inst_head.footprint(),
            self.pos.footprint(),
            self.neg.footprint(),
        ]
        .into_iter()
        .sum()
    }
}

impl ChaseSegment {
    /// The segment of the empty database: no atom, no instance, complete.
    /// Every chase resumes a segment, and a build resumes this one with
    /// the database's facts.
    pub fn empty(budget: ChaseBudget) -> ChaseSegment {
        ChaseSegment {
            forest: Forest::default(),
            occurrences: OnceLock::new(),
            complete: true,
            pending_at_end: 0,
            budget,
            inherited_instances: 0,
            inherited_atoms: 0,
            stats: ChaseStats::default(),
            resume: ResumeState::default(),
        }
    }

    /// True iff the segment holds no atom (and so no instance): the base a
    /// build resumes.
    pub(super) fn is_empty(&self) -> bool {
        self.forest.atoms.is_empty()
    }

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
    /// (deadline / cancellation / memory budget) at every round boundary:
    /// [`ChaseSegment::empty`] resumed with `D`'s facts, in database order.
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
        match Self::empty(budget).resume_budgeted(universe, program, db.facts(), solve) {
            Ok(segment) => segment,
            Err(e) => unreachable!("the empty segment always resumes: {e}"),
        }
    }

    /// All segment atoms with metadata, in discovery order (indexed by
    /// [`SegAtomId`]). Facts are the first entries of a build; a resume of
    /// a non-empty segment interleaves delta facts, so iterate
    /// [`ChaseSegment::fact_segs`] to find them.
    #[inline]
    pub fn atoms(&self) -> &ChunkVec<SegmentAtom> {
        &self.forest.atoms
    }

    /// Number of database facts in the segment.
    #[inline]
    pub fn num_facts(&self) -> usize {
        self.forest.fact_seg.len()
    }

    /// The database facts as segment ids, in database insertion order.
    #[inline]
    pub fn fact_segs(&self) -> &ChunkVec<SegAtomId> {
        &self.forest.fact_seg
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

    /// Number of discovered rule instances.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.forest.inst_src_rule.len()
    }

    /// Iterates over all instance ids in discovery order.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstanceId> {
        (0..self.forest.inst_src_rule.len()).map(InstanceId::from_index)
    }

    /// The dense segment id of `atom`, if it occurs in the segment. One
    /// array read — no hashing.
    #[inline]
    pub fn seg_id(&self, atom: AtomId) -> Option<SegAtomId> {
        match self.forest.seg_of.get(atom.index()) {
            Some(&s) if s != NONE => Some(SegAtomId::from_index(s as usize)),
            _ => None,
        }
    }

    /// The universe atom with segment id `id`.
    #[inline]
    pub fn atom_of(&self, id: SegAtomId) -> AtomId {
        self.forest.atoms[id.index()].atom
    }

    /// Metadata for `atom`, if it occurs in the segment.
    pub fn meta(&self, atom: AtomId) -> Option<SegmentAtom> {
        self.seg_id(atom).map(|s| self.forest.atoms[s.index()])
    }

    /// True iff `atom` occurs in the segment (i.e. in `label(F⁺(P))`, up to
    /// truncation).
    #[inline]
    pub fn contains(&self, atom: AtomId) -> bool {
        self.seg_id(atom).is_some()
    }

    /// Originating rule of an instance: its index in the program the
    /// segment was chased with — for a sliced solve, the sliced program,
    /// not the knowledge base's. Diagnostics and tests read it; no solve
    /// does.
    #[inline]
    pub fn src_rule(&self, id: InstanceId) -> u32 {
        self.forest.inst_src_rule[id.index()]
    }

    /// Guard atom of an instance, as a segment id.
    #[inline]
    pub fn guard_seg(&self, id: InstanceId) -> SegAtomId {
        self.forest.inst_guard[id.index()]
    }

    /// Guard atom of an instance, as a universe id.
    #[inline]
    pub fn guard_atom(&self, id: InstanceId) -> AtomId {
        self.atom_of(self.forest.inst_guard[id.index()])
    }

    /// Head atom of an instance, as a segment id.
    #[inline]
    pub fn head_seg(&self, id: InstanceId) -> SegAtomId {
        self.forest.inst_head[id.index()]
    }

    /// Head atom of an instance, as a universe id.
    #[inline]
    pub fn head_atom(&self, id: InstanceId) -> AtomId {
        self.atom_of(self.forest.inst_head[id.index()])
    }

    /// Positive body of an instance (guard included, rule order) as
    /// segment ids. Fired instances only reference segment atoms, so this
    /// is total.
    #[inline]
    pub fn pos_seg(&self, id: InstanceId) -> &[SegAtomId] {
        self.forest.pos.row(id.index())
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
        self.forest.neg.row(id.index())
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

    /// The heap bytes of the segment's chunked arrays: all it holds, and
    /// the part no other segment holds — for a resumed segment, what the
    /// resume copied or added.
    pub fn footprint(&self) -> Footprint {
        self.forest.footprint() + self.resume.footprint()
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
        self.forest.atoms.iter().map(|a| a.depth).max().unwrap_or(0)
    }
}
