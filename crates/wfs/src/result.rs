//! Common output type of the fixpoint engines.

use crate::scc::{ModularMemo, ModularStats};
use wfdl_core::{AtomId, ChunkVec, Interp, TruncationReason, Truth};

/// Per-atom decision stages as an array indexed by [`AtomId`] (universe
/// atom ids are dense, so this beats a hash map by an order of magnitude on
/// the assemble-result path every solve takes). It is a copy-on-write
/// chunked array: a solve from scratch fills a flat one, and a resumed
/// solve's clone shares the chunks of the map it extends and copies only
/// those its cone writes.
#[derive(Clone, Debug, Default)]
pub struct StageMap {
    /// `u32::MAX` = undecided.
    stages: ChunkVec<u32>,
}

impl StageMap {
    const UNDECIDED: u32 = u32::MAX;

    /// An empty map pre-sized for atom ids below `n`.
    pub fn with_capacity(n: usize) -> Self {
        StageMap {
            stages: ChunkVec::from_elem(Self::UNDECIDED, n),
        }
    }

    /// Makes room for atom ids below `n`.
    pub(crate) fn grow(&mut self, n: usize) {
        if self.stages.len() < n {
            self.stages.resize(n, Self::UNDECIDED);
        }
    }

    /// Records the decision stage of an atom.
    pub fn insert(&mut self, atom: AtomId, stage: u32) {
        debug_assert_ne!(stage, Self::UNDECIDED);
        let i = atom.index();
        if self.stages.len() <= i {
            self.stages.resize(i + 1, Self::UNDECIDED);
        }
        self.stages[i] = stage;
    }

    /// Forgets the decision stage of an atom; writes nothing for one that
    /// has none.
    pub(crate) fn clear(&mut self, atom: AtomId) {
        if self.get(atom).is_some() {
            self.stages[atom.index()] = Self::UNDECIDED;
        }
    }

    /// Decision stage of an atom, if decided.
    #[inline]
    pub fn get(&self, atom: AtomId) -> Option<u32> {
        match self.stages.get(atom.index()) {
            Some(&s) if s != Self::UNDECIDED => Some(s),
            _ => None,
        }
    }

    /// Iterates `(atom, stage)` over decided atoms, in atom-id order.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, u32)> + '_ {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != Self::UNDECIDED)
            .map(|(i, &s)| (AtomId::from_index(i), s))
    }
}

/// The three-valued model computed by an engine over the atoms of a ground
/// program, with per-atom decision stages.
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// Truth values over the program's atom universe.
    pub interp: Interp,
    /// Stage at which each decided atom obtained its value.
    pub decided_stage: StageMap,
    /// Number of productive stages until the fixpoint. For the modular
    /// engine, one past the largest component ordinal: the number of
    /// components of a solve from scratch, and for a resumed solve the
    /// ordinals handed out since that solve, including those of components
    /// the resumes dissolved — stages never move.
    pub stages: u32,
    /// Per-component statistics (populated by the SCC-modular engine).
    pub stats: Option<ModularStats>,
    /// The condensation and how each component was evaluated (populated by
    /// a complete run of the SCC-modular engine): what the next incremental
    /// solve carries over.
    pub memo: Option<ModularMemo>,
    /// `Some` iff the evaluation was stopped early by a [`SolveBudget`]
    /// trip. The model is then a sound under-approximation: every decided
    /// atom carries its final well-founded value (components run in
    /// dependencies-first order), every unevaluated atom reads `Unknown`,
    /// and `memo` is `None` so the partial sweep cannot seed verdict reuse.
    ///
    /// [`SolveBudget`]: wfdl_core::SolveBudget
    pub truncation: Option<TruncationReason>,
    /// `Some` iff the result was carried over from a previous solve and
    /// patched ([`ModularEngine::solve_incremental`]): the atoms of the
    /// delta's forward cone, outside which every verdict is the previous
    /// solve's.
    ///
    /// [`ModularEngine::solve_incremental`]: crate::ModularEngine::solve_incremental
    pub cone: Option<Vec<AtomId>>,
}

impl EngineResult {
    /// Truth value of an atom (`Unknown` for undecided or unmentioned).
    #[inline]
    pub fn value(&self, atom: AtomId) -> Truth {
        self.interp.value(atom)
    }

    /// Decision stage of an atom, if decided.
    pub fn stage_of(&self, atom: AtomId) -> Option<u32> {
        self.decided_stage.get(atom)
    }
}
