//! Common output type of the fixpoint engines.

use crate::scc::{ModularMemo, ModularStats};
use wfdl_core::{AtomId, Interp, TruncationReason, Truth};

/// The three-valued model computed by an engine over the atoms of a ground
/// program.
///
/// It records no per-atom stage. The modular engine decides an atom at its
/// component's emission ordinal + 1, which
/// [`WellFoundedModel::stage_of`] reads off the memo's condensation; the
/// oracles of `wfdl-reference` count their own stages beside their result.
///
/// [`WellFoundedModel::stage_of`]: crate::WellFoundedModel::stage_of
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// Truth values over the program's atom universe.
    pub interp: Interp,
    /// Number of productive stages until the fixpoint. For the modular
    /// engine, one past the largest component ordinal: the number of
    /// components of a solve from scratch, and for a resumed solve the
    /// ordinals handed out since that solve, including those of components
    /// the resumes dissolved — ordinals never move.
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
}
