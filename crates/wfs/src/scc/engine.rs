//! The engine, its counters, and what a solve leaves behind for the next
//! one.

use super::condensation::Condensation;
use super::cone::carries;
use crate::result::EngineResult;
use wfdl_core::{BitSet, ChunkVec, Interp, SolveBudget, Truth};
use wfdl_storage::GroundProgram;

/// Per-run statistics of the modular evaluation, exposed through
/// [`EngineResult::stats`] and the `wfdl` CLI's `--stats` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModularStats {
    /// Number of strongly connected components of the dependency graph
    /// (for a resumed solve too: the components its resumes dissolved are
    /// not counted).
    pub components: usize,
    /// Components evaluated by the flat semi-naive pass.
    pub definite_components: usize,
    /// Components that ran the full alternating `W_P` rounds (internal
    /// negation, or an undefined lower input).
    pub recursive_components: usize,
    /// Atoms in the largest component.
    pub largest_component: usize,
    /// Atoms evaluated inside recursive components.
    pub atoms_in_recursive: usize,
    /// Rules heading an atom of a recursive component.
    pub rules_in_recursive: usize,
    /// Alternating `T_P`-closure / unfounded-set rounds, summed over the
    /// recursive components this run evaluated (carried ones run none).
    /// A recursive component costs `rounds × its rules`, which is why one
    /// large component is dearer than many small ones.
    pub recursive_rounds: usize,
    /// Atoms left undefined by the run.
    pub unknown_atoms: usize,
    /// Components this run did not evaluate: their verdicts were carried
    /// over from the previous solve
    /// ([`ModularEngine::solve_incremental`]). `0` for a full solve.
    pub components_reused: usize,
    /// Components this run evaluated: `components - components_reused`
    /// unless a budget truncated the run.
    pub components_evaluated: usize,
    /// Atoms Tarjan's algorithm ran over: every atom for a full solve, and
    /// for an incremental one the delta's forward cone, as the forward walk
    /// listed it.
    pub cone_atoms: usize,
    /// Always `1`. Accepted and ignored for the frozen benchmark; removed
    /// by the benchmark issue that drops `cold_solve_auto_s`.
    #[doc(hidden)]
    pub threads: usize,
}

/// What one complete modular solve leaves behind for the **next** solve
/// over the program extended by a delta
/// ([`ModularEngine::solve_incremental`]): the condensation it ran over,
/// how each component was evaluated, and the two per-atom arrays every
/// sweep builds — the verdicts and the fact set, by local id. Together with
/// the interpretation and the statistics of the same [`EngineResult`] that
/// is everything the carry-and-patch path carries; it rebuilds none of it,
/// and a clone shares the chunks of its chunked arrays. The decision stage
/// of an atom is read off it ([`ModularMemo::stage`]).
#[derive(Clone, Debug, Default)]
pub struct ModularMemo {
    /// The condensation the solve ran over.
    pub condensation: Condensation,
    /// Per component, by emission ordinal: was it recursive (internal
    /// negation or an undefined lower input) rather than definite.
    pub(super) recursive: ChunkVec<bool>,
    /// The verdict of every atom, by local id: what the result's `interp`
    /// holds by universe id.
    pub(super) truth: Vec<Truth>,
    /// The program's facts, by local id.
    pub(super) is_fact: BitSet,
}

impl ModularMemo {
    /// The decision stage of the atom with local id `local`: its
    /// component's emission ordinal + 1, or `None` if it is undecided.
    pub fn stage(&self, local: u32) -> Option<u32> {
        let l = local as usize;
        (self.truth[l] != Truth::Unknown).then(|| self.condensation.comp_of[l] + 1)
    }
}

/// The SCC-modular WFS engine.
pub struct ModularEngine<'a> {
    pub(super) prog: &'a GroundProgram,
    /// Deadline / cancellation / memory budget, checked at component
    /// boundaries.
    pub(super) budget: SolveBudget,
}

impl<'a> ModularEngine<'a> {
    /// Prepares the engine for a ground program.
    pub fn new(prog: &'a GroundProgram) -> Self {
        ModularEngine {
            prog,
            budget: SolveBudget::unlimited(),
        }
    }

    /// Attaches a resource budget. On a trip the sweep stops at a component
    /// boundary: verdicts already published stay, every unevaluated atom
    /// reads [`Truth::Unknown`], and [`EngineResult::truncation`] records
    /// the reason. A truncated result
    /// carries no memo — its partial verdicts must never seed an
    /// incremental reuse.
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Accepted and ignored for the frozen benchmark; removed by the
    /// benchmark issue that drops `cold_solve_auto_s`.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Computes the well-founded model component by component: the sweep
    /// of [`ModularEngine::solve_incremental`] against the empty model.
    pub fn solve(&self) -> EngineResult {
        self.solve_incremental(None)
    }

    /// Computes the well-founded model of a program that **extends** a
    /// previously solved one, by carry-and-patch (see the module docs).
    ///
    /// `prev` is the ground program and engine result of the previous
    /// solve; this engine's program must be that program plus a delta —
    /// the previous atoms, rules and facts a prefix of its atoms, rules and
    /// facts, which is what [`GroundProgram::extension`] produces. Outside
    /// the delta's forward cone, verdicts and components are carried. One
    /// forward walk from the seeds lists the cone and condenses it, its
    /// components take fresh ordinals and no carried ordinal moves, and of
    /// its components only those that hold a seed or read a verdict that
    /// changed are classified and evaluated; the others are carried
    /// unclassified. The counters that describe the model equal a full
    /// solve's. A budget trip
    /// stops the sweep at a component boundary: decided atoms carry their
    /// final values, the rest read `Unknown`, and no memo is published.
    ///
    /// A full solve is this sweep against the **empty model** — an empty
    /// ground program, memo and counters — whose cone is every atom, in
    /// local-id order; its [`EngineResult::cone`] is `None`. The empty
    /// model stands in for a `prev` that is missing, truncated (no memo)
    /// or not extended, and for one whose dissolved ordinals outnumber its
    /// components by more than a chunk.
    pub fn solve_incremental(&self, prev: Option<(&GroundProgram, &EngineResult)>) -> EngineResult {
        let carried = prev.and_then(|(prev_prog, prev)| {
            let (memo, stats) = (prev.memo.as_ref()?, prev.stats?);
            carries(prev_prog, memo, self.prog).then_some((prev_prog, &prev.interp, memo, stats))
        });
        let (empty, none) = (GroundProgram::default(), Interp::new());
        let memo = ModularMemo::default();
        let (prev_prog, interp, memo, stats) =
            carried.unwrap_or((&empty, &none, &memo, ModularStats::default()));
        self.solve_cone(prev_prog, interp, memo, stats)
    }
}
