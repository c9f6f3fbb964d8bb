//! # `wfdl-reference` — the oracles
//!
//! Independent, definitional implementations of the well-founded model
//! (and of what it is compared with), each proved equal to `WFS(D,Σ)` by
//! the paper or the literature. **Test support**: only
//! `[dev-dependencies]` and `wfdl-bench` may name this crate
//! (`tests/crate_graph.rs` checks the manifests), so no solve, query or
//! serve path can reach one. Build an oracle directly on a solved model's
//! `ground` / `segment` and compare — see `README.md` in this crate.
//!
//! * [`wp::WpEngine`] — the definitional `W_P = T_P ∪ ¬.U_P` least fixpoint
//!   with greatest-unfounded-set computation (Section 2.6), in both a
//!   stage-faithful and an accelerated regime;
//! * [`alternating::AlternatingEngine`] — Van Gelder's alternating fixpoint;
//! * [`forward::ForwardEngine`] — the forward-proof operator `Ŵ_P`
//!   evaluated on chase segments (Definitions 5/7, Theorem 8);
//! * [`stratified`] — stratification test and perfect-model baseline \[1\];
//! * [`stable`] — stable models of small ground programs (the WFS
//!   approximates their intersection);
//! * [`trace`] — stage traces in the paper's Example 9 style, read off the
//!   [`StageMap`] the three fixpoint engines keep beside their model
//!   (`solve_staged`);
//! * [`no_una::solve_no_una`] — Example 2's conservative no-UNA
//!   approximation (a different semantics, built on [`wp::WpEngine`]);
//! * [`delta`] — the paper's depth bound `δ` from Proposition 12.

#![warn(missing_docs)]

pub mod alternating;
pub mod delta;
pub mod forward;
pub mod no_una;
pub mod stable;
pub mod stratified;
pub mod trace;
pub mod wp;

pub use alternating::AlternatingEngine;
pub use delta::{paper_delta, query_depth_bound};
pub use forward::ForwardEngine;
pub use no_una::solve_no_una;
pub use stable::stable_models;
pub use stratified::{perfect_model, stratify, Stratification};
pub use trace::{StageTrace, TraceEntry};
pub use wp::{StepMode, WpEngine};

use wfdl_core::{AtomId, BitSet, Interp, Truth};
use wfdl_storage::GroundProgram;
use wfdl_wfs::result::EngineResult;

/// The stage at which each decided atom entered an oracle's fixpoint, by
/// universe atom id: one flat array, written as the oracle runs. No oracle
/// resumes, so nothing is ever shared, withdrawn or carried.
#[derive(Clone, Debug, Default)]
pub struct StageMap {
    /// `0` = undecided: every oracle counts its stages from 1.
    stages: Vec<u32>,
}

impl StageMap {
    /// Records the decision stage of an atom.
    pub fn insert(&mut self, atom: AtomId, stage: u32) {
        debug_assert_ne!(stage, 0, "stages count from 1");
        let i = atom.index();
        if self.stages.len() <= i {
            self.stages.resize(i + 1, 0);
        }
        self.stages[i] = stage;
    }

    /// Decision stage of an atom, if decided.
    pub fn get(&self, atom: AtomId) -> Option<u32> {
        self.stages.get(atom.index()).copied().filter(|&s| s != 0)
    }

    /// Iterates `(atom, stage)` over decided atoms, in atom-id order.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, u32)> + '_ {
        (self.stages.iter().enumerate())
            .filter(|(_, &s)| s != 0)
            .map(|(i, &s)| (AtomId::from_index(i), s))
    }
}

/// An oracle's model together with the stage at which each decided atom
/// entered it.
#[derive(Clone, Debug)]
pub struct StagedResult {
    /// The model.
    pub result: EngineResult,
    /// The decision stage of every decided atom.
    pub stage: StageMap,
}

impl StagedResult {
    /// Truth value of an atom.
    pub fn value(&self, atom: AtomId) -> Truth {
        self.result.value(atom)
    }

    /// Decision stage of an atom, if decided.
    pub fn stage_of(&self, atom: AtomId) -> Option<u32> {
        self.stage.get(atom)
    }
}

/// Packages a ground-level oracle's verdict bitsets and stages (indexed by
/// local atom id) as the engines' common output type.
pub(crate) fn result_from_ground(
    prog: &GroundProgram,
    truth_true: &BitSet,
    truth_false: &BitSet,
    stage_of: &[u32],
    stages: u32,
) -> StagedResult {
    let mut interp = Interp::with_capacity(prog.num_atoms());
    let mut stage = StageMap::default();
    for (i, &atom) in prog.atoms().iter().enumerate() {
        if truth_true.contains(i) {
            interp.set_true(atom);
            stage.insert(atom, stage_of[i]);
        } else if truth_false.contains(i) {
            interp.set_false(atom);
            stage.insert(atom, stage_of[i]);
        }
    }
    StagedResult {
        result: EngineResult {
            interp,
            stages,
            stats: None,
            memo: None,
            truncation: None,
            cone: None,
        },
        stage,
    }
}
