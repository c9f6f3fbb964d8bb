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
//! * [`trace`] — stage traces in the paper's Example 9 style;
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

use wfdl_core::{BitSet, Interp};
use wfdl_storage::GroundProgram;
use wfdl_wfs::result::{EngineResult, StageMap};

/// Packages a ground-level oracle's verdict bitsets (indexed by local atom
/// id) as the engines' common output type.
pub(crate) fn result_from_ground(
    prog: &GroundProgram,
    truth_true: &BitSet,
    truth_false: &BitSet,
    stage_of: &[u32],
    stages: u32,
) -> EngineResult {
    let mut interp = Interp::with_capacity(prog.num_atoms());
    let cap = prog.atom_id_bound();
    let mut decided_stage = StageMap::with_capacity(cap);
    for (i, &atom) in prog.atoms().iter().enumerate() {
        if truth_true.contains(i) {
            interp.set_true(atom);
            decided_stage.insert(atom, stage_of[i]);
        } else if truth_false.contains(i) {
            interp.set_false(atom);
            decided_stage.insert(atom, stage_of[i]);
        }
    }
    EngineResult {
        interp,
        decided_stage,
        stages,
        stats: None,
        memo: None,
        truncation: None,
        cone: None,
    }
}
