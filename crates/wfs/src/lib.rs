//! # `wfdl-wfs` — well-founded semantics
//!
//! The paper's primary contribution, made executable (see `README.md` in
//! this directory for the full engine-architecture overview).
//!
//! **Production** — what a solve runs:
//!
//! * [`solver`] — the one solve path: [`solve_request`] over a
//!   [`SolveRequest`] (chase from scratch, resumed, or slice-restricted →
//!   ground → engine → constraint verdicts), with exactness reporting;
//! * [`scc::ModularEngine`] — the engine: Tarjan's algorithm over the atom
//!   dependency graph, negation-free components by a flat semi-naive pass,
//!   the `W_P` unfounded-set iteration in place only on components with
//!   internal negation, lower-component verdicts substituted in as they
//!   resolve;
//! * [`result`] — the engine output every consumer reads;
//! * [`wcheck`] — demand-driven single-atom membership (Section 4's WCHECK,
//!   deterministically realized) with extractable, independently verifiable
//!   certificates.
//!
//! **Oracles** — independent definitions of the same model, proved equal
//! by the paper and compared against the production engine by the test
//! suites; build them directly on a solved model's `ground` / `segment`:
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
//! * [`trace`] — stage traces in the paper's Example 9 style.
//!
//! All engines read the storage layer's dense data layout directly: the
//! [`wfdl_storage::GroundProgram`] local atom ids and CSR occurrence
//! indexes, so the hot loops are flat array walks with Dowling–Gallier
//! counters — no hashing, and no per-engine copies of the program.

#![warn(missing_docs)]

pub mod alternating;
pub mod forward;
pub mod result;
pub mod scc;
pub mod solver;
pub mod stable;
pub mod stratified;
pub mod trace;
pub mod types;
pub mod wcheck;
pub mod wp;

pub use alternating::AlternatingEngine;
pub use forward::ForwardEngine;
pub use result::EngineResult;
pub use scc::{condensation, Condensation, ModularEngine, ModularMemo, ModularStats};
pub use solver::{
    constraint_status, lower_with_constraints, solve, solve_request, solve_resumed,
    solve_sliced_packaged_budgeted, SolveInput, SolveOutput, SolveRequest, SolveStats,
    WellFoundedModel, WfsOptions,
};
pub use stable::stable_models;
pub use stratified::{perfect_model, stratify, Stratification};
pub use trace::{StageTrace, TraceEntry};
pub use types::{
    atom_type, canonical_type_of, canonicalize, subtree_signature, type_census, AtomType,
    CanonTerm, CanonicalType, TypeCensus,
};
pub use wp::{StepMode, WpEngine};
