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
//! * [`result`] — the engine output every consumer reads.
//!
//! **Beside the solve path** — library surface no solve, CLI command or
//! serve route calls (tests, `experiments` E10/E11 and API users do):
//!
//! * [`wcheck`] — demand-driven single-atom membership (Section 4's WCHECK,
//!   deterministically realized: the atom's dependency cone, evaluated by
//!   the same [`scc::ModularEngine`]) with extractable, independently
//!   verifiable certificates;
//! * [`types`] — the atom types of Section 3 (locality).
//!
//! The paper's other definitions of the same model — the global `W_P`
//! fixpoint, Van Gelder's alternating fixpoint, the forward operator `Ŵ_P`
//! of Theorem 8, the perfect model, stable models — are **oracles** and
//! live in the test-only `wfdl-reference` crate, which depends on this one;
//! no production crate can name them.
//!
//! The engine reads the storage layer's dense data layout directly: the
//! [`wfdl_storage::GroundProgram`] local atom ids and CSR occurrence
//! indexes, so the hot loops are flat array walks with Dowling–Gallier
//! counters — no hashing, and no copy of the program.

#![warn(missing_docs)]

pub mod result;
pub mod scc;
pub mod solver;
pub mod types;
pub mod wcheck;

pub use result::EngineResult;
pub use scc::{condensation, Condensation, ModularEngine, ModularMemo, ModularStats};
pub use solver::{
    constraint_status, lower_with_constraints, solve, solve_request, solve_resumed,
    solve_sliced_packaged_budgeted, SolveOutput, SolveRequest, SolveStats, WellFoundedModel,
    WfsOptions,
};
pub use types::{
    atom_type, canonical_type_of, canonicalize, subtree_signature, type_census, AtomType,
    CanonTerm, CanonicalType, TypeCensus,
};
