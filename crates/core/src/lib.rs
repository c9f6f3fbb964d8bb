//! # `wfdl-core` — data model for well-founded guarded Datalog±
//!
//! Core types for the `wfdatalog` reproduction of *"Well-Founded Semantics
//! for Extended Datalog and Ontological Reasoning"* (Hernich, Kupke,
//! Lukasiewicz, Gottlob; PODS 2013):
//!
//! * interned **symbols**, hash-consed **ground terms** (constants and
//!   Skolem terms, i.e. labelled nulls under the unique name assumption) and
//!   **ground atoms** ([`universe::Universe`]);
//! * **rules**: guarded normal TGDs with validation of safety and
//!   guardedness ([`rule::Tgd`]), negative constraints, head-atom
//!   normalization ([`normalize`]) and the functional transformation
//!   `Σ ↦ Σf` ([`skolem`]);
//! * **three-valued interpretations** ([`interp::Interp`]) with Kleene truth
//!   values ([`truth::Truth`]);
//! * substitution/matching machinery exploiting guardedness
//!   ([`subst`]).
//!
//! Everything downstream (`wfdl-chase`, `wfdl-wfs`, `wfdl-query`, …) works
//! with the dense ids defined here.

#![warn(missing_docs)]

pub mod atom;
pub mod bitset;
pub mod budget;
pub mod chunked;
pub mod csr;
pub mod error;
pub mod factbatch;
pub mod fxhash;
pub mod idtable;
pub mod interp;
pub mod json;
pub mod normalize;
pub mod program;
pub mod rule;
pub mod scc;
pub mod schema;
pub mod skolem;
pub mod snapshot;
#[cfg(test)]
mod store_model;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod truth;
pub mod universe;

pub use atom::{AtomId, AtomNode, AtomStore};
pub use bitset::BitSet;
pub use budget::{CancelToken, SolveBudget, SolveOutcome, TruncationReason};
pub use chunked::{ChunkVec, Footprint, RowPool, StrPool};
pub use error::{CoreError, Result};
pub use factbatch::{FactBatch, RelationWriter};
pub use fxhash::{FxHashMap, FxHashSet};
pub use idtable::IdTable;
pub use interp::Interp;
pub use program::Program;
pub use rule::{Constraint, RTerm, RuleAtom, Span, Tgd, Var};
pub use schema::{PredId, PredInfo, SchemaStats};
pub use skolem::{HeadTerm, SkolemProgram, SkolemRule};
pub use snapshot::UniverseSnapshot;
pub use subst::{match_atom, Binding};
pub use symbol::{Symbol, SymbolTable};
pub use term::{SkolemId, TermId, TermNode, TermStore};
pub use truth::Truth;
pub use universe::Universe;

/// Narrows a dense arena index to the `u32` id space shared by every
/// interned id type ([`TermId`], [`AtomId`], [`PredId`], …).
///
/// # Panics
///
/// Panics past `u32::MAX` entries — the documented arena capacity
/// ceiling. Hitting it means the workload outgrew the 4-byte id layout,
/// not a recoverable condition.
#[inline]
#[must_use]
pub fn dense_u32(i: usize, what: &str) -> u32 {
    match u32::try_from(i) {
        Ok(v) => v,
        Err(_) => panic!("{what} overflow: index {i} exceeds the u32 id space"),
    }
}
