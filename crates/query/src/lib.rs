//! # `wfdl-query` — (normal Boolean) conjunctive query answering
//!
//! Data types and evaluation for CQs, BCQs and NBCQs (Sections 2.1/2.3)
//! over well-founded models, with certain-answer semantics: a negated query
//! atom is satisfied only by an atom whose negation is **in** the model
//! (false), never by an undefined one. [`eval::holds3`] additionally
//! reports `Unknown` when a satisfying homomorphism exists through
//! undefined atoms.
//!
//! Queries must be range-restricted (every variable occurs in a positive
//! atom); this covers all queries in the paper and keeps evaluation
//! domain-independent.

#![warn(missing_docs)]

pub mod eval;
pub mod nbcq;
pub mod prepared;
pub mod source;

pub use eval::{
    answers, answers_indexed, holds, holds3, holds3_indexed, possible_witness_indexed, AnswerSet,
};
pub use nbcq::{Nbcq, QTerm, QVar, QueryAtom, QueryError};
pub use prepared::{PreparedQuery, QueryShape, ShapeAtom, ShapeTerm};
pub use source::{InterpSource, TruthSource};
