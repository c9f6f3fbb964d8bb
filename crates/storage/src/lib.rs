//! # `wfdl-storage` — databases, ground programs, and indexes
//!
//! Storage substrate for the `wfdatalog` system: database instances
//! ([`Database`]), deduplicated & indexed finite ground normal programs
//! ([`GroundProgram`]) extracted from chase segments, and secondary atom
//! indexes ([`AtomIndex`]) for homomorphism search.

#![warn(missing_docs)]

pub mod database;
pub mod ground;
pub mod index;

pub use database::Database;
pub use ground::{
    Extension, Facts, GroundProgram, GroundProgramBuilder, GroundRule, GroundRuleId, Room,
};
pub use index::{AtomIndex, IndexStats};
