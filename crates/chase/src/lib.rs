//! # `wfdl-chase` — the guarded chase forest
//!
//! Materializes depth-bounded segments of the guarded chase forest
//! `F⁺(D ∪ Σf)` of Section 2.5:
//!
//! * [`condensed::ChaseSegment`] — one record per distinct atom plus every
//!   discovered ground rule instance; the computational representation all
//!   WFS engines consume (see the module docs for the equivalence argument);
//! * [`explicit::ExplicitForest`] — the definitional node-per-occurrence
//!   forest, reproducing the paper's Example 6 figure and validating the
//!   condensed form;
//! * [`budget::ChaseBudget`] — practical resource limits.

#![warn(missing_docs)]

pub mod budget;
pub mod condensed;
pub mod explicit;
pub mod instance;
pub mod paper;
mod plan;

pub use budget::ChaseBudget;
pub use condensed::{ChaseSegment, ChaseStats, ResumeError, SegmentAtom};
pub use explicit::{ExplicitForest, ForestNode};
pub use instance::{InstanceId, RuleInstance, SegAtomId};
