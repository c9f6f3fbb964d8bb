//! Example 2's conservative no-UNA approximation: a different semantics
//! from the one `wfdl-wfs` solves, kept beside the oracles because it is
//! [`WpEngine::with_frozen`] plus a chase.

use crate::wp::{StepMode, WpEngine};
use wfdl_chase::{ChaseBudget, ChaseSegment};
use wfdl_core::{AtomId, SkolemProgram, SolveOutcome, TruncationReason, Universe};
use wfdl_storage::Database;
use wfdl_wfs::WellFoundedModel;

/// Computes the **conservative no-UNA approximation** used in the paper's
/// Example 2 discussion: labelled nulls might denote equal values, so a
/// null-containing atom that merely fails to be derived cannot be declared
/// false, and rules negating such atoms never fire. The equality-friendly
/// WFS of \[4\] is a different (and co-NP-hard) semantics; this
/// approximation suffices to reproduce the qualitative separation the paper
/// draws (`ValidID(f(a))` is derived under UNA, withheld without it).
pub fn solve_no_una(
    universe: &mut Universe,
    db: &Database,
    program: &SkolemProgram,
    budget: ChaseBudget,
) -> WellFoundedModel {
    let segment = ChaseSegment::build(universe, db, program, budget);
    let ground = segment.to_ground_program();
    let frozen: Vec<AtomId> = ground
        .atoms()
        .iter()
        .copied()
        .filter(|&a| !universe.atom_is_constant_free_of_nulls(a))
        .collect();
    let result = WpEngine::new(&ground)
        .with_frozen(frozen)
        .solve(StepMode::Accelerated);
    let exact = segment.complete;
    let outcome = if exact {
        SolveOutcome::Complete
    } else {
        SolveOutcome::Truncated(segment.truncation().unwrap_or(TruncationReason::DepthCap))
    };
    WellFoundedModel {
        segment,
        ground,
        result,
        exact,
        outcome,
    }
}
