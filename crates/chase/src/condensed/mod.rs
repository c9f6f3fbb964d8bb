//! Condensed chase segments: a finite, depth-bounded materialization of the
//! guarded chase forest `F⁺(P)` for `P = D ∪ Σf`.
//!
//! ## Why "condensed"
//!
//! The forest of Section 2.5 attaches a child for a ground rule `r` under
//! *every* node labelled `guard(r)`, so identical subtrees repeat (in the
//! paper's Example 6 figure, `S(0)` and `T(0)` appear under every `R`-node).
//! For computation only two things matter, and both are per-*atom*, not
//! per-node:
//!
//! 1. the set of ground rule instances discovered (they form the finite
//!    ground normal program the WFS engines run on), and
//! 2. each atom's minimal forest depth and minimal derivation level
//!    (`level_P(a)`, Section 2.5), which the forward-proof machinery of
//!    Section 3 consumes.
//!
//! A [`ChaseSegment`] therefore stores one record per distinct atom plus the
//! deduplicated rule instances. The faithful node-per-occurrence forest is
//! available separately in [`crate::explicit`] and is proven equivalent (in
//! labels, edges, depths and levels) by integration tests.
//!
//! ## Saturation
//!
//! Guardedness makes saturation join-free: matching a rule's guard against a
//! concrete atom binds *all* universal variables, so the remaining positive
//! body atoms are ground "side conditions". Each rule is compiled once per
//! build into a plan (`plan.rs`) over its guard's argument positions, so a
//! match is a few array compares and an instance is gathered straight from
//! the guard's arguments. Instances whose side conditions are not yet
//! present wait in a pending list with Dowling–Gallier-style watch
//! counters. Atom depths/levels are maintained as minima by a relaxation
//! worklist, because a later-discovered derivation may be shallower than
//! the first one.
//!
//! ## Hash-free memory layout
//!
//! Saturation runs entirely on **dense indexes and flat pools** — after the
//! one unavoidable hash per *newly interned* term/atom in the universe, no
//! hot-path step hashes anything:
//!
//! * every discovered atom gets a dense [`SegAtomId`] **once** in
//!   `add_atom`; the reverse map `seg_of` is a flat array indexed by the
//!   universe's (equally dense) [`AtomId`], so membership tests and id
//!   conversion are single array reads;
//! * instance bodies live in shared arena pools (`pos_seg` / `neg_atoms`)
//!   addressed by CSR offsets — zero per-instance boxes;
//! * the Dowling–Gallier watch lists and the depth/level relaxation index
//!   (`instances-with-atom-in-body`) are intrusive linked lists over flat
//!   entry pools with per-atom head/tail cursors — the relaxation index is
//!   built by the first relaxation, which most builds never run;
//! * the "did this (rule, atom) pair instantiate already?" set collapses to
//!   one bit per segment atom, because expansion always attempts every rule
//!   guarded by the atom's predicate in one sweep;
//! * guard/head/body occurrence indexes are CSR arrays (counting sort)
//!   mirroring [`GroundProgram`]'s layout, counted by the first accessor
//!   that reads one — saturation, grounding and the engine never do — and
//!   [`ChaseSegment::to_ground_program`] hands the segment off as a
//!   straight array translation — no per-atom hash lookups.
//! * every array is a copy-on-write chunked array ([`ChunkVec`],
//!   [`RowPool`]): a build appends to flat tails at a `Vec`'s speed, and a
//!   resume starts from clones that share the segment's frozen chunks and
//!   copies only the chunks it writes.

mod handoff;
mod occurrences;
mod relax;
mod resume;
mod saturate;
mod segment;
#[cfg(test)]
mod tests;

pub use resume::ResumeError;
pub use segment::{ChaseSegment, ChaseStats, SegmentAtom};

#[cfg(doc)]
use crate::instance::SegAtomId;
#[cfg(doc)]
use wfdl_core::{AtomId, ChunkVec, RowPool};
#[cfg(doc)]
use wfdl_storage::GroundProgram;

/// Sentinel for "no entry" in the flat index arrays.
const NONE: u32 = u32::MAX;
