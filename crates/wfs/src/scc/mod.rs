//! SCC-modular well-founded evaluation.
//!
//! The global fixpoint engines (the `W_P` and alternating-fixpoint oracles
//! of `wfdl-reference`) re-solve the entire ground program every stage,
//! even when negation is confined to a tiny subcomponent. This module
//! exploits the classical modularity (splitting) property of the
//! well-founded semantics instead:
//!
//! 1. build the **atom dependency graph** (an edge `head → body atom` for
//!    every rule, positive and negative alike) over the program's dense
//!    local atom ids;
//! 2. run Tarjan's algorithm; its emission order visits every strongly
//!    connected component **after** all components it depends on;
//! 3. evaluate components bottom-up, substituting the verdicts of lower
//!    components into each rule as it is considered:
//!    * a component with no internal negative edge and no undefined lower
//!      verdict in reach is **definite**: one flat semi-naive pass derives
//!      its true atoms and everything else in it is false — no unfounded-set
//!      computation at all;
//!    * otherwise the component is **recursive**: the alternating
//!      `T_P`-closure / greatest-unfounded-set rounds of `W_P` run until
//!      nothing changes, with undefined lower atoms carried as
//!      *assumed-unknown* inputs (a rule that mentions one can keep its
//!      head possibly-founded but can never fire).
//!
//! Both kinds go through **one in-place evaluator** (`eval_component`): it
//! reads the parent program's rule arrays restricted to the component's own
//! rules, closes over positive occurrence rows of the component's own
//! (recorded while its rules are classified — the program-wide body rows
//! are never read), keeps every verdict in one per-atom array and every
//! countdown in reused scratch buffers, and allocates nothing. A definite
//! component is round one of the same loop with an early exit. So a
//! component costs `rounds × its own rules` — never anything proportional
//! to the program or the atom universe around it.
//!
//! A **trivial** component — a singleton that no rule of its own mentions,
//! which is every component of a positive chain and nearly every one of a
//! stratified program — skips the evaluator: its verdict is one look at how
//! its rules were classified.
//!
//! On stratified-heavy workloads almost every component is definite, so the
//! whole model is computed in a single linear sweep.
//!
//! The sweep is single-threaded and visits components in emission order.
//!
//! ## One sweep: carry, cone, change-driven evaluation
//!
//! The engine has one sweep, [`ModularEngine::solve_incremental`]: a
//! program that **extends** a solved one (old atoms, rules and facts a
//! prefix of its own — what [`GroundProgram::extension`] produces after a
//! resumed chase) is not solved again. The sweep carries the previous
//! result over and re-does only the delta's **forward cone** — the seeds
//! (heads of new rules, new facts, new atoms) closed under "heads a rule
//! whose body mentions". Two facts make that sound:
//!
//! * *the complement of the cone is relevance-closed* — a rule heading one
//!   of its atoms mentions no cone atom (its head would be in the cone) and
//!   is not new (its head would be a seed), so the complement is, rule for
//!   rule, a relevance-closed part of the previous program, and splitting
//!   gives it the previous verdicts and components;
//! * *a new cycle passes through a seed* — it uses a new rule, whose head
//!   is a seed and whose dependants are all in the cone, so every component
//!   that changed lies inside the cone, and the cone's components are those
//!   of the subgraph it induces.
//!
//! One **forward walk** finds both: an iterative Tarjan over the forward
//! occurrence rows (`atom → head of every rule whose body mentions it`),
//! rooted at the seeds in order. It lists the seeds first and every other
//! cone atom when it discovers it, so an atom's position in that list is
//! its node, and the seeds are the positions below their count;
//! `cone_atoms` counts what the walk listed. Forward edges make Tarjan emit
//! dependents first; the sweep takes the components in reverse —
//! dependencies first — and appends them with fresh ordinals in that order.
//!
//! A **full solve is the same sweep against the empty model** — an empty
//! ground program, an empty memo, zero counters — which every program
//! extends, as a cold hand-off is the extension of the empty program.
//! There every atom is a seed, so the cone is the whole program in
//! local-id order. The sweep reads that case off the base instead of
//! listing the cone: a slot is the local id, positions go to a dense
//! array, the sweep reads Tarjan's flat arrays and hands them to the memo
//! whole, and the result names no cone. So a cold solve's ordinals are
//! Tarjan's over the whole program, and the fault sites and stages named
//! by them are a function of the program alone. The empty model also
//! stands in for a previous result that cannot be carried.
//!
//! Inside the cone, components are visited dependencies-first, and only
//! the **touched** ones are classified and evaluated: those that hold a
//! seed or a **marked** atom. When an evaluated component's old atom
//! changes verdict, the heads of its forward occurrence rows are marked,
//! so whether a component is touched is known before anything about it is
//! read. An untouched one is a component of the previous program — rules
//! only grow, so components only merge, and a merged one runs through a
//! new rule and holds its head, a seed — with its previous rules, and none
//! of its inputs moved. It is **carried unclassified**: it keeps its
//! previous verdicts, its class is the memo's `recursive` flag at its old
//! ordinal, and its atoms and head rows are added to the recursive
//! counters. A flip that dies out two components up stops costing there:
//! the rest of the cone is walked once and copied, never classified. Debug
//! builds classify every carried component anyway and assert that its
//! class is the memo's and that no rule of it reads a verdict that moved.
//!
//! What is carried is the previous run's [`ModularMemo`] — verdicts and
//! facts by local id, the component of every atom, the component rows and
//! which components were recursive — plus its interpretation.
//! Local ids never move in an extension. The condensation and the recursive
//! flags are copy-on-write chunked arrays
//! (`wfdl_core::chunked`): a resume's clones share the previous run's
//! chunks, append the new atoms and components to flat tails, and copy
//! only the chunks the cone writes. The verdicts and the fact set — a byte
//! and a bit per atom, read on every rule the sweep classifies — and the
//! interpretation are copied flat.
//!
//! Ordinals never move outside the cone. A component the cone dissolves
//! keeps its ordinal and its row, which read as dissolved from then on (its
//! atoms belong to cone components), and the cone's components take fresh
//! ordinals above every old one, in reverse forward-emission order.
//! Emission order stays dependencies-first: the cone is closed under
//! "depends on", so a carried component depends on carried ones only, and a
//! cone component on carried ones and on cone components the walk emitted
//! after it. So no carried ordinal is rewritten, and nothing is walked per
//! atom or per component outside the cone; the per-atom scratch of a
//! resume is keyed by the cone's atoms. Since the walk runs forward, a cone
//! atom's ordinal — and `stage_of` — can differ from what a walk in another
//! order would give; it stays monotone along every rule.
//!
//! The engine records no per-atom stage. The decision *stage* of an atom
//! is the 1-based ordinal of the component that decided it, read off the
//! memo's condensation ([`ModularMemo::stage`],
//! `WellFoundedModel::stage_of`); it is monotone along derivations but
//! **not** comparable to the `W_P` stage arithmetic of Example 9 — run
//! `wfdl-reference`'s `WpEngine` with `StepMode::Literal` on the same
//! ground program for stage-faithful traces. A run that publishes no memo
//! (a truncated sweep) reports no stage.

mod component;
mod condensation;
mod cone;
mod engine;
#[cfg(test)]
mod tests;

pub use condensation::{condensation, Condensation};
pub use engine::{ModularEngine, ModularMemo, ModularStats};

#[cfg(doc)]
use wfdl_storage::GroundProgram;

/// Sentinel for "no entry" in the flat index arrays.
const NONE: u32 = u32::MAX;
