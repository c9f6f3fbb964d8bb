//! # wfdatalog — well-founded semantics for guarded normal Datalog±
//!
//! A from-scratch Rust implementation of
//! *"Well-Founded Semantics for Extended Datalog and Ontological
//! Reasoning"* (Hernich, Kupke, Lukasiewicz, Gottlob; PODS 2013): the
//! standard well-founded semantics (WFS) for Datalog with existential rule
//! heads **and** default negation, under the unique name assumption.
//!
//! ## The compile → solve → serve lifecycle
//!
//! The paper's workload shape is an ontological KB = a **large, fast-
//! changing extensional database** + a **small, stable rule set**, queried
//! continuously. The API mirrors that in three stages, with data mutation
//! as a first-class, parser-free citizen:
//!
//! 1. **Compile** — a [`KnowledgeBase`] owns the mutable interning context.
//!    Rules and constraints come from datalog text
//!    ([`KnowledgeBase::from_source`], [`KnowledgeBase::add_source`]) or an
//!    ontology ([`KnowledgeBase::from_ontology`]); *data* goes through the
//!    typed path — build a [`FactBatch`] with per-relation
//!    [`RelationWriter`]s (predicate resolved once, arity checked once,
//!    rows interned directly) and [`KnowledgeBase::insert`] it, or bulk-load
//!    TSV/CSV with [`KnowledgeBase::insert_tsv`]. [`KnowledgeBase::retract`]
//!    removes facts.
//! 2. **Solve** — [`KnowledgeBase::solve`] runs chase + engine, on the
//!    calling thread, and packages everything the serving path needs
//!    (model, constraint verdicts, a frozen universe snapshot) into an
//!    immutable [`SolvedModel`]. The chase depth is the one set with
//!    [`KnowledgeBase::with_depth`], or else unbounded when the analyzer
//!    proves the program weakly acyclic and 12 otherwise
//!    ([`KnowledgeBase::effective_options`]). Solving
//!    again without mutation returns the cached artifact; solving after an
//!    **insert-only** delta re-solves *incrementally* (see below).
//! 3. **Serve** — [`SolvedModel`] is `Send + Sync` and answers every query
//!    through `&self`: share one model across threads via [`Arc`] and call
//!    [`SolvedModel::ask`]/[`SolvedModel::answers`] freely, or
//!    [`SolvedModel::prepare`] a [`PreparedQuery`] once and re-evaluate it
//!    with [`SolvedModel::ask_prepared`] at index-probe cost.
//!
//! ```
//! use wfdatalog::{FactBatch, KnowledgeBase};
//!
//! // Compile: rules as text, data through the typed path.
//! let mut kb = KnowledgeBase::from_source(r#"
//!     % Example 1 of the paper.
//!     scientist(X) -> isAuthorOf(X, Y).
//!     conferencePaper(X) -> article(X).
//! "#).unwrap();
//! let mut batch = FactBatch::new();
//! batch.relation(kb.universe_mut(), "scientist", 1)
//!     .unwrap()
//!     .push(&["john"])
//!     .unwrap();
//! kb.insert(batch).unwrap();
//! // Solve (once).
//! let model = kb.solve();
//! // Serve (any number of times, from any thread, through &self).
//! // John authors *something* (a labelled null):
//! assert!(model.ask("?- isAuthorOf(john, X).").unwrap());
//! // …but no article is derivable:
//! assert!(!model.ask("?- article(X).").unwrap());
//! // Prepared queries parse/lower once and re-evaluate cheaply:
//! let q = model.prepare("?- isAuthorOf(john, X).").unwrap();
//! assert!(model.ask_prepared(&q));
//! ```
//!
//! ## Incremental re-solve after data changes
//!
//! Inserting facts and solving again does **not** recompute from scratch:
//! the chase resumes from the previous segment's frontier
//! ([`ChaseSegment::resume_with`]), the previous model — segment, ground
//! program, verdicts, condensation — is carried over in copy-on-write
//! chunks that stay shared until a write lands in one, the atom index is
//! patched where the verdicts moved, and the SCC-modular engine condenses
//! and evaluates only the
//! delta's forward cone (the atoms the new facts can reach), and within it
//! only the components whose inputs actually changed.
//! [`SolvedModel::solve_stats`] reports what happened and where the time
//! went. Retractions and rule changes fall back to a full recompute.
//!
//! ```
//! use wfdatalog::{FactBatch, KnowledgeBase};
//! let mut kb = KnowledgeBase::from_source("edge(X,Y) -> reach(X,Y). edge(a,b).").unwrap();
//! let first = kb.solve();
//! let mut delta = FactBatch::new();
//! delta.relation(kb.universe_mut(), "edge", 2).unwrap().push(&["b", "c"]).unwrap();
//! kb.insert(delta).unwrap();
//! let second = kb.solve();
//! assert!(second.solve_stats().incremental);
//! assert!(second.ask("?- reach(b, c).").unwrap());
//! ```
//!
//! Prepared queries **survive universe growth**: dense ids are stable, so
//! a query prepared against an older model evaluates unchanged against a
//! newer one, and [`SolvedModel::rebind`] re-resolves any literal that
//! short-circuited on a then-unknown name — a lookup remap, never a
//! re-parse.
//!
//! Queries are resolved against the model's **frozen** universe snapshot:
//! nothing on the serving path interns, so a constant the knowledge base
//! has never seen short-circuits to a definite verdict (the atom can have
//! no forward proof) instead of erroring:
//!
//! ```
//! # use wfdatalog::KnowledgeBase;
//! # let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
//! # let model = kb.solve();
//! assert!(!model.ask("?- p(brand_new_constant).").unwrap());
//! ```
//!
//! (Definite on a model that ran to its fixpoint. Where a runtime budget
//! stopped the chase, an atom it never reached is undecided, not false:
//! [`SolvedModel::ask3`] then answers `True` or `Unknown`, never `False`.)
//!
//! ## Goal-directed solving
//!
//! When a query touches only a small cone of a wide program,
//! [`KnowledgeBase::solve_for`] solves just the query's **relevance
//! slice** (backward predicate reachability over the dependency graph,
//! positive and negative edges alike) instead of the whole program —
//! same answers, bit-identical verdicts over in-slice predicates, a
//! fraction of the work — and solves nothing at all when the whole
//! program's model is already there to answer from (a thread holding only
//! that model takes the same view with [`SolvedModel::view_for`]). Either
//! way the resulting model guards its boundary
//! ([`SolvedModel::prepare_sliced`], [`Error::OutOfSlice`]). On the CLI:
//! `wfdl query --sliced`; over HTTP: `POST /query?mode=sliced`.
//!
//! ## Crate map
//!
//! * [`wfdl_core`] — terms, atoms, rules, programs, interpretations, and
//!   the frozen [`UniverseSnapshot`];
//! * [`wfdl_storage`] — databases, ground programs (dense local atom ids +
//!   CSR occurrence indexes), secondary indexes;
//! * [`wfdl_syntax`] — parser and printer for the surface language, with
//!   both interning (compile) and frozen (serve) query lowering;
//! * [`wfdl_chase`] — the guarded chase forest (condensed segments,
//!   the explicit Example 6 forest);
//! * [`wfdl_wfs`] — the solve path and its modular engine (see below),
//!   WCHECK-style membership with certificates;
//! * [`wfdl_query`] — NBCQ evaluation with certain-answer semantics and
//!   [`PreparedQuery`];
//! * [`wfdl_ontology`] — DL-Lite_{R,⊓,not} translation.
//!
//! ## Engine architecture
//!
//! The ground program extracted from a chase segment renumbers its atoms
//! into dense local ids and keeps every occurrence index in flat CSR
//! arrays. One engine evaluates it, [`wfdl_wfs::ModularEngine`]: it
//! condenses the atom dependency graph with Tarjan's SCC algorithm and
//! evaluates components bottom-up — one flat semi-naive pass for a
//! component without internal negation, the `W_P` unfounded-set iteration,
//! in place, only for components that are genuinely recursive through
//! negation (e.g. win–move draw cycles). The sweep is single-threaded
//! and ids are allocation-ordered, so the model is a function of the
//! input. Per-component counters come back as [`ModularStats`]
//! ([`WellFoundedModel::component_stats`](wfdl_wfs::WellFoundedModel::component_stats),
//! `wfdl run --stats`).
//!
//! The paper's other definitions of the same model — the global `W_P`
//! fixpoint, Van Gelder's alternating fixpoint, the chase-level `Ŵ_P` of
//! Theorem 8 — are not selectable, and not in this package's dependency
//! graph: they are **oracles** in the test-only `wfdl-reference` crate
//! (a dev-dependency here), built directly on a solved model's `ground` /
//! `segment` by the cross-engine agreement suites and for stage-faithful
//! traces.
//!
//! The repo-level `ARCHITECTURE.md` is the full handbook: crate graph,
//! data flow of one solve, determinism/parallelism invariants, and the
//! budget/degradation contract.

pub mod serve;

mod facts;
mod knowledge_base;
mod solved_model;
#[cfg(test)]
mod tests;

pub use wfdl_analyze as analysis;
pub use wfdl_chase as chase;
pub use wfdl_core as core;
pub use wfdl_ontology as ontology;
pub use wfdl_query as query;
pub use wfdl_storage as storage;
pub use wfdl_syntax as syntax;
pub use wfdl_wfs as wfs;

pub use wfdl_analyze::{AnalysisReport, Diagnostic, FragmentClass, ProgramSlice, Severity};
pub use wfdl_chase::{ChaseBudget, ChaseSegment, ExplicitForest, ResumeError};
pub use wfdl_core::{
    AtomId, CancelToken, FactBatch, Interp, Program, RelationWriter, SkolemProgram, SolveBudget,
    SolveOutcome, TruncationReason, Truth, Universe, UniverseSnapshot,
};
pub use wfdl_query::{AnswerSet, Nbcq, PreparedQuery, TruthSource};
pub use wfdl_storage::Database;
pub use wfdl_wfs::{ModularStats, SolveStats, WellFoundedModel, WfsOptions};

pub use facts::{fact_batch_from_reader, fact_batch_from_separated};
pub use knowledge_base::KnowledgeBase;
pub use solved_model::SolvedModel;

use std::fmt;
#[cfg(doc)]
use std::sync::Arc;

/// Unified error type for the high-level API.
#[derive(Debug)]
pub enum Error {
    /// Program construction / validation error.
    Core(wfdl_core::CoreError),
    /// Parse or lowering error.
    Syntax(wfdl_syntax::SyntaxError),
    /// Query construction error.
    Query(wfdl_query::QueryError),
    /// An I/O failure while streaming facts ([`fact_batch_from_reader`])
    /// or binding the serving tier's listener ([`serve`]).
    Io(std::io::Error),
    /// A panic inside the solve (chase, grounding or engine), which runs on
    /// the calling thread. It was caught at the solve boundary
    /// ([`KnowledgeBase::try_solve`],
    /// [`KnowledgeBase::solve_for`]); the knowledge base remains fully
    /// usable and the next full solve recomputes from scratch — no
    /// poisoned state.
    EnginePanic(String),
    /// A query against a goal-directed (sliced) model mentions predicates
    /// outside the slice ([`KnowledgeBase::solve_for`],
    /// [`SolvedModel::prepare_sliced`]). A solved slice never chased
    /// those predicates, so it has no sound verdict for them (and a view
    /// of a full model keeps the same boundary, so that what a query may
    /// read does not depend on which of the two answered); re-run
    /// `solve_for` with the new query, or query a full [`SolvedModel`].
    /// The payload names the offending predicates.
    OutOfSlice(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "program error: {e}"),
            Error::Syntax(e) => write!(f, "syntax error: {e}"),
            Error::Query(e) => write!(f, "query error: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::EnginePanic(msg) => write!(f, "solve worker panicked: {msg}"),
            Error::OutOfSlice(preds) => write!(
                f,
                "query mentions predicates outside the model's slice: {preds} \
                 (re-run `solve_for` with this query, or query a full model)"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<wfdl_core::CoreError> for Error {
    fn from(e: wfdl_core::CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<wfdl_syntax::SyntaxError> for Error {
    fn from(e: wfdl_syntax::SyntaxError) -> Self {
        Error::Syntax(e)
    }
}

impl From<wfdl_query::QueryError> for Error {
    fn from(e: wfdl_query::QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}
