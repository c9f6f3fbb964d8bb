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
//!    immutable [`SolvedModel`]. Solving
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
//! ([`ChaseSegment::resume_with`]), the previous model — ground program,
//! verdicts, condensation, atom index — is carried over as flat-array
//! copies, and the SCC-modular engine condenses and evaluates only the
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

use std::fmt;
use std::sync::Arc;
use wfdl_storage::AtomIndex;

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
    /// A worker panicked inside the solve pipeline. The panic was caught at
    /// the engine boundary ([`KnowledgeBase::try_solve`],
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

// ======================================================================
// Compile stage
// ======================================================================

/// The compile stage: owns the mutable universe, database and skolemized
/// program while sources and fact batches accumulate, and produces
/// immutable [`SolvedModel`]s on demand.
///
/// All mutation (interning, fact insertion/retraction, rule lowering)
/// happens here; once [`KnowledgeBase::solve`] returns, the resulting
/// [`SolvedModel`] never needs `&mut` again. Between solves the knowledge
/// base tracks *how* it was mutated: an insert-only fact delta keeps the
/// next [`KnowledgeBase::solve`] incremental (resumed chase + component
/// verdict reuse), while retractions or rule changes force a full
/// recompute.
pub struct KnowledgeBase {
    /// Copy-on-write interning context, shared with every `SolvedModel`
    /// snapshot: freezing a snapshot is an O(1) refcount bump. While any
    /// published snapshot is alive — a served model, a caller's `Arc`, the
    /// `last` cache below — the first mutation after it (`universe_mut`,
    /// `add_source`, an ingest, the chase of the next solve) copies the
    /// universe (`Arc::make_mut`); later mutations before the next
    /// publication find it unshared and copy nothing. The pools are
    /// copy-on-write chunked arrays and a full solve freezes the three id
    /// tables before it publishes (`run_solve`), so that copy is what was
    /// interned since the last copy and the tables' owned levels; every
    /// chunk and every table base is shared. The first copy after a cold
    /// solve copies the pools once.
    universe: Arc<Universe>,
    database: Database,
    /// Shared with every model solved from it, so that a model knows its
    /// program ([`SolvedModel::view_for`] slices it); adding rules copies
    /// it on write.
    sigma: Arc<SkolemProgram>,
    violations: Vec<wfdl_core::PredId>,
    queries: Vec<Nbcq>,
    /// Configured chase budget; `None` = decide from the program at
    /// solve time (so it tracks later `add_source` calls).
    budget: Option<ChaseBudget>,
    /// Runtime resource limits for the next solves (deadline, cancel
    /// token, memory budget). Deliberately *not* part of the cached-model
    /// key: a budget bounds how much work a solve may do, it does not
    /// change what the complete model is.
    solve_budget: SolveBudget,
    /// What the mutators have done so far. The three caches below each
    /// remember the revision they were computed at; comparing stamps is
    /// the only invalidation there is.
    revision: Revision,
    /// Artifact of the most recent full solve: served again while nothing
    /// but queries changed, and the resume basis when only facts were
    /// added. `None` before the first solve and after a solve panicked.
    last: Option<Cached>,
    /// Facts inserted since `last` was computed — the insert-only delta a
    /// resumed chase is fed. The revision says *that* facts changed; this
    /// log says *which*.
    delta: Vec<AtomId>,
    /// Epoch of the most recently *computed* model (see
    /// [`SolvedModel::epoch`]): bumped once per full solve that actually
    /// ran the engine (from scratch or resumed). Cache hits and
    /// queries-only repackagings keep the epoch — the model content is
    /// unchanged.
    epoch: u64,
    /// Artifact of the most recent [`KnowledgeBase::solve_for`] that
    /// solved its slice, and the goal predicates it was sliced for.
    sliced_last: Option<(Vec<wfdl_core::PredId>, Cached)>,
    /// The static-analysis report (see [`KnowledgeBase::analyze`]) and what
    /// it was computed from.
    analysis: Option<Analyzed>,
}

/// A static-analysis report and its inputs: rules and queries are its
/// program, the universe's predicates name what it reports, and the
/// predicates that hold facts feed the dead-code pass.
struct Analyzed {
    /// The revision it describes.
    at: Revision,
    /// The predicates that held facts, ascending.
    edb_preds: Vec<wfdl_core::PredId>,
    /// The universe's predicate count.
    preds: usize,
    report: Arc<AnalysisReport>,
}

/// Monotone mutation stamp of a [`KnowledgeBase`]: one counter per kind of
/// change, bumped by the mutators and never reset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Revision {
    /// The fact set changed (insert, retract, facts in `add_source`).
    facts: u64,
    /// Rules were added or facts retracted: derived consequences are
    /// invalid wholesale, so a chase resumed across this would be unsound.
    rebuild: u64,
    /// Queries were added: every model stays right, but a packaged
    /// model's prepared `source_queries` are stale.
    queries: u64,
}

impl Revision {
    /// True iff a model computed at `self` is still the model at `now`:
    /// at most queries were added in between.
    fn same_model(self, now: Revision) -> bool {
        self.facts == now.facts && self.rebuild == now.rebuild
    }
}

/// A solved model with what it was solved under.
struct Cached {
    options: WfsOptions,
    at: Revision,
    model: Arc<SolvedModel>,
}

impl Cached {
    /// True iff the cached model is still the answer to a solve under
    /// `options` at revision `now`.
    ///
    /// A budget-truncated model never is: re-solving may get further (the
    /// deadline moved, the token was replaced, the limit was raised), and
    /// a resumed solve continues its chase from the stopping round even
    /// with an empty delta. Depth/cap truncations are deterministic
    /// properties of the program + options, so re-solving those would
    /// change nothing and they stay cacheable.
    fn serves(&self, options: WfsOptions, now: Revision) -> bool {
        self.options == options && self.at.same_model(now) && !self.model.outcome().is_budget_trip()
    }

    /// True iff the cached **full** model is also the answer to every
    /// goal-directed solve under `options` at revision `now`: it
    /// [serves](Cached::serves) them and ran to its fixpoint, or stopped at
    /// the depth bound only — a per-atom property a slice's chase meets at
    /// exactly the same atoms. The atom and instance caps count the whole
    /// segment, so a slice, having fewer atoms, may get further than a
    /// capped full solve did.
    fn serves_slices(&self, options: WfsOptions, now: Revision) -> bool {
        self.serves(options, now) && self.model.serves_views()
    }
}

impl KnowledgeBase {
    fn new(
        universe: Universe,
        database: Database,
        sigma: SkolemProgram,
        violations: Vec<wfdl_core::PredId>,
        queries: Vec<Nbcq>,
    ) -> Self {
        KnowledgeBase {
            universe: Arc::new(universe),
            database,
            sigma: Arc::new(sigma),
            violations,
            queries,
            budget: None,
            solve_budget: SolveBudget::unlimited(),
            revision: Revision::default(),
            last: None,
            delta: Vec::new(),
            epoch: 0,
            sliced_last: None,
            analysis: None,
        }
    }

    /// Compiles a program text (facts, rules, constraints, queries).
    pub fn from_source(src: &str) -> Result<Self, Error> {
        let mut universe = Universe::new();
        let lowered = wfdl_syntax::load(&mut universe, src)?;
        let (mut sigma, violations) =
            wfdl_wfs::lower_with_constraints(&mut universe, &lowered.program)?;
        sigma.rules.extend(lowered.functional.iter().cloned());
        Ok(Self::new(
            universe,
            lowered.database,
            sigma,
            violations,
            lowered.queries,
        ))
    }

    /// Compiles a DL-Lite ontology (Examples 1 and 2 of the paper).
    pub fn from_ontology(onto: &wfdl_ontology::Ontology) -> Result<Self, Error> {
        let mut universe = Universe::new();
        let translated = wfdl_ontology::translate(&mut universe, onto)?;
        let (sigma, violations) =
            wfdl_wfs::lower_with_constraints(&mut universe, &translated.program)?;
        Ok(Self::new(
            universe,
            translated.database,
            sigma,
            violations,
            Vec::new(),
        ))
    }

    /// Adds more source text (facts/rules/constraints/queries).
    ///
    /// Implemented on top of the typed mutation API: facts in the text go
    /// through the same insert path as [`KnowledgeBase::insert`] (so a
    /// facts-only source keeps the next solve incremental), while rules or
    /// constraints mark the knowledge base for a full recompute.
    pub fn add_source(&mut self, src: &str) -> Result<(), Error> {
        let universe = Arc::make_mut(&mut self.universe);
        let lowered = wfdl_syntax::load(universe, src)?;
        let has_rules = !lowered.program.tgds.is_empty()
            || !lowered.program.constraints.is_empty()
            || !lowered.functional.is_empty();
        if has_rules {
            let (sigma, violations) = wfdl_wfs::lower_with_constraints(universe, &lowered.program)?;
            let rules = &mut Arc::make_mut(&mut self.sigma).rules;
            rules.extend(sigma.rules);
            rules.extend(lowered.functional.iter().cloned());
            self.violations.extend(violations);
            self.revision.rebuild += 1;
        }
        for &f in lowered.database.facts() {
            if self.database.insert_unchecked(&self.universe, f) {
                self.delta.push(f);
                self.revision.facts += 1;
            }
        }
        if !lowered.queries.is_empty() {
            self.queries.extend(lowered.queries);
            self.revision.queries += 1;
        }
        Ok(())
    }

    // ----- typed, parser-free mutation --------------------------------

    /// The mutable interning context, for building typed [`FactBatch`]es
    /// against this knowledge base:
    ///
    /// ```
    /// # use wfdatalog::{FactBatch, KnowledgeBase};
    /// # let mut kb = KnowledgeBase::from_source("edge(a,b).").unwrap();
    /// let mut batch = FactBatch::new();
    /// batch.relation(kb.universe_mut(), "edge", 2)
    ///     .unwrap()
    ///     .push(&["b", "c"])
    ///     .unwrap();
    /// kb.insert(batch).unwrap();
    /// ```
    ///
    /// Interning alone never changes the model — facts only take effect
    /// through [`KnowledgeBase::insert`] / [`KnowledgeBase::retract`] —
    /// so handing out `&mut Universe` here is safe.
    pub fn universe_mut(&mut self) -> &mut Universe {
        Arc::make_mut(&mut self.universe)
    }

    /// Inserts a batch of typed facts, returning how many were new
    /// (duplicates of existing database facts are ignored).
    ///
    /// The batch must have been built against **this** knowledge base's
    /// universe ([`KnowledgeBase::universe_mut`]). An insert-only delta
    /// keeps the next [`KnowledgeBase::solve`] on the incremental path.
    ///
    /// All or nothing: the whole batch is validated first
    /// ([`Database::check_fact`]: every id one this universe issued, every
    /// fact null-free), so a rejected batch leaves the knowledge base, and
    /// every cache keyed on its revision, untouched.
    pub fn insert(&mut self, batch: FactBatch) -> Result<usize, Error> {
        for &atom in batch.atoms() {
            Database::check_fact(&self.universe, atom)?;
        }
        let mut added = 0usize;
        for &atom in batch.atoms() {
            if self.database.insert_unchecked(&self.universe, atom) {
                self.delta.push(atom);
                added += 1;
            }
        }
        if added > 0 {
            self.revision.facts += 1;
        }
        Ok(added)
    }

    /// Retracts a batch of facts, returning how many were actually
    /// present. Retraction invalidates derived consequences wholesale, so
    /// the next [`KnowledgeBase::solve`] recomputes from scratch.
    pub fn retract(&mut self, batch: FactBatch) -> usize {
        let removed = self.database.retract_batch(&self.universe, batch.atoms());
        if removed > 0 {
            self.revision.facts += 1;
            self.revision.rebuild += 1;
            // Inserted-this-epoch facts that were retracted again must not
            // linger in the delta (hygiene; the full solve ignores it).
            self.delta.retain(|a| self.database.contains(*a));
        }
        removed
    }

    /// Bulk-loads facts from the tab/comma-separated text format (see
    /// [`fact_batch_from_separated`]), returning how many were new.
    ///
    /// ```
    /// # use wfdatalog::KnowledgeBase;
    /// let mut kb = KnowledgeBase::from_source("edge(X,Y) -> reach(Y).").unwrap();
    /// let added = kb.insert_tsv("# comma or tab separated\nedge,a,b\nedge,b,c\n").unwrap();
    /// assert_eq!(added, 2);
    /// assert!(kb.solve().ask("?- reach(c).").unwrap());
    /// ```
    pub fn insert_tsv(&mut self, text: &str) -> Result<usize, Error> {
        self.insert_from_reader(text.as_bytes())
    }

    /// Streaming twin of [`KnowledgeBase::insert_tsv`]: bulk-loads the
    /// same format from any [`std::io::BufRead`] (a fact file opened with
    /// a [`std::io::BufReader`], an HTTP request body, …) without holding
    /// the whole input in memory. Errors keep their 1-based line numbers.
    ///
    /// All or nothing, the universe included: a batch with a bad line
    /// leaves behind none of the names its earlier lines interned. The
    /// universe as it was is kept aside until the batch is in — free while
    /// a solved model shares it (copy-on-write copies it anyway), one copy
    /// when nothing does.
    pub fn insert_from_reader(&mut self, reader: impl std::io::BufRead) -> Result<usize, Error> {
        let before = Arc::clone(&self.universe);
        let inserted = fact_batch_from_reader(Arc::make_mut(&mut self.universe), reader)
            .and_then(|batch| self.insert(batch));
        if inserted.is_err() {
            self.universe = before;
        }
        inserted
    }

    /// Retracts the facts listed in [`KnowledgeBase::insert_tsv`]'s format,
    /// read from `reader`, returning how many were present. Names resolve
    /// by lookup and nothing is interned: a line naming something the
    /// universe never saw lists no stored fact and is skipped. A malformed
    /// line (an empty field, an arity that contradicts the predicate's)
    /// retracts nothing.
    pub(crate) fn retract_from_reader(
        &mut self,
        reader: impl std::io::BufRead,
    ) -> Result<usize, Error> {
        let batch = stored_facts_from_reader(&self.universe, reader)?;
        Ok(self.retract(batch))
    }

    /// Replaces the solver options used by [`KnowledgeBase::solve`]
    /// (builder style).
    pub fn with_options(mut self, options: WfsOptions) -> Self {
        self.budget = Some(options.budget);
        self
    }

    /// Sets the chase depth.
    pub fn with_depth(mut self, depth: u32) -> Self {
        self.budget = Some(ChaseBudget::depth(depth));
        self
    }

    /// Accepted and ignored for the frozen benchmark; removed by the
    /// benchmark issue that drops `cold_solve_auto_s`.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Sets the runtime resource budget (deadline / cancellation / memory)
    /// for subsequent solves, builder style. See
    /// [`KnowledgeBase::set_solve_budget`].
    pub fn with_solve_budget(mut self, budget: SolveBudget) -> Self {
        self.solve_budget = budget;
        self
    }

    /// Replaces the runtime resource budget for subsequent solves.
    ///
    /// A tripped solve stops at the next clean boundary and returns a model
    /// whose [`SolvedModel::outcome`] reports the truncation; the model
    /// stays queryable as a sound under-approximation. The budget is not
    /// part of the cached-model key, but a budget-truncated model is never
    /// served from cache — the next [`KnowledgeBase::solve`] picks the
    /// chase up from where it stopped (under the then-current budget).
    pub fn set_solve_budget(&mut self, budget: SolveBudget) {
        self.solve_budget = budget;
    }

    /// The currently configured runtime resource budget.
    pub fn solve_budget(&self) -> &SolveBudget {
        &self.solve_budget
    }

    /// The options [`KnowledgeBase::solve`] will use: the configured
    /// budget, or when none is set one decided **at call time** — the
    /// automatic budget (unbounded chase for programs without
    /// existentials, depth 12 otherwise) tracks rules added after the
    /// builder calls.
    pub fn effective_options(&self) -> WfsOptions {
        WfsOptions {
            budget: self.budget.unwrap_or_else(|| self.auto_budget()),
            ..WfsOptions::default()
        }
    }

    fn auto_budget(&self) -> ChaseBudget {
        let has_existentials = self.sigma.rules.iter().any(|r| {
            r.head_args
                .iter()
                .any(|t| matches!(t, wfdl_core::HeadTerm::Skolem(..)))
        });
        if has_existentials {
            ChaseBudget::depth(12)
        } else {
            ChaseBudget::unbounded()
        }
    }

    /// Solves with the effective options, producing an immutable,
    /// thread-shareable [`SolvedModel`].
    ///
    /// Solving twice without intervening mutation returns the cached
    /// artifact (an `Arc` clone). Solving after an **insert-only** fact
    /// delta resumes the previous chase from its frontier, carries the
    /// previous model over and re-evaluates only the delta's forward cone
    /// — beyond sharing the previous model's segment and ground program
    /// chunk by chunk and one sequential copy of its verdicts, the
    /// engine's memo and the spliced index rows (the floor), cost
    /// proportional to the delta's
    /// consequences, not the database ([`SolveStats::cone_atoms`],
    /// [`SolveStats::components_evaluated`]). Ten facts into a solved
    /// 157k-atom knowledge base, measured in process on a 2-vCPU host
    /// ([`SolveStats`]' phases): chase ≈ 0.5 ms, ground ≈ 0.5 ms, engine
    /// ≈ 0.65 ms, index ≈ 0.25 ms — more when the copies land on freshly
    /// mapped pages. Retractions, rule changes, or changed options
    /// recompute in full.
    pub fn solve(&mut self) -> Arc<SolvedModel> {
        self.solve_with(self.effective_options())
    }

    /// Solves with explicit options (cached and resumed under the same
    /// rules as [`KnowledgeBase::solve`]).
    ///
    /// # Panics
    ///
    /// Re-raises a worker panic as a clean panic at this boundary (the
    /// knowledge base itself is left reusable). Use
    /// [`KnowledgeBase::try_solve_with`] to get it as an
    /// [`Error::EnginePanic`] instead.
    pub fn solve_with(&mut self, options: WfsOptions) -> Arc<SolvedModel> {
        match self.try_solve_with(options) {
            Ok(model) => model,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`KnowledgeBase::solve`] with worker panics caught at the engine
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`Error::EnginePanic`] if a solver worker panicked. The knowledge
    /// base is left coherent and reusable: the partial solve is discarded,
    /// and the next solve recomputes from scratch.
    pub fn try_solve(&mut self) -> Result<Arc<SolvedModel>, Error> {
        self.try_solve_with(self.effective_options())
    }

    /// [`KnowledgeBase::solve_with`] with worker panics caught at the
    /// engine boundary (see [`KnowledgeBase::try_solve`]).
    ///
    /// # Errors
    ///
    /// [`Error::EnginePanic`] if a solver worker panicked.
    pub fn try_solve_with(&mut self, options: WfsOptions) -> Result<Arc<SolvedModel>, Error> {
        let current = self.last.as_ref();
        let model = match current.filter(|c| c.serves(options, self.revision)) {
            Some(c) if c.at == self.revision => return Ok(Arc::clone(&c.model)),
            // Queries-only change: the model is provably identical — share
            // it and its indexes, and only re-prepare the source queries
            // against the current universe (query text may have interned
            // new names during `add_source`).
            Some(c) => {
                let solved = Arc::clone(&c.model.solved);
                let universe = UniverseSnapshot::from_arc(Arc::clone(&self.universe));
                SolvedModel::package(universe, solved, None, &self.queries)
            }
            None => {
                let model = self.run_solve(options, None)?;
                self.delta.clear();
                model
            }
        };
        self.last = Some(Cached {
            options,
            at: self.revision,
            model: Arc::clone(&model),
        });
        Ok(model)
    }

    /// The one place a solve runs, full (`slice == None`) or goal-directed:
    /// picks the input, contains panics, packages the output. Touches no
    /// cache except to drop `last` when a full solve panicked.
    fn run_solve(
        &mut self,
        options: WfsOptions,
        slice: Option<ProgramSlice>,
    ) -> Result<Arc<SolvedModel>, Error> {
        use wfdl_wfs::{SolveInput, SolveRequest};
        // The last full solve, if a full solve under the same options can
        // resume it: only facts were added since.
        let resumable = |c: &&Cached| {
            slice.is_none() && c.options == options && c.at.rebuild == self.revision.rebuild
        };
        let prev = self.last.as_ref().filter(resumable);
        let prev = prev.map(|c| Arc::clone(&c.model));
        // A sliced chase interns its nulls into a scratch copy, so the
        // knowledge base's own state (delta, resume segment, cached full
        // model) stays untouched. A full solve takes sole ownership of the
        // universe instead (a no-op unless a previous snapshot still
        // shares it and nothing was ingested since — ingestion already
        // unshared it).
        let mut scratch = slice.as_ref().map(|_| (*self.universe).clone());
        let universe = match &mut scratch {
            Some(scratch) => scratch,
            None => Arc::make_mut(&mut self.universe),
        };
        let from_scratch = SolveInput::Full { db: &self.database };
        let input = match (&slice, &prev) {
            (Some(slice), _) => SolveInput::Sliced {
                db: &self.database,
                pred_mask: &slice.pred_mask,
            },
            (None, Some(prev)) => SolveInput::Resume {
                prev: prev.model(),
                new_facts: &self.delta,
            },
            (None, None) => from_scratch,
        };
        let request = SolveRequest {
            program: &self.sigma,
            options,
            violations: &self.violations,
            budget: &self.solve_budget,
            input,
        };
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wfdl_wfs::solve_request(universe, request).unwrap_or_else(|_refused| {
                // A cap-truncated segment does not resume (such chases are
                // discovery-order dependent): fall back to a full re-chase
                // (same options, same budget). The database already holds
                // the delta facts.
                let request = SolveRequest {
                    input: from_scratch,
                    ..request
                };
                match wfdl_wfs::solve_request(universe, request) {
                    Ok(output) => output,
                    Err(e) => unreachable!("a from-scratch solve resumes nothing: {e}"),
                }
            })
        }));
        let output = match attempt {
            Ok(output) => output,
            Err(panic) => {
                // A sliced solve ran on the scratch copy: there is nothing
                // to clean up. A full solve leaves the knowledge base
                // coherent by dropping the cached model, which forces the
                // next solve to recompute from scratch (the database holds
                // every delta fact). The universe keeps any nulls the
                // partial chase interned; interning is deterministic, so a
                // re-run re-derives the same ids and any extras are
                // unreachable garbage at worst.
                if slice.is_none() {
                    self.last = None;
                }
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                return Err(Error::EnginePanic(msg));
            }
        };
        // A full solve that ran is a new epoch; a solved slice sees the
        // data of the epoch it ran in and never advances it.
        if slice.is_none() {
            self.epoch += 1;
            // The snapshot below shares the universe: the next copy-on-write
            // shares the id tables' frozen entries instead of copying them.
            // Unshared here, so `make_mut` copies nothing.
            Arc::make_mut(&mut self.universe).freeze();
        }
        let prev = prev.as_ref().map(|m| &*m.solved);
        let program = Arc::clone(&self.sigma);
        let solved = Solved::new(
            scratch.as_ref().unwrap_or(&self.universe),
            output,
            program,
            self.epoch,
            prev,
        );
        let universe = scratch.map_or_else(|| Arc::clone(&self.universe), Arc::new);
        let universe = UniverseSnapshot::from_arc(universe);
        Ok(SolvedModel::package(universe, solved, slice, &self.queries))
    }

    /// Goal-directed solve: computes the query-relevant **program slice**
    /// (the relevance closure of the query's predicates over the
    /// dependency graph, following positive *and* negative edges) and
    /// returns a model of that subprogram only.
    ///
    /// The returned model answers any query whose predicates lie inside
    /// the slice **bit-identically** to a full [`KnowledgeBase::solve`]
    /// (same options, same budget semantics); queries that stray outside
    /// the slice are rejected with [`Error::OutOfSlice`] by the model's
    /// [`SolvedModel::prepare`]/[`SolvedModel::prepare_sliced`] guard
    /// rather than silently answered `false`. [`SolvedModel::slice`]
    /// reports the slice's shape.
    ///
    /// **Nothing is solved when the answer already is.** A relevance-closed
    /// subprogram has the verdicts of the whole program, so a full model
    /// answers every slice of itself: if the last [`KnowledgeBase::solve`]
    /// is still current — same options, no fact or rule changed since — and
    /// ran to its fixpoint or to the depth bound only, `solve_for` returns a
    /// **view** of it: that model behind this query's slice guard, at that
    /// model's [epoch](SolvedModel::epoch), for the cost of computing the
    /// slice — the view [`SolvedModel::view_for`] takes of that model, over
    /// the knowledge base's current universe. [`SolveStats::sliced`] is
    /// `false` on a view (no sliced solve ran), and its
    /// [`SolvedModel::constraint_status`] is the full model's.
    ///
    /// **Otherwise the slice is solved** — chase, grounding and engine all
    /// restricted to it, from nothing: no full model yet, facts or rules
    /// changed since it was solved, other options, or a full model cut
    /// short by a runtime budget or by the atom / instance caps (which a
    /// smaller slice may well fit under). `solve_for` never triggers a full
    /// solve. A solved slice reports a constraint whose violation predicate
    /// falls outside it as [`Truth::Unknown`] (constraints are *not*
    /// goal-directed), leaves the knowledge base's own solve state (cached
    /// model, pending delta, resume segment) untouched — it runs on a
    /// cloned universe — and is itself cached until the options, the goal
    /// set or the data change.
    ///
    /// ```
    /// use wfdatalog::{Error, KnowledgeBase};
    /// let mut kb = KnowledgeBase::from_source(r#"
    ///     src(a). src(X), not excl(X) -> out(X).
    ///     pick(b). pick(X), not flop(X) -> flip(X).
    ///     pick(X), not flip(X) -> flop(X).
    /// "#).unwrap();
    /// let model = kb.solve_for("?- out(a).").unwrap();
    /// let slice = model.slice().unwrap();
    /// assert!(slice.components_in_slice < slice.components_total);
    /// assert!(model.solve_stats().sliced, "no full model yet: the slice was solved");
    /// assert!(model.ask("?- out(a).").unwrap());
    /// // The flip/flop cone was never solved; querying it is an error,
    /// // not a silent `false`:
    /// assert!(matches!(model.prepare("?- flip(b)."), Err(Error::OutOfSlice(_))));
    ///
    /// // After a full solve the same call solves nothing, and guards the
    /// // same boundary:
    /// let full = kb.solve();
    /// let view = kb.solve_for("?- out(a).").unwrap();
    /// assert!(view.is_sliced() && !view.solve_stats().sliced);
    /// assert_eq!(view.epoch(), full.epoch());
    /// assert!(view.ask("?- out(a).").unwrap());
    /// assert!(matches!(view.prepare("?- flip(b)."), Err(Error::OutOfSlice(_))));
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::Syntax`] if `query_src` is not a valid query;
    /// [`Error::EnginePanic`] if a solver worker panicked — the sliced
    /// solve ran on a scratch universe, so the knowledge base (its cached
    /// full model and pending delta included) is exactly as it was.
    pub fn solve_for(&mut self, query_src: &str) -> Result<Arc<SolvedModel>, Error> {
        let options = self.effective_options();
        let full = self.last.as_ref();
        if let Some(full) = full.filter(|c| c.serves_slices(options, self.revision)) {
            let universe = UniverseSnapshot::from_arc(Arc::clone(&self.universe));
            return Ok(slice_view(&full.model.solved, universe, query_src)?.0);
        }
        // Resolve the query against the current universe (read-only:
        // query preparation looks names up, never interns).
        let goals = wfdl_syntax::prepare_query(&self.universe, query_src)?.goal_preds();
        if let Some((cached_goals, c)) = &self.sliced_last {
            if *cached_goals == goals && c.serves(options, self.revision) {
                return Ok(Arc::clone(&c.model));
            }
        }
        let slice = ProgramSlice::compute(self.universe.num_preds(), &self.sigma, &goals);
        let model = self.run_solve(options, Some(slice))?;
        // A budget-truncated sliced model is served once but never cached:
        // re-solving under a moved deadline may get further.
        if !model.outcome().is_budget_trip() {
            let cached = Cached {
                options,
                at: self.revision,
                model: Arc::clone(&model),
            };
            self.sliced_last = Some((goals, cached));
        }
        Ok(model)
    }

    // ----- read-only accessors ----------------------------------------

    /// The interning context (read-only; mutation goes through
    /// [`KnowledgeBase::add_source`]).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The database `D`.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The skolemized program `Σf` (constraints already lowered).
    pub fn sigma(&self) -> &SkolemProgram {
        &self.sigma
    }

    /// Violation predicates of the lowered constraints, in source order.
    pub fn violations(&self) -> &[wfdl_core::PredId] {
        &self.violations
    }

    /// Queries that appeared in the sources, in order.
    pub fn queries(&self) -> &[Nbcq] {
        &self.queries
    }

    /// Runs the static analyzer over the compiled program (stratification,
    /// fragment classification, chase-termination risk, dead-code lints —
    /// see [`wfdl_analyze`]) and caches the report alongside the solve
    /// cache, until [`KnowledgeBase::add_source`], [`KnowledgeBase::insert`]
    /// or [`KnowledgeBase::retract`] change what it reads: rule and query
    /// changes alter the analyzed program, and fact churn can alter the EDB
    /// predicate set feeding the dead-code pass. Facts that arrive for
    /// predicates holding facts already change nothing it reads, so the
    /// cached report serves on: the EDB predicates are read off the
    /// database's per-predicate rows, one look per predicate, and a
    /// predicate, once interned, never changes.
    pub fn analyze(&mut self) -> Arc<AnalysisReport> {
        let now = self.revision;
        if let Some(cached) = &self.analysis {
            if cached.at == now {
                return Arc::clone(&cached.report);
            }
        }
        let edb_preds: Vec<wfdl_core::PredId> = self.database.preds().collect();
        let preds = self.universe.num_preds();
        if let Some(cached) = &mut self.analysis {
            let facts_only = cached.at.rebuild == now.rebuild && cached.at.queries == now.queries;
            if facts_only && cached.preds == preds && cached.edb_preds == edb_preds {
                cached.at = now;
                return Arc::clone(&cached.report);
            }
        }
        let mut queried = Vec::new();
        for q in &self.queries {
            for a in q.pos.iter().chain(q.neg.iter()) {
                if !queried.contains(&a.pred) {
                    queried.push(a.pred);
                }
            }
        }
        // The solver reports every constraint's violation status, so the
        // violation predicates count as consumed.
        for &p in &self.violations {
            if !queried.contains(&p) {
                queried.push(p);
            }
        }
        let report = Arc::new(wfdl_analyze::analyze(&wfdl_analyze::AnalysisInput {
            universe: &self.universe,
            program: &self.sigma,
            edb_preds: &edb_preds,
            queried_preds: &queried,
        }));
        self.analysis = Some(Analyzed {
            at: now,
            edb_preds,
            preds,
            report: Arc::clone(&report),
        });
        report
    }
}

// ======================================================================
// Solve + serve stages
// ======================================================================

/// The immutable artifact of one solve: chase segment, ground program,
/// well-founded model, constraint verdicts and a frozen universe snapshot.
///
/// `SolvedModel` is `Send + Sync` and every method takes `&self`, so one
/// model behind an [`Arc`] can serve queries from any number of threads.
/// Its one atom index — over the not-false atoms, serving certain and
/// three-valued reads alike — gets its predicate rows at solve time
/// (built, or patched from the previous model's). The `(position, term)`
/// key table of a predicate is built by the first read that binds some
/// but not all arguments of it ([`SolvedModel::index_stats`] counts
/// them); a ground ask goes through the universe's atom table and a scan
/// through the predicate row, so most models never build one.
#[derive(Debug)]
pub struct SolvedModel {
    universe: UniverseSnapshot,
    /// Shared with sibling packagings of the same solve: a queries-only
    /// change re-wraps the identical model instead of re-solving, and a
    /// goal-directed view of a full model is that model behind a guard.
    solved: Arc<Solved>,
    source_queries: Vec<PreparedQuery>,
    /// `Some` for goal-directed models ([`KnowledgeBase::solve_for`]): the
    /// relevance-closed predicate slice this model answers for. Queries
    /// are checked against it at preparation time — see
    /// [`SolvedModel::prepare_sliced`].
    slice: Option<ProgramSlice>,
}

/// What one solve computed, independent of how it is packaged.
#[derive(Debug)]
struct Solved {
    model: WellFoundedModel,
    constraint_status: Vec<Truth>,
    /// Over the segment's not-false atoms, ascending; the query evaluator
    /// filters candidates by verdict, so it serves every read.
    index: AtomIndex,
    /// The program solved (the knowledge base's, shared): a view slices it.
    program: Arc<SkolemProgram>,
    solve_stats: SolveStats,
    epoch: u64,
}

impl Solved {
    /// Indexes a solve's output; `universe` must see every atom of it.
    ///
    /// `prev` is the solve this one resumed, if any. When the engine carried
    /// that model over ([`wfdl_wfs::EngineResult::cone`]), verdicts differ
    /// inside the cone only, so `prev`'s index is
    /// [patched](AtomIndex::patched) with the atoms that moved in or out.
    /// Otherwise the index is built.
    fn new(
        universe: &Universe,
        mut output: wfdl_wfs::SolveOutput,
        program: Arc<SkolemProgram>,
        epoch: u64,
        prev: Option<&Solved>,
    ) -> Arc<Solved> {
        let start = std::time::Instant::now();
        let model = &output.model;
        let indexed = |m: &WellFoundedModel, a: AtomId| {
            m.segment.contains(a) && !m.result.value(a).is_false()
        };
        let index = match (prev, &model.result.cone) {
            (Some(prev), Some(cone)) => {
                let mut cone = cone.clone();
                cone.sort_unstable();
                let moved = |from: &WellFoundedModel, to: &WellFoundedModel| -> Vec<AtomId> {
                    let moved = cone
                        .iter()
                        .filter(|&&a| indexed(from, a) && !indexed(to, a));
                    moved.copied().collect()
                };
                prev.index.patched(
                    universe,
                    &moved(&prev.model, model),
                    &moved(model, &prev.model),
                )
            }
            _ => AtomIndex::build(universe, TruthSource::possible_atoms(model)),
        };
        output.stats.index_ns = start.elapsed().as_nanos() as u64;
        let footprint = output.model.segment.footprint() + output.model.ground.footprint();
        (output.stats.owned_bytes, output.stats.shared_bytes) =
            (footprint.owned, footprint.shared());
        Arc::new(Solved {
            index,
            model: output.model,
            constraint_status: output.constraint_status,
            program,
            solve_stats: output.stats,
            epoch,
        })
    }
}

/// A goal-directed **view** of a full model, with nothing solved: `solved`
/// over `universe`, behind the slice of `solved`'s program that the goal
/// predicates of `query_src` span. Returns the query too, prepared once:
/// every predicate it reads is a goal, so it passes the view's slice guard
/// by construction.
///
/// The caller vouches that `solved` answers every slice of itself (see
/// [`SolvedModel::view_for`]) and that `universe` sees every atom of it.
fn slice_view(
    solved: &Arc<Solved>,
    universe: UniverseSnapshot,
    query_src: &str,
) -> Result<(Arc<SolvedModel>, PreparedQuery), Error> {
    let query = wfdl_syntax::prepare_query(&universe, query_src)?;
    let goals = query.goal_preds();
    let slice = ProgramSlice::compute(universe.num_preds(), &solved.program, &goals);
    let view = SolvedModel::package(universe, Arc::clone(solved), Some(slice), &[]);
    Ok((view, query))
}

impl SolvedModel {
    /// The one place a [`SolvedModel`] is put together: a solve's shared
    /// part, a frozen universe that sees every atom it mentions (freeze
    /// *after* the chase interned its nulls; sharing the `Arc` is O(1), the
    /// next mutation will copy-on-write), and — for full models — the
    /// `queries` of the sources, prepared against that universe. With a
    /// `slice` the model is goal-directed: `solved` is that slice's solve,
    /// or a full solve that covers it.
    fn package(
        universe: UniverseSnapshot,
        solved: Arc<Solved>,
        slice: Option<ProgramSlice>,
        queries: &[Nbcq],
    ) -> Arc<SolvedModel> {
        let source_queries = match slice {
            Some(_) => Vec::new(),
            None => (queries.iter().cloned())
                .map(PreparedQuery::from_query)
                .collect(),
        };
        Arc::new(SolvedModel {
            universe,
            solved,
            source_queries,
            slice,
        })
    }

    // ----- query serving ----------------------------------------------

    /// A goal-directed view of this model for `query_src`, with nothing
    /// solved: this model behind the query's slice guard, exactly what
    /// [`KnowledgeBase::solve_for`] returns while this model is the knowledge
    /// base's current full model — but through `&self`, so any thread
    /// holding the model can take one.
    ///
    /// `Ok(None)` when this model cannot answer slices of itself: it is
    /// already goal-directed, a runtime budget cut it short, or the atom or
    /// instance cap did (a slice, having fewer atoms, may get further).
    /// Solving the slice then takes [`KnowledgeBase::solve_for`]. A model
    /// that ran to its fixpoint or stopped at the depth bound only — a
    /// per-atom bound a slice's chase meets at exactly the same atoms —
    /// always serves views.
    ///
    /// ```
    /// # use wfdatalog::{Error, KnowledgeBase};
    /// let mut kb = KnowledgeBase::from_source(
    ///     "p(a). p(X) -> q(X). r(X), not q(X) -> s(X).").unwrap();
    /// let model = kb.solve();
    /// let view = model.view_for("?- q(a).").unwrap().expect("a complete model");
    /// assert!(view.is_sliced() && !view.solve_stats().sliced);
    /// assert!(view.ask("?- q(a).").unwrap());
    /// assert!(matches!(view.prepare("?- s(a)."), Err(Error::OutOfSlice(_))));
    /// assert!(view.view_for("?- q(a).").unwrap().is_none(), "already sliced");
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::Syntax`] if `query_src` is not a valid query.
    pub fn view_for(&self, query_src: &str) -> Result<Option<Arc<SolvedModel>>, Error> {
        if !self.serves_views() {
            return Ok(None);
        }
        let (view, _query) = slice_view(&self.solved, self.universe.clone(), query_src)?;
        Ok(Some(view))
    }

    /// True iff this model answers every slice of itself (see
    /// [`SolvedModel::view_for`]).
    fn serves_views(&self) -> bool {
        let outcome = self.outcome().truncation();
        self.slice.is_none() && matches!(outcome, None | Some(TruncationReason::DepthCap))
    }

    /// Parses and lowers a query against the frozen snapshot, ready for
    /// repeated evaluation. Unknown constants or predicates in the query
    /// short-circuit to a definite verdict instead of erroring (see
    /// [`PreparedQuery`]).
    ///
    /// On a goal-directed model ([`KnowledgeBase::solve_for`]) the query
    /// is additionally checked against the model's slice — see
    /// [`SolvedModel::prepare_sliced`].
    ///
    /// ```
    /// # use wfdatalog::KnowledgeBase;
    /// let mut kb = KnowledgeBase::from_source(
    ///     "edge(a,b). edge(b,c). edge(X,Y), not win(Y) -> win(X).").unwrap();
    /// let model = kb.solve();
    /// // Prepare once, evaluate many times — no parsing per ask.
    /// let q = model.prepare("?- win(X), not win(b).").unwrap();
    /// assert!(!model.ask_prepared(&q)); // the only winner IS b
    /// let wins = model.prepare("?(X) win(X).").unwrap();
    /// assert_eq!(model.answers_prepared(&wins).len(), 1);
    /// ```
    pub fn prepare(&self, query_src: &str) -> Result<PreparedQuery, Error> {
        let query = wfdl_syntax::prepare_query(&self.universe, query_src)?;
        self.check_slice(&query)?;
        Ok(query)
    }

    /// [`SolvedModel::prepare`] with the slice contract spelled out: on a
    /// goal-directed model, every resolved predicate of the query must lie
    /// **inside the slice** the model was solved for, because out-of-slice
    /// atoms were never chased and would silently read `false`.
    ///
    /// Both entry points enforce the check (so a sliced model can never
    /// silently mis-answer a prepared query); this name exists to make the
    /// sliced serving path explicit at call sites. Queries that
    /// short-circuit on an unknown name pass the check — their definite
    /// verdict is slice-independent. Evaluating a [`PreparedQuery`]
    /// prepared against a *different* model bypasses the guard; keep
    /// prepared queries with the model that prepared them.
    ///
    /// ```
    /// # use wfdatalog::{Error, KnowledgeBase};
    /// # let mut kb = KnowledgeBase::from_source(
    /// #     "p(a). p(X) -> q(X). r(X), not q(X) -> s(X).").unwrap();
    /// let model = kb.solve_for("?- q(a).").unwrap();
    /// let q = model.prepare_sliced("?- q(X), p(X).").unwrap();
    /// assert!(model.ask_prepared(&q));
    /// // `s` is outside the q-slice: rejected, not silently false.
    /// assert!(matches!(model.prepare_sliced("?- s(a)."), Err(Error::OutOfSlice(_))));
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::OutOfSlice`] naming the offending predicates, or any
    /// [`SolvedModel::prepare`] error.
    pub fn prepare_sliced(&self, query_src: &str) -> Result<PreparedQuery, Error> {
        self.prepare(query_src)
    }

    /// True iff this model came from [`KnowledgeBase::solve_for`] — a
    /// solved slice, or a view of a full model — and therefore only answers
    /// queries within its slice.
    pub fn is_sliced(&self) -> bool {
        self.slice.is_some()
    }

    /// The program slice a goal-directed model answers for (`None` on a
    /// full model): its predicate mask and how many of the program's
    /// dependency components it spans.
    pub fn slice(&self) -> Option<&ProgramSlice> {
        self.slice.as_ref()
    }

    /// Rejects queries that read predicates outside a sliced model's
    /// relevance closure. No-op on full models and on short-circuited
    /// queries (their verdict is already definite and slice-independent).
    fn check_slice(&self, query: &PreparedQuery) -> Result<(), Error> {
        let (Some(slice), Some(q)) = (&self.slice, query.query()) else {
            return Ok(());
        };
        let mut missing: Vec<&str> = Vec::new();
        for atom in q.pos.iter().chain(q.neg.iter()) {
            if !slice.contains(atom.pred) {
                let name = self.universe.pred_name(atom.pred);
                if !missing.contains(&name) {
                    missing.push(name);
                }
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(Error::OutOfSlice(missing.join(", ")))
        }
    }

    /// Re-resolves a query prepared against an **older** model of the same
    /// knowledge base.
    ///
    /// Dense ids are stable under universe growth, so a fully-resolved
    /// prepared query is returned as a cheap clone; only queries that
    /// short-circuited on a then-unknown predicate or constant re-run
    /// name resolution from their retained shape (a lookup remap — no
    /// parser involved). Errors only if a previously-unknown predicate
    /// has since been declared with a conflicting arity. On a sliced model
    /// the rebound query is checked against the slice, exactly as
    /// [`SolvedModel::prepare`] checks fresh ones.
    ///
    /// ```
    /// # use wfdatalog::KnowledgeBase;
    /// let mut kb = KnowledgeBase::from_source(
    ///     "edge(a,b). edge(X,Y), not win(Y) -> win(X).").unwrap();
    /// let old = kb.solve();
    /// let q = old.prepare("?- win(zeta).").unwrap(); // zeta: unknown, false
    /// assert!(!old.ask_prepared(&q));
    /// kb.insert_tsv("edge,b,zeta\n").unwrap();
    /// let new = kb.solve();
    /// // Rebinding picks up the now-interned constant; zeta loses.
    /// assert!(!new.ask_prepared(&new.rebind(&q).unwrap()));
    /// assert!(new.ask("?- win(b).").unwrap());
    /// ```
    pub fn rebind(&self, query: &PreparedQuery) -> Result<PreparedQuery, Error> {
        let rebound = query.rebind(&self.universe)?;
        self.check_slice(&rebound)?;
        Ok(rebound)
    }

    /// Parses and evaluates a Boolean query (e.g. `"?- p(X), not q(X)."`).
    ///
    /// Convenience for one-off questions; in a serving loop, [`prepare`]
    /// once and [`ask_prepared`] per request.
    ///
    /// [`prepare`]: SolvedModel::prepare
    /// [`ask_prepared`]: SolvedModel::ask_prepared
    pub fn ask(&self, query_src: &str) -> Result<bool, Error> {
        Ok(self.ask_prepared(&self.prepare(query_src)?))
    }

    /// Three-valued satisfaction of a Boolean query.
    pub fn ask3(&self, query_src: &str) -> Result<Truth, Error> {
        Ok(self.ask3_prepared(&self.prepare(query_src)?))
    }

    /// Parses and evaluates a query with answer variables
    /// (e.g. `"?(X) p(X, Y)."`), returning the constant tuples.
    pub fn answers(&self, query_src: &str) -> Result<AnswerSet, Error> {
        Ok(self.answers_prepared(&self.prepare(query_src)?))
    }

    /// Evaluates a prepared Boolean query (certain-answer semantics).
    pub fn ask_prepared(&self, query: &PreparedQuery) -> bool {
        query.holds_with(&self.universe, &self.solved.model, &self.solved.index)
    }

    /// Three-valued evaluation of a prepared query. On a model whose chase
    /// a runtime budget cut short ([`SolvedModel::outcome`]) the verdict is
    /// `True` or `Unknown`, never `False`: atoms the chase had not reached
    /// are undecided, not refuted.
    pub fn ask3_prepared(&self, query: &PreparedQuery) -> Truth {
        query.holds3_with(&self.universe, &self.solved.model, &self.solved.index)
    }

    /// Certain answers of a prepared query.
    pub fn answers_prepared(&self, query: &PreparedQuery) -> AnswerSet {
        query.answers_with(&self.universe, &self.solved.model, &self.solved.index)
    }

    /// Evaluates a batch of prepared queries, returning one answer set per
    /// query (in order).
    pub fn answer_all(&self, queries: &[PreparedQuery]) -> Vec<AnswerSet> {
        queries.iter().map(|q| self.answers_prepared(q)).collect()
    }

    /// The queries that appeared in the compiled sources, prepared against
    /// this model's snapshot, in source order.
    pub fn source_queries(&self) -> &[PreparedQuery] {
        &self.source_queries
    }

    // ----- model inspection -------------------------------------------

    /// The frozen universe snapshot the model was solved under.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The snapshot handle itself (cheap to clone and share).
    pub fn snapshot(&self) -> &UniverseSnapshot {
        &self.universe
    }

    /// The underlying well-founded model (segment, ground program, engine
    /// result).
    pub fn model(&self) -> &WellFoundedModel {
        &self.solved.model
    }

    /// Truth value of a ground atom under `WFS(D, Σ)`.
    pub fn value(&self, atom: AtomId) -> Truth {
        self.solved.model.value(atom)
    }

    /// True iff the chase quiesced within budget, making the model exact.
    pub fn exact(&self) -> bool {
        self.solved.model.exact
    }

    /// Whether the solve ran to its fixpoint or was truncated (and why):
    /// depth/cap bounds, a deadline, a cancellation, or a memory budget.
    pub fn outcome(&self) -> SolveOutcome {
        self.solved.model.outcome
    }

    /// True iff query answers from this model are **under-approximate**:
    /// the solve was truncated, so certain answers remain certain but some
    /// answers the complete model would return may be missing (they read
    /// `Unknown` here).
    pub fn under_approximate(&self) -> bool {
        !self.solved.model.outcome.is_complete()
    }

    /// How this model was produced: whether the solve was incremental and
    /// how many dependency components reused their previous verdicts.
    pub fn solve_stats(&self) -> SolveStats {
        self.solved.solve_stats
    }

    /// The model's epoch: a monotonically increasing counter over the
    /// owning [`KnowledgeBase`]'s successful solves, bumped once per solve
    /// that actually ran the engine (full or incremental). Two
    /// `SolvedModel`s of the same knowledge base share an epoch iff they
    /// share the same underlying model content (a cache hit or a
    /// queries-only repackaging). The serving tier uses this to order
    /// hot-swap visibility: a request that pinned epoch `e` answers
    /// exactly as the direct API against the epoch-`e` model.
    pub fn epoch(&self) -> u64 {
        self.solved.epoch
    }

    /// Truth of each constraint's violation marker, in source order:
    /// `True` = surely violated, `Unknown` = possibly violated,
    /// `False` = safe.
    pub fn constraint_status(&self) -> &[Truth] {
        &self.solved.constraint_status
    }

    /// Looks up a ground atom `pred(constants…)` by names.
    ///
    /// `Ok(None)` means a genuine miss — an unknown predicate, an unknown
    /// constant, or an atom that was never materialized (its value is then
    /// `False`). Using a **known** predicate with the wrong number of
    /// arguments is a schema bug, not a miss, and errors with the same
    /// arity mismatch the typed [`RelationWriter`] ingestion path reports.
    pub fn lookup_atom(&self, pred: &str, args: &[&str]) -> Result<Option<AtomId>, Error> {
        let Some(p) = self.universe.lookup_pred(pred) else {
            return Ok(None);
        };
        let declared = self.universe.pred_arity(p);
        if declared != args.len() {
            return Err(Error::Core(wfdl_core::CoreError::ArityMismatch {
                predicate: pred.to_owned(),
                declared,
                used: args.len(),
            }));
        }
        let mut ts = Vec::with_capacity(args.len());
        for a in args {
            match self.universe.lookup_constant(a) {
                Some(t) => ts.push(t),
                None => return Ok(None),
            }
        }
        Ok(self.universe.atoms.lookup(p, &ts))
    }

    /// Renders the true atoms (non-auxiliary predicates) sorted, one per
    /// line.
    pub fn render_true(&self) -> String {
        self.solved.model.render_true(&self.universe)
    }

    /// Heap bytes of the model's atom index (one, over its not-false
    /// atoms), the key tables reads have built so far included. A
    /// goal-directed view reports the index of the full model it shares.
    /// The universe's share is [`Universe::heap_bytes`] on
    /// [`SolvedModel::universe`].
    pub fn index_bytes(&self) -> usize {
        self.solved.index.heap_bytes()
    }

    /// How far reads have built the model's atom index: its bytes, its
    /// predicate rows, and how many of those have a key table.
    pub fn index_stats(&self) -> wfdl_storage::IndexStats {
        self.solved.index.stats()
    }
}

// ======================================================================
// Bulk fact loading
// ======================================================================

/// Parses the parser-free bulk fact format into a typed [`FactBatch`].
///
/// One fact per line: the predicate name, then the constant arguments,
/// separated by tabs (or commas on lines containing no tab). Leading and
/// trailing whitespace per field is trimmed; blank lines and lines
/// starting with `#` or `%` are skipped. A bare predicate name is a
/// nullary fact. The first line mentioning a predicate fixes its arity
/// (consistent with any declaration the rules already made); later lines
/// and rules must agree or error with the usual arity mismatch.
///
/// ```text
/// # persons.tsv (fields tab-separated, or comma-separated as here)
/// person,alice
/// person,bob
/// employs,acme,alice
/// ```
pub fn fact_batch_from_separated(universe: &mut Universe, text: &str) -> Result<FactBatch, Error> {
    fact_batch_from_reader(universe, text.as_bytes())
}

/// Streaming variant of [`fact_batch_from_separated`]: parses the same
/// tab/comma-separated fact format from any [`std::io::BufRead`] without
/// materializing the input as one string — the path the `wfdl --facts`
/// file loader and the serving tier's `/ingest` endpoint share. Errors
/// carry the 1-based line number of the offending line, exactly as the
/// in-memory variant reports it; I/O failures surface as [`Error::Io`].
pub fn fact_batch_from_reader(
    universe: &mut Universe,
    reader: impl std::io::BufRead,
) -> Result<FactBatch, Error> {
    let mut batch = FactBatch::new();
    // Fact files are typically grouped by relation; the interner remembers
    // the last resolved predicate and reuses one argument buffer, so the
    // per-row work is constant interning — the same per-fact path the
    // `.dl` frontend takes, and the `RelationWriter` resolved-once contract.
    let mut facts = wfdl_syntax::FactInterner::default();
    for_each_fact_line(reader, |pred, arity, constants| {
        let pred = facts.pred(universe, pred, arity)?;
        let atom = facts.atom(universe, pred, constants)?;
        batch.push_atom(universe, atom)
    })?;
    Ok(batch)
}

/// The facts of `reader` (in [`fact_batch_from_separated`]'s format) that
/// `universe` already holds as atoms — the only ones a database over it can
/// store. Names resolve by lookup and nothing is interned; a line naming an
/// unknown predicate or constant is skipped. The errors are the interning
/// reader's: a predicate's first line fixes its arity, and a line that
/// contradicts it, or has an empty field, is an error.
fn stored_facts_from_reader(
    universe: &Universe,
    reader: impl std::io::BufRead,
) -> Result<FactBatch, Error> {
    let mut batch = FactBatch::new();
    // What the interning reader would have declared for predicates the
    // universe does not know. The names come from outside: the default,
    // collision-resistant hasher.
    let mut unknown: std::collections::HashMap<String, usize> = Default::default();
    let mut args: Vec<wfdl_core::TermId> = Vec::new();
    for_each_fact_line(reader, |name, arity, constants| {
        let pred = universe.lookup_pred(name);
        let declared = match pred {
            Some(pred) => universe.pred_arity(pred),
            None => *unknown.entry(name.to_owned()).or_insert(arity),
        };
        if declared != arity {
            return Err(wfdl_core::CoreError::ArityMismatch {
                predicate: name.to_owned(),
                declared,
                used: arity,
            });
        }
        let Some(pred) = pred else {
            return Ok(());
        };
        args.clear();
        for c in constants {
            match universe.lookup_constant(c) {
                Some(t) => args.push(t),
                None => return Ok(()),
            }
        }
        match universe.atoms.lookup(pred, &args) {
            Some(atom) => batch.push_atom(universe, atom),
            None => Ok(()),
        }
    })?;
    Ok(batch)
}

/// The line loop of the fact readers: skips blank and comment lines,
/// splits every other line into a predicate name, the arity and the
/// constant names, and hands them to `fact`. A line with an empty field,
/// and an error `fact` returns, stop the read at the line's 1-based number.
fn for_each_fact_line(
    mut reader: impl std::io::BufRead,
    mut fact: impl FnMut(&str, usize, &mut dyn Iterator<Item = &str>) -> wfdl_core::Result<()>,
) -> Result<(), Error> {
    let mut raw = String::new();
    let mut line_no: u32 = 0;
    loop {
        raw.clear();
        if reader.read_line(&mut raw)? == 0 {
            return Ok(());
        }
        line_no += 1;
        let positioned = |message: String| {
            Error::Syntax(wfdl_syntax::SyntaxError::new(
                message,
                wfdl_syntax::Pos {
                    line: line_no,
                    col: 1,
                },
            ))
        };
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let sep = if line.contains('\t') { '\t' } else { ',' };
        let mut fields = line.split(sep).map(str::trim);
        if fields.clone().any(str::is_empty) {
            return Err(positioned(format!("empty field in fact line `{line}`")));
        }
        let arity = fields.clone().count() - 1;
        let pred = fields.next().unwrap_or_default();
        fact(pred, arity, &mut fields).map_err(|e| positioned(e.to_string()))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let mut kb = KnowledgeBase::from_source(
            r#"
            scientist(john).
            scientist(X) -> isAuthorOf(X, Y).
            "#,
        )
        .unwrap();
        let model = kb.solve();
        assert!(model.ask("?- isAuthorOf(john, X).").unwrap());
        assert!(!model.ask("?- isAuthorOf(X, john).").unwrap());
    }

    #[test]
    fn add_source_accumulates_and_invalidates_cache() {
        let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
        let before = kb.solve();
        assert!(!before.ask("?- q(a).").unwrap());
        kb.add_source("p(X) -> q(X).").unwrap();
        let model = kb.solve();
        assert!(model.ask("?- q(a).").unwrap());
    }

    #[test]
    fn repeated_solve_reuses_cached_artifacts() {
        let mut kb = KnowledgeBase::from_source("p(a). p(X) -> q(X).").unwrap();
        let m1 = kb.solve();
        let m2 = kb.solve();
        assert!(Arc::ptr_eq(&m1, &m2), "no mutation → cached model");
        // Different options recompute…
        let m3 = kb.solve_with(WfsOptions::depth(3));
        assert!(!Arc::ptr_eq(&m1, &m3));
        // …and the default options now miss the (single-entry) cache.
        let m4 = kb.solve();
        assert!(!Arc::ptr_eq(&m1, &m4));
        assert!(m4.ask("?- q(a).").unwrap());
    }

    #[test]
    fn auto_budget_tracks_sources_added_after_builder_calls() {
        // The automatic budget is decided per solve, not at construction:
        // existential rules added later still trigger the depth-12 safety
        // default (an unbounded chase would not terminate here).
        let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
        assert_eq!(kb.effective_options().budget, ChaseBudget::unbounded());
        kb.add_source("p(X) -> q(X, Y). q(X, Y) -> p(Y).").unwrap();
        assert_eq!(kb.effective_options().budget, ChaseBudget::depth(12));
        let model = kb.solve();
        assert!(model.ask("?- q(a, Y).").unwrap());
    }

    #[test]
    fn constraint_status_via_facade() {
        let mut kb = KnowledgeBase::from_source(
            r#"
            cat(tom).
            dog(tom).
            cat(X), dog(X) -> false.
            "#,
        )
        .unwrap();
        let model = kb.solve();
        assert_eq!(model.constraint_status(), &[Truth::True]);
    }

    #[test]
    fn ask3_reports_unknown() {
        let mut kb = KnowledgeBase::from_source(
            r#"
            g(c).
            g(X), not p(X) -> p(X).
            "#,
        )
        .unwrap();
        let model = kb.solve();
        assert_eq!(model.ask3("?- p(c).").unwrap(), Truth::Unknown);
    }

    #[test]
    fn prepared_queries_and_answer_all() {
        let mut kb = KnowledgeBase::from_source(
            r#"
            edge(a,b). edge(b,c). mark(a).
            "#,
        )
        .unwrap();
        let model = kb.solve();
        let q1 = model.prepare("?(X) edge(X, Y).").unwrap();
        let q2 = model.prepare("?(X) edge(X, Y), not mark(X).").unwrap();
        let q3 = model.prepare("?(X) edge(X, never_seen).").unwrap();
        let all = model.answer_all(&[q1.clone(), q2, q3]);
        assert_eq!(all[0].len(), 2);
        assert_eq!(all[1].len(), 1);
        assert!(all[2].is_empty(), "unknown constant → definitely empty");
        // Prepared evaluation agrees with the parse-per-call convenience.
        assert_eq!(
            model.answers("?(X) edge(X, Y).").unwrap(),
            model.answers_prepared(&q1)
        );
    }

    #[test]
    fn unknown_constant_is_definite_not_error() {
        let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
        let model = kb.solve();
        assert!(!model.ask("?- p(zebra).").unwrap());
        assert_eq!(model.ask3("?- p(zebra).").unwrap(), Truth::False);
        // Negated unknown constants are certainly satisfied.
        assert!(model.ask("?- p(X), not p(zebra).").unwrap());
    }

    #[test]
    fn source_queries_are_prepared() {
        let mut kb =
            KnowledgeBase::from_source("edge(a,b). ?- edge(a, X). ?(X) edge(X, Y).").unwrap();
        let model = kb.solve();
        assert_eq!(model.source_queries().len(), 2);
        assert!(model.ask_prepared(&model.source_queries()[0]));
        assert_eq!(model.answers_prepared(&model.source_queries()[1]).len(), 1);
    }

    #[test]
    fn solved_model_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolvedModel>();
        assert_send_sync::<KnowledgeBase>();
        assert_send_sync::<PreparedQuery>();
    }

    #[test]
    fn prepare_errors_carry_real_source_positions() {
        let mut kb = KnowledgeBase::from_source("scientist(john).").unwrap();
        let model = kb.solve();
        let err = model.prepare("\n\n   scientist(ada).").unwrap_err();
        let Error::Syntax(e) = err else {
            panic!("expected a syntax error")
        };
        assert!(e.message.contains("expected a query"), "{e}");
        assert_eq!((e.pos.line, e.pos.col), (3, 4), "{e}");
    }

    // ---- typed ingestion + delta-aware re-solve --------------------------

    #[test]
    fn typed_insert_takes_incremental_path_and_agrees_with_scratch() {
        const RULES: &str = "edge(X,Y) -> reach(X,Y).
             reach(X,Y) -> covered(Y).
             node(X), not covered(X) -> isolated(X).";
        let mut kb = KnowledgeBase::from_source(RULES).unwrap();
        let mut base = FactBatch::new();
        {
            let mut edges = base.relation(kb.universe_mut(), "edge", 2).unwrap();
            edges.push(&["a", "b"]).unwrap();
            edges.push(&["b", "c"]).unwrap();
        }
        {
            let mut nodes = base.relation(kb.universe_mut(), "node", 1).unwrap();
            for n in ["a", "b", "c", "d"] {
                nodes.push(&[n]).unwrap();
            }
        }
        kb.insert(base).unwrap();
        let first = kb.solve();
        assert!(!first.solve_stats().incremental, "first solve is full");
        assert!(first.ask("?- isolated(d).").unwrap());

        let mut delta = FactBatch::new();
        delta
            .relation(kb.universe_mut(), "edge", 2)
            .unwrap()
            .push(&["c", "d"])
            .unwrap();
        kb.insert(delta).unwrap();
        let second = kb.solve();
        let stats = second.solve_stats();
        assert!(stats.incremental, "insert-only delta resumes");
        assert!(stats.components_reused > 0, "{stats:?}");
        assert!(second.ask("?- covered(d).").unwrap());
        assert!(!second.ask("?- isolated(d).").unwrap());

        // Bit-for-bit agreement with a from-scratch KB over the union.
        let mut scratch = KnowledgeBase::from_source(RULES).unwrap();
        let mut all = FactBatch::new();
        {
            let mut edges = all.relation(scratch.universe_mut(), "edge", 2).unwrap();
            for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
                edges.push(&[x, y]).unwrap();
            }
        }
        {
            let mut nodes = all.relation(scratch.universe_mut(), "node", 1).unwrap();
            for n in ["a", "b", "c", "d"] {
                nodes.push(&[n]).unwrap();
            }
        }
        scratch.insert(all).unwrap();
        let reference = scratch.solve();
        assert_eq!(reference.render_true(), second.render_true());
    }

    #[test]
    fn rejected_batch_is_not_applied_halfway() {
        let mut kb = KnowledgeBase::from_source("p(X) -> q(X, Y). p(a).").unwrap();
        // Intern `p(b)` without inserting it: an id the database lacks.
        let mut stray = FactBatch::new();
        let pb = stray
            .relation(kb.universe_mut(), "p", 1)
            .unwrap()
            .push(&["b"])
            .unwrap();
        let full = kb.solve();
        let sliced = kb.solve_for("?- p(b).").unwrap();
        assert!(!full.ask("?- p(b).").unwrap() && !sliced.ask("?- p(b).").unwrap());
        let with_null = kb
            .universe()
            .atoms
            .ids()
            .find(|&a| !kb.universe().atom_is_constant_free_of_nulls(a))
            .expect("the chase interned q(a, null)");
        assert!(pb < with_null);

        // A batch built against ANOTHER universe: its ids 0..=with_null are
        // null-free facts over there; over here they run from database
        // facts through `p(b)` (new) to an atom with a null (rejected).
        let mut other = Universe::new();
        let mut foreign = FactBatch::new();
        {
            let mut rows = foreign.relation(&mut other, "r", 1).unwrap();
            for i in 0..=with_null.index() {
                rows.push(&[&format!("c{i}")]).unwrap();
            }
        }
        assert!(foreign.atoms().contains(&pb) && foreign.atoms().contains(&with_null));
        let facts_before = kb.database().len();
        let err = kb.insert(foreign).unwrap_err();
        assert!(
            matches!(err, Error::Core(wfdl_core::CoreError::NonGroundFact { .. })),
            "{err}"
        );
        // Nothing of it was applied, so every cache is still right.
        assert_eq!(kb.database().len(), facts_before);
        assert!(!kb.database().contains(pb));
        let full_after = kb.solve();
        let sliced_after = kb.solve_for("?- p(b).").unwrap();
        assert!(Arc::ptr_eq(&full, &full_after), "nothing changed: cached");
        assert_eq!(
            sliced_after.ask("?- p(b).").unwrap(),
            full_after.ask("?- p(b).").unwrap(),
            "solve_for and solve disagree after a rejected batch"
        );

        // An id this universe never issued is an error, not a panic.
        let beyond = kb.universe().atoms.len() + 3;
        let mut rows = FactBatch::new();
        {
            let mut writer = rows.relation(&mut other, "r", 1).unwrap();
            for i in 0..=beyond {
                writer.push(&[&format!("c{i}")]).unwrap();
            }
        }
        let mut out_of_range = FactBatch::new();
        out_of_range
            .push_atom(&other, AtomId::from_index(beyond))
            .unwrap();
        let err = kb.insert(out_of_range).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Core(wfdl_core::CoreError::UnknownAtom { index, .. }) if index == beyond
            ),
            "{err}"
        );
        assert!(Arc::ptr_eq(&full, &kb.solve()));
    }

    #[test]
    fn a_rejected_fact_batch_leaves_the_universe_as_it_was() {
        let mut kb =
            KnowledgeBase::from_source("move(a,b). move(b,c). move(X,Y), not win(Y) -> win(X).")
                .unwrap();
        let symbols = kb.universe().symbols.len();
        // No solved model shares the universe yet. The first line is good
        // and names a new predicate; the second is not.
        assert!(kb.insert_tsv("ghost,x\nmove,junk\n").is_err());
        assert_eq!(kb.universe().symbols.len(), symbols);
        assert_eq!(kb.universe().lookup_pred("ghost"), None);

        kb.solve();
        let (atoms, symbols) = (kb.universe().atoms.len(), kb.universe().symbols.len());
        let unchanged = |kb: &KnowledgeBase| {
            assert_eq!(kb.universe().atoms.len(), atoms);
            assert_eq!(kb.universe().symbols.len(), symbols);
            assert_eq!(kb.universe().lookup_constant("junk"), None);
            assert_eq!(kb.universe().lookup_pred("ghost"), None);
        };
        // The solved model shares it now: a new constant, then a bad line.
        assert!(kb.insert_tsv("move,junk,a\nmove,,\n").is_err());
        unchanged(&kb);
        // A retraction resolves names by lookup: unknown ones list nothing.
        let removed = kb.retract_from_reader("move,junk,a\nghost,x\nmove,a,zz\n".as_bytes());
        assert_eq!(removed.unwrap(), 0);
        unchanged(&kb);
        // And it reports the interning reader's errors, interning nothing.
        let err = kb.retract_from_reader("ghost,x\nghost,x,y\n".as_bytes());
        assert!(
            matches!(err, Err(Error::Syntax(ref e)) if e.pos.line == 2),
            "{err:?}"
        );
        assert!(kb.retract_from_reader("move,a\n".as_bytes()).is_err());
        unchanged(&kb);

        // A good batch still goes in, and still resumes the solve.
        assert_eq!(kb.insert_tsv("move,c,d\n").unwrap(), 1);
        assert_eq!(kb.universe().atoms.len(), atoms + 1, "move(c,d)");
        let model = kb.solve();
        assert!(model.solve_stats().incremental);
        assert!(model.ask("?- win(c).").unwrap());
        assert_eq!(kb.retract_from_reader("move,c,d\n".as_bytes()).unwrap(), 1);
        assert!(!kb.solve().ask("?- win(c).").unwrap());
    }

    #[test]
    fn retraction_falls_back_to_full_recompute() {
        let mut kb = KnowledgeBase::from_source("p(a). p(b). p(X), not q(X) -> r(X).").unwrap();
        let first = kb.solve();
        assert!(first.ask("?- r(a).").unwrap());
        let mut batch = FactBatch::new();
        batch
            .relation(kb.universe_mut(), "p", 1)
            .unwrap()
            .push(&["a"])
            .unwrap();
        assert_eq!(kb.retract(batch), 1);
        let second = kb.solve();
        assert!(!second.solve_stats().incremental, "retraction → full");
        assert!(!second.ask("?- r(a).").unwrap());
        assert!(second.ask("?- r(b).").unwrap());
    }

    #[test]
    fn retracting_a_foreign_batch_removes_only_stored_facts() {
        let mut kb = KnowledgeBase::from_source("p(a). p(b). p(X) -> q(X).").unwrap();
        kb.solve();
        let pa = kb.database().facts()[0];
        // A batch built against ANOTHER universe: its first id coincides
        // with the stored fact `p(a)`, its last is one this universe never
        // issued.
        let beyond = kb.universe().atoms.len() + 3;
        let mut other = Universe::new();
        {
            let mut rows = FactBatch::new();
            let mut writer = rows.relation(&mut other, "r", 1).unwrap();
            for i in 0..=beyond {
                writer.push(&[&format!("c{i}")]).unwrap();
            }
        }
        let mut foreign = FactBatch::new();
        foreign.push_atom(&other, pa).unwrap();
        foreign
            .push_atom(&other, AtomId::from_index(beyond))
            .unwrap();
        // Exactly the stored fact goes, and nothing panics.
        assert_eq!(kb.retract(foreign), 1);
        assert_eq!(kb.database().len(), 1);
        assert!(!kb.database().contains(pa));
        let model = kb.solve();
        assert!(!model.solve_stats().incremental, "retraction → full");
        assert!(!model.ask("?- q(a).").unwrap() && model.ask("?- q(b).").unwrap());
    }

    #[test]
    fn rule_changes_fall_back_to_full_recompute() {
        let mut kb = KnowledgeBase::from_source("p(a).").unwrap();
        kb.solve();
        kb.add_source("p(X) -> q(X).").unwrap();
        let model = kb.solve();
        assert!(!model.solve_stats().incremental);
        assert!(model.ask("?- q(a).").unwrap());
    }

    #[test]
    fn facts_only_add_source_stays_incremental() {
        let mut kb = KnowledgeBase::from_source("p(X) -> q(X). p(a).").unwrap();
        kb.solve();
        kb.add_source("p(b).").unwrap();
        let model = kb.solve();
        assert!(model.solve_stats().incremental, "facts-only source text");
        assert!(model.ask("?- q(b).").unwrap());
    }

    #[test]
    fn tsv_bulk_load_roundtrip() {
        let mut kb = KnowledgeBase::from_source("edge(X,Y) -> reach(X,Y).").unwrap();
        let added = kb
            .insert_tsv(
                "# comment line\n\
                 edge\ta\tb\n\
                 edge\tb\tc\n\
                 \n\
                 mark, a\n",
            )
            .unwrap();
        assert_eq!(added, 3);
        let model = kb.solve();
        assert!(model.ask("?- reach(a, b).").unwrap());
        assert!(model.ask("?- mark(a).").unwrap());
        // Arity mismatches carry the offending line number.
        let err = kb.insert_tsv("edge\ta\n").unwrap_err();
        let Error::Syntax(e) = err else {
            panic!("expected a positioned error")
        };
        assert!(e.message.contains("arity"), "{e}");
        assert_eq!(e.pos.line, 1);
    }

    #[test]
    fn lookup_atom_distinguishes_miss_from_arity_bug() {
        let mut kb = KnowledgeBase::from_source("edge(a,b).").unwrap();
        let model = kb.solve();
        assert!(model.lookup_atom("edge", &["a", "b"]).unwrap().is_some());
        // Genuine misses: unknown predicate, unknown constant, or an
        // unmaterialized atom.
        assert!(model.lookup_atom("ghost", &["a"]).unwrap().is_none());
        assert!(model
            .lookup_atom("edge", &["a", "zebra"])
            .unwrap()
            .is_none());
        assert!(model.lookup_atom("edge", &["b", "a"]).unwrap().is_none());
        // Known predicate, wrong width: a schema bug, not a miss.
        let err = model.lookup_atom("edge", &["a"]).unwrap_err();
        let Error::Core(wfdl_core::CoreError::ArityMismatch { declared, used, .. }) = err else {
            panic!("expected an arity mismatch")
        };
        assert_eq!((declared, used), (2, 1));
    }

    #[test]
    fn prepared_queries_survive_universe_growth_via_rebind() {
        let mut kb = KnowledgeBase::from_source("p(X) -> q(X). p(a).").unwrap();
        let first = kb.solve();
        // `b` is unknown at prepare time: definitely empty, shape retained.
        let stale = first.prepare("?- q(b).").unwrap();
        assert!(stale.is_definitely_empty());
        assert!(stale.needs_rebind());

        let mut delta = FactBatch::new();
        delta
            .relation(kb.universe_mut(), "p", 1)
            .unwrap()
            .push(&["b"])
            .unwrap();
        kb.insert(delta).unwrap();
        let second = kb.solve();
        assert!(second.solve_stats().incremental);
        // Un-rebound, the stale short-circuit still answers false…
        assert!(!second.ask_prepared(&stale));
        // …rebinding re-resolves the constant without re-parsing.
        let live = second.rebind(&stale).unwrap();
        assert!(second.ask_prepared(&live));
        // A fully-resolved query needs no rebind and evaluates unchanged
        // against the newer model (dense ids are stable).
        let qa = first.prepare("?- q(a).").unwrap();
        assert!(!qa.needs_rebind());
        assert!(second.ask_prepared(&second.rebind(&qa).unwrap()));
    }

    #[test]
    fn queries_only_change_repackages_without_resolving() {
        let mut kb = KnowledgeBase::from_source("p(a). ?- p(a).").unwrap();
        let first = kb.solve();
        // New query text only: the model is provably unchanged, so the
        // new artifact shares it (and its indexes) instead of re-solving.
        kb.add_source("?- p(b).").unwrap();
        let second = kb.solve();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.source_queries().len(), 2);
        assert!(
            std::ptr::eq(first.model(), second.model()),
            "underlying WellFoundedModel is shared, not recomputed"
        );
        assert!(second.ask_prepared(&second.source_queries()[0]));
        // The query's constant `b` was interned by `add_source`, so the
        // repackaged snapshot resolves it (to a definite miss).
        assert!(!second.ask_prepared(&second.source_queries()[1]));
        // A third solve with nothing new is a plain cache hit.
        let third = kb.solve();
        assert!(Arc::ptr_eq(&second, &third));
    }
}
