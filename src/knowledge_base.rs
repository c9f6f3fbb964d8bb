//! The compile stage: the knowledge base, its caches and its solves.

use crate::facts::stored_facts_from_reader;
use crate::solved_model::{slice_view, Solved};
use crate::*;
use std::sync::Arc;

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
    /// Configured chase budget; `None` = the automatic one below.
    budget: Option<ChaseBudget>,
    /// The chase budget the program's rules call for (see
    /// [`KnowledgeBase::effective_options`]), decided whenever they change.
    auto_budget: ChaseBudget,
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
            auto_budget: auto_budget(&universe, &sigma),
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
            self.auto_budget = auto_budget(universe, &self.sigma);
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
    /// budget, or when none is set the automatic one — an unbounded chase
    /// when the analyzer proves the program weakly acyclic (its chase
    /// terminates on every database; `wfdl lint` reports
    /// `weakly_acyclic=true`), depth 12 otherwise. The automatic budget is
    /// decided whenever the rules change, so it tracks rules added after
    /// the builder calls.
    pub fn effective_options(&self) -> WfsOptions {
        WfsOptions {
            budget: self.budget.unwrap_or(self.auto_budget),
            ..WfsOptions::default()
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
    /// Re-raises a panic inside the solve as a clean panic at this boundary (the
    /// knowledge base itself is left reusable). Use
    /// [`KnowledgeBase::try_solve_with`] to get it as an
    /// [`Error::EnginePanic`] instead.
    pub fn solve_with(&mut self, options: WfsOptions) -> Arc<SolvedModel> {
        match self.try_solve_with(options) {
            Ok(model) => model,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`KnowledgeBase::solve`] with a panic inside the solve caught at
    /// this boundary.
    ///
    /// # Errors
    ///
    /// [`Error::EnginePanic`] if the solve panicked. The knowledge
    /// base is left coherent and reusable: the partial solve is discarded,
    /// and the next solve recomputes from scratch.
    pub fn try_solve(&mut self) -> Result<Arc<SolvedModel>, Error> {
        self.try_solve_with(self.effective_options())
    }

    /// [`KnowledgeBase::solve_with`] with a panic inside the solve caught
    /// at this boundary (see [`KnowledgeBase::try_solve`]).
    ///
    /// # Errors
    ///
    /// [`Error::EnginePanic`] if the solve panicked.
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
    /// makes the request, contains panics, packages the output. Touches no
    /// cache except to drop `last` when a full solve panicked.
    fn run_solve(
        &mut self,
        options: WfsOptions,
        slice: Option<ProgramSlice>,
    ) -> Result<Arc<SolvedModel>, Error> {
        use wfdl_wfs::SolveRequest;
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
        // Every solve extends a model: the previous one by the delta, or
        // the empty one by every fact.
        let from_scratch = SolveRequest {
            program: &self.sigma,
            options,
            violations: &self.violations,
            budget: &self.solve_budget,
            base: None,
            new_facts: self.database.facts(),
            slice: slice.as_ref().map(|s| s.pred_mask.as_slice()),
        };
        let request = match &prev {
            Some(prev) => SolveRequest {
                base: Some(prev.model()),
                new_facts: &self.delta,
                ..from_scratch
            },
            None => from_scratch,
        };
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wfdl_wfs::solve_request(universe, request).unwrap_or_else(|_refused| {
                // A cap-truncated segment does not resume (such chases are
                // discovery-order dependent): extend the empty model
                // instead (same options, same budget). The database
                // already holds the delta facts.
                match wfdl_wfs::solve_request(universe, from_scratch) {
                    Ok(output) => output,
                    Err(e) => unreachable!("the empty model always resumes: {e}"),
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
    /// [`Error::EnginePanic`] if the solve panicked — the sliced
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

    /// The interning context, read-only. [`KnowledgeBase::universe_mut`]
    /// and [`KnowledgeBase::add_source`] intern into it, and the facts over
    /// it change through [`KnowledgeBase::insert`] and
    /// [`KnowledgeBase::retract`].
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

/// The automatic chase budget of a program: unbounded when the termination
/// pass proves it weakly acyclic, depth 12 otherwise.
fn auto_budget(universe: &Universe, sigma: &SkolemProgram) -> ChaseBudget {
    let proof = wfdl_analyze::termination::run(universe, sigma, &mut Vec::new());
    if proof.weakly_acyclic {
        ChaseBudget::unbounded()
    } else {
        ChaseBudget::depth(12)
    }
}
