//! The solve and serve stages: the immutable solved model.

use crate::*;
use std::sync::Arc;
use wfdl_storage::AtomIndex;

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
    pub(crate) solved: Arc<Solved>,
    source_queries: Vec<PreparedQuery>,
    /// `Some` for goal-directed models ([`KnowledgeBase::solve_for`]): the
    /// relevance-closed predicate slice this model answers for. Queries
    /// are checked against it at preparation time — see
    /// [`SolvedModel::prepare_sliced`].
    slice: Option<ProgramSlice>,
}

/// What one solve computed, independent of how it is packaged.
#[derive(Debug)]
pub(crate) struct Solved {
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
    pub(crate) fn new(
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
            _ => AtomIndex::build(universe, TruthSource::possible_atoms(model).iter().copied()),
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
pub(crate) fn slice_view(
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
    pub(crate) fn package(
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
    pub(crate) fn serves_views(&self) -> bool {
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

    /// True iff the solve was truncated, so query answers from this model
    /// may differ from the complete model's. After a budget trip
    /// ([`SolveOutcome::is_budget_trip`]) they are a sound
    /// under-approximation: certain answers remain certain, and what the
    /// complete model would add reads `Unknown` here. After a depth, atom
    /// or instance cap they are not: an atom the chase never derived reads
    /// false, and through negation that can turn an answer either way.
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
