//! The top-level solver: chase a segment, run the modular engine, answer
//! truth queries — `WFS(D, Σ)` of Definition 3, with honest exactness
//! reporting.
//!
//! There is one solve path: [`solve_request`] over a [`SolveRequest`].
//! [`solve`], [`solve_resumed`] and [`solve_sliced_packaged_budgeted`] are
//! that function under fixed request shapes. The global fixpoint engines
//! compute the same model (Theorem 8) and live in the test-only
//! `wfdl-reference` crate: build one directly on a solved model's
//! [`WellFoundedModel::ground`] / [`WellFoundedModel::segment`] to
//! cross-check it.

use crate::result::EngineResult;
use crate::scc::{ModularEngine, ModularStats};
use std::time::Instant;
use wfdl_chase::{ChaseBudget, ChaseSegment, ResumeError};
use wfdl_core::{
    AtomId, CoreError, Interp, PredId, Program, RuleAtom, SkolemProgram, SolveBudget, SolveOutcome,
    Tgd, TruncationReason, Truth, Universe,
};
use wfdl_storage::{Database, GroundProgram};

/// Solver configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WfsOptions {
    /// Chase materialization limits.
    pub budget: ChaseBudget,
    /// Accepted and ignored for the frozen benchmark; removed by the
    /// benchmark issue that drops `cold_solve_auto_s`.
    #[doc(hidden)]
    pub threads: usize,
}

impl WfsOptions {
    /// Options with the given chase depth.
    pub fn depth(depth: u32) -> Self {
        WfsOptions {
            budget: ChaseBudget::depth(depth),
            ..Default::default()
        }
    }

    /// Options with an unbounded chase (terminating programs only).
    pub fn unbounded() -> Self {
        WfsOptions {
            budget: ChaseBudget::unbounded(),
            ..Default::default()
        }
    }
}

/// The well-founded model of `D` under `Σ` restricted to a chase segment.
///
/// Atoms outside the segment have no forward proof within the materialized
/// part of `F⁺(P)` and are reported **false**, which is exact when
/// [`WellFoundedModel::exact`] holds (the chase quiesced within budget).
/// Otherwise it is exact only for a segment of depth `n·δ` (Proposition
/// 12); a shallower cap can report false an atom that a deeper chase
/// derives, and through negation that can turn other verdicts either way.
#[derive(Debug)]
pub struct WellFoundedModel {
    /// The materialized chase segment.
    pub segment: ChaseSegment,
    /// The extracted finite ground normal program.
    pub ground: GroundProgram,
    /// Engine output over the segment's atoms.
    pub result: EngineResult,
    /// True iff the chase quiesced within budget, making the model exact.
    pub exact: bool,
    /// `Complete` iff both the chase and the engine ran to their natural
    /// fixpoints; otherwise the first truncation on the pipeline (chase
    /// before engine). Note the depth budget counts as a truncation here
    /// (`DepthCap`) even though the depth-bounded model is the paper's
    /// sanctioned approximation — `exact` is the flag for that distinction.
    pub outcome: SolveOutcome,
}

impl WellFoundedModel {
    /// True iff the *chase* was stopped by a runtime budget trip
    /// (deadline / cancellation / memory), in which case atom absence
    /// proves nothing and the model degrades to the sound positive-closure
    /// under-approximation.
    fn chase_budget_tripped(&self) -> bool {
        self.segment
            .truncation()
            .is_some_and(TruncationReason::is_budget_trip)
    }

    /// Truth value of a ground atom under `WFS(D, Σ)`.
    ///
    /// Atoms outside the segment are **false** (no forward proof within the
    /// materialized part of `F⁺(P)`, exact or depth-justified) — unless the
    /// chase was stopped by a budget trip, where an unmaterialized atom
    /// might simply not have been reached yet and reads `Unknown`.
    pub fn value(&self, atom: AtomId) -> Truth {
        if self.segment.contains(atom) {
            self.result.value(atom)
        } else {
            self.unseen()
        }
    }

    /// The verdict of every atom outside the segment, never-interned ones
    /// included: `False`, or `Unknown` when a budget trip stopped the chase
    /// (see [`WellFoundedModel::value`]).
    pub fn unseen(&self) -> Truth {
        if self.chase_budget_tripped() {
            Truth::Unknown
        } else {
            Truth::False
        }
    }

    /// `atom ∈ WFS(D,Σ)`.
    pub fn is_true(&self, atom: AtomId) -> bool {
        self.value(atom).is_true()
    }

    /// `¬atom ∈ WFS(D,Σ)`.
    pub fn is_false(&self, atom: AtomId) -> bool {
        self.value(atom).is_false()
    }

    /// Number of engine stages to the fixpoint: for the modular engine,
    /// the number of dependency components processed.
    pub fn stages(&self) -> u32 {
        self.result.stages
    }

    /// The stage at which the modular engine decided `atom`: the emission
    /// ordinal + 1 of its component, read off the engine's memo. `None` for
    /// an undecided atom, an atom outside the ground program, and every
    /// atom of a model whose engine did not finish — a chase stopped by a
    /// budget trip (no engine ran) or a sweep stopped by one (no memo).
    /// Stages are monotone along derivations but are not the `W_P` stages
    /// of Example 9; `wfdl-reference`'s oracles count those.
    pub fn stage_of(&self, atom: AtomId) -> Option<u32> {
        self.result
            .memo
            .as_ref()?
            .stage(self.ground.local_id(atom)?)
    }

    /// Per-component statistics, when the modular engine produced the
    /// result (`None` for a chase stopped by a budget trip, where no
    /// engine ran).
    pub fn component_stats(&self) -> Option<ModularStats> {
        self.result.stats
    }

    /// Iterates over the true atoms of the model.
    pub fn true_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.result.interp.true_atoms()
    }

    /// Iterates over segment atoms whose value is unknown (undefined).
    pub fn unknown_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.segment
            .atoms()
            .iter()
            .map(|sa| sa.atom)
            .filter(|&a| self.result.value(a).is_unknown())
    }

    /// Counts `(true, false-in-segment, unknown)` over segment atoms.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut t = 0;
        let mut f = 0;
        let mut u = 0;
        for sa in self.segment.atoms() {
            match self.result.value(sa.atom) {
                Truth::True => t += 1,
                Truth::False => f += 1,
                Truth::Unknown => u += 1,
            }
        }
        (t, f, u)
    }

    /// Renders the true atoms (non-auxiliary predicates) sorted, one per
    /// line — handy in examples and tests.
    pub fn render_true(&self, universe: &Universe) -> String {
        let mut lines: Vec<String> = self
            .true_atoms()
            .filter(|&a| !universe.pred_info(universe.atoms.pred(a)).auxiliary)
            .map(|a| universe.display_atom(a).to_string())
            .collect();
        lines.sort();
        lines.join("\n")
    }
}

impl wfdl_query::TruthSource for WellFoundedModel {
    fn value(&self, atom: AtomId) -> Truth {
        WellFoundedModel::value(self, atom)
    }

    fn unseen(&self) -> Truth {
        WellFoundedModel::unseen(self)
    }

    fn certain_atoms(&self) -> Vec<AtomId> {
        self.true_atoms().collect()
    }

    /// In ascending id order, like [`WellFoundedModel::true_atoms`]: the
    /// ground program's atom list covers the segment, in id order within
    /// each extension (a resume may mention an atom interned before the
    /// previous program's last one).
    fn possible_atoms(&self) -> Vec<AtomId> {
        let mut atoms: Vec<AtomId> = (self.ground.atoms().iter().copied())
            .filter(|&a| self.segment.contains(a) && !self.result.value(a).is_false())
            .collect();
        atoms.sort_unstable();
        atoms
    }
}

/// How a solve was produced — observability for the incremental re-solve
/// path of the compile → solve → serve lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// True iff the solve extended a previous model
    /// ([`SolveRequest::base`]) instead of the empty one.
    pub incremental: bool,
    /// Dependency components whose verdicts were carried over from the
    /// previous solve instead of evaluated.
    pub components_reused: usize,
    /// Dependency components the engine evaluated.
    pub components_evaluated: usize,
    /// Atoms the engine condensed: all of them for a full solve, the
    /// delta's forward cone for a resumed one.
    pub cone_atoms: usize,
    /// Always `1`. Accepted and ignored for the frozen benchmark; removed
    /// by the benchmark issue that drops `cold_solve_auto_s`.
    #[doc(hidden)]
    pub threads: usize,
    /// Nanoseconds in the chase: the base's segment, or the empty one,
    /// resumed with the new facts (a slice's cut included).
    pub chase_ns: u64,
    /// Nanoseconds extracting (or extending) the ground program.
    pub ground_ns: u64,
    /// Nanoseconds in the modular engine.
    pub engine_ns: u64,
    /// Nanoseconds building (or patching) the model's atom index; filled
    /// in by the façade, which owns it.
    pub index_ns: u64,
    /// True iff the solve was restricted to a query-relevant program
    /// slice ([`SolveRequest::slice`]).
    pub sliced: bool,
    /// Heap bytes of the new model's chase segment and ground program
    /// that it holds alone: what the solve allocated and copied. All of
    /// them for a solve from scratch. Filled in by the façade.
    pub owned_bytes: usize,
    /// Heap bytes of the new model's chase segment and ground program that
    /// it shares, chunk for chunk, with the model it resumed (`0` for a
    /// solve from scratch): what a resume did not copy. Filled in by the
    /// façade.
    pub shared_bytes: usize,
}

/// One solve, fully described: the argument of [`solve_request`].
///
/// Every solve extends a model by facts. A solve from scratch extends the
/// empty model by every fact of `D`; a resumed one extends a previous
/// model by an insert-only delta `Δ`, computing `WFS(D ∪ Δ, Σf)` without
/// re-chasing `D`: the chase continues from the previous segment's
/// frontier, the ground program is extended with the delta's atoms, facts
/// and instances, the previous verdicts are carried over, and only the
/// delta's forward cone is condensed and evaluated again
/// ([`ModularEngine::solve_incremental`]).
#[derive(Clone, Copy, Debug)]
pub struct SolveRequest<'a> {
    /// The skolemized program `Σf` (constraints already lowered).
    pub program: &'a SkolemProgram,
    /// Chase limits.
    pub options: WfsOptions,
    /// Violation predicates of the lowered constraints
    /// ([`lower_with_constraints`]); their truth is reported in
    /// [`SolveOutput::constraint_status`].
    pub violations: &'a [PredId],
    /// Runtime resource limits: the chase checks them at round boundaries
    /// and the engine at component boundaries. On a trip the model
    /// reports a truncated [`WellFoundedModel::outcome`] and degrades
    /// soundly (see [`WellFoundedModel::value`]).
    pub budget: &'a SolveBudget,
    /// The model this solve extends; `None` for the empty model.
    ///
    /// Preconditions (the façade's `KnowledgeBase` enforces them): the
    /// base was solved over the same universe with the same program, slice
    /// and options. A base can refuse: a cap-truncated segment does not
    /// resume (continuation would not equal a from-scratch chase), and the
    /// caller asks again without it.
    pub base: Option<&'a WellFoundedModel>,
    /// The facts to add: ground, null-free, interned and new — every
    /// database fact over the empty model, the delta over a base.
    pub new_facts: &'a [AtomId],
    /// Goal-directed: a **relevance-closed** predicate slice (indexed by
    /// [`PredId`]), as `wfdl-analyze`'s `ProgramSlice` computes it from a
    /// query's goal predicates; `None` solves the whole program.
    ///
    /// The solve chases the sliced program — the rules whose head is in
    /// the slice, in order — over the in-slice facts, in order. Because
    /// the slice is relevance-closed (it follows both positive and
    /// negative dependency edges), that is a smaller program with the same
    /// verdicts: every in-slice atom gets the one the full solve would
    /// assign, at the same chase depth. Two caveats the caller must enforce
    /// (the façade's `SolvedModel` slice guard does):
    ///
    /// * atoms over **out-of-slice** predicates were never chased — the
    ///   model's `value()` reads them `False`, which is only meaningful
    ///   for in-slice atoms. Queries must be checked against the slice.
    /// * constraints are not goal-directed: a violation predicate outside
    ///   the slice reports [`Truth::Unknown`] (its rules never fired, so
    ///   neither verdict would be sound).
    pub slice: Option<&'a [bool]>,
}

/// Everything one solve produces, packaged for the serve stage: the model
/// plus the truth of each lowered constraint's violation marker, computed
/// while the universe is still mutable (the markers are nullary atoms that
/// may need interning). After this returns, nothing on the serving path
/// needs `&mut Universe` again.
#[derive(Debug)]
pub struct SolveOutput {
    /// The well-founded model.
    pub model: WellFoundedModel,
    /// Truth of each constraint's violation marker, in `violations` order.
    pub constraint_status: Vec<Truth>,
    /// How the model was produced. `sliced` is set for a
    /// [`SolveRequest::slice`]; the slice's component counts are left `0`
    /// for the slice-computing caller to fill.
    pub stats: SolveStats,
}

/// The solve stage of the compile → solve → serve lifecycle: chase (the
/// base's segment, or the empty one, resumed with the new facts), ground,
/// run the modular engine, evaluate the constraints.
///
/// # Errors
///
/// Returns [`ResumeError`] when the base's segment refuses to resume. The
/// empty model never does.
pub fn solve_request(
    universe: &mut Universe,
    request: SolveRequest<'_>,
) -> Result<SolveOutput, ResumeError> {
    let chase_start = Instant::now();
    let sliced = (request.slice).map(|mask| slice_of(universe, &request, mask));
    let (program, new_facts) = match &sliced {
        Some((program, facts)) => (program, facts.as_slice()),
        None => (request.program, request.new_facts),
    };
    let empty = ChaseSegment::empty(request.options.budget);
    let base = request.base.map_or(&empty, |base| &base.segment);
    let segment = base.resume_budgeted(universe, program, new_facts, request.budget)?;
    let chase_ns = chase_start.elapsed().as_nanos() as u64;
    let (model, ground_ns, engine_ns) = finish_model(segment, request.base, request.budget);
    let constraint_status = constraint_status(universe, &model, request.violations, request.slice);
    let modular = model.result.stats.unwrap_or_default();
    let stats = SolveStats {
        incremental: request.base.is_some(),
        components_reused: modular.components_reused,
        components_evaluated: modular.components_evaluated,
        cone_atoms: modular.cone_atoms,
        threads: 1,
        sliced: request.slice.is_some(),
        chase_ns,
        ground_ns,
        engine_ns,
        ..SolveStats::default()
    };
    Ok(SolveOutput {
        model,
        constraint_status,
        stats,
    })
}

/// The sliced program of `request` — the rules whose head predicate is in
/// `mask`, in order — and its in-slice new facts, in order. The chase of
/// the two is the full chase over the slice's predicates: the same atoms,
/// ids, minima and instance order, with each instance's source rule
/// numbered in the sliced program.
fn slice_of(
    universe: &Universe,
    request: &SolveRequest<'_>,
    mask: &[bool],
) -> (SkolemProgram, Vec<AtomId>) {
    let in_slice = |p: PredId| mask.get(p.index()).copied().unwrap_or(false);
    let rules = (request.program.rules.iter())
        .filter(|rule| in_slice(rule.head_pred))
        .cloned()
        .collect();
    let facts = (request.new_facts.iter().copied())
        .filter(|&fact| in_slice(universe.atoms.pred(fact)))
        .collect();
    (SkolemProgram { rules }, facts)
}

/// Only a request with a base can be refused.
fn not_a_resume(output: Result<SolveOutput, ResumeError>) -> SolveOutput {
    match output {
        Ok(output) => output,
        Err(e) => unreachable!("no segment was resumed: {e}"),
    }
}

/// Computes `WFS(D, Σf)` on a budgeted chase segment: [`solve_request`]
/// from the empty model, without constraints or runtime limits.
pub fn solve(
    universe: &mut Universe,
    db: &Database,
    program: &SkolemProgram,
    options: WfsOptions,
) -> WellFoundedModel {
    not_a_resume(solve_request(
        universe,
        SolveRequest {
            program,
            options,
            violations: &[],
            budget: &SolveBudget::unlimited(),
            base: None,
            new_facts: db.facts(),
            slice: None,
        },
    ))
    .model
}

/// [`solve_request`] extending `prev` by `new_facts`, without constraints
/// or runtime limits.
///
/// # Errors
///
/// Returns [`ResumeError`] when `prev`'s segment refuses to resume.
pub fn solve_resumed(
    universe: &mut Universe,
    prev: &WellFoundedModel,
    program: &SkolemProgram,
    new_facts: &[AtomId],
    options: WfsOptions,
) -> Result<(WellFoundedModel, SolveStats), ResumeError> {
    let output = solve_request(
        universe,
        SolveRequest {
            program,
            options,
            violations: &[],
            budget: &SolveBudget::unlimited(),
            base: Some(prev),
            new_facts,
            slice: None,
        },
    )?;
    Ok((output.model, output.stats))
}

/// [`solve_request`] over the slice `pred_mask`, from the empty model.
///
/// The last argument is accepted and unused: a sliced solve once composed
/// with a previous model's per-component memo, which lost to solving the
/// slice cold. The claims benchmark calls this signature; the parameter
/// goes when a benchmark issue drops it there.
#[allow(clippy::too_many_arguments)]
pub fn solve_sliced_packaged_budgeted(
    universe: &mut Universe,
    db: &Database,
    program: &SkolemProgram,
    options: WfsOptions,
    violations: &[PredId],
    solve_budget: &SolveBudget,
    pred_mask: &[bool],
    _unused: Option<&WellFoundedModel>,
) -> SolveOutput {
    not_a_resume(solve_request(
        universe,
        SolveRequest {
            program,
            options,
            violations,
            budget: solve_budget,
            base: None,
            new_facts: db.facts(),
            slice: Some(pred_mask),
        },
    ))
}

/// Shared tail of every solve: ground the segment and run the modular
/// engine; returns the model with the nanoseconds each of the two took.
///
/// `prev` is the model whose segment this one resumed, if any: its ground
/// program is extended with the delta instead of re-translating the
/// inherited bulk, and its verdicts are carried over.
///
/// A chase stopped by a *budget trip* never sees the engine: over an
/// arbitrarily interrupted segment, "no deriving instance" proves nothing
/// (the missing derivations may simply not have been chased yet), so the
/// well-founded negation-as-failure step would be unsound in both
/// directions. The model degrades to the **positive closure** — atoms
/// derivable through negation-free instances from the facts, which are true
/// in *every* completion of the chase — and everything else reads
/// `Unknown`. Depth/cap truncations keep the historical depth-approximation
/// semantics (full engine run, `exact == false`).
fn finish_model(
    segment: ChaseSegment,
    prev: Option<&WellFoundedModel>,
    solve_budget: &SolveBudget,
) -> (WellFoundedModel, u64, u64) {
    let ground_start = Instant::now();
    let ground = match prev {
        Some(p) => segment.to_ground_program_from(&p.ground),
        None => segment.to_ground_program(),
    };
    let engine_start = Instant::now();
    let chase_trunc = segment.truncation();
    let result = if chase_trunc.is_some_and(TruncationReason::is_budget_trip) {
        positive_closure_result(&ground)
    } else {
        ModularEngine::new(&ground)
            .with_budget(solve_budget.clone())
            .solve_incremental(prev.map(|p| (&p.ground, &p.result)))
    };
    let done = Instant::now();
    let exact = segment.complete;
    let outcome = match chase_trunc
        .filter(|r| r.is_budget_trip())
        .or(result.truncation)
    {
        Some(r) => SolveOutcome::Truncated(r),
        None => {
            if exact {
                SolveOutcome::Complete
            } else {
                SolveOutcome::Truncated(chase_trunc.unwrap_or(TruncationReason::DepthCap))
            }
        }
    };
    let model = WellFoundedModel {
        segment,
        ground,
        result,
        exact,
        outcome,
    };
    (
        model,
        (engine_start - ground_start).as_nanos() as u64,
        (done - engine_start).as_nanos() as u64,
    )
}

/// Least fixpoint of the **negation-free** ground instances from the facts:
/// the atoms certainly true in every extension of a budget-interrupted
/// chase. Everything else is left `Unknown` — the sound degraded model.
fn positive_closure_result(ground: &GroundProgram) -> EngineResult {
    let n = ground.num_atoms();
    let mut tru = vec![false; n];
    let mut queue: Vec<u32> = Vec::new();
    for &f in ground.facts_local() {
        if !std::mem::replace(&mut tru[f as usize], true) {
            queue.push(f);
        }
    }
    // Countdown of undecided positive-body literals per negation-free rule;
    // a rule fires when it reaches zero. Rules with negative literals never
    // fire here by construction.
    let nrules = ground.num_rules();
    let mut missing: Vec<u32> = Vec::with_capacity(nrules);
    for r in 0..nrules {
        if ground.neg_local(r).is_empty() {
            missing.push(ground.pos_local(r).len() as u32);
        } else {
            missing.push(u32::MAX);
        }
    }
    // Empty-body rules fire immediately.
    for (r, m) in missing.iter().enumerate() {
        if *m == 0 {
            let h = ground.head_local(r);
            if !std::mem::replace(&mut tru[h as usize], true) {
                queue.push(h);
            }
        }
    }
    while let Some(a) = queue.pop() {
        for &rid in ground.rules_with_pos_local(a) {
            let r = rid.index();
            if missing[r] == u32::MAX {
                continue;
            }
            // Bodies are in the `GroundRule` normal form — sorted, each atom
            // at most once — so `a` is one countdown slot of `r`, and one
            // decrement keeps the count exact as each atom enters the queue
            // once.
            missing[r] -= 1;
            if missing[r] == 0 {
                missing[r] = u32::MAX; // fired
                let h = ground.head_local(r);
                if !std::mem::replace(&mut tru[h as usize], true) {
                    queue.push(h);
                }
            }
        }
    }
    let mut interp = Interp::with_capacity(n);
    for (local, &t) in tru.iter().enumerate() {
        if t {
            interp.set_true(ground.atom_of_local(local as u32));
        }
    }
    EngineResult {
        interp,
        stages: 1,
        stats: None,
        memo: None,
        truncation: None,
        cone: None,
    }
}

/// Lowers a [`Program`]'s negative constraints into rules deriving fresh
/// nullary violation predicates, returning the skolemized program together
/// with the violation predicate of each constraint (in order).
pub fn lower_with_constraints(
    universe: &mut Universe,
    program: &Program,
) -> Result<(SkolemProgram, Vec<PredId>), CoreError> {
    let mut combined = Program {
        tgds: program.tgds.clone(),
        constraints: Vec::new(),
    };
    let mut violation_preds = Vec::with_capacity(program.constraints.len());
    for (i, c) in program.constraints.iter().enumerate() {
        let base = match &c.label {
            Some(l) => format!("violated_{l}"),
            None => format!("violated_{i}"),
        };
        let bot = universe.aux_pred(&base, 0);
        violation_preds.push(bot);
        let mut tgd = Tgd::new(
            universe,
            c.body_pos.clone(),
            c.body_neg.clone(),
            vec![RuleAtom::new(bot, Vec::new())],
        )?;
        if let Some(span) = c.span() {
            tgd = tgd.with_span(span);
        }
        combined.tgds.push(tgd);
    }
    let skolemized = combined.skolemize(universe)?;
    Ok((skolemized, violation_preds))
}

/// Truth of each lowered constraint's violation atom in a model:
/// `True` = surely violated, `Unknown` = possibly violated, `False` = safe.
///
/// `pred_mask` is the slice of a slice-restricted model (`None` for a full
/// one): a constraint whose violation predicate is **outside** the slice
/// was not solved — its rules never fired — so it reports
/// [`Truth::Unknown`] (reading the model would yield a spurious `False`).
/// Violation predicates are nullary markers no rule body reads, so in
/// practice every constraint is `Unknown` under a sliced solve unless its
/// marker was named a goal.
pub fn constraint_status(
    universe: &mut Universe,
    model: &WellFoundedModel,
    violation_preds: &[PredId],
    pred_mask: Option<&[bool]>,
) -> Vec<Truth> {
    violation_preds
        .iter()
        .map(|&p| {
            if pred_mask.is_some_and(|mask| !mask.get(p.index()).copied().unwrap_or(false)) {
                return Truth::Unknown;
            }
            // Constraint lowering registers every violation pred as
            // nullary, so the empty-args interning cannot fail.
            #[allow(clippy::expect_used)]
            let atom = universe.atom(p, Vec::new()).expect("nullary");
            model.value(atom)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_chase::paper::example4;

    #[test]
    fn all_engines_agree_on_example4() {
        use wfdl_reference::{AlternatingEngine, ForwardEngine, StepMode, WpEngine};
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let reference = solve(&mut u, &db, &prog, WfsOptions::depth(6));
        let oracles = [
            (
                "wp",
                WpEngine::new(&reference.ground).solve(StepMode::Accelerated),
            ),
            (
                "wp-literal",
                WpEngine::new(&reference.ground).solve(StepMode::Literal),
            ),
            (
                "alternating",
                AlternatingEngine::new(&reference.ground).solve(),
            ),
            ("forward", ForwardEngine::new(&reference.segment).solve()),
        ];
        for (name, oracle) in &oracles {
            for sa in reference.segment.atoms() {
                assert_eq!(
                    reference.value(sa.atom),
                    oracle.value(sa.atom),
                    "engine {name} disagrees on {}",
                    u.display_atom(sa.atom)
                );
            }
        }
    }

    #[test]
    fn example4_key_verdicts() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(&mut u, &db, &prog, WfsOptions::depth(8));
        let t = u.lookup_pred("T").unwrap();
        let s = u.lookup_pred("S").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let t0 = u.atom(t, vec![zero]).unwrap();
        let s0 = u.atom(s, vec![zero]).unwrap();
        assert!(model.is_true(t0));
        assert!(model.is_false(s0));
        // A completely foreign atom is false (no forward proof).
        let q = u.lookup_pred("Q").unwrap();
        let q0 = u.atom(q, vec![zero]).unwrap();
        assert!(model.is_false(q0));
        assert!(!model.exact, "Example 4 chase is infinite");
    }

    #[test]
    fn constraints_lowered_and_reported() {
        use wfdl_core::{Constraint, RTerm, Var};
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let x = RTerm::Var(Var::new(0));
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, vec![x])],
                vec![],
                vec![RuleAtom::new(q, vec![x])],
            )
            .unwrap(),
        );
        // Constraint: p(X), q(X) -> ⊥ (will be violated).
        prog.push_constraint(
            Constraint::new(
                &u,
                vec![RuleAtom::new(p, vec![x]), RuleAtom::new(q, vec![x])],
                vec![],
            )
            .unwrap(),
        );
        // Constraint: q(X), not p(X) -> ⊥ (safe).
        prog.push_constraint(
            Constraint::new(
                &u,
                vec![RuleAtom::new(q, vec![x])],
                vec![RuleAtom::new(p, vec![x])],
            )
            .unwrap(),
        );
        let (sk, viols) = lower_with_constraints(&mut u, &prog).unwrap();
        let mut db = Database::new();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        db.insert(&u, pc).unwrap();
        let model = solve(&mut u, &db, &sk, WfsOptions::unbounded());
        let status = constraint_status(&mut u, &model, &viols, None);
        assert_eq!(status, vec![Truth::True, Truth::False]);
    }

    #[test]
    fn counts_and_render() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(&mut u, &db, &prog, WfsOptions::depth(5));
        let (t, f, unk) = model.counts();
        assert!(t > 0 && f > 0);
        assert_eq!(unk, 0, "example 4 has a total well-founded model");
        let rendered = model.render_true(&u);
        assert!(rendered.contains("T(0)"));
        assert!(!rendered.contains("S(0)"));
    }
}
