//! Model-based test of the `KnowledgeBase` state machine.
//!
//! Random sequences of mutations (`insert`, `retract`, `add_source` with
//! facts only / rules / queries only), solves (`solve`, `solve_with` under
//! a changed depth, `solve_for`), injected budget trips and
//! panics on both solve paths, and `analyze` calls. After **every** step the
//! knowledge base is compared with a from-scratch one that replays only the
//! *net* program — the rule and query sources in order, the surviving facts
//! in one batch, no intermediate solve — so the oracle only ever takes the
//! first-full-solve path:
//!
//! * every step: the stored facts and `analyze().to_json`;
//! * every step that returns a model: rendered true and unknown atoms,
//!   `constraint_status`, the source queries' answers, outcome — or, for a
//!   budget-truncated model, soundness at the atom level (its certain atoms
//!   are certain in the oracle's model) and at the query level (what it
//!   answers or refutes, the oracle's model answers or refutes);
//! * the cache contract: the epoch moves by exactly one per solve that ran
//!   and stays put on cache hits and queries-only repackagings (which share
//!   the underlying model), `solve_stats().incremental` only when a resume
//!   was legal, a budget-truncated model is never handed out twice, and
//!   `solve_for` never disturbs any of it — it solves its slice exactly
//!   when no current, untruncated full model is there to answer from;
//! * published models stay frozen: a resume shares the chunks of the
//!   model it extends, so the last eight models handed out are kept with
//!   the rendering they had then — verdicts, answers, the chase segment
//!   and the ground program — and re-rendered after every later step.

// Test code: panicking on a broken invariant IS the failure signal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use proptest::prelude::*;
use wfdatalog::{Error, FactBatch, KnowledgeBase, SolveBudget, SolvedModel, Truth, WfsOptions};
use wfdl_core::budget::{FaultKind, FaultPlan, FaultSite};

/// Rules every knowledge base starts with: a negation-recursive win–move
/// core, a stratified cone, an independent flip/flop cone (so slices are
/// proper subsets) and one constraint. No existentials — the automatic
/// chase budget flips to depth 12 only once [`RULES`]`[0]` is added.
const BASE: &str = "
    edge(X,Y), not win(Y) -> win(X).
    edge(X,Y) -> reach(X,Y).
    node(X), not reach(X,X) -> acyclic(X).
    pick(X), not flop(X) -> flip(X).
    pick(X), not flip(X) -> flop(X).
    win(X), pick(X) -> false.
";

/// Rule sources `add_source` draws from (each may be added repeatedly).
const RULES: [&str; 6] = [
    "node(X) -> link(X,Y). link(X,Y) -> node(Y).",
    "reach(X,Y) -> connected(X).",
    "node(X), not pick(X) -> plain(X).",
    "flip(X), not win(X) -> odd(X).",
    "plain(X), pick(X) -> false.",
    "pick(X) -> owns(X,Y).",
];

/// Query sources, for `add_source` and for `solve_for`.
const QUERIES: [&str; 7] = [
    "?- win(c0).",
    "?(X) win(X).",
    "?(X) flip(X).",
    "?(X,Y) reach(X,Y).",
    "?(X) node(X), not win(X).",
    "?(X) plain(X).",
    "?(X) link(X,Y).",
];

const CONSTANTS: usize = 5;
/// `edge/2` over all constant pairs, then `node/1`, then `pick/1`.
const FACTS: usize = CONSTANTS * CONSTANTS + 2 * CONSTANTS;

const SITES: [FaultSite; 4] = [
    FaultSite::ChaseRound(0),
    FaultSite::ChaseRound(1),
    FaultSite::ChaseMerge(1),
    FaultSite::WfsComponent(0),
];
const KINDS: [FaultKind; 4] = [
    FaultKind::TripDeadline,
    FaultKind::TripMem,
    FaultKind::TripCancel,
    FaultKind::Panic,
];

/// `(predicate, arguments)` of fact number `f`.
fn fact(f: usize) -> (&'static str, Vec<String>) {
    let c = |i: usize| format!("c{i}");
    let pairs = CONSTANTS * CONSTANTS;
    if f < pairs {
        ("edge", vec![c(f / CONSTANTS), c(f % CONSTANTS)])
    } else if f < pairs + CONSTANTS {
        ("node", vec![c(f - pairs)])
    } else {
        ("pick", vec![c(f - pairs - CONSTANTS)])
    }
}

fn tsv(facts: &[usize]) -> String {
    facts
        .iter()
        .map(|&f| {
            let (pred, args) = fact(f);
            format!("{pred}\t{}\n", args.join("\t"))
        })
        .collect()
}

fn fact_source(facts: &[usize]) -> String {
    facts
        .iter()
        .map(|&f| {
            let (pred, args) = fact(f);
            format!("{pred}({}). ", args.join(","))
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<usize>),
    Retract(Vec<usize>),
    AddFacts(Vec<usize>),
    AddRule(usize),
    AddQuery(usize),
    Solve,
    /// `solve_with` under an explicit depth.
    SolveWith(u32),
    SolveFor(usize),
    /// `try_solve` with a fault planted (`SITES` × `KINDS`).
    FaultedSolve(usize, usize),
    /// `solve_for` with a fault planted.
    FaultedSolveFor(usize, usize, usize),
    /// `analyze` twice: the second call must be a cache hit.
    Analyze,
}

fn op() -> impl Strategy<Value = Op> {
    let facts = || proptest::collection::vec(0..FACTS, 1..4);
    let fault = || (0..SITES.len(), 0..KINDS.len());
    prop_oneof![
        facts().prop_map(Op::Insert),
        facts().prop_map(Op::Insert),
        facts().prop_map(Op::Retract),
        facts().prop_map(Op::AddFacts),
        (0..RULES.len()).prop_map(Op::AddRule),
        (0..QUERIES.len()).prop_map(Op::AddQuery),
        Just(Op::Solve),
        Just(Op::Solve),
        Just(Op::Solve),
        prop_oneof![Just(2u32), Just(4), Just(12)].prop_map(Op::SolveWith),
        (0..QUERIES.len()).prop_map(Op::SolveFor),
        (0..QUERIES.len()).prop_map(Op::SolveFor),
        fault().prop_map(|(s, k)| Op::FaultedSolve(s, k)),
        (0..QUERIES.len(), fault()).prop_map(|(q, (s, k))| Op::FaultedSolveFor(q, s, k)),
        Just(Op::Analyze),
    ]
}

/// Everything the oracle comparison reads off a model, order-independent.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    certain: String,
    unknown: Vec<String>,
    constraints: Vec<Truth>,
    answers: Vec<String>,
    outcome: String,
}

fn answer_lines(model: &SolvedModel, q: &wfdatalog::PreparedQuery) -> String {
    if q.is_boolean() {
        return model.ask3_prepared(q).to_string();
    }
    let mut tuples: Vec<String> = model
        .answers_prepared(q)
        .tuples()
        .map(|t| {
            t.iter()
                .map(|&x| model.universe().display_term(x).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    tuples.sort();
    tuples.join(";")
}

fn observe(model: &SolvedModel) -> Observed {
    let mut unknown: Vec<String> = model
        .model()
        .unknown_atoms()
        .map(|a| model.universe().display_atom(a).to_string())
        .collect();
    unknown.sort();
    Observed {
        certain: model.render_true(),
        unknown,
        constraints: model.constraint_status().to_vec(),
        answers: model
            .source_queries()
            .iter()
            .map(|q| answer_lines(model, q))
            .collect(),
        outcome: model.outcome().to_string(),
    }
}

/// Spelled out rather than `SolveOutcome::is_budget_trip` so this file also
/// compiles against the façade it was first validated on (commit 467739b).
fn budget_tripped(model: &SolvedModel) -> bool {
    let truncation = model.outcome().truncation();
    truncation.is_some_and(|r| r.is_budget_trip())
}

/// Soundness of a budget-truncated model: whatever it holds certain is
/// certain in the complete model.
fn certain_atoms_are_sound(
    truncated: &SolvedModel,
    complete: &SolvedModel,
) -> Result<(), TestCaseError> {
    let complete = complete.render_true();
    let complete: BTreeSet<&str> = complete.lines().collect();
    for line in truncated.render_true().lines() {
        prop_assert!(
            complete.contains(line),
            "{line} certain only when truncated"
        );
    }
    Ok(())
}

/// Query-level soundness of a budget-truncated model: every answer it
/// gives is an answer, and a verdict it commits to is the verdict.
fn query_is_sound(
    truncated: &SolvedModel,
    complete: &SolvedModel,
    query: &str,
) -> Result<(), TestCaseError> {
    let q = truncated.prepare(query).unwrap();
    let cq = complete.prepare(query).unwrap();
    let answers = answer_lines(complete, &cq);
    let answers: BTreeSet<&str> = answers.split(';').collect();
    if !q.is_boolean() {
        for tuple in answer_lines(truncated, &q)
            .split(';')
            .filter(|t| !t.is_empty())
        {
            prop_assert!(
                answers.contains(tuple),
                "{tuple} answers {query} only when truncated"
            );
        }
    }
    let verdict = truncated.ask3_prepared(&q);
    prop_assert!(
        verdict.is_unknown() || verdict == complete.ask3_prepared(&cq),
        "{query} is {verdict} only when truncated"
    );
    Ok(())
}

/// Everything a model's readers can see, rendered: its observations, its
/// chase segment (atoms with depth and level, instances), its ground
/// program's rules, and where each atom of its universe sits in both and
/// the stage its engine decided it at.
fn frozen_view(model: &SolvedModel) -> String {
    let (m, u) = (model.model(), model.universe());
    let mut out = format!("{:?}\n", observe(model));
    for sa in m.segment.atoms() {
        writeln!(out, "{} {} {}", u.display_atom(sa.atom), sa.depth, sa.level).unwrap();
    }
    for i in m.segment.instance_ids() {
        writeln!(out, "{:?}", m.segment.instance(i)).unwrap();
    }
    for rule in m.ground.rules() {
        writeln!(out, "{rule:?}").unwrap();
    }
    for a in (0..u.atoms.len()).map(wfdl_core::AtomId::from_index) {
        let (seg, local) = (m.segment.seg_id(a), m.ground.local_id(a));
        let stage = m.stage_of(a);
        writeln!(out, "{} {seg:?} {local:?} {stage:?}", u.display_atom(a)).unwrap();
    }
    out
}

/// How many of the models handed out the harness keeps re-rendering.
const KEPT: usize = 8;

fn rendered_facts(kb: &KnowledgeBase) -> BTreeSet<String> {
    kb.database()
        .facts()
        .iter()
        .map(|&f| kb.universe().display_atom(f).to_string())
        .collect()
}

/// The knowledge base under test plus what an outside observer can know
/// about its caches.
struct Harness {
    kb: KnowledgeBase,
    /// Net program: rule and query sources in the order they were added…
    sources: Vec<&'static str>,
    /// …and the facts that survive.
    facts: BTreeSet<usize>,
    /// The model the last full solve returned, with its options.
    last: Option<(WfsOptions, Arc<SolvedModel>)>,
    /// Facts or rules changed since `last`, or `last` is budget-truncated,
    /// or a full solve panicked: the next full solve must run.
    model_dirty: bool,
    /// Queries were added since `last`.
    queries_dirty: bool,
    /// Options under which the next full solve may legally resume.
    resume_basis: Option<WfsOptions>,
    epoch: u64,
    /// Every budget-truncated model handed out so far.
    truncated: Vec<Arc<SolvedModel>>,
    /// The last [`KEPT`] models handed out, with their rendering then.
    handed: VecDeque<(Arc<SolvedModel>, String)>,
}

impl Harness {
    fn new() -> Harness {
        Harness {
            kb: KnowledgeBase::from_source(BASE).unwrap(),
            sources: Vec::new(),
            facts: BTreeSet::new(),
            last: None,
            model_dirty: false,
            queries_dirty: false,
            resume_basis: None,
            epoch: 0,
            truncated: Vec::new(),
            handed: VecDeque::new(),
        }
    }

    /// Keeps `model` with its rendering, dropping the oldest kept one.
    fn keep(&mut self, model: &Arc<SolvedModel>) {
        if self.handed.len() == KEPT {
            self.handed.pop_front();
        }
        self.handed
            .push_back((Arc::clone(model), frozen_view(model)));
    }

    /// A knowledge base that never saw anything but the net program.
    fn oracle(&self) -> KnowledgeBase {
        let mut kb = KnowledgeBase::from_source(BASE).unwrap();
        for src in &self.sources {
            kb.add_source(src).unwrap();
        }
        let facts: Vec<usize> = self.facts.iter().copied().collect();
        kb.insert_tsv(&tsv(&facts)).unwrap();
        kb
    }

    fn plant(&mut self, site: usize, kind: usize) {
        self.kb
            .set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
                site: SITES[site],
                kind: KINDS[kind],
            }));
    }

    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match op {
            Op::Insert(fs) => {
                if self.kb.insert_tsv(&tsv(fs)).unwrap() > 0 {
                    self.model_dirty = true;
                }
                self.facts.extend(fs);
            }
            Op::Retract(fs) => {
                let mut batch = FactBatch::new();
                for &f in fs {
                    let (pred, args) = fact(f);
                    let args: Vec<&str> = args.iter().map(String::as_str).collect();
                    batch
                        .relation(self.kb.universe_mut(), pred, args.len())
                        .unwrap()
                        .push(&args)
                        .unwrap();
                }
                if self.kb.retract(batch) > 0 {
                    self.model_dirty = true;
                    self.resume_basis = None;
                }
                for f in fs {
                    self.facts.remove(f);
                }
            }
            Op::AddFacts(fs) => {
                let before = self.kb.database().len();
                self.kb.add_source(&fact_source(fs)).unwrap();
                if self.kb.database().len() > before {
                    self.model_dirty = true;
                }
                self.facts.extend(fs);
            }
            Op::AddRule(r) => {
                self.kb.add_source(RULES[*r]).unwrap();
                self.sources.push(RULES[*r]);
                self.model_dirty = true;
                self.resume_basis = None;
            }
            Op::AddQuery(q) => {
                self.kb.add_source(QUERIES[*q]).unwrap();
                self.sources.push(QUERIES[*q]);
                self.queries_dirty = true;
            }
            Op::Solve => {
                let options = self.kb.effective_options();
                let model = self.kb.solve();
                self.check_full(options, &model)?;
            }
            Op::SolveWith(depth) => {
                let options = WfsOptions::depth(*depth);
                let model = self.kb.solve_with(options);
                self.check_full(options, &model)?;
            }
            Op::SolveFor(q) => {
                let model = self.kb.solve_for(QUERIES[*q]).unwrap();
                self.check_sliced(QUERIES[*q], &model)?;
            }
            Op::FaultedSolve(site, kind) => {
                self.plant(*site, *kind);
                let options = self.kb.effective_options();
                let result = self.kb.try_solve();
                self.kb.set_solve_budget(SolveBudget::unlimited());
                match result {
                    Ok(model) => self.check_full(options, &model)?,
                    Err(Error::EnginePanic(msg)) => {
                        prop_assert!(matches!(KINDS[*kind], FaultKind::Panic), "{msg}");
                        // The partial solve is gone: recompute from scratch.
                        self.last = None;
                        self.model_dirty = true;
                        self.resume_basis = None;
                    }
                    Err(other) => prop_assert!(false, "unexpected error: {other}"),
                }
            }
            Op::FaultedSolveFor(q, site, kind) => {
                self.plant(*site, *kind);
                let result = self.kb.solve_for(QUERIES[*q]);
                self.kb.set_solve_budget(SolveBudget::unlimited());
                match result {
                    Ok(model) => self.check_sliced(QUERIES[*q], &model)?,
                    // Contained, and the full-solve state is untouched:
                    // nothing about `last`/`model_dirty` changes here.
                    Err(Error::EnginePanic(msg)) => {
                        prop_assert!(matches!(KINDS[*kind], FaultKind::Panic), "{msg}");
                    }
                    Err(other) => prop_assert!(false, "unexpected error: {other}"),
                }
            }
            Op::Analyze => {
                let first = self.kb.analyze();
                prop_assert!(Arc::ptr_eq(&first, &self.kb.analyze()), "analyze cache hit");
            }
        }
        // Checked after every step, whatever it was.
        for (k, (model, then)) in self.handed.iter().enumerate() {
            prop_assert!(
                frozen_view(model) == *then,
                "a model handed out {} models ago changed",
                self.handed.len() - k
            );
        }
        let mut oracle = self.oracle();
        prop_assert_eq!(rendered_facts(&self.kb), rendered_facts(&oracle));
        prop_assert_eq!(
            self.kb.analyze().to_json("kb"),
            oracle.analyze().to_json("kb")
        );
        Ok(())
    }

    /// A model returned by `solve` / `solve_with` / `try_solve`.
    fn check_full(
        &mut self,
        options: WfsOptions,
        model: &Arc<SolvedModel>,
    ) -> Result<(), TestCaseError> {
        for t in &self.truncated {
            prop_assert!(!Arc::ptr_eq(t, model), "truncated model served again");
        }
        self.keep(model);
        prop_assert!(!model.is_sliced());
        let reference = self.oracle().solve_with(options);
        let tripped = budget_tripped(model);
        if tripped {
            certain_atoms_are_sound(model, &reference)?;
            for query in QUERIES {
                query_is_sound(model, &reference, query)?;
            }
        } else {
            prop_assert_eq!(observe(model), observe(&reference));
        }
        match &self.last {
            Some((o, prev)) if *o == options && !self.model_dirty => {
                prop_assert_eq!(model.epoch(), self.epoch, "nothing to recompute");
                prop_assert!(std::ptr::eq(model.model(), prev.model()));
                prop_assert_eq!(Arc::ptr_eq(model, prev), !self.queries_dirty);
            }
            _ => {
                prop_assert_eq!(model.epoch(), self.epoch + 1, "one bump per solve that ran");
                if model.solve_stats().incremental {
                    prop_assert_eq!(self.resume_basis, Some(options), "illegal resume");
                }
            }
        }
        self.epoch = model.epoch();
        self.last = Some((options, Arc::clone(model)));
        self.model_dirty = tripped;
        self.queries_dirty = false;
        self.resume_basis = Some(options);
        if tripped {
            self.truncated.push(Arc::clone(model));
        }
        Ok(())
    }

    /// A model returned by `solve_for(query)`.
    fn check_sliced(&mut self, query: &str, model: &Arc<SolvedModel>) -> Result<(), TestCaseError> {
        for t in &self.truncated {
            prop_assert!(!Arc::ptr_eq(t, model), "truncated model served again");
        }
        self.keep(model);
        prop_assert!(model.is_sliced());
        // A current full model that ran to its fixpoint (or its depth
        // bound) answers every slice of itself: nothing is solved, the
        // result is that model behind the slice guard. Anything else —
        // never solved, mutated since, truncated, other options — and the
        // slice is solved.
        let options = self.kb.effective_options();
        let last = self.last.as_ref();
        let answers_from = last.filter(|(o, _)| *o == options && !self.model_dirty);
        prop_assert_eq!(model.solve_stats().sliced, answers_from.is_none());
        if let Some((_, full)) = answers_from {
            prop_assert!(std::ptr::eq(model.model(), full.model()));
            prop_assert_eq!(model.epoch(), self.epoch);
        }
        // A sliced model carries the epoch it was computed at (a cached one
        // may predate a re-solve of the same data) and never moves it: the
        // next full solve's epoch check would catch a bump.
        prop_assert!(model.epoch() <= self.epoch);
        let reference = self.oracle().solve();
        let q = model.prepare_sliced(query).unwrap();
        let rq = reference.prepare(query).unwrap();
        if budget_tripped(model) {
            self.truncated.push(Arc::clone(model));
            certain_atoms_are_sound(model, &reference)?;
            return query_is_sound(model, &reference, query);
        }
        prop_assert_eq!(model.ask3_prepared(&q), reference.ask3_prepared(&rq));
        prop_assert_eq!(answer_lines(model, &q), answer_lines(&reference, &rq));
        // Constraints are not goal-directed: out of the slice they read
        // Unknown, inside it they read what the full solve reads.
        for (s, r) in model
            .constraint_status()
            .iter()
            .zip(reference.constraint_status())
        {
            prop_assert!(s == r || s.is_unknown(), "constraint {s} vs full {r}");
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn knowledge_base_agrees_with_a_from_scratch_oracle(
        ops in proptest::collection::vec(op(), 24..40),
    ) {
        let mut h = Harness::new();
        for (i, op) in ops.iter().enumerate() {
            h.step(op).map_err(|e| {
                TestCaseError::fail(format!("step {i} ({op:?}): {e}"))
            })?;
        }
        // Whatever the sequence left behind, one more plain solve lands on
        // the oracle's model.
        h.step(&Op::Solve)?;
    }
}
