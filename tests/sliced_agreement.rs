//! Differential tests for goal-directed (sliced) solving.
//!
//! The contract under test: a solve restricted to the relevance closure
//! of a query's goal predicates (`ProgramSlice` over the predicate
//! dependency graph, following positive **and** negative edges) assigns
//! every in-slice atom exactly the verdict the full solve assigns — same
//! atoms, same truth values, bit-for-bit — on every workload generator,
//! including under a depth budget. The façade tests add the caching and
//! out-of-slice-guard behaviour of `KnowledgeBase::solve_for` /
//! `SolvedModel::prepare_sliced`, and the other direction of the same
//! splitting argument: a current, complete full model answers every slice
//! of itself, so `solve_for` then solves nothing — and a thread holding
//! only that model takes the same view with `SolvedModel::view_for`.

// Test code: panicking on a broken invariant IS the failure signal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use proptest::prelude::*;
use wfdatalog::core::budget::{FaultKind, FaultPlan, FaultSite};
use wfdatalog::storage::Database;
use wfdatalog::wfs::WellFoundedModel;
use wfdatalog::{
    Error, FactBatch, KnowledgeBase, ProgramSlice, SkolemProgram, SolveBudget, SolvedModel,
    TruncationReason, Truth, Universe, WfsOptions,
};
use wfdl_gen::{
    chain_database, example4_sigma, fanout_database, fanout_sigma, random_database, random_program,
    random_stratified_program, winmove_cycle, winmove_database, winmove_path, winmove_sigma,
    FanoutConfig, RandomConfig, RandomDbConfig, WinMoveConfig,
};

/// Renders every in-slice atom of `model` with its verdict and its chase
/// minima (depth, level), sorted: the sliced chase must derive the same
/// atoms at the same minima as the full one.
///
/// Comparison happens on rendered text, not `AtomId`s: the sliced chase
/// interns only its own nulls, so null *ids* can differ between the two
/// universes while the structural (skolem-term) atoms are identical.
fn verdicts_over(universe: &Universe, model: &WellFoundedModel, mask: &[bool]) -> Vec<String> {
    let mut out: Vec<String> = model
        .segment
        .atoms()
        .iter()
        .filter(|sa| mask[universe.atoms.pred(sa.atom).index()])
        .map(|sa| {
            format!(
                "{} = {} @ depth {}, level {}",
                universe.display_atom(sa.atom),
                model.value(sa.atom),
                sa.depth,
                sa.level
            )
        })
        .collect();
    out.sort();
    out
}

/// For every goal set: compute the slice, solve sliced from scratch, and
/// require verdict-for-verdict agreement with one full solve over the
/// in-slice predicates.
fn assert_slices_agree(
    universe: &Universe,
    db: &Database,
    sigma: &SkolemProgram,
    options: WfsOptions,
    goal_sets: &[Vec<wfdatalog::core::PredId>],
) {
    let budget = SolveBudget::unlimited();
    let mut u_full = universe.clone();
    let full = wfdatalog::wfs::solve(&mut u_full, db, sigma, options);
    for goals in goal_sets {
        let slice = ProgramSlice::compute(universe.num_preds(), sigma, goals);
        let mut u_sliced = universe.clone();
        let out = wfdatalog::wfs::solve_sliced_packaged_budgeted(
            &mut u_sliced,
            db,
            sigma,
            options,
            &[],
            &budget,
            &slice.pred_mask,
            None,
        );
        assert!(out.stats.sliced);
        assert_eq!(
            verdicts_over(&u_full, &full, &slice.pred_mask),
            verdicts_over(&u_sliced, &out.model, &slice.pred_mask),
            "sliced verdicts diverge for goals {goals:?}"
        );
    }
}

/// Every distinct head predicate of the program, as singleton goal sets —
/// the exhaustive directed sweep for one workload.
fn head_goal_sets(sigma: &SkolemProgram) -> Vec<Vec<wfdatalog::core::PredId>> {
    let mut heads: Vec<_> = sigma.rules.iter().map(|r| r.head_pred).collect();
    heads.sort_unstable();
    heads.dedup();
    heads.into_iter().map(|p| vec![p]).collect()
}

#[test]
fn fanout_slices_agree_and_drop_the_unrelated_cone() {
    let mut u = Universe::new();
    let sigma = fanout_sigma(&mut u);
    let db = fanout_database(
        &mut u,
        &FanoutConfig {
            groups: 256,
            recursive_fraction: 0.5,
            seed: 7,
        },
    );
    assert_slices_agree(
        &u,
        &db,
        &sigma,
        WfsOptions::unbounded(),
        &head_goal_sets(&sigma),
    );

    // Structure check: the `out` cone excludes the recursive flip/flop
    // half (and vice versa) — the whole point of goal-direction here.
    let out = u.lookup_pred("out").unwrap();
    let flip = u.lookup_pred("flip").unwrap();
    let slice = ProgramSlice::compute(u.num_preds(), &sigma, &[out]);
    assert!(!slice.contains(flip));
    assert!(slice.components_in_slice < slice.components_total);
    let slice = ProgramSlice::compute(u.num_preds(), &sigma, &[flip]);
    assert!(!slice.contains(out));
}

#[test]
fn example4_chain_slices_agree_under_depth_budget() {
    let mut u = Universe::new();
    let sigma = example4_sigma(&mut u);
    let db = chain_database(&mut u, 24);
    // Existential heads: the depth budget truncates, and the sliced solve
    // must truncate *identically* over in-slice predicates.
    for depth in [2, 4, 6] {
        assert_slices_agree(
            &u,
            &db,
            &sigma,
            WfsOptions::depth(depth),
            &head_goal_sets(&sigma),
        );
    }
}

#[test]
fn winmove_slices_agree() {
    for db_kind in 0..3 {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = match db_kind {
            0 => winmove_path(&mut u, 12),
            1 => winmove_cycle(&mut u, 9),
            _ => winmove_database(
                &mut u,
                &WinMoveConfig {
                    nodes: 40,
                    out_degree: 2.0,
                    forward_bias: 0.5,
                    seed: 11,
                },
            ),
        };
        let win = u.lookup_pred("win").unwrap();
        let mv = u.lookup_pred("move").unwrap();
        assert_slices_agree(
            &u,
            &db,
            &sigma,
            WfsOptions::unbounded(),
            &[vec![win], vec![mv], vec![win, mv]],
        );
    }
}

#[test]
fn random_programs_slices_agree() {
    for seed in 0..10u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed ^ 0x5eed,
                ..Default::default()
            },
        );
        assert_slices_agree(
            &u,
            &db,
            &w.sigma,
            WfsOptions::depth(5),
            &head_goal_sets(&w.sigma),
        );
    }
}

#[test]
fn random_stratified_slices_agree() {
    for seed in 0..6u64 {
        let mut u = Universe::new();
        let w = random_stratified_program(
            &mut u,
            &RandomConfig {
                seed,
                num_rules: 12,
                ..Default::default()
            },
            3,
        );
        let db = random_database(&mut u, &w, &RandomDbConfig::default());
        assert_slices_agree(
            &u,
            &db,
            &w.sigma,
            WfsOptions::depth(5),
            &head_goal_sets(&w.sigma),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random guarded programs with negation + existentials, random
    /// databases, every head predicate as a goal: sliced ≡ full.
    #[test]
    fn prop_sliced_agrees_on_random_workloads(
        seed in 0u64..500,
        db_seed in 0u64..500,
        negation_pct in 0u32..=100,
        existential_pct in 0u32..=50,
    ) {
        let negation_prob = f64::from(negation_pct) / 100.0;
        let existential_prob = f64::from(existential_pct) / 100.0;
        let mut u = Universe::new();
        let w = random_program(&mut u, &RandomConfig {
            seed,
            negation_prob,
            existential_prob,
            ..Default::default()
        });
        let db = random_database(&mut u, &w, &RandomDbConfig {
            seed: db_seed,
            ..Default::default()
        });
        assert_slices_agree(&u, &db, &w.sigma, WfsOptions::depth(4), &head_goal_sets(&w.sigma));
    }
}

// ======================================================================
// Façade: KnowledgeBase::solve_for / SolvedModel::prepare_sliced
// ======================================================================

const FACADE_RULES: &str = "
    edge(X,Y) -> covered(Y).
    covered(X) -> seen(X).
    node(X), not covered(X) -> isolated(X).
    pick(X), not flop(X) -> flip(X).
    pick(X), not flip(X) -> flop(X).
    edge(a,b). edge(b,c). node(a). node(b). node(c). node(d). pick(z).
";

#[test]
fn solve_for_matches_full_solve_answers() {
    let queries = [
        "?- covered(c).",
        "?(X) covered(X).",
        "?(X) seen(X).",
        "?(X) isolated(X).",
        "?- flip(z).",
        "?(X) flip(X).",
    ];
    for q in &queries {
        let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
        // No full model yet: the slice is solved, from nothing.
        let sliced = kb.solve_for(q).unwrap();
        let stats = sliced.solve_stats();
        assert!(stats.sliced && !stats.incremental);
        assert_eq!(stats.components_reused, 0, "{stats:?}");
        let full = kb.solve();
        assert!(
            0 < stats.components_evaluated
                && stats.components_evaluated < full.solve_stats().components_evaluated,
            "{stats:?} vs {:?}",
            full.solve_stats()
        );
        let pf = full.prepare(q).unwrap();
        let ps = sliced.prepare_sliced(q).unwrap();
        assert_eq!(
            full.ask3_prepared(&pf),
            sliced.ask3_prepared(&ps),
            "three-valued verdicts diverge for {q}"
        );
        assert_eq!(
            full.answers_prepared(&pf),
            sliced.answers_prepared(&ps),
            "answer sets diverge for {q}"
        );
    }
}

/// The fanout workload as text: a stratified `src → mid → out` cone over
/// every group, a `pick/flip/flop` cone, recursive through negation, over
/// the first few.
fn fanout_source() -> String {
    let mut src = String::from(
        "src(X), not excl(X) -> mid(X). mid(X) -> out(X).
         pick(X), not flop(X) -> flip(X). pick(X), not flip(X) -> flop(X).
         excl(c1).\n",
    );
    for i in 0..12 {
        src.push_str(&format!("src(c{i}). "));
    }
    for i in 0..4 {
        src.push_str(&format!("pick(c{i}). "));
    }
    src
}

/// Programs (with the chase depth they need) the view tests sweep: both
/// cones of `FACADE_RULES` and of the fanout, an existential chain cut at
/// a depth bound, and a game with won, lost and drawn positions.
fn view_workloads() -> Vec<(String, Option<u32>)> {
    vec![
        (FACADE_RULES.to_owned(), None),
        (fanout_source(), None),
        (include_str!("../programs/example4.dl").to_owned(), Some(5)),
        (include_str!("../programs/win_move.dl").to_owned(), None),
    ]
}

fn knowledge_base(src: &str, depth: Option<u32>) -> KnowledgeBase {
    let kb = KnowledgeBase::from_source(src).unwrap();
    match depth {
        Some(depth) => kb.with_depth(depth),
        None => kb,
    }
}

/// `?(X0,…) p(X0,…).` for every head predicate `p` of the program.
fn head_queries(kb: &KnowledgeBase) -> Vec<String> {
    let u = kb.universe();
    (head_goal_sets(kb.sigma()).iter().map(|goal| goal[0]))
        .filter(|&p| !u.pred_info(p).auxiliary)
        .map(|p| {
            let vars: Vec<String> = (0..u.pred_arity(p)).map(|i| format!("X{i}")).collect();
            format!("?({0}) {1}({0}).", vars.join(","), u.pred_name(p))
        })
        .collect()
}

/// A query's three-valued verdict and its answer tuples, rendered — so
/// models over different universes compare.
fn read(model: &SolvedModel, query: &str) -> (Truth, Vec<String>) {
    let q = model.prepare_sliced(query).unwrap();
    let mut tuples: Vec<String> = (model.answers_prepared(&q).tuples())
        .map(|t| {
            let terms = t
                .iter()
                .map(|&x| model.universe().display_term(x).to_string());
            terms.collect::<Vec<_>>().join(",")
        })
        .collect();
    tuples.sort();
    (model.ask3_prepared(&q), tuples)
}

#[test]
fn solve_for_after_a_full_solve_solves_nothing() {
    let mut proper_slices = 0;
    for (src, depth) in view_workloads() {
        let mut kb = knowledge_base(&src, depth);
        let full = kb.solve();
        let queries = head_queries(&kb);
        assert!(!queries.is_empty());
        for query in &queries {
            let view = kb.solve_for(query).unwrap();
            // The full model behind the slice guard: nothing ran.
            assert!(view.is_sliced() && !view.solve_stats().sliced, "{query}");
            assert_eq!(view.epoch(), full.epoch(), "{query}");
            assert!(std::ptr::eq(view.model(), full.model()), "{query}");
            assert_eq!(view.solve_stats(), full.solve_stats(), "{query}");
            // It reads what the slice, solved cold on a knowledge base that
            // has no full model, reads — and guards the same boundary.
            let cold = knowledge_base(&src, depth).solve_for(query).unwrap();
            assert!(cold.solve_stats().sliced, "{query}");
            assert_eq!(read(&view, query), read(&cold, query), "{query}");
            let (slice, cold_slice) = (view.slice().unwrap(), cold.slice().unwrap());
            assert_eq!(slice.pred_mask, cold_slice.pred_mask, "{query}");
            assert_eq!(
                (slice.components_in_slice, slice.components_total),
                (cold_slice.components_in_slice, cold_slice.components_total),
                "{query}"
            );
            for outside in queries.iter().filter(|q| cold.prepare(q).is_err()) {
                proper_slices += 1;
                assert!(slice.components_in_slice < slice.components_total);
                let foreign = full.prepare(outside).unwrap();
                for guarded in [
                    view.prepare(outside),
                    view.prepare_sliced(outside),
                    view.rebind(&foreign),
                ] {
                    assert!(
                        matches!(guarded, Err(Error::OutOfSlice(_))),
                        "{outside} through the view for {query}: {guarded:?}"
                    );
                }
            }
        }
        // Still the knowledge base's full model, and a second look is
        // another view of it.
        assert!(Arc::ptr_eq(&full, &kb.solve()));
        let again = kb.solve_for(&queries[0]).unwrap();
        assert!(!again.solve_stats().sliced && again.epoch() == full.epoch());
    }
    assert!(proper_slices > 0, "no workload had a cone outside a slice");
}

/// A thread holding only the model takes the view the knowledge base
/// hands out: `SolvedModel::view_for` ≡ `KnowledgeBase::solve_for` while
/// that model is current.
#[test]
fn view_for_takes_the_view_solve_for_returns() {
    for (src, depth) in view_workloads() {
        let mut kb = knowledge_base(&src, depth);
        let full = kb.solve();
        for query in &head_queries(&kb) {
            let view = full.view_for(query).unwrap().expect("a current model");
            let from_kb = kb.solve_for(query).unwrap();
            assert!(view.is_sliced() && !view.solve_stats().sliced, "{query}");
            assert!(std::ptr::eq(view.model(), from_kb.model()), "{query}");
            assert!(std::ptr::eq(view.model(), full.model()), "{query}");
            let (slice, kb_slice) = (view.slice().unwrap(), from_kb.slice().unwrap());
            assert_eq!(slice.pred_mask, kb_slice.pred_mask, "{query}");
            assert_eq!(
                (slice.components_in_slice, slice.components_total),
                (kb_slice.components_in_slice, kb_slice.components_total),
                "{query}"
            );
            assert_eq!(read(&view, query), read(&from_kb, query), "{query}");
        }
        assert!(matches!(full.view_for("?- p(."), Err(Error::Syntax(_))));
    }
}

/// Everything that makes the cached full model the wrong thing to answer
/// from: `solve_for` must then solve the slice, and agree with a full solve
/// of the knowledge base as it now stands.
#[test]
fn solve_for_still_solves_when_no_current_complete_model_covers_the_slice() {
    const QUERY: &str = "?(X) covered(X).";
    let edge = |kb: &mut KnowledgeBase, from: &str, to: &str| {
        let mut batch = FactBatch::new();
        let mut edges = batch.relation(kb.universe_mut(), "edge", 2).unwrap();
        edges.push(&[from, to]).unwrap();
        batch
    };
    let solved = |kb: &mut KnowledgeBase, what: &str| {
        let sliced = kb.solve_for(QUERY).unwrap();
        assert!(sliced.is_sliced() && sliced.solve_stats().sliced, "{what}");
        assert!(sliced.outcome().is_complete(), "{what}");
        sliced
    };
    let fresh = || {
        let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
        let full = kb.solve();
        assert!(!kb.solve_for(QUERY).unwrap().solve_stats().sliced);
        (kb, full)
    };

    let (mut kb, _) = fresh();
    let batch = edge(&mut kb, "c", "d");
    kb.insert(batch).unwrap();
    let sliced = solved(&mut kb, "after insert");
    assert_eq!(read(&sliced, QUERY), read(&kb.solve(), QUERY));
    assert!(read(&sliced, QUERY).1.contains(&"d".to_owned()));

    let (mut kb, _) = fresh();
    let batch = edge(&mut kb, "b", "c");
    assert_eq!(kb.retract(batch), 1);
    let sliced = solved(&mut kb, "after retract");
    assert_eq!(read(&sliced, QUERY), read(&kb.solve(), QUERY));
    assert_eq!(read(&sliced, QUERY).1, ["b"]);

    let (mut kb, _) = fresh();
    kb.add_source("node(X) -> covered(X).").unwrap();
    let sliced = solved(&mut kb, "after add_source with a rule");
    assert_eq!(read(&sliced, QUERY), read(&kb.solve(), QUERY));
    assert_eq!(read(&sliced, QUERY).1, ["a", "b", "c", "d"]);

    // `last` is a model under other options: not this solve_for's answer.
    let (mut kb, full) = fresh();
    kb.solve_with(WfsOptions::depth(3));
    let sliced = solved(&mut kb, "after solve_with under other options");
    assert_eq!(read(&sliced, QUERY), read(&full, QUERY));

    // A budget-tripped full model is an under-approximation, never a view.
    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
        site: FaultSite::ChaseRound(0),
        kind: FaultKind::TripDeadline,
    }));
    let tripped = kb.solve();
    assert!(tripped.outcome().is_budget_trip());
    assert!(tripped.view_for(QUERY).unwrap().is_none());
    kb.set_solve_budget(SolveBudget::unlimited());
    let sliced = solved(&mut kb, "after a tripped full solve");
    assert_eq!(read(&sliced, QUERY), read(&fresh().1, QUERY));
    // A solved slice is no full model to take views of.
    assert!(sliced.view_for(QUERY).unwrap().is_none());

    // So is one the atom cap cut short: the cap counts the whole segment,
    // and the flip/flop slice fits under a cap the program does not.
    let mut capped = WfsOptions::unbounded();
    capped.budget = capped.budget.with_max_atoms(8);
    let mut kb = KnowledgeBase::from_source(FACADE_RULES)
        .unwrap()
        .with_options(capped);
    let full = kb.solve();
    assert_eq!(full.outcome().truncation(), Some(TruncationReason::AtomCap));
    assert!(full.view_for("?- flip(z).").unwrap().is_none());
    let sliced = kb.solve_for("?- flip(z).").unwrap();
    assert!(sliced.solve_stats().sliced && sliced.outcome().is_complete());
    assert_eq!(sliced.ask3("?- flip(z).").unwrap(), Truth::Unknown);
}

#[test]
fn out_of_slice_queries_error_instead_of_lying() {
    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    let sliced = kb.solve_for("?- covered(c).").unwrap();
    assert!(sliced.is_sliced());
    // flip/flop are outside the covered-slice: the full model answers
    // Unknown, so a silent False here would be a lie — it must error.
    for q in [
        "?- flip(z).",
        "?(X) flip(X).",
        "?- covered(b), not flip(z).",
    ] {
        match sliced.prepare_sliced(q) {
            Err(Error::OutOfSlice(preds)) => assert!(preds.contains("flip"), "{preds}"),
            other => panic!("expected OutOfSlice for {q}, got {other:?}"),
        }
    }
    // `prepare` enforces the same guard (there is no unguarded door).
    assert!(matches!(
        sliced.prepare("?- flip(z)."),
        Err(Error::OutOfSlice(_))
    ));
    // Unknown names still short-circuit instead of erroring: that verdict
    // is slice-independent.
    assert!(!sliced.ask("?- covered(ghost).").unwrap());
    // The rebind path is guarded too: a query prepared against the full
    // model cannot smuggle an out-of-slice predicate in.
    let full = kb.solve();
    let foreign = full.prepare("?- flip(z).").unwrap();
    assert!(matches!(sliced.rebind(&foreign), Err(Error::OutOfSlice(_))));
}

#[test]
fn sliced_cache_serves_and_invalidates_on_generation() {
    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    let first = kb.solve_for("?(X) covered(X).").unwrap();
    let again = kb.solve_for("?(X) covered(X).").unwrap();
    assert!(
        Arc::ptr_eq(&first, &again),
        "unchanged data + goals → cached"
    );
    // Same slice, different query text, same goal set → still cached.
    let same_goals = kb.solve_for("?(Y) covered(Y).").unwrap();
    assert!(Arc::ptr_eq(&first, &same_goals));

    // Mutation invalidates — and so does a full solve that consumes the
    // delta: from then on the full model answers (the revision, not the
    // delta, is the staleness key).
    let mut batch = FactBatch::new();
    batch
        .relation(kb.universe_mut(), "edge", 2)
        .unwrap()
        .push(&["c", "d"])
        .unwrap();
    kb.insert(batch).unwrap();
    let resolved = kb.solve_for("?(X) covered(X).").unwrap();
    assert!(
        !Arc::ptr_eq(&first, &resolved) && resolved.solve_stats().sliced,
        "insert must invalidate the sliced cache"
    );
    assert!(resolved.ask("?- covered(d).").unwrap());
    kb.solve();
    let after = kb.solve_for("?(X) covered(X).").unwrap();
    assert!(!Arc::ptr_eq(&first, &after) && !Arc::ptr_eq(&resolved, &after));
    assert!(after.ask("?- covered(d).").unwrap());
    // Solved slice and view of the full model agree on the grown data.
    assert_eq!(
        read(&resolved, "?(X) covered(X)."),
        read(&after, "?(X) covered(X).")
    );
}

#[test]
fn constraints_outside_the_slice_read_unknown() {
    let mut kb = KnowledgeBase::from_source(
        "p(a). q(a).
         p(X), q(X) -> false.
         r(X) -> s(X).",
    )
    .unwrap();
    // Solved on the unrelated r/s cone: the violation rule never fired,
    // so its status is honestly Unknown, not a false all-clear.
    let sliced = kb.solve_for("?(X) s(X).").unwrap();
    assert!(sliced.solve_stats().sliced);
    assert_eq!(sliced.constraint_status(), &[Truth::Unknown]);
    // Solved on a goal that pulls the constraint's inputs in: the lowered
    // violation predicate depends on p and q, so slicing on it reproduces
    // the full verdict.
    let model = kb.solve_for("?- p(a), q(a).").unwrap();
    assert!(model.ask("?- p(a), q(a).").unwrap());
    // Full solve: the constraint is violated — and a view of that model
    // knows it, whatever its slice.
    assert_eq!(kb.solve().constraint_status(), &[Truth::True]);
    let view = kb.solve_for("?(X) s(X).").unwrap();
    assert!(!view.solve_stats().sliced);
    assert_eq!(view.constraint_status(), &[Truth::True]);
}

#[test]
fn solve_for_leaves_the_full_solve_state_untouched() {
    let mut kb = KnowledgeBase::from_source(FACADE_RULES).unwrap();
    let full_before = kb.solve();
    // A sliced solve in between must not disturb the full-solve cache…
    let _ = kb.solve_for("?(X) covered(X).").unwrap();
    let full_after = kb.solve();
    assert!(Arc::ptr_eq(&full_before, &full_after));
    // …and an insert after sliced solving still takes the incremental path.
    let mut batch = FactBatch::new();
    batch
        .relation(kb.universe_mut(), "edge", 2)
        .unwrap()
        .push(&["c", "d"])
        .unwrap();
    kb.insert(batch).unwrap();
    let _ = kb.solve_for("?(X) covered(X).").unwrap();
    let resumed = kb.solve();
    assert!(resumed.solve_stats().incremental);
    assert!(resumed.ask("?- covered(d).").unwrap());
}
