//! Real (non-injected) budget trips across every bundled program: a
//! pre-expired deadline, a pre-cancelled token, and a starvation-level
//! memory budget must each yield a clean `Truncated` outcome — never a
//! panic — whose model is a sound under-approximation of the unbudgeted
//! solve. A generous budget must change nothing at all.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::time::Duration;
use wfdatalog::{CancelToken, KnowledgeBase, SolveBudget, SolvedModel, TruncationReason, Truth};

const PROGRAMS: [&str; 3] = [
    "programs/employment.dl",
    "programs/example4.dl",
    "programs/win_move.dl",
];

fn kb(path: &str) -> KnowledgeBase {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    KnowledgeBase::from_source(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn true_lines(model: &SolvedModel) -> BTreeSet<String> {
    model.render_true().lines().map(str::to_string).collect()
}

/// Asserts `model` is a sound under-approximation of `reference`: every
/// certain atom stays certain, and nothing certainly-false resurfaces as
/// certainly-true.
fn assert_sound(label: &str, model: &SolvedModel, reference: &SolvedModel) {
    let ref_true = true_lines(reference);
    for line in true_lines(model) {
        assert!(
            ref_true.contains(&line),
            "{label}: `{line}` is certain only under the budget"
        );
    }
}

fn check_trip(label: &str, budget: SolveBudget, expect: TruncationReason) {
    for path in PROGRAMS {
        let reference = kb(path).try_solve().unwrap();
        let mut kb = kb(path);
        kb.set_solve_budget(budget.clone());
        let model = kb
            .try_solve()
            .unwrap_or_else(|e| panic!("{label} on {path}: budget trip must not error: {e}"));
        assert_eq!(
            model.outcome().truncation(),
            Some(expect),
            "{label} on {path}"
        );
        assert!(model.under_approximate(), "{label} on {path}");
        assert_sound(&format!("{label} on {path}"), &model, &reference);
        // The truncated model still answers the file's own queries.
        for q in model.source_queries() {
            if q.is_boolean() {
                let _ = model.ask3_prepared(q);
            } else {
                let _ = model.answers_prepared(q);
            }
        }
    }
}

#[test]
fn pre_expired_deadline_truncates_cleanly_everywhere() {
    check_trip(
        "expired deadline",
        SolveBudget::unlimited().with_deadline_in(Duration::ZERO),
        TruncationReason::Deadline,
    );
}

/// Query-level soundness of a truncated model: atoms an interrupted chase
/// never reached are undecided, so no query is refuted — least of all one
/// the complete model satisfies.
#[test]
fn pre_expired_deadline_refutes_no_query() {
    let expired = SolveBudget::unlimited().with_deadline_in(Duration::ZERO);
    let mut satisfied = 0;
    for path in PROGRAMS {
        let reference = kb(path).try_solve().unwrap();
        let mut kb = kb(path);
        kb.set_solve_budget(expired.clone());
        let model = kb.try_solve().unwrap();
        assert!(model.outcome().is_budget_trip(), "{path}");
        for (q, rq) in model
            .source_queries()
            .iter()
            .zip(reference.source_queries())
        {
            let complete = reference.ask3_prepared(rq);
            match model.ask3_prepared(q) {
                Truth::True => assert_eq!(complete, Truth::True, "{path}: {q:?}"),
                Truth::Unknown => satisfied += usize::from(complete.is_true()),
                Truth::False => panic!("{path}: a truncated model refuted {q:?}"),
            }
            // Same text, same interning order: constants share their ids.
            let complete = reference.answers_prepared(rq);
            for tuple in model.answers_prepared(q).tuples() {
                assert!(
                    complete.contains(tuple),
                    "{path}: {tuple:?} answers {q:?} only under the budget"
                );
            }
        }
    }
    assert!(satisfied > 0, "no satisfied query was cut off");

    // ROADMAP's witness: `win(c)` is won, and the chase never got to it.
    let mut kb = kb("programs/win_move.dl");
    kb.set_solve_budget(expired);
    let model = kb.try_solve().unwrap();
    assert_eq!(model.ask3("?- win(c).").unwrap(), Truth::Unknown);
    assert!(!model.ask("?- win(c).").unwrap());
    assert_eq!(model.ask3("?- win(nobody).").unwrap(), Truth::Unknown);
    kb.set_solve_budget(SolveBudget::unlimited());
    assert_eq!(kb.solve().ask3("?- win(c).").unwrap(), Truth::True);
    assert_eq!(kb.solve().ask3("?- win(nobody).").unwrap(), Truth::False);
}

/// The negative half: `q(a)` holds in the complete model, but the
/// interrupted chase never interned it — which must not read as `false`
/// and make `p(a), not q(a)` certainly true.
#[test]
fn a_never_interned_negated_atom_is_not_certainly_false_when_truncated() {
    const QUERIES: [&str; 3] = [
        "?- p(a), not q(a).",
        "?- p(X), not q(X).",
        "?- p(a), not q(never_seen).",
    ];
    let mut kb = KnowledgeBase::from_source("p(a). r(a). r(X) -> q(X).").unwrap();
    kb.set_solve_budget(SolveBudget::unlimited().with_deadline_in(Duration::ZERO));
    let model = kb.try_solve().unwrap();
    assert_eq!(
        model.outcome().truncation(),
        Some(TruncationReason::Deadline)
    );
    assert!(model.ask("?- p(a).").unwrap(), "the facts are certain");
    assert!(model.lookup_atom("q", &["a"]).unwrap().is_none());
    for q in QUERIES {
        assert!(!model.ask(q).unwrap(), "{q} certain only under the budget");
        assert!(model.answers(q).unwrap().is_empty(), "{q}");
        assert_eq!(model.ask3(q).unwrap(), Truth::Unknown, "{q}");
    }
    kb.set_solve_budget(SolveBudget::unlimited());
    let complete = kb.solve();
    let verdicts = QUERIES.map(|q| complete.ask3(q).unwrap());
    assert_eq!(verdicts, [Truth::False, Truth::False, Truth::True]);
}

/// `r` occurs in a rule body only, so no atom of it is ever interned and
/// `not r(X)` finds no atom to read: a complete model answers every `p`
/// atom, a truncated one none certainly — and leaves the query undecided.
#[test]
fn a_negated_predicate_with_no_atom_is_undecided_when_truncated() {
    const ROWS: &str = "?(X) p(X), not r(X).";
    const BOOLEAN: &str = "?- p(X), not r(X).";
    let mut kb = KnowledgeBase::from_source("p(a). p(b). r(X) -> s(X).").unwrap();
    kb.set_solve_budget(SolveBudget::unlimited().with_deadline_in(Duration::ZERO));
    let model = kb.try_solve().unwrap();
    assert!(model.outcome().is_budget_trip());
    assert!(
        model.ask("?- p(a), p(b).").unwrap(),
        "the facts are certain"
    );
    assert!(model.answers(ROWS).unwrap().is_empty());
    assert_eq!(model.ask3(BOOLEAN).unwrap(), Truth::Unknown);
    kb.set_solve_budget(SolveBudget::unlimited());
    let complete = kb.solve();
    assert_eq!(complete.answers(ROWS).unwrap().len(), 2);
    assert_eq!(complete.ask3(BOOLEAN).unwrap(), Truth::True);
}

#[test]
fn pre_cancelled_token_truncates_cleanly_everywhere() {
    let token = CancelToken::new();
    token.cancel();
    check_trip(
        "cancelled token",
        SolveBudget::unlimited().with_cancel(token),
        TruncationReason::Cancelled,
    );
}

#[test]
fn starvation_memory_budget_truncates_cleanly_everywhere() {
    check_trip(
        "1-byte memory budget",
        SolveBudget::unlimited().with_mem_limit(1),
        TruncationReason::MemBudget,
    );
}

/// A budget that never trips must be invisible: same outcome, same model,
/// same answers as the unbudgeted solve — the budget plumbing cannot
/// perturb determinism.
#[test]
fn generous_budget_is_invisible() {
    for path in PROGRAMS {
        let reference = kb(path).try_solve().unwrap();
        let mut kb = kb(path);
        kb.set_solve_budget(
            SolveBudget::unlimited()
                .with_deadline_in(Duration::from_secs(3600))
                .with_cancel(CancelToken::new())
                .with_mem_limit(1 << 40),
        );
        let model = kb.try_solve().unwrap();
        assert_eq!(model.outcome(), reference.outcome(), "{path}");
        assert_eq!(model.render_true(), reference.render_true(), "{path}");
        let model_unknown: Vec<String> = model
            .model()
            .unknown_atoms()
            .map(|a| model.universe().display_atom(a).to_string())
            .collect();
        let ref_unknown: Vec<String> = reference
            .model()
            .unknown_atoms()
            .map(|a| reference.universe().display_atom(a).to_string())
            .collect();
        assert_eq!(model_unknown, ref_unknown, "{path}");
    }
}

/// Cancellation is live: a token cancelled from another thread while the
/// solve runs stops it at the next boundary and the same KB re-solves to
/// the full model afterwards.
#[test]
fn cancel_token_is_shared_across_threads() {
    let token = CancelToken::new();
    let clone = token.clone();
    // Cancel before solving (from another thread, exercising the shared
    // atomic): deterministic — every boundary sees it tripped.
    std::thread::spawn(move || clone.cancel()).join().unwrap();
    let mut kb = kb("programs/win_move.dl");
    kb.set_solve_budget(SolveBudget::unlimited().with_cancel(token));
    let model = kb.try_solve().unwrap();
    assert_eq!(
        model.outcome().truncation(),
        Some(TruncationReason::Cancelled)
    );
    kb.set_solve_budget(SolveBudget::unlimited());
    let recovered = kb.try_solve().unwrap();
    let reference = self::kb("programs/win_move.dl").try_solve().unwrap();
    assert_eq!(recovered.outcome(), reference.outcome());
    assert_eq!(recovered.render_true(), reference.render_true());
}
