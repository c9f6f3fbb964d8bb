//! Deterministic fault-injection matrix for the solve pipeline.
//!
//! Every injection point (chase round boundary, chase merge phase, WFS
//! component ordinal, incremental resume boundary) is driven with every
//! fault kind (simulated deadline / memory / cancellation trips, and a
//! hard panic). The contract under test:
//!
//! * a **trip** yields a usable truncated model — `SolveOutcome` reports
//!   the exact reason, queries still answer, and every verdict is a sound
//!   under-approximation of the uninterrupted model (certain answers stay
//!   certain, nothing flips);
//! * a **panic** is converted into `Error::EnginePanic` at the engine
//!   boundary — no poisoned state escapes;
//! * in both cases the `KnowledgeBase` stays reusable: clearing the budget
//!   and re-solving is **bit-identical** to a fresh, uninterrupted solve.
//!
//! The same matrix runs through the goal-directed path (`solve_for`), which
//! additionally must leave the full-solve state — cached model, pending
//! delta — exactly as it found it.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use wfdatalog::{KnowledgeBase, SolveBudget, SolvedModel, TruncationReason, WfsOptions};
use wfdl_core::budget::{FaultKind, FaultPlan, FaultSite};

/// Multi-round chase (guarded reachability closure over a chain) feeding a
/// negation-recursive win–move core, so both pipeline phases have real
/// work at every site.
const SRC: &str = r#"
    e(n0,n1). e(n1,n2). e(n2,n3). e(n3,n4).
    move(n0,n1). move(n1,n2). move(n2,n0). move(n3,n4).
    start(n0).
    start(X) -> reach(X).
    reach(X), e(X,Y) -> reach(Y).
    move(X,Y), not win(Y) -> win(X).
    reach(X), not win(X) -> safe(X).
    ?(X) win(X).
    ?(X) safe(X).
"#;

/// Delta used by the resume-boundary sites.
const DELTA: &str = "e\tn4\tn5\nmove\tn4\tn5\n";

const TRIP_KINDS: [(FaultKind, TruncationReason); 3] = [
    (FaultKind::TripDeadline, TruncationReason::Deadline),
    (FaultKind::TripMem, TruncationReason::MemBudget),
    (FaultKind::TripCancel, TruncationReason::Cancelled),
];

fn sites() -> Vec<FaultSite> {
    vec![
        FaultSite::ChaseRound(0),
        FaultSite::ChaseRound(1),
        FaultSite::ChaseMerge(1),
        FaultSite::WfsComponent(0),
        FaultSite::WfsComponent(3),
    ]
}

fn options() -> WfsOptions {
    WfsOptions::unbounded()
}

fn kb(with_delta: bool) -> KnowledgeBase {
    let mut kb = KnowledgeBase::from_source(SRC).expect("source parses");
    if with_delta {
        kb.insert_tsv(DELTA).expect("delta loads");
    }
    kb
}

/// Order-independent rendering of everything observable about a model.
fn observe(model: &SolvedModel) -> (String, String, Vec<String>) {
    let mut unknown: Vec<String> = model
        .model()
        .unknown_atoms()
        .map(|a| model.universe().display_atom(a).to_string())
        .collect();
    unknown.sort();
    let answers = model
        .source_queries()
        .iter()
        .map(|q| {
            let ans = model.answers_prepared(q);
            let mut tuples: Vec<String> = ans
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
        })
        .collect();
    (model.render_true(), unknown.join("\n"), answers)
}

fn true_lines(model: &SolvedModel) -> std::collections::BTreeSet<String> {
    model.render_true().lines().map(|l| l.to_string()).collect()
}

/// The uninterrupted reference for a given fact set.
fn reference(with_delta: bool) -> (String, String, Vec<String>) {
    let model = kb(with_delta).try_solve_with(options()).unwrap();
    assert!(model.outcome().is_complete(), "reference must be complete");
    observe(&model)
}

/// Trip kinds: truncated-but-usable model, then bit-identical recovery.
#[test]
fn every_trip_site_degrades_soundly_and_recovers() {
    let reference_obs = reference(false);
    let reference_true: std::collections::BTreeSet<String> =
        reference_obs.0.lines().map(|l| l.to_string()).collect();
    for site in sites() {
        for (kind, reason) in TRIP_KINDS {
            let label = format!("{site:?}/{kind:?}");
            let mut kb = kb(false);
            kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan { site, kind }));
            let truncated = kb
                .try_solve_with(options())
                .unwrap_or_else(|e| panic!("{label}: trip must not error: {e}"));
            assert_eq!(
                truncated.outcome().truncation(),
                Some(reason),
                "{label}: outcome must carry the injected reason"
            );
            assert!(truncated.under_approximate(), "{label}");
            // Soundness: every certain atom of the truncated model is
            // certain in the uninterrupted model.
            for line in true_lines(&truncated) {
                assert!(
                    reference_true.contains(&line),
                    "{label}: {line} is certain only under truncation"
                );
            }
            // Queries still answer (and stay sound).
            let q = truncated.prepare("?(X) win(X).").unwrap();
            let _ = truncated.answers_prepared(&q);
            // Recovery: clearing the budget re-solves bit-identically.
            kb.set_solve_budget(SolveBudget::unlimited());
            let recovered = kb
                .try_solve_with(options())
                .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
            assert!(recovered.outcome().is_complete(), "{label}");
            assert_eq!(
                observe(&recovered),
                reference_obs,
                "{label}: recovery must be bit-identical to a fresh solve"
            );
        }
    }
}

/// Panic kind: `Error::EnginePanic` at the boundary, KB stays reusable.
#[test]
fn every_panic_site_is_contained_and_recoverable() {
    let reference_obs = reference(false);
    for site in sites() {
        let label = format!("{site:?}/Panic");
        let mut kb = kb(false);
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
            site,
            kind: FaultKind::Panic,
        }));
        match kb.try_solve_with(options()) {
            Err(wfdatalog::Error::EnginePanic(msg)) => {
                assert!(msg.contains("injected fault"), "{label}: {msg}");
            }
            Err(other) => panic!("{label}: wrong error: {other}"),
            Ok(_) => panic!("{label}: panic must not produce a model"),
        }
        kb.set_solve_budget(SolveBudget::unlimited());
        let recovered = kb
            .try_solve_with(options())
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        assert!(recovered.outcome().is_complete(), "{label}");
        assert_eq!(
            observe(&recovered),
            reference_obs,
            "{label}: recovery must be bit-identical to a fresh solve"
        );
    }
}

/// Resume-boundary sites: cancel (or panic) in the middle of an
/// incremental re-solve must leave the carried-over state uncorrupted —
/// the recovered solve is bit-identical to a fresh KB over the union.
#[test]
fn resume_boundary_faults_leave_incremental_state_clean() {
    let union_obs = reference(true);
    for (kind, reason) in TRIP_KINDS {
        let label = format!("ResumeBoundary/{kind:?}");
        let mut kb = kb(false);
        let base = kb.try_solve_with(options()).unwrap();
        assert!(base.outcome().is_complete());
        kb.insert_tsv(DELTA).unwrap();
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::ResumeBoundary,
            kind,
        }));
        let truncated = kb
            .try_solve_with(options())
            .unwrap_or_else(|e| panic!("{label}: trip must not error: {e}"));
        assert_eq!(truncated.outcome().truncation(), Some(reason), "{label}");
        kb.set_solve_budget(SolveBudget::unlimited());
        let recovered = kb.try_solve_with(options()).unwrap();
        assert!(recovered.outcome().is_complete(), "{label}");
        assert_eq!(
            observe(&recovered),
            union_obs,
            "{label}: post-trip incremental state must not be corrupted"
        );
    }
    // Panic during the resume: delta is restored, next solve re-chases
    // from scratch and still lands on the union model bit-for-bit.
    let label = "ResumeBoundary/Panic";
    let mut kb = kb(false);
    kb.try_solve_with(options()).unwrap();
    kb.insert_tsv(DELTA).unwrap();
    kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
        site: FaultSite::ResumeBoundary,
        kind: FaultKind::Panic,
    }));
    match kb.try_solve_with(options()) {
        Err(wfdatalog::Error::EnginePanic(_)) => {}
        Err(other) => panic!("{label}: wrong error: {other}"),
        Ok(_) => panic!("{label}: panic must not produce a model"),
    }
    kb.set_solve_budget(SolveBudget::unlimited());
    let recovered = kb.try_solve_with(options()).unwrap();
    assert!(recovered.outcome().is_complete(), "{label}");
    assert_eq!(observe(&recovered), union_obs, "{label}");
}

/// A trip **inside the cone** of a resumed solve. The base is a win–move
/// chain; the delta gives its bottom position a move, which reverses every
/// verdict up the chain, one singleton component per position. Stopping at
/// any component of the cone must leave the positions above it `Unknown` —
/// the carried-over verdict of each is exactly the wrong one — and the next
/// solve must recover the complete model.
/// A solve from scratch resumes the empty segment, but it is no resume to
/// its caller: a resume-boundary plan installed before a cold solve trips
/// nothing, full or sliced. The same plan, left installed, trips the next
/// solve, which does resume.
#[test]
fn a_resume_boundary_fault_trips_no_cold_solve() {
    let cold_obs = reference(false);
    for (kind, reason) in TRIP_KINDS {
        let label = format!("cold/ResumeBoundary/{kind:?}");
        let mut kb = kb(false);
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::ResumeBoundary,
            kind,
        }));
        let sliced = kb.solve_for(SLICED_QUERY).unwrap();
        assert!(sliced.outcome().is_complete(), "{label}");
        assert_eq!(observe_sliced(&sliced), sliced_reference(false), "{label}");
        let cold = kb
            .try_solve_with(options())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(cold.outcome().is_complete(), "{label}");
        assert!(!cold.solve_stats().incremental, "{label}");
        assert_eq!(observe(&cold), cold_obs, "{label}");
        kb.insert_tsv(DELTA).unwrap();
        let resumed = kb.try_solve_with(options()).unwrap();
        assert!(resumed.solve_stats().incremental, "{label}");
        assert_eq!(resumed.outcome().truncation(), Some(reason), "{label}");
    }
}

#[test]
fn a_trip_inside_a_resumed_cone_leaves_unknown_never_a_stale_verdict() {
    const LEN: usize = 24;
    let mut chain = String::from("move(X,Y), not win(Y) -> win(X).\n");
    for i in 0..LEN {
        chain.push_str(&format!("move(p{},p{i}).\n", i + 1));
    }
    let delta = "move\tp0\tescape\n";
    let resumed_kb = || {
        let mut kb = KnowledgeBase::from_source(&chain).unwrap();
        let base = kb.try_solve_with(options()).unwrap();
        kb.insert_tsv(delta).unwrap();
        (kb, base)
    };
    // The unfaulted resume: where the cone's components sit.
    let (mut kb, base) = resumed_kb();
    let complete = kb.try_solve_with(options()).unwrap();
    assert!(complete.solve_stats().incremental && complete.outcome().is_complete());
    let stats = complete.model().component_stats().unwrap();
    assert_eq!(stats.largest_component, 1, "one component per cone atom");
    // The cone's components take the last ordinals; dissolved ones keep
    // theirs, so the ordinals are counted by the stages, not the
    // components.
    let first_cone_ordinal = complete.model().stages() as usize - stats.cone_atoms;
    // The engine's own verdicts (an atom that is only ever a negative
    // hypothesis sits outside the segment and reads false regardless).
    let verdict = |m: &SolvedModel, a| m.model().result.value(a);
    let flipped: Vec<_> = (base.model().ground.atoms().iter().copied())
        .filter(|&a| verdict(&base, a) != verdict(&complete, a))
        .collect();
    assert!(flipped.len() > LEN, "the delta reverses the whole chain");

    for into_cone in [0, 1, stats.cone_atoms / 2, stats.cone_atoms - 1] {
        for (kind, reason) in TRIP_KINDS {
            let label = format!("cone+{into_cone}/{kind:?}");
            let (mut kb, base) = resumed_kb();
            let site = FaultSite::WfsComponent((first_cone_ordinal + into_cone) as u32);
            kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan { site, kind }));
            let truncated = kb.try_solve_with(options()).unwrap();
            assert_eq!(truncated.outcome().truncation(), Some(reason), "{label}");
            assert!(truncated.solve_stats().incremental, "{label}");
            // Same universe, same ids: atom by atom, a verdict is the
            // final one or none at all.
            let mut undecided = 0;
            for &atom in truncated.model().ground.atoms() {
                let got = verdict(&truncated, atom);
                undecided += usize::from(got.is_unknown());
                assert!(
                    got.is_unknown() || got == verdict(&complete, atom),
                    "{label}: {} reads {got}, finally {}, before the delta {}",
                    truncated.universe().display_atom(atom),
                    verdict(&complete, atom),
                    verdict(&base, atom)
                );
            }
            assert_eq!(
                undecided,
                stats.cone_atoms - into_cone,
                "{label}: the components from the trip on, and only they, are undecided"
            );
            assert!(
                flipped.iter().any(|&a| verdict(&truncated, a).is_unknown()),
                "{label}: the trip fell inside the cone"
            );
            kb.set_solve_budget(SolveBudget::unlimited());
            let recovered = kb.try_solve_with(options()).unwrap();
            assert!(recovered.outcome().is_complete(), "{label}");
            assert_eq!(observe(&recovered), observe(&complete), "{label}");
        }
    }
}

/// The goal `solve_for` is driven with: its slice (`safe`, `reach`, `win`
/// and their inputs) keeps the multi-round chase and the recursive core,
/// so every site of [`sites`] lies on the sliced path too.
const SLICED_QUERY: &str = "?(X) safe(X).";

/// [`observe`] for a sliced model, which carries no source queries: the
/// goal query's answers stand in for them.
fn observe_sliced(model: &SolvedModel) -> (String, String, Vec<String>) {
    assert!(model.is_sliced());
    let (certain, unknown, _) = observe(model);
    let q = model.prepare_sliced(SLICED_QUERY).unwrap();
    let mut answers: Vec<String> = model
        .answers_prepared(&q)
        .tuples()
        .map(|t| model.universe().display_term(t[0]).to_string())
        .collect();
    answers.sort();
    (certain, unknown, answers)
}

/// The uninterrupted sliced reference for a given fact set.
fn sliced_reference(with_delta: bool) -> (String, String, Vec<String>) {
    let mut kb = kb(with_delta).with_options(options());
    let model = kb.solve_for(SLICED_QUERY).unwrap();
    assert!(model.outcome().is_complete(), "reference must be complete");
    observe_sliced(&model)
}

/// Panic kind through `solve_for`: `Error::EnginePanic` at the boundary,
/// and — the sliced solve ran on a scratch universe — nothing about the
/// knowledge base changed: the cached full model is still served, the
/// pending delta still resumes, and the next `solve_for` and the next
/// `solve` are bit-identical to the unfaulted references. While that full
/// model is current `solve_for` runs no solve at all, so there the fault
/// has nothing to fire in.
#[test]
fn solve_for_contains_every_panic_and_leaves_the_knowledge_base_untouched() {
    let union_obs = reference(true);
    let sliced_obs = sliced_reference(true);
    let (_, _, base_answers) = sliced_reference(false);
    for site in sites() {
        let label = format!("solve_for/{site:?}/Panic");
        let panic = SolveBudget::unlimited().with_fault(FaultPlan {
            site,
            kind: FaultKind::Panic,
        });
        let mut kb = kb(false).with_options(options());
        kb.set_solve_budget(panic.clone());
        match kb.solve_for(SLICED_QUERY) {
            Err(wfdatalog::Error::EnginePanic(msg)) => {
                assert!(msg.contains("injected fault"), "{label}: {msg}");
            }
            Err(other) => panic!("{label}: wrong error: {other}"),
            Ok(_) => panic!("{label}: panic must not produce a model"),
        }
        kb.set_solve_budget(SolveBudget::unlimited());
        let full = kb.try_solve().unwrap();
        assert!(!full.solve_stats().incremental, "{label}: first full solve");
        kb.set_solve_budget(panic);
        let view = kb.solve_for(SLICED_QUERY).unwrap();
        assert!(!view.solve_stats().sliced, "{label}: nothing to solve");
        assert_eq!(
            observe_sliced(&view).2,
            base_answers,
            "{label}: answers from the full model"
        );
        kb.set_solve_budget(SolveBudget::unlimited());
        assert!(
            Arc::ptr_eq(&full, &kb.try_solve().unwrap()),
            "{label}: the cached full model must survive"
        );
        // Same again with a delta pending: it must still be resumed,
        // not recomputed from scratch.
        kb.insert_tsv(DELTA).unwrap();
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan {
            site,
            kind: FaultKind::Panic,
        }));
        assert!(
            matches!(
                kb.solve_for(SLICED_QUERY),
                Err(wfdatalog::Error::EnginePanic(_))
            ),
            "{label}: with a pending delta"
        );
        kb.set_solve_budget(SolveBudget::unlimited());
        let sliced = kb.solve_for(SLICED_QUERY).unwrap();
        assert!(sliced.outcome().is_complete(), "{label}");
        assert_eq!(
            observe_sliced(&sliced),
            sliced_obs,
            "{label}: next solve_for"
        );
        let resumed = kb.try_solve().unwrap();
        assert!(
            resumed.solve_stats().incremental,
            "{label}: no forced full recompute"
        );
        assert_eq!(observe(&resumed), union_obs, "{label}: next solve");
    }
}

/// Trip kinds through `solve_for`: a truncated, sound, *uncached* sliced
/// model; with the budget cleared the next `solve_for` re-solves and is
/// bit-identical to the unfaulted reference.
#[test]
fn solve_for_trips_degrade_soundly_and_are_never_cached() {
    let reference_true: std::collections::BTreeSet<String> =
        (reference(false).0.lines().map(|l| l.to_string())).collect();
    let sliced_obs = sliced_reference(false);
    for site in sites() {
        for (kind, reason) in TRIP_KINDS {
            let label = format!("solve_for/{site:?}/{kind:?}");
            let mut kb = kb(false).with_options(options());
            kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan { site, kind }));
            let truncated = kb
                .solve_for(SLICED_QUERY)
                .unwrap_or_else(|e| panic!("{label}: trip must not error: {e}"));
            assert_eq!(truncated.outcome().truncation(), Some(reason), "{label}");
            assert!(
                truncated.is_sliced() && truncated.under_approximate(),
                "{label}"
            );
            for line in true_lines(&truncated) {
                assert!(
                    reference_true.contains(&line),
                    "{label}: {line} is certain only under truncation"
                );
            }
            kb.set_solve_budget(SolveBudget::unlimited());
            let recovered = kb.solve_for(SLICED_QUERY).unwrap();
            assert!(!Arc::ptr_eq(&truncated, &recovered), "{label}: cached");
            assert!(recovered.outcome().is_complete(), "{label}");
            assert_eq!(observe_sliced(&recovered), sliced_obs, "{label}");
        }
    }
}

/// A structural-cap truncation (`max_atoms`) is not resumable; the next
/// incremental solve must fall back to a full re-chase instead of
/// panicking (regression for the old `resume_with` cap panic).
#[test]
fn cap_truncated_segment_falls_back_to_full_rechase() {
    let mut kb = kb(false);
    // Tiny atom cap: the chase peters out mid-way with `AtomCap`.
    let opts = options();
    let mut capped = opts;
    capped.budget = capped.budget.with_max_atoms(4);
    let first = kb.try_solve_with(capped).unwrap();
    assert_eq!(
        first.outcome().truncation(),
        Some(TruncationReason::AtomCap),
        "the cap must actually bite for this regression to mean anything"
    );
    kb.insert_tsv(DELTA).unwrap();
    // The capped segment cannot be resumed; the solver must silently fall
    // back to a full re-chase of base + delta under the same cap.
    let second = kb.try_solve_with(capped).unwrap();
    let q = second.prepare("?(X) win(X).").unwrap();
    let _ = second.answers_prepared(&q);
    // And with the cap lifted the same KB reaches the uncapped union model.
    let full = kb.try_solve_with(opts).unwrap();
    assert!(full.outcome().is_complete());
    assert_eq!(observe(&full), reference(true));
}
