// Oracles from the dev-dependency: they link a second, non-test build
// of this crate, so results are compared through `wfdl-core` types
// (`Truth`, `AtomId`) only.
use proptest::prelude::*;
use wfdl_core::AtomId;
use wfdl_reference::{AlternatingEngine, StepMode, WpEngine};
use wfdl_storage::{GroundProgram, GroundProgramBuilder, GroundRule};

use super::*;
use wfdl_core::budget::FaultSite;
use wfdl_core::{SolveBudget, TruncationReason, Truth};

pub(super) fn a(i: usize) -> AtomId {
    AtomId::from_index(i)
}

pub(super) fn agree_with_global(b: &GroundProgramBuilder) {
    let p = b.clone().finish();
    let modular = ModularEngine::new(&p).solve();
    let wp = WpEngine::new(&p).solve(StepMode::Accelerated);
    let alt = AlternatingEngine::new(&p).solve();
    for &atom in p.atoms() {
        assert_eq!(modular.value(atom), wp.value(atom), "vs Wp on {atom:?}");
        assert_eq!(modular.value(atom), alt.value(atom), "vs Alt on {atom:?}");
    }
}

#[test]
fn budget_trip_truncates_to_a_sound_under_approximation() {
    // A trip fault at a mid-sweep component stops evaluation at a
    // component boundary: the result reports the reason, carries
    // no memo, and every decided atom agrees with the complete model
    // (nothing flips — undecided atoms only degrade to Unknown).
    let mut b = GroundProgramBuilder::new();
    b.add_fact(a(0));
    for i in 1..64 {
        b.add_rule(GroundRule::new(a(i), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(64 + i), vec![a(i)], vec![]));
    }
    let p = b.finish();
    let full = ModularEngine::new(&p).solve();
    assert_eq!(full.truncation, None);
    assert!(full.memo.is_some());
    let victim = condensation(&p).num_components() as u32 / 2;
    let plan = wfdl_core::budget::FaultPlan {
        site: FaultSite::WfsComponent(victim),
        kind: wfdl_core::budget::FaultKind::TripCancel,
    };
    let res = ModularEngine::new(&p)
        .with_budget(SolveBudget::unlimited().with_fault(plan))
        .solve();
    assert_eq!(res.truncation, Some(TruncationReason::Cancelled));
    assert!(res.memo.is_none(), "truncated result must drop its memo");
    let mut undecided = 0usize;
    for &atom in p.atoms() {
        match res.value(atom) {
            Truth::Unknown => {
                undecided += 1;
                // Sound under-approximation: only degrades.
            }
            v => assert_eq!(v, full.value(atom), "decided atom flipped"),
        }
    }
    assert!(
        undecided > 0,
        "trip at {victim} should leave atoms undecided"
    );
}

#[test]
fn pre_cancelled_budget_yields_fully_unknown_model() {
    let mut b = GroundProgramBuilder::new();
    b.add_fact(a(0));
    b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
    let p = b.finish();
    let token = wfdl_core::CancelToken::new();
    token.cancel();
    let res = ModularEngine::new(&p)
        .with_budget(SolveBudget::unlimited().with_cancel(token))
        .solve();
    assert_eq!(res.truncation, Some(TruncationReason::Cancelled));
    for &atom in p.atoms() {
        assert_eq!(res.value(atom), Truth::Unknown);
    }
}

#[test]
fn empty_program() {
    let p = GroundProgramBuilder::new().finish();
    let res = ModularEngine::new(&p).solve();
    assert_eq!(res.stages, 0);
    assert_eq!(res.stats.unwrap().components, 0);
}

/// A cold solve is the sweep against the empty model, whose cone is every
/// atom in local-id order, so its memo carries Tarjan's condensation of the
/// whole program, ordinal for ordinal: the ordinals that fault sites
/// (`FaultSite::WfsComponent`) and stages are named by.
fn assert_cold_ordinals(p: &GroundProgram) {
    let memo = ModularEngine::new(p).solve().memo.unwrap();
    let (got, want) = (&memo.condensation, condensation(p));
    assert_eq!(got.comp_of, want.comp_of);
    assert_eq!(got.num_ordinals(), want.num_ordinals());
    assert_eq!(got.num_components(), want.num_components());
    assert!(got.iter().eq(want.iter()), "component rows differ");
}

#[test]
fn a_cold_solve_keeps_tarjans_ordinals_on_the_bundled_programs() {
    let depth = crate::WfsOptions::depth;
    for (name, options) in [
        ("example4.dl", depth(7)),
        ("employment.dl", depth(6)),
        ("win_move.dl", crate::WfsOptions::unbounded()),
    ] {
        let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).unwrap();
        let mut u = wfdl_core::Universe::new();
        let lowered = wfdl_syntax::load(&mut u, &src).unwrap();
        let sigma = lowered.skolem_program(&mut u).unwrap();
        let model = crate::solve(&mut u, &lowered.database, &sigma, options);
        assert!(model.ground.num_atoms() > 0, "{name}");
        assert_cold_ordinals(&model.ground);
    }
}

/// Rules `(head, positive body, negative body)` and facts over `atoms`.
type Random = (Vec<(usize, Vec<usize>, Vec<usize>)>, Vec<usize>);

fn random_program(atoms: usize) -> impl Strategy<Value = Random> {
    let body = || proptest::collection::vec(0..atoms, 0..3);
    (
        proptest::collection::vec((0..atoms, body(), body()), 0..48),
        proptest::collection::vec(0..atoms, 0..6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_cold_solve_keeps_tarjans_ordinals(program in random_program(24)) {
        let (rules, facts) = program;
        let mut b = GroundProgramBuilder::new();
        for &f in &facts {
            b.add_fact(a(f));
        }
        for (head, pos, neg) in &rules {
            let of = |body: &[usize]| body.iter().map(|&i| a(i)).collect();
            b.add_rule(GroundRule::new(a(*head), of(pos), of(neg)));
        }
        assert_cold_ordinals(&b.finish());
    }
}

/// A delta over a program: new facts, and new rules `(head, positive body,
/// negative body)`. An atom is named by a number: below [`OLD`] it picks an
/// atom the program already has, from [`OLD`] on an atom new in this delta,
/// numbered past every atom so far (so the old atoms stay a prefix).
type Delta = (Vec<usize>, Vec<(usize, Vec<usize>, Vec<usize>)>);

const OLD: usize = 8;

fn delta() -> impl Strategy<Value = Delta> {
    let body = || proptest::collection::vec(0..2 * OLD, 0..3);
    (
        proptest::collection::vec(0..2 * OLD, 0..3),
        proptest::collection::vec((0..2 * OLD, body(), body()), 0..6),
    )
}

/// Adds `delta` to `b`, which built `prev`.
fn grow(b: &mut GroundProgramBuilder, prev: &GroundProgram, delta: &Delta) {
    let old = prev.atoms().to_vec();
    let fresh = old.last().map_or(0, |a| a.index() + 1);
    let name = |i: &usize| match old.len() {
        0 => a(fresh + i % OLD),
        len if *i < OLD => old[i % len],
        _ => a(fresh + i - OLD),
    };
    let (facts, rules) = delta;
    for f in facts {
        b.add_fact(name(f));
    }
    for (head, pos, neg) in rules {
        let body = |atoms: &[usize]| atoms.iter().map(name).collect();
        b.add_rule(GroundRule::new(name(head), body(pos), body(neg)));
    }
}

/// Checks the result `inc` of `prog` resumed over `prev` against a solve
/// from scratch: every verdict, the counters that describe the model, and
/// stages monotone along every rule.
fn assert_resume_agrees(
    prev: &GroundProgram,
    prog: &GroundProgram,
    inc: &crate::EngineResult,
    step: usize,
) {
    let fresh = ModularEngine::new(prog).solve();
    // Over an empty program the sweep is against the empty model.
    let resumed = prev.num_atoms() > 0;
    assert_eq!(inc.cone.is_some(), resumed, "step {step}");
    for &atom in prog.atoms() {
        assert_eq!(inc.value(atom), fresh.value(atom), "step {step}: {atom:?}");
    }
    let (is, fs) = (inc.stats.unwrap(), fresh.stats.unwrap());
    let model = |s: ModularStats| {
        (
            s.components,
            s.definite_components,
            s.recursive_components,
            s.largest_component,
            s.atoms_in_recursive,
            s.rules_in_recursive,
            s.unknown_atoms,
        )
    };
    assert_eq!(model(is), model(fs), "step {step}: {is:?}");
    assert_eq!(
        is.components_reused + is.components_evaluated,
        is.components
    );
    let memo = inc.memo.as_ref().unwrap();
    for r in 0..prog.num_rules() {
        let head = memo.stage(prog.head_local(r));
        for &b in prog.pos_local(r).iter().chain(prog.neg_local(r)) {
            if let (Some(head), Some(body)) = (head, memo.stage(b)) {
                assert!(body <= head, "step {step}: rule {r}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chained_resumes_agree_with_a_solve_from_scratch(
        program in random_program(16),
        deltas in proptest::collection::vec(delta(), 3..7),
    ) {
        let (rules, facts) = program;
        let mut b = GroundProgramBuilder::new();
        for &f in &facts {
            b.add_fact(a(f));
        }
        for (head, pos, neg) in &rules {
            let of = |body: &[usize]| body.iter().map(|&i| a(i)).collect();
            b.add_rule(GroundRule::new(a(*head), of(pos), of(neg)));
        }
        let mut prev = b.clone().finish();
        let mut res = ModularEngine::new(&prev).solve();
        for (step, delta) in deltas.iter().enumerate() {
            grow(&mut b, &prev, delta);
            let grown = b.clone().finish();
            let inc = ModularEngine::new(&grown).solve_incremental(Some((&prev, &res)));
            assert_resume_agrees(&prev, &grown, &inc, step);
            (prev, res) = (grown, inc);
        }
    }
}

#[test]
fn a_flip_through_not_reaches_a_seed_free_component() {
    // a1 ← ¬a0, a2 ← ¬a1: a1 true, a2 false. The fact a0 flips a1, and a1
    // flips a2, whose component holds no seed and reads a1 only through
    // `not`.
    let mut b = GroundProgramBuilder::new();
    b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
    b.add_rule(GroundRule::new(a(2), vec![], vec![a(1)]));
    let base = b.clone().finish();
    let base_res = ModularEngine::new(&base).solve();
    assert_eq!(base_res.value(a(2)), Truth::False);
    b.add_fact(a(0));
    let grown = b.finish();
    let inc = ModularEngine::new(&grown).solve_incremental(Some((&base, &base_res)));
    assert_resume_agrees(&base, &grown, &inc, 0);
    assert_eq!(inc.value(a(2)), Truth::True);
    let stats = inc.stats.unwrap();
    assert_eq!((stats.cone_atoms, stats.components_evaluated), (3, 3));
}

#[test]
fn an_untouched_recursive_component_is_carried_with_its_class() {
    // c1 ← c0 (a fact); the draw c2 ← c1, ¬c3 and c3 ← ¬c2 above it. A new
    // rule c1 ← ¬c4 (c4 new, false) leaves c1 true: the draw is in the cone,
    // holds no seed and reads nothing that moved, so it is carried
    // unclassified — still counted recursive, with its atoms and rules.
    let mut b = GroundProgramBuilder::new();
    b.add_fact(a(0));
    b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
    b.add_rule(GroundRule::new(a(2), vec![a(1)], vec![a(3)]));
    b.add_rule(GroundRule::new(a(3), vec![], vec![a(2)]));
    let base = b.clone().finish();
    let base_res = ModularEngine::new(&base).solve();
    b.add_rule(GroundRule::new(a(1), vec![], vec![a(4)]));
    let grown = b.finish();
    let inc = ModularEngine::new(&grown).solve_incremental(Some((&base, &base_res)));
    assert_resume_agrees(&base, &grown, &inc, 0);
    assert_eq!(inc.value(a(2)), Truth::Unknown);
    let stats = inc.stats.unwrap();
    assert_eq!(stats.cone_atoms, 4, "c4, c1 and the draw: {stats:?}");
    assert_eq!(stats.components_evaluated, 2, "c4 and c1: {stats:?}");
    assert_eq!(
        (
            stats.recursive_components,
            stats.atoms_in_recursive,
            stats.rules_in_recursive
        ),
        (1, 2, 2)
    );
}
