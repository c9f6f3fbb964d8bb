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
