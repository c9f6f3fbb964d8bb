//! The modular stage of an atom, read off the model rather than recorded:
//! the emission ordinal + 1 of its component in the engine's memo, for
//! every decided atom of a model whose engine finished, and nothing at all
//! for a model whose engine did not.

// Test code: panicking on a broken invariant IS the failure signal.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::{KnowledgeBase, SolveBudget, SolvedModel, WfsOptions};
use wfdl_core::budget::{FaultKind, FaultPlan, FaultSite};
use wfdl_core::AtomId;

/// A reachability closure feeding a win–move core, so that both the chase
/// and the engine have several steps to be stopped at.
const SRC: &str = r#"
    e(n0,n1). e(n1,n2). e(n2,n3). e(n3,n4).
    move(n0,n1). move(n1,n2). move(n2,n0). move(n3,n4).
    start(n0).
    start(X) -> reach(X).
    reach(X), e(X,Y) -> reach(Y).
    move(X,Y), not win(Y) -> win(X).
    reach(X), not win(X) -> safe(X).
"#;

/// Every atom id of the model's universe.
fn every_atom(model: &SolvedModel) -> impl Iterator<Item = AtomId> {
    (0..model.universe().atoms.len()).map(AtomId::from_index)
}

/// A chase stopped by a trip runs no engine, and a sweep stopped by one
/// publishes no memo: either way no atom has a stage, decided ones
/// included. The stage count reads as it always has — `1` for the
/// positive closure of a tripped chase, the component count for a tripped
/// sweep.
#[test]
fn a_model_whose_engine_did_not_finish_reports_no_stage() {
    let complete = KnowledgeBase::from_source(SRC)
        .unwrap()
        .try_solve_with(WfsOptions::unbounded())
        .unwrap();
    assert!(complete.outcome().is_complete());
    let components = complete.model().component_stats().unwrap().components as u32;
    assert_eq!(complete.model().stages(), components);
    assert!(every_atom(&complete).any(|a| complete.model().stage_of(a).is_some()));

    for (site, stages) in [
        (FaultSite::ChaseRound(1), 1),
        (FaultSite::WfsComponent(3), components),
    ] {
        let mut kb = KnowledgeBase::from_source(SRC).unwrap();
        let kind = FaultKind::TripCancel;
        kb.set_solve_budget(SolveBudget::unlimited().with_fault(FaultPlan { site, kind }));
        let tripped = kb.try_solve_with(WfsOptions::unbounded()).unwrap();
        assert!(tripped.outcome().truncation().is_some(), "{site:?}");
        let model = tripped.model();
        assert_eq!(model.stages(), stages, "{site:?}");
        let decided = (model.ground.atoms().iter()).filter(|&&a| !model.value(a).is_unknown());
        assert!(
            decided.count() > 0,
            "{site:?}: the trip left nothing decided"
        );
        for atom in every_atom(&tripped) {
            assert_eq!(model.stage_of(atom), None, "{site:?}: {atom:?}");
        }
    }
}

/// Win–move edges `n{a} → n{b}`, as source text.
fn moves(edges: &[(usize, usize)]) -> String {
    edges
        .iter()
        .map(|(a, b)| format!("move(n{a},n{b}).\n"))
        .collect()
}

/// A chain of resumes whose moves leave old positions: the cone reaches
/// back into decided components, which dissolve and come back under fresh
/// ordinals. After every resume each decided atom's stage is one past the
/// ordinal of the component its condensation row puts it in, an undecided
/// atom has none, and stages never decrease along a rule.
#[test]
fn after_resumes_that_dissolve_components_a_stage_is_the_ordinal_plus_one() {
    const LEN: usize = 40;
    let chain: Vec<(usize, usize)> = (0..LEN).map(|i| (i + 1, i)).collect();
    let steps = [
        vec![(LEN - 3, LEN + 1)],
        vec![(10, LEN - 3), (LEN + 1, 10)],
        vec![(0, LEN + 2), (5, 0)],
        vec![(20, LEN + 3), (LEN + 3, 20)],
    ];
    let mut kb = KnowledgeBase::from_source("move(X,Y), not win(Y) -> win(X).").unwrap();
    kb.add_source(&moves(&chain)).unwrap();
    kb.solve();
    for (k, step) in steps.iter().enumerate() {
        kb.add_source(&moves(step)).unwrap();
        let solved = kb.solve();
        assert!(solved.solve_stats().incremental, "step {k}");
        let model = solved.model();
        let cond = &model.result.memo.as_ref().unwrap().condensation;
        assert!(
            cond.num_ordinals() > cond.num_components(),
            "step {k}: no component dissolved"
        );
        let mut seen = 0;
        for (c, comp) in cond.iter().enumerate() {
            for &local in comp {
                let atom = model.ground.atom_of_local(local);
                let stage = (!model.value(atom).is_unknown()).then_some(c as u32 + 1);
                assert_eq!(model.stage_of(atom), stage, "step {k}: {atom:?}");
                seen += 1;
            }
        }
        assert_eq!(seen, model.ground.num_atoms(), "step {k}");
        let stage = |local: u32| model.stage_of(model.ground.atom_of_local(local));
        for r in 0..model.ground.num_rules() {
            let body = model.ground.pos_local(r).iter();
            for &b in body.chain(model.ground.neg_local(r)) {
                if let (Some(head), Some(body)) = (stage(model.ground.head_local(r)), stage(b)) {
                    assert!(body <= head, "step {k}: rule {r}");
                }
            }
        }
    }
}
