//! The classical relationship the paper invokes in its introduction: the
//! WFS *approximates the answer set semantics*. Verified by brute force on
//! random small ground programs.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdatalog::storage::{GroundProgram, GroundProgramBuilder, GroundRule};
use wfdatalog::{AtomId, Truth};
use wfdl_reference::{stable_models, StepMode, WpEngine};

fn ground_program(max_atoms: usize, max_rules: usize) -> impl Strategy<Value = GroundProgram> {
    let rule = (
        0..max_atoms,
        proptest::collection::vec(0..max_atoms, 0..2),
        proptest::collection::vec(0..max_atoms, 0..2),
    );
    (
        proptest::collection::vec(0..max_atoms, 0..2),
        proptest::collection::vec(rule, 1..max_rules),
    )
        .prop_map(|(facts, rules)| {
            let mut b = GroundProgramBuilder::new();
            for f in facts {
                b.add_fact(AtomId::from_index(f));
            }
            for (h, pos, neg) in rules {
                b.add_rule(GroundRule::new(
                    AtomId::from_index(h),
                    pos.into_iter().map(AtomId::from_index).collect(),
                    neg.into_iter().map(AtomId::from_index).collect(),
                ));
            }
            b.finish()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// WFS-true ⊆ every stable model; WFS-false ∩ every stable model = ∅.
    #[test]
    fn wfs_approximates_stable_models(p in ground_program(8, 8)) {
        let wfs = WpEngine::new(&p).solve(StepMode::Accelerated);
        let models = stable_models(&p).expect("within enumeration bound");
        for model in &models {
            for &atom in p.atoms() {
                match wfs.value(atom) {
                    Truth::True => prop_assert!(
                        model.contains(&atom),
                        "WFS-true atom {:?} missing from stable model {:?}",
                        atom, model
                    ),
                    Truth::False => prop_assert!(
                        !model.contains(&atom),
                        "WFS-false atom {:?} present in stable model {:?}",
                        atom, model
                    ),
                    Truth::Unknown => {}
                }
            }
        }
    }

    /// If the WFS is total, it is the unique stable model.
    #[test]
    fn total_wfs_is_unique_stable_model(p in ground_program(8, 8)) {
        let wfs = WpEngine::new(&p).solve(StepMode::Accelerated);
        let total = p.atoms().iter().all(|&a| !wfs.value(a).is_unknown());
        if total {
            let models = stable_models(&p).expect("within enumeration bound");
            prop_assert_eq!(models.len(), 1, "total WFS must be the unique stable model");
            let mut wfs_true: Vec<AtomId> =
                p.atoms().iter().copied().filter(|&a| wfs.value(a).is_true()).collect();
            wfs_true.sort_unstable();
            prop_assert_eq!(&models[0], &wfs_true);
        }
    }
}
