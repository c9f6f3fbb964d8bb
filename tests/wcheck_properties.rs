//! WCHECK properties: demand-driven membership agrees with the global
//! fixpoint — and with the definitional `W_P` oracle run on the atom's
//! dependency cone — and certificates verify (and only genuine ones do).

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::wfs::{solve, wcheck, WellFoundedModel, WfsOptions};
use wfdatalog::{Truth, Universe};
use wfdl_gen::{
    random_database, random_program, winmove_cycle, winmove_database, winmove_sigma, RandomConfig,
    RandomDbConfig, WinMoveConfig,
};
use wfdl_reference::{StepMode, WpEngine};

/// `wcheck::decide` on every segment atom against two references: the full
/// model (splitting: the cone's model is the global one restricted to it),
/// and the `W_P` oracle on the atom's dependency cone (a different engine
/// on the same relevance-closed subprogram).
fn assert_decide_matches_model_and_cone_oracle(u: &Universe, model: &WellFoundedModel, ctx: &str) {
    for sa in model.segment.atoms() {
        let decided = wcheck::decide(&model.ground, sa.atom);
        let shown = u.display_atom(sa.atom);
        assert_eq!(decided, model.value(sa.atom), "{ctx}, atom {shown}");
        let cone = wcheck::dependency_cone(&model.ground, &[sa.atom]);
        let oracle = WpEngine::new(&cone).solve(StepMode::Accelerated);
        assert_eq!(decided, oracle.value(sa.atom), "{ctx}, cone of {shown}");
    }
}

#[test]
fn decide_agrees_with_model_and_cone_oracle_on_example4() {
    for depth in [3u32, 5, 7] {
        let mut u = Universe::new();
        let (db, sigma) = wfdatalog::chase::paper::example4(&mut u);
        let model = solve(&mut u, &db, &sigma, WfsOptions::depth(depth));
        assert_decide_matches_model_and_cone_oracle(&u, &model, &format!("depth {depth}"));
        // An atom no rule or fact mentions has no forward proof at all.
        let q = u.lookup_pred("Q").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let q0 = u.atom(q, vec![zero]).unwrap();
        assert_eq!(wcheck::decide(&model.ground, q0), Truth::False);
    }
}

#[test]
fn decide_agrees_with_model_and_cone_oracle_on_winmove_draw_cycles() {
    // An odd cycle: every position drawn, every cone the whole program.
    let mut u = Universe::new();
    let sigma = winmove_sigma(&mut u);
    let db = winmove_cycle(&mut u, 5);
    let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
    assert_eq!(model.counts().2, 5, "five drawn positions");
    assert_decide_matches_model_and_cone_oracle(&u, &model, "5-cycle");

    let mut saw_unknowns = false;
    for seed in 0..6u64 {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let config = WinMoveConfig {
            nodes: 48,
            out_degree: 2.0,
            forward_bias: 0.5,
            seed,
        };
        let db = winmove_database(&mut u, &config);
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
        saw_unknowns |= model.counts().2 > 0;
        assert_decide_matches_model_and_cone_oracle(&u, &model, &format!("winmove seed {seed}"));
    }
    assert!(saw_unknowns, "the seeds must include draw cycles");
}

#[test]
fn decide_agrees_with_global_solve_on_random_workloads() {
    for seed in 0..25u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed,
                num_rules: 10,
                negation_prob: 0.5,
                existential_prob: 0.2,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed.wrapping_mul(31),
                ..Default::default()
            },
        );
        let model = solve(&mut u, &db, &w.sigma, WfsOptions::depth(4));
        assert_decide_matches_model_and_cone_oracle(&u, &model, &format!("seed {seed}"));
    }
}

#[test]
fn every_true_atom_has_a_verifying_certificate() {
    for seed in 0..15u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed: seed.wrapping_add(1000),
                num_rules: 10,
                negation_prob: 0.5,
                existential_prob: 0.15,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed ^ 0xC0FFEE,
                ..Default::default()
            },
        );
        let model = solve(&mut u, &db, &w.sigma, WfsOptions::depth(4));
        for atom in model.true_atoms().collect::<Vec<_>>() {
            let cert =
                wcheck::certify(&model.segment, &model.result.interp, atom).unwrap_or_else(|| {
                    panic!(
                        "seed {seed}: true atom {} lacks a certificate",
                        u.display_atom(atom)
                    )
                });
            assert!(
                wcheck::verify(&model.segment, &model.result.interp, &cert),
                "seed {seed}: certificate for {} failed verification",
                u.display_atom(atom)
            );
            assert_eq!(cert.path.last(), Some(&atom));
        }
    }
}

#[test]
fn every_false_atom_has_a_refutation() {
    for seed in 0..15u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed: seed.wrapping_add(2000),
                num_rules: 10,
                negation_prob: 0.6,
                existential_prob: 0.1,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed ^ 0xBEEF,
                ..Default::default()
            },
        );
        let model = solve(&mut u, &db, &w.sigma, WfsOptions::depth(4));
        for sa in model.segment.atoms() {
            if !model.is_false(sa.atom) {
                continue;
            }
            let refutation = wcheck::refute(&model.segment, &model.result.interp, sa.atom)
                .unwrap_or_else(|| {
                    panic!(
                        "seed {seed}: false atom {} lacks a refutation",
                        u.display_atom(sa.atom)
                    )
                });
            // Either no rule derives it, or every deriving rule is blocked.
            assert!(
                refutation.no_derivation
                    || refutation.blocked.len() == model.segment.instances_with_head(sa.atom).len()
            );
        }
    }
}

#[test]
fn certificates_do_not_exist_for_non_true_atoms() {
    let mut u = Universe::new();
    let (db, sigma) = wfdatalog::chase::paper::example4(&mut u);
    let model = solve(&mut u, &db, &sigma, WfsOptions::depth(5));
    let s = u.lookup_pred("S").unwrap();
    let zero = u.lookup_constant("0").unwrap();
    let s0 = u.atoms.lookup(s, &[zero]).unwrap();
    assert!(model.is_false(s0));
    assert!(wcheck::certify(&model.segment, &model.result.interp, s0).is_none());
}

#[test]
fn cone_extraction_is_closed() {
    let mut u = Universe::new();
    let w = random_program(&mut u, &RandomConfig::default());
    let db = random_database(&mut u, &w, &RandomDbConfig::default());
    let model = solve(&mut u, &db, &w.sigma, WfsOptions::depth(4));
    for sa in model.segment.atoms().iter().take(10) {
        let cone = wcheck::dependency_cone(&model.ground, &[sa.atom]);
        // Dependency closure: every body atom of a cone rule has all *its*
        // deriving rules in the cone.
        for rule in cone.rules() {
            for &b in rule.pos.iter().chain(rule.neg.iter()) {
                assert_eq!(
                    cone.rules_with_head(b).len(),
                    model.ground.rules_with_head(b).len(),
                    "cone not closed under dependencies"
                );
            }
        }
    }
}
