//! Instances that ground to the same rule: `ChaseSegment::to_ground_program`
//! (and `to_ground_program_from` after a resume) makes one ground rule per
//! instance, repeats included, and the repeats change no verdict.
//!
//! `W_P` asks of each atom only whether *some* rule for it fires or stays
//! unblocked, so a rule written twice decides nothing its twin does not.
//! Every case below asserts `instances == ground rules` and then that the
//! modular engine's verdicts equal both `WpEngine`'s and those of the same
//! program with its repeats removed here, through a `HashSet<GroundRule>`.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::collections::HashSet;
use wfdl_chase::{ChaseBudget, ChaseSegment};
use wfdl_core::{SkolemProgram, Truth, Universe};
use wfdl_gen::{random_database, random_ontology, random_program, OntologyConfig};
use wfdl_gen::{RandomConfig, RandomDbConfig};
use wfdl_reference::{StepMode, WpEngine};
use wfdl_storage::{GroundProgram, GroundProgramBuilder};
use wfdl_wfs::{solve, solve_resumed, EngineResult, ModularEngine, WellFoundedModel, WfsOptions};

/// `ground` with each rule kept at its first occurrence only.
fn without_repeats(ground: &GroundProgram) -> GroundProgram {
    let mut b = GroundProgramBuilder::new();
    for &f in ground.facts() {
        b.add_fact(f);
    }
    let mut seen = HashSet::new();
    for rule in ground.rules() {
        if seen.insert(rule.clone()) {
            b.add_rule(rule);
        }
    }
    b.finish()
}

/// Asserts that the modular engine's verdicts `modular` on `ground` equal
/// `WpEngine`'s and the modular engine's on `ground` without its repeats.
fn assert_repeats_decide_nothing(ground: &GroundProgram, modular: &EngineResult) {
    let wp = WpEngine::new(ground).solve(StepMode::Accelerated);
    let once = without_repeats(ground);
    let once_verdicts = ModularEngine::new(&once).solve();
    for &atom in ground.atoms() {
        let verdict = modular.value(atom);
        assert_eq!(verdict, wp.value(atom), "WpEngine on {atom:?}");
        assert_eq!(
            verdict,
            once_verdicts.value(atom),
            "without repeats on {atom:?}"
        );
    }
}

/// Chases `src`, checks the verdicts of its ground program, and returns
/// `(instances, ground rules, rules without repeats)`.
fn chase_and_check(src: &str, budget: ChaseBudget) -> (usize, usize, usize) {
    let mut u = Universe::new();
    let lowered = wfdl_syntax::load(&mut u, src).unwrap();
    let sigma = lowered.skolem_program(&mut u).unwrap();
    let seg = ChaseSegment::build(&mut u, &lowered.database, &sigma, budget);
    let ground = seg.to_ground_program();
    assert_repeats_decide_nothing(&ground, &ModularEngine::new(&ground).solve());
    let once = without_repeats(&ground).num_rules();
    (seg.num_instances(), ground.num_rules(), once)
}

#[test]
fn a_rule_written_twice_grounds_twice() {
    let src = "p(a). p(b). q(a).\n\
               p(X), not q(X) -> h(X).\n\
               p(X) -> r(X).\n\
               p(X), not q(X) -> h(X).\n";
    assert_eq!(chase_and_check(src, ChaseBudget::unbounded()), (6, 6, 4));
}

#[test]
fn the_same_rule_through_different_guards_grounds_twice() {
    // Both rules ground to `p(c,d), q(c,d) -> h(c)`, matched from p(c,d) by
    // one and from q(c,d) by the other; h(a) additionally has two *distinct*
    // rules (via b and via c).
    let src = "p(a,b). q(a,b). p(a,c). q(a,c). p(e,f).\n\
               p(X,Y), q(X,Y) -> h(X).\n\
               q(X,Y), p(X,Y) -> h(X).\n";
    assert_eq!(chase_and_check(src, ChaseBudget::unbounded()), (4, 4, 2));
}

#[test]
fn generated_ontology_keeps_its_repeated_rules() {
    // `pipeline_end_to_end`'s `ontogen` workload: 11,545 instances, 83 of
    // which repeat an earlier one.
    let onto = random_ontology(&OntologyConfig {
        num_concepts: 14,
        num_roles: 7,
        num_axioms: 60,
        num_role_axioms: 10,
        negation_prob: 0.4,
        exists_prob: 0.4,
        bottom_prob: 0.05,
        num_individuals: 48,
        num_assertions: 360,
        seed: 2013,
    });
    let mut u = Universe::new();
    let translated = wfdl_ontology::translate(&mut u, &onto).unwrap();
    let (sigma, _violations) =
        wfdl_wfs::lower_with_constraints(&mut u, &translated.program).unwrap();
    let seg = ChaseSegment::build(&mut u, &translated.database, &sigma, ChaseBudget::depth(4));
    let ground = seg.to_ground_program();
    assert_repeats_decide_nothing(&ground, &ModularEngine::new(&ground).solve());
    let once = without_repeats(&ground).num_rules();
    assert_eq!(
        (seg.num_instances(), ground.num_rules(), once),
        (11_545, 11_545, 11_462)
    );
}

#[test]
fn a_delta_that_rederives_an_old_rule_grounds_it_again() {
    // At depth 1, q(a,b) (derived from s(a,b)) sits at the depth budget and
    // never expands, so only the first rule fires for it. Inserting q(a,b)
    // as a fact relaxes it to depth 0; the resume expands it and the second
    // rule's instance grounds to the rule the base already has.
    let src = "s(a,b). p(a,b).\n\
               s(X,Y) -> q(X,Y).\n\
               p(X,Y), q(X,Y) -> h(X).\n\
               q(X,Y), p(X,Y) -> h(X).\n";
    let mut u = Universe::new();
    let lowered = wfdl_syntax::load(&mut u, src).unwrap();
    let sigma = lowered.skolem_program(&mut u).unwrap();
    let base = ChaseSegment::build(&mut u, &lowered.database, &sigma, ChaseBudget::depth(1));
    let base_ground = base.to_ground_program();
    assert_eq!((base.num_instances(), base_ground.num_rules()), (2, 2));
    let base_verdicts = ModularEngine::new(&base_ground).solve();
    assert_repeats_decide_nothing(&base_ground, &base_verdicts);

    let q = u.lookup_pred("q").unwrap();
    let (a, b) = (u.constant("a"), u.constant("b"));
    let qab = u.atom(q, vec![a, b]).unwrap();
    let resumed = base.resume_with(&mut u, &sigma, &[qab]).unwrap();
    let extended = resumed.to_ground_program_from(&base_ground);
    assert_eq!((resumed.num_instances(), extended.num_rules()), (3, 3));
    assert_eq!(extended.rule(rule(1)), extended.rule(rule(2)));
    assert_eq!(without_repeats(&extended).num_rules(), 2);
    let verdicts =
        ModularEngine::new(&extended).solve_incremental(Some((&base_ground, &base_verdicts)));
    assert_repeats_decide_nothing(&extended, &verdicts);
}

fn rule(r: usize) -> wfdl_storage::GroundRuleId {
    wfdl_storage::GroundRuleId::from_index(r)
}

/// Everything a model decides, atom by atom over its ground program: the
/// verdict and the stage, and the number of components.
fn decided(model: &WellFoundedModel) -> (Vec<(Truth, Option<u32>)>, usize) {
    let atoms = model.ground.atoms().iter();
    let verdicts = atoms
        .map(|&x| (model.value(x), model.stage_of(x)))
        .collect();
    (verdicts, model.component_stats().unwrap().components)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random program with a random subset of its rules written twice
    /// — the copies after the originals — decides what the program with
    /// each rule written once decides: the same verdicts, stages and
    /// component count, cold and after one resume. Its ground program has
    /// one rule per instance.
    #[test]
    fn rules_written_twice_decide_what_they_decide_once(
        seed in 0u64..10_000,
        twice in 0u64..1 << 20,
        existential in any::<bool>(),
    ) {
        let mut u = Universe::new();
        let w = random_program(&mut u, &RandomConfig {
            seed,
            num_rules: 10,
            negation_prob: 0.5,
            existential_prob: if existential { 0.3 } else { 0.0 },
            ..RandomConfig::default()
        });
        let repeated = (w.sigma.rules.iter().enumerate())
            .filter(|&(i, _)| twice >> i & 1 == 1)
            .map(|(_, rule)| rule.clone());
        let doubled = SkolemProgram {
            rules: w.sigma.rules.iter().cloned().chain(repeated).collect(),
        };
        let db = |u: &mut Universe, seed: u64| {
            let cfg = RandomDbConfig { num_constants: 5, num_facts: 10, seed };
            random_database(u, &w, &cfg)
        };
        let base = db(&mut u, seed);
        let delta: Vec<_> = (db(&mut u, seed + 1).facts().iter().copied())
            .filter(|&f| !base.contains(f))
            .collect();
        let options = WfsOptions::depth(3);
        let once = solve(&mut u, &base, &w.sigma, options);
        let with_repeats = solve(&mut u, &base, &doubled, options);
        prop_assert_eq!(with_repeats.ground.num_rules(), with_repeats.segment.num_instances());
        prop_assert_eq!(with_repeats.ground.atoms(), once.ground.atoms());
        prop_assert_eq!(decided(&with_repeats), decided(&once));

        let once = solve_resumed(&mut u, &once, &w.sigma, &delta, options);
        let with_repeats = solve_resumed(&mut u, &with_repeats, &doubled, &delta, options);
        prop_assert_eq!(once.is_ok(), with_repeats.is_ok());
        if let (Ok((once, _)), Ok((with_repeats, _))) = (once, with_repeats) {
            prop_assert_eq!(with_repeats.ground.num_rules(), with_repeats.segment.num_instances());
            prop_assert_eq!(with_repeats.ground.atoms(), once.ground.atoms());
            prop_assert_eq!(decided(&with_repeats), decided(&once));
        }
    }
}
