//! Instances that ground to the same rule: `ChaseSegment::to_ground_program`
//! (and `to_ground_program_from` after a resume) must keep exactly the rules
//! the hash-deduplicating `GroundProgramBuilder` keeps, in its order.
//!
//! The chase hands every instance to `GroundProgram::extension`, whose
//! `finish` looks for repeats inside each head's row of the head index. Every
//! case below asserts `instances > ground rules`, so that search is known to
//! have found something.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdl_chase::{ChaseBudget, ChaseSegment};
use wfdl_core::Universe;
use wfdl_gen::{random_ontology, OntologyConfig};
use wfdl_storage::{GroundProgram, GroundProgramBuilder, GroundRule};

/// The segment's facts and instances, in order, through the builder.
fn through_builder(seg: &ChaseSegment) -> GroundProgram {
    let mut b = GroundProgramBuilder::new();
    for &f in seg.fact_segs() {
        b.add_fact(seg.atom_of(f));
    }
    for i in seg.instance_ids() {
        let inst = seg.instance(i);
        b.add_rule(GroundRule::new(
            inst.head,
            inst.pos.to_vec(),
            inst.neg.to_vec(),
        ));
    }
    b.finish()
}

/// Every array two ground programs expose, occurrence rows included.
fn assert_identical(got: &GroundProgram, want: &GroundProgram) {
    assert_eq!(got.atoms(), want.atoms());
    assert_eq!(got.facts(), want.facts());
    assert_eq!(got.facts_local(), want.facts_local());
    assert_eq!(got.num_rules(), want.num_rules());
    for r in 0..want.num_rules() {
        assert_eq!(got.head_local(r), want.head_local(r), "rule {r}");
        assert_eq!(got.pos_local(r), want.pos_local(r), "rule {r}");
        assert_eq!(got.neg_local(r), want.neg_local(r), "rule {r}");
    }
    for l in 0..want.num_atoms() as u32 {
        assert_eq!(got.rules_with_head_local(l), want.rules_with_head_local(l));
        assert_eq!(got.rules_with_pos_local(l), want.rules_with_pos_local(l));
        assert_eq!(got.rules_with_neg_local(l), want.rules_with_neg_local(l));
    }
}

/// Chases `src` and checks its ground program against the builder's;
/// returns `(instances, ground rules)`.
fn chase_and_compare(src: &str, budget: ChaseBudget) -> (usize, usize) {
    let mut u = Universe::new();
    let lowered = wfdl_syntax::load(&mut u, src).unwrap();
    let sigma = lowered.skolem_program(&mut u).unwrap();
    let seg = ChaseSegment::build(&mut u, &lowered.database, &sigma, budget);
    let ground = seg.to_ground_program();
    assert_identical(&ground, &through_builder(&seg));
    (seg.num_instances(), ground.num_rules())
}

#[test]
fn a_rule_written_twice_grounds_once() {
    let src = "p(a). p(b). q(a).\n\
               p(X), not q(X) -> h(X).\n\
               p(X) -> r(X).\n\
               p(X), not q(X) -> h(X).\n";
    assert_eq!(chase_and_compare(src, ChaseBudget::unbounded()), (6, 4));
}

#[test]
fn the_same_rule_through_different_guards_grounds_once() {
    // Both rules ground to `p(c,d), q(c,d) -> h(c)`, matched from p(c,d) by
    // one and from q(c,d) by the other; h(a) additionally has two *distinct*
    // rules (via b and via c), which must both survive.
    let src = "p(a,b). q(a,b). p(a,c). q(a,c). p(e,f).\n\
               p(X,Y), q(X,Y) -> h(X).\n\
               q(X,Y), p(X,Y) -> h(X).\n";
    assert_eq!(chase_and_compare(src, ChaseBudget::unbounded()), (4, 2));
}

#[test]
fn generated_ontology_drops_its_repeated_rules() {
    // `pipeline_end_to_end`'s `ontogen` workload: BENCH_pipeline.json
    // records 11,545 instances and 11,462 ground rules for it.
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
    assert_identical(&ground, &through_builder(&seg));
    assert_eq!((seg.num_instances(), ground.num_rules()), (11_545, 11_462));
}

#[test]
fn a_delta_that_rederives_an_old_rule_adds_nothing() {
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

    let q = u.lookup_pred("q").unwrap();
    let (a, b) = (u.constant("a"), u.constant("b"));
    let qab = u.atom(q, vec![a, b]).unwrap();
    let resumed = base.resume_with(&mut u, &sigma, &[qab]).unwrap();
    let extended = resumed.to_ground_program_from(&base_ground);
    assert_identical(&extended, &through_builder(&resumed));
    assert_identical(&extended, &resumed.to_ground_program());
    assert_eq!((resumed.num_instances(), extended.num_rules()), (3, 2));
}
