//! The condensed chase segment is equivalent to the definitional explicit
//! forest: same labels, same minimal depths, same minimal derivation
//! levels, and every explicit edge realizes a condensed rule instance.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use wfdatalog::chase::{ChaseBudget, ChaseSegment, ExplicitForest};
use wfdatalog::core::{match_atom, subst::instantiate_atom, AtomId, Binding, SkolemProgram};
use wfdatalog::{Database, Universe};
use wfdl_gen::{random_database, random_program, RandomConfig, RandomDbConfig};

fn check_equivalence(u: &Universe, seg: &ChaseSegment, depth: u32) {
    let forest = ExplicitForest::unfold(seg, depth, 200_000);
    assert!(!forest.hit_node_cap, "raise the cap for this test");

    // Labels coincide.
    let mut forest_labels: Vec<_> = forest.nodes().iter().map(|n| n.atom).collect();
    forest_labels.sort_unstable();
    forest_labels.dedup();
    let mut seg_labels: Vec<_> = seg.atoms().iter().map(|a| a.atom).collect();
    seg_labels.sort_unstable();
    assert_eq!(
        forest_labels,
        seg_labels,
        "label sets differ (universe has {} atoms)",
        u.atoms.len()
    );

    // Minimal depth and level per atom coincide.
    for sa in seg.atoms() {
        let nodes: Vec<_> = forest
            .nodes()
            .iter()
            .filter(|n| n.atom == sa.atom)
            .collect();
        let min_depth = nodes.iter().map(|n| n.depth).min().unwrap();
        let min_level = nodes.iter().map(|n| n.level).min().unwrap();
        assert_eq!(min_depth, sa.depth, "depth of {}", u.display_atom(sa.atom));
        assert_eq!(min_level, sa.level, "level of {}", u.display_atom(sa.atom));
    }

    // Every edge of the explicit forest is labelled by a segment instance
    // whose guard is the parent's label.
    for node in forest.nodes() {
        if let (Some(parent), Some(via)) = (node.parent, node.via) {
            let inst = seg.instance(via);
            let parent_atom = forest.nodes()[parent as usize].atom;
            assert_eq!(inst.guard_atom, parent_atom);
            assert_eq!(inst.head, node.atom);
        }
    }
}

#[test]
fn equivalence_on_paper_example() {
    let mut u = Universe::new();
    let (db, sigma) = wfdatalog::chase::paper::example4(&mut u);
    for depth in [1u32, 2, 3, 4] {
        let seg = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(depth));
        check_equivalence(&u, &seg, depth);
    }
}

#[test]
fn equivalence_on_random_workloads() {
    for seed in 0..20u64 {
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed,
                num_rules: 8,
                negation_prob: 0.4,
                existential_prob: 0.3,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                num_constants: 5,
                num_facts: 10,
                seed: seed ^ 0x77,
            },
        );
        let seg = ChaseSegment::build(&mut u, &db, &w.sigma, ChaseBudget::depth(3));
        check_equivalence(&u, &seg, 3);
    }
}

#[test]
fn deeper_segments_extend_shallower_ones() {
    let mut u = Universe::new();
    let (db, sigma) = wfdatalog::chase::paper::example4(&mut u);
    let shallow = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(3));
    let deep = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(6));
    for sa in shallow.atoms() {
        let meta = deep
            .meta(sa.atom)
            .expect("shallow atoms persist in deeper segments");
        assert_eq!(meta.depth, sa.depth);
        assert_eq!(meta.level, sa.level);
    }
    assert!(deep.atoms().len() > shallow.atoms().len());
    assert!(deep.num_instances() > shallow.num_instances());
}

/// An instance as `(rule, guard, positive body, negative body, head)`.
type Instance = (u32, AtomId, Vec<AtomId>, Vec<AtomId>, AtomId);

/// Segment atoms with `(depth, level)`, and the instances, sorted.
type Outcome = (Vec<(AtomId, u32, u32)>, Vec<Instance>);

/// The oracle: a naive round-by-round fixpoint over `wfdl-core`'s
/// reference matcher. Every round matches every rule against every atom
/// below `max_depth`; an instance counts once all its positive atoms are
/// present, and depth and level are lowered to their minima independently,
/// until a round changes nothing.
fn naive_chase(
    u: &mut Universe,
    facts: &[AtomId],
    sigma: &SkolemProgram,
    max_depth: u32,
) -> Outcome {
    let mut meta: BTreeMap<AtomId, (u32, u32)> = facts.iter().map(|&f| (f, (0, 0))).collect();
    let mut instances = BTreeSet::new();
    loop {
        let mut changed = false;
        let guards: Vec<AtomId> = (meta.iter())
            .filter(|(_, &(depth, _))| depth < max_depth)
            .map(|(&a, _)| a)
            .collect();
        for g in guards {
            for (ri, rule) in sigma.rules.iter().enumerate() {
                let mut binding = Binding::new(rule.num_vars());
                if !match_atom(u, rule.guard_atom(), g, &mut binding) {
                    continue;
                }
                let total = binding.to_total(rule.num_vars());
                let pos: Vec<AtomId> = (rule.body_pos.iter())
                    .map(|a| instantiate_atom(u, a, &total))
                    .collect();
                if !pos.iter().all(|a| meta.contains_key(a)) {
                    continue;
                }
                let neg = (rule.body_neg.iter())
                    .map(|a| instantiate_atom(u, a, &total))
                    .collect();
                let head = rule.instantiate_head(u, &total);
                let depth = meta[&g].0 + 1;
                let level = pos.iter().map(|a| meta[a].1).max().unwrap() + 1;
                changed |= instances.insert((ri as u32, g, pos, neg, head));
                let (d, l) = meta.entry(head).or_insert((u32::MAX, u32::MAX));
                if depth < *d || level < *l {
                    (*d, *l) = ((*d).min(depth), (*l).min(level));
                    changed = true;
                }
            }
        }
        if !changed {
            let atoms = meta.into_iter().map(|(a, (d, l))| (a, d, l)).collect();
            return (atoms, instances.into_iter().collect());
        }
    }
}

/// What the segment holds, in the oracle's shape.
fn outcome(seg: &ChaseSegment) -> Outcome {
    let mut atoms: Vec<_> = seg
        .atoms()
        .iter()
        .map(|sa| (sa.atom, sa.depth, sa.level))
        .collect();
    atoms.sort_unstable();
    let mut instances: Vec<Instance> = (seg.instance_ids())
        .map(|i| {
            let inst = seg.instance(i);
            let (pos, neg) = (inst.pos.into_vec(), inst.neg.into_vec());
            (inst.src_rule, inst.guard_atom, pos, neg, inst.head)
        })
        .collect();
    instances.sort_unstable();
    (atoms, instances)
}

/// Guards with constants and repeated variables, which the random
/// generators never draw: `p(X,X,Y)`, `p(a,X,Y)`, `p(X,X,c)`, `e(X,Y,X)`,
/// `e(X,X,Y)`, mixed with side atoms, negation, a repeated body atom and an
/// existential head. The chase is finite.
const GUARD_CHECKS: &str = "p(a,a,b). p(b,b,c). p(c,c,c). p(a,b,b). p(b,c,c).\n\
    q(a). q(c). e(a,b,a). e(b,a,b). e(c,a,c).\n\
    p(X,X,Y), q(X) -> s(X,Y).\n\
    p(X,X,Y), not q(Y) -> t(Y).\n\
    p(a,X,Y), not s(X,Y) -> u(X,Y).\n\
    p(X,X,c) -> z(X).\n\
    p(X,Y,Y), t(Y) -> p(Y,Y,X).\n\
    p(X,Y,Y), p(X,Y,Y), not z(X) -> y(X).\n\
    e(X,Y,X), s(X,Y), not t(X) -> w(X,Z).\n\
    e(X,Y,X), q(Y) -> s(Y,X).\n\
    w(X,Y), q(X) -> e(X,X,Y).\n\
    e(X,X,Y), not q(Y) -> v(Y).\n";

/// The same kinds of guard over an infinite chase: `e(X,Y,X)` invents a
/// null per step, so it runs under a depth budget only.
const GUARD_CHECKS_CHAIN: &str = "e(a,b,a). e(b,b,b). p(a,a). k(a).\n\
    e(X,Y,X), not k(Y) -> e(X,Z,X).\n\
    e(X,Y,X), p(X,X) -> p(Y,Y).\n\
    e(b,Y,b), not p(Y,Y) -> r(Y).\n\
    p(X,X), k(X) -> e(X,X,X).\n";

/// Chases `src` fresh under `budget`, and resumed from the chase of all
/// but its last `delta` facts, and checks both against the oracle over
/// every fact. Returns the oracle's outcome.
fn check_against_naive(src: &str, budget: ChaseBudget, delta: usize) -> Outcome {
    let mut u = Universe::new();
    let lowered = wfdatalog::syntax::load(&mut u, src).unwrap();
    let sigma = lowered.skolem_program(&mut u).unwrap();
    let facts = lowered.database.facts().to_vec();
    let fresh = ChaseSegment::build(&mut u, &lowered.database, &sigma, budget);

    let (old, new) = facts.split_at(facts.len() - delta);
    let mut base_db = Database::new();
    for &f in old {
        base_db.insert(&u, f).unwrap();
    }
    let base = ChaseSegment::build(&mut u, &base_db, &sigma, budget);
    let resumed = base.resume_with(&mut u, &sigma, new).unwrap();

    let want = naive_chase(&mut u, &facts, &sigma, budget.max_depth);
    assert_eq!(outcome(&fresh), want, "fresh, {budget:?}");
    assert_eq!(
        outcome(&resumed),
        want,
        "resumed with {delta} facts, {budget:?}"
    );
    want
}

#[test]
fn guard_constants_and_repeated_variables_agree_with_a_naive_chase() {
    // The delta is the last three facts, the `e` atoms: the resume fires
    // every `e`-guarded rule, invents the null of `w`, and derives `s(a,b)`
    // a second time, which the base derived from `p(a,a,b)`.
    let (_, instances) = check_against_naive(GUARD_CHECKS, ChaseBudget::unbounded(), 3);
    let rules: BTreeSet<u32> = instances.iter().map(|i| i.0).collect();
    assert_eq!(rules.len(), 10, "every rule fires at least once");
    for depth in 1..=3 {
        check_against_naive(GUARD_CHECKS, ChaseBudget::depth(depth), 3);
    }
    for depth in 1..=4 {
        let (atoms, _) = check_against_naive(GUARD_CHECKS_CHAIN, ChaseBudget::depth(depth), 2);
        assert!(atoms.iter().any(|&(_, d, _)| d == depth));
    }
}

#[test]
fn a_delta_fact_that_was_derived_relaxes_against_the_naive_chase() {
    // `s(a,b)` is derived at depth 1 by the base; the delta makes it a fact.
    let src = format!("{GUARD_CHECKS}s(a,b).\n");
    for budget in [ChaseBudget::unbounded(), ChaseBudget::depth(2)] {
        let (atoms, _) = check_against_naive(&src, budget, 1);
        assert!(atoms.iter().filter(|&&(_, d, l)| (d, l) == (0, 0)).count() > 10);
    }
}
