//! The modular engine's in-place component evaluator against the oracle it
//! replaced: a standalone sub-program per component
//! ([`GroundProgramBuilder::add_atom`] for its inputs), solved by the global
//! `W_P` engine with the undefined lower atoms carried as assumed-unknown
//! inputs ([`WpEngine::with_assumed_unknown`]).
//!
//! The random programs are small components on purpose — one to eight
//! atoms over a fixed layer of decided inputs — because that is where the
//! evaluator's case analysis lives: internal positive and negative edges,
//! facts inside the component, positive loops that must come out
//! unfounded, and external literals that are true, false and undefined on
//! both polarities, including rules whose only support is an undefined
//! input.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdatalog::storage::{GroundProgram, GroundProgramBuilder, GroundRule};
use wfdatalog::wfs::{condensation, Condensation, EngineResult, ModularEngine};
use wfdatalog::{AtomId, Truth};
use wfdl_reference::{StepMode, WpEngine};

fn a(i: usize) -> AtomId {
    AtomId::from_index(i)
}

/// The input layer every generated program sits on: atoms 0–1 are facts
/// (true), 2–3 head nothing (false), 4–5 negate themselves (undefined).
const INPUTS: usize = 6;

fn input_layer(b: &mut GroundProgramBuilder) {
    b.add_fact(a(0));
    b.add_fact(a(1));
    // 2 and 3 are only ever mentioned in bodies.
    b.add_rule(GroundRule::new(a(4), vec![], vec![a(4)]));
    b.add_rule(GroundRule::new(a(5), vec![], vec![a(5)]));
}

/// One generated rule: head and internal body atoms as indices into the
/// component (taken modulo its size), external ones into the input layer.
type RuleSpec = (usize, Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>);

/// Strategy: `INPUTS` decided atoms below 1–8 atoms of random rules.
fn component_program() -> impl Strategy<Value = GroundProgram> {
    let rule = (
        0usize..8,
        proptest::collection::vec(0usize..8, 0..3),
        proptest::collection::vec(0usize..8, 0..3),
        proptest::collection::vec(0..INPUTS, 0..2),
        proptest::collection::vec(0..INPUTS, 0..2),
    );
    (
        1usize..=8,
        proptest::collection::vec(rule, 1..16),
        proptest::collection::vec(0usize..8, 0..2),
        (0u8..4, 0u8..=255),
    )
        .prop_map(|(k, rules, facts, (ring, bits))| {
            // A ring through all `k` component atoms ties them into one
            // strongly connected component whatever the random rules do;
            // bit `i` makes edge `i → i+1` negative. All-positive is a loop
            // that is unfounded unless something feeds it.
            let ring = match ring {
                0 => None,
                1 => Some(0x00),
                2 => Some(0xff),
                _ => Some(bits),
            };
            build(k, &rules, &facts, ring)
        })
}

fn build(k: usize, rules: &[RuleSpec], facts: &[usize], ring: Option<u8>) -> GroundProgram {
    let inner = |i: usize| a(INPUTS + i % k);
    let mut b = GroundProgramBuilder::new();
    input_layer(&mut b);
    for &f in facts {
        b.add_fact(inner(f));
    }
    for (head, pos, neg, ext_pos, ext_neg) in rules {
        let pos = pos.iter().map(|&i| inner(i));
        let neg = neg.iter().map(|&i| inner(i));
        b.add_rule(GroundRule::new(
            inner(*head),
            pos.chain(ext_pos.iter().map(|&i| a(i))).collect(),
            neg.chain(ext_neg.iter().map(|&i| a(i))).collect(),
        ));
    }
    if let Some(bits) = ring {
        for i in 0..k {
            let (head, next) = (inner(i), inner(i + 1));
            b.add_rule(if bits >> i & 1 == 1 {
                GroundRule::new(head, vec![], vec![next])
            } else {
                GroundRule::new(head, vec![next], vec![])
            });
        }
    }
    b.finish()
}

/// The verdicts of component `ord` the way the engine computed them before
/// it evaluated components in place: partially evaluate the component's
/// rules against the lower verdicts in `model`, index the result as a
/// program of its own, and hand it to `W_P`.
fn oracle_component(
    prog: &GroundProgram,
    cond: &Condensation,
    ord: usize,
    model: &EngineResult,
) -> Vec<(AtomId, Truth)> {
    let comp: Vec<AtomId> = cond
        .component(ord)
        .iter()
        .map(|&l| prog.atom_of_local(l))
        .collect();
    let internal = |b: AtomId| comp.contains(&b);
    let mut atoms = comp.clone();
    let mut sub_rules = Vec::new();
    for &head in &comp {
        'rules: for &rid in prog.rules_with_head(head) {
            let rule = prog.rule(rid);
            let mut pos = Vec::new();
            for &b in rule.pos.iter() {
                match (internal(b), model.value(b)) {
                    (true, _) => pos.push(b),
                    (false, Truth::True) => {}
                    (false, Truth::False) => continue 'rules,
                    (false, Truth::Unknown) => {
                        pos.push(b);
                        atoms.push(b);
                    }
                }
            }
            let mut neg = Vec::new();
            for &b in rule.neg.iter() {
                match (internal(b), model.value(b)) {
                    (true, _) => neg.push(b),
                    (false, Truth::False) => {}
                    (false, Truth::True) => continue 'rules,
                    (false, Truth::Unknown) => {
                        neg.push(b);
                        atoms.push(b);
                    }
                }
            }
            sub_rules.push(GroundRule::new(head, pos, neg));
        }
    }
    let facts: Vec<AtomId> = comp
        .iter()
        .copied()
        .filter(|f| prog.facts().contains(f))
        .collect();
    let mut sub = GroundProgramBuilder::new();
    for x in atoms {
        sub.add_atom(x);
    }
    for f in facts {
        sub.add_fact(f);
    }
    for r in sub_rules {
        sub.add_rule(r);
    }
    let sub = sub.finish();
    let assumed: Vec<u32> = (0..sub.num_atoms() as u32)
        .filter(|&l| !internal(sub.atom_of_local(l)))
        .collect();
    let result = WpEngine::new(&sub)
        .with_assumed_unknown(assumed)
        .solve(StepMode::Accelerated);
    comp.iter().map(|&x| (x, result.value(x))).collect()
}

/// Every component's verdicts equal the oracle's, given the verdicts below
/// it — by induction over the emission order, so does the model.
fn check_against_oracle(prog: &GroundProgram) -> Result<(), TestCaseError> {
    let model = ModularEngine::new(prog).solve();
    let cond = condensation(prog);
    for ord in 0..cond.num_components() {
        for (atom, expected) in oracle_component(prog, &cond, ord, &model) {
            prop_assert_eq!(
                model.value(atom),
                expected,
                "component {} ({:?}), atom {:?}",
                ord,
                cond.component(ord),
                atom
            );
            let stage = (expected != Truth::Unknown).then_some(ord as u32 + 1);
            let (memo, local) = (model.memo.as_ref().unwrap(), prog.local_id(atom).unwrap());
            prop_assert_eq!(memo.stage(local), stage, "stage of {:?}", atom);
        }
    }
    // And the whole model is the global engine's.
    let global = WpEngine::new(prog).solve(StepMode::Accelerated);
    for &atom in prog.atoms() {
        prop_assert_eq!(
            model.value(atom),
            global.value(atom),
            "vs W_P on {:?}",
            atom
        );
    }
    let stats = model.stats.unwrap();
    prop_assert!(stats.recursive_rounds >= stats.recursive_components);
    prop_assert!(stats.rules_in_recursive <= prog.num_rules());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn in_place_evaluator_equals_the_subprogram_oracle(p in component_program()) {
        check_against_oracle(&p)?;
    }
}

/// Directed: each case the evaluator distinguishes, by name.
#[test]
fn directed_components_equal_the_oracle() {
    let (t, f, u) = (a(0), a(2), a(4));
    let (x, y, z) = (a(INPUTS), a(INPUTS + 1), a(INPUTS + 2));
    type Case = (
        &'static str,
        Vec<GroundRule>,
        Vec<AtomId>,
        Vec<(AtomId, Truth)>,
    );
    let cases: Vec<Case> = vec![
        (
            "a draw stays undefined",
            vec![
                GroundRule::new(x, vec![], vec![y]),
                GroundRule::new(y, vec![], vec![x]),
            ],
            vec![],
            vec![(x, Truth::Unknown), (y, Truth::Unknown)],
        ),
        (
            "a fact inside a draw decides it",
            vec![
                GroundRule::new(x, vec![], vec![y]),
                GroundRule::new(y, vec![], vec![x]),
            ],
            vec![x],
            vec![(x, Truth::True), (y, Truth::False)],
        ),
        (
            "a positive loop is unfounded, and what negates it fires a round later",
            vec![
                GroundRule::new(x, vec![y], vec![]),
                GroundRule::new(y, vec![x], vec![]),
                GroundRule::new(z, vec![], vec![x]),
                // Dead, but it ties z into the component.
                GroundRule::new(x, vec![z, f], vec![]),
            ],
            vec![],
            vec![(x, Truth::False), (y, Truth::False), (z, Truth::True)],
        ),
        (
            "an undefined input is the only support: possibly founded, never fired",
            vec![
                GroundRule::new(x, vec![u], vec![]),
                GroundRule::new(y, vec![x], vec![]),
                GroundRule::new(x, vec![y, f], vec![]),
            ],
            vec![],
            vec![(x, Truth::Unknown), (y, Truth::Unknown)],
        ),
        (
            "an undefined negative input blocks firing but not support",
            vec![
                GroundRule::new(x, vec![t], vec![u]),
                GroundRule::new(y, vec![], vec![x]),
            ],
            vec![],
            vec![(x, Truth::Unknown), (y, Truth::Unknown)],
        ),
        (
            "a true negative input or a false positive one kills the rule",
            vec![
                GroundRule::new(x, vec![], vec![t, y]),
                GroundRule::new(y, vec![f], vec![x]),
            ],
            vec![],
            vec![(x, Truth::False), (y, Truth::False)],
        ),
    ];
    for (name, rules, facts, expect) in cases {
        let mut b = GroundProgramBuilder::new();
        input_layer(&mut b);
        for fact in facts {
            b.add_fact(fact);
        }
        for rule in rules {
            b.add_rule(rule);
        }
        let prog = b.finish();
        check_against_oracle(&prog).unwrap_or_else(|e| panic!("{name}: {e}"));
        let model = ModularEngine::new(&prog).solve();
        for (atom, truth) in expect {
            assert_eq!(model.value(atom), truth, "{name}: {atom:?}");
        }
    }
}
