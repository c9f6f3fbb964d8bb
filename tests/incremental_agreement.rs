//! Incremental-vs-scratch agreement: `insert` + incremental `solve()`
//! must agree **bit for bit** — model, constraint statuses, prepared-query
//! answers — with a from-scratch `KnowledgeBase` built over the union of
//! base and delta facts.
//!
//! The workload is the win–move game (negation-recursive by nature) plus a
//! stratified layer and two constraints whose statuses range over all
//! three truth values. Random edge deltas routinely create new SCCs
//! (closing draw cycles) and touch components recursive through negation —
//! exactly the cases where a carried verdict must *not* survive stale.
//!
//! A resumed solve carries the previous model over and re-evaluates the
//! delta's forward cone only, so the **chained** cases matter most: every
//! step patches a model that was itself patched. Each step is held against
//! three references — a from-scratch knowledge base over the union, the
//! global `W_P` engine (`component_oracle.rs`'s reference) on the resumed
//! ground program, and a full modular solve of that program for the
//! counters that describe the model.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdatalog::wfs::{solve, solve_resumed, ModularEngine, WellFoundedModel, WfsOptions};
use wfdatalog::{
    AtomId, FactBatch, KnowledgeBase, ModularStats, SolvedModel, Truth, TruthSource, Universe,
};
use wfdl_gen::{chain_database, example4_sigma};
use wfdl_reference::{StepMode, WpEngine};

const RULES: &str = r#"
    move(X,Y), not win(Y) -> win(X).
    move(X,Y) -> node(X).
    move(X,Y) -> node(Y).
    node(X), not win(X) -> losing(X).
    mark(n0). mark(n3).
    mark(X), win(X) -> false.
    mark(X), not win(X) -> false.
"#;

const QUERIES: [&str; 4] = [
    "?(X) win(X).",
    "?(X) losing(X).",
    "?- win(n0).",
    "?(X) node(X), not win(X).",
];

fn insert_edges(kb: &mut KnowledgeBase, edges: &[(usize, usize)]) -> usize {
    let mut batch = FactBatch::new();
    {
        let mut moves = batch.relation(kb.universe_mut(), "move", 2).unwrap();
        for &(a, b) in edges {
            let (sa, sb) = (format!("n{a}"), format!("n{b}"));
            moves.push(&[sa.as_str(), sb.as_str()]).unwrap();
        }
    }
    kb.insert(batch).unwrap()
}

/// Interns the `move` atoms of `edges` without inserting them.
fn intern_edges(kb: &mut KnowledgeBase, edges: &[(usize, usize)]) -> Vec<AtomId> {
    let mut batch = FactBatch::new();
    let mut moves = batch.relation(kb.universe_mut(), "move", 2).unwrap();
    for &(a, b) in edges {
        moves.push(&[&format!("n{a}"), &format!("n{b}")]).unwrap();
    }
    batch.atoms().to_vec()
}

/// Everything observable about a solved model, rendered order-independent.
fn observe(model: &SolvedModel) -> (String, String, Vec<Truth>, Vec<String>) {
    let mut unknown: Vec<String> = model
        .model()
        .unknown_atoms()
        .map(|a| model.universe().display_atom(a).to_string())
        .collect();
    unknown.sort();
    let answers = QUERIES
        .iter()
        .map(|q| {
            let pq = model.prepare(q).unwrap();
            if pq.is_boolean() {
                format!("{:?}", model.ask3_prepared(&pq))
            } else {
                let ans = model.answers_prepared(&pq);
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
            }
        })
        .collect();
    (
        model.render_true(),
        unknown.join("\n"),
        model.constraint_status().to_vec(),
        answers,
    )
}

/// Base + delta through the incremental path vs union from scratch.
fn check_agreement(edges: &[(usize, usize)], split: usize) -> Result<(), TestCaseError> {
    let split = split % (edges.len() + 1);
    let (base, delta) = edges.split_at(split);

    let mut incremental = KnowledgeBase::from_source(RULES).unwrap();
    insert_edges(&mut incremental, base);
    let first = incremental.solve();
    prop_assert!(!first.solve_stats().incremental, "first solve is full");
    let added = insert_edges(&mut incremental, delta);
    let second = incremental.solve();
    if added == 0 {
        // Duplicates of existing facts (or no delta at all) leave the
        // database untouched: a cache hit, not a re-solve.
        prop_assert!(!second.solve_stats().incremental);
    } else {
        prop_assert!(
            second.solve_stats().incremental,
            "insert-only delta must resume"
        );
    }

    let mut scratch = KnowledgeBase::from_source(RULES).unwrap();
    insert_edges(&mut scratch, edges);
    let reference = scratch.solve();
    prop_assert!(!reference.solve_stats().incremental);

    let (got, want) = (observe(&second), observe(&reference));
    prop_assert_eq!(&got.0, &want.0, "true atoms differ");
    prop_assert_eq!(&got.1, &want.1, "unknown atoms differ");
    prop_assert_eq!(&got.2, &want.2, "constraint statuses differ");
    prop_assert_eq!(&got.3, &want.3, "prepared-query answers differ");
    Ok(())
}

/// The counters of [`ModularStats`] that describe the model rather than
/// the run that computed it.
fn model_counters(s: ModularStats) -> [usize; 7] {
    [
        s.components,
        s.definite_components,
        s.recursive_components,
        s.largest_component,
        s.atoms_in_recursive,
        s.rules_in_recursive,
        s.unknown_atoms,
    ]
}

/// Inserts `steps` one after the other, solving after each, and holds every
/// resumed model against the three references of the module docs. Returns
/// the `(cone_atoms, components_evaluated)` of each resumed solve.
fn check_chain(
    rules: &str,
    steps: &[Vec<(usize, usize)>],
) -> Result<Vec<(usize, usize)>, TestCaseError> {
    check_chain_interning_early(rules, &[], steps)
}

/// [`check_chain`] with the `early` edges interned — not inserted — before
/// the first solve: a step that inserts one later brings in an atom whose id
/// is smaller than those of atoms the previous solves derived, so it takes a
/// local id after theirs, out of id order.
fn check_chain_interning_early(
    rules: &str,
    early: &[(usize, usize)],
    steps: &[Vec<(usize, usize)>],
) -> Result<Vec<(usize, usize)>, TestCaseError> {
    let mut chained = KnowledgeBase::from_source(rules).unwrap();
    intern_edges(&mut chained, early);
    chained.solve();
    let mut union: Vec<(usize, usize)> = Vec::new();
    let mut cones = Vec::new();
    for (k, step) in steps.iter().enumerate() {
        let added = insert_edges(&mut chained, step);
        union.extend_from_slice(step);
        let model = chained.solve();
        let stats = model.solve_stats();
        // A step of duplicates is a cache hit: the previous model again.
        let resumed = added > 0;
        prop_assert!(stats.incremental || !resumed, "step {}", k);
        prop_assert!(model.exact(), "step {}", k);

        // 1. A from-scratch knowledge base over the union.
        let mut scratch = KnowledgeBase::from_source(rules).unwrap();
        insert_edges(&mut scratch, &union);
        let reference = scratch.solve();
        let (got, want) = (observe(&model), observe(&reference));
        prop_assert_eq!(&got.0, &want.0, "step {}: true atoms differ", k);
        prop_assert_eq!(&got.1, &want.1, "step {}: unknown atoms differ", k);
        prop_assert_eq!(&got.2, &want.2, "step {}: constraint statuses differ", k);
        prop_assert_eq!(&got.3, &want.3, "step {}: prepared-query answers differ", k);
        let carried = model.model().component_stats().unwrap();
        let from_scratch = reference.model().component_stats().unwrap();
        prop_assert_eq!(
            model_counters(carried),
            model_counters(from_scratch),
            "step {}",
            k
        );

        // 2. The global engine on the very program the resume extended.
        let wfm = model.model();
        let global = WpEngine::new(&wfm.ground).solve(StepMode::Accelerated);
        for &atom in wfm.ground.atoms() {
            prop_assert_eq!(
                wfm.result.value(atom),
                global.value(atom),
                "step {}: {:?}",
                k,
                atom
            );
        }

        // 3. A full modular solve of it: same counters, and what the run
        // did adds up.
        let full = ModularEngine::new(&wfm.ground).solve().stats.unwrap();
        prop_assert_eq!(model_counters(carried), model_counters(full), "step {}", k);
        prop_assert_eq!(
            carried.components_reused + carried.components_evaluated,
            carried.components,
            "step {}",
            k
        );
        prop_assert_eq!(stats.components_evaluated, carried.components_evaluated);
        if resumed {
            prop_assert!(carried.cone_atoms <= wfm.ground.num_atoms());
            cones.push((carried.cone_atoms, carried.components_evaluated));
        }

        // The extended ground program is the grown segment's, row for row
        // through `AtomId`s (an early-interned atom takes a later local id).
        let regrounded = wfm.segment.to_ground_program();
        let mut atoms = wfm.ground.atoms().to_vec();
        atoms.sort_unstable();
        prop_assert_eq!(regrounded.atoms(), &atoms[..], "step {}", k);
        prop_assert_eq!(regrounded.num_rules(), wfm.ground.num_rules(), "step {}", k);
        prop_assert!(regrounded.rules().eq(wfm.ground.rules()), "step {}", k);
        for &atom in regrounded.atoms() {
            prop_assert_eq!(
                regrounded.rules_with_head(atom),
                wfm.ground.rules_with_head(atom)
            );
            prop_assert_eq!(
                regrounded.rules_with_pos(atom),
                wfm.ground.rules_with_pos(atom)
            );
            prop_assert_eq!(
                regrounded.rules_with_neg(atom),
                wfm.ground.rules_with_neg(atom)
            );
        }
    }
    Ok(cones)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random win–move graphs inserted in six successive deltas: from the
    /// second on, every resumed solve patches a patched model.
    #[test]
    fn chained_deltas_agree_at_every_step(
        edges in proptest::collection::vec((0..10usize, 0..10usize), 6..36),
    ) {
        let per_step = edges.len().div_ceil(6);
        let steps: Vec<Vec<(usize, usize)>> = edges.chunks(per_step).map(<[_]>::to_vec).collect();
        check_chain(RULES, &steps)?;
    }

    /// 64 random win–move graphs with random base/delta splits.
    #[test]
    fn incremental_solve_agrees_with_scratch(
        edges in proptest::collection::vec((0..8usize, 0..8usize), 1..24),
        split in 0..64usize,
    ) {
        check_agreement(&edges, split)?;
    }
}

/// A delta that closes a draw cycle: previously-decided atoms turn
/// Unknown, and a brand-new SCC (the 2-cycle) appears in the dependency
/// graph.
#[test]
fn delta_creating_a_new_negative_scc() {
    check_agreement(&[(0, 1), (1, 0)], 1).unwrap();
}

/// A delta that gives an unknown draw node a winning escape: the touched
/// component is recursive through negation and must be re-evaluated, not
/// reused.
#[test]
fn delta_touching_a_negation_recursive_component() {
    // Base: 0 ⇄ 1 draw (both unknown). Delta: 1 → 2 (2 is a dead end, so
    // win(1) becomes true and win(0) false).
    check_agreement(&[(0, 1), (1, 0), (1, 2)], 2).unwrap();
}

/// Empty base: the "incremental" solve starts from an empty segment and
/// derives everything from the delta.
#[test]
fn delta_from_empty_base() {
    check_agreement(&[(0, 1), (1, 2), (2, 0), (3, 0)], 0).unwrap();
}

/// Empty delta: inserting nothing keeps the cached artifact valid.
#[test]
fn empty_delta_is_a_cache_hit() {
    let edges = [(0, 1), (1, 0), (2, 1)];
    check_agreement(&edges, edges.len()).unwrap();
}

/// A delta that closes a cycle among **old** atoms: `win(0..=3)` are four
/// singleton components; the move 3 → 0 merges them into one recursive
/// component although the only new atom, the move itself, sits below the
/// cycle. Nodes 4 and 5 hang above it and follow. Later deltas break the
/// draw again and re-close a wider one.
#[test]
fn chained_deltas_merging_old_components_into_a_cycle() {
    let cones = check_chain(
        RULES,
        &[
            vec![(0, 1), (1, 2), (2, 3), (4, 0), (5, 4), (7, 8)],
            // win(0) ← ¬win(1) ← ¬win(2) ← ¬win(3) ← ¬win(0): a draw.
            vec![(3, 0)],
            // An escape out of the cycle decides it.
            vec![(2, 6)],
            // A second cycle through the same old atoms.
            vec![(6, 1)],
            vec![(9, 5)],
            vec![(6, 9), (8, 7)],
        ],
    )
    .unwrap();
    assert_eq!(cones.len(), 6);
}

/// A delta at the bottom of a long win–move chain flips every verdict
/// above it, arbitrarily far from the new fact — and the next one flips
/// them all back.
#[test]
fn chained_deltas_flipping_verdicts_all_the_way_up_a_chain() {
    const LEN: usize = 120;
    let chain: Vec<(usize, usize)> = (0..LEN).map(|i| (i + 1, i)).collect();
    let cones = check_chain(
        RULES,
        &[
            chain,
            // n0 can move now: won, so n1 is lost, n2 won, …
            vec![(0, LEN + 1)],
            // … until its target can move too.
            vec![(LEN + 1, LEN + 2)],
            vec![(LEN + 2, LEN + 3)],
            // Off to the side: nothing on the chain moves.
            vec![(LEN + 10, LEN + 11)],
            vec![(LEN + 3, LEN + 4)],
        ],
    )
    .unwrap();
    // The flips re-evaluate the whole chain (win, losing and both
    // constraints ride on it); the side delta a handful of atoms.
    assert!(cones[1].1 > LEN && cones[2].1 > LEN, "{cones:?}");
    assert!(cones[4].0 < 12 && cones[4].1 < 12, "{cones:?}");
}

/// The memo a resume carries — verdicts and facts by local id, the
/// components — holds what a recomputed one does, on every way the carry
/// goes, chained: a disjoint new cone (local ids stay and no component
/// dissolves: straight copies), a back edge that dissolves components into
/// a draw (the carried component ordinals are renumbered), and an atom
/// interned before the first solve and inserted only now (it takes the next
/// local id, as every new atom does).
/// `check_chain` holds each step against a from-scratch knowledge base and a
/// full solve of the resumed program; a replay of the same chain checks that
/// each step took the branch it is meant to, and that the carried
/// condensation still puts every atom in the row its ordinal names.
#[test]
fn a_carried_memo_equals_a_recomputed_one() {
    let early = [(20, 0)];
    let steps = [
        vec![(0, 1), (1, 2), (2, 3), (5, 6)],
        vec![(10, 11), (11, 12)],
        vec![(3, 0)],
        vec![(20, 0)],
        vec![(12, 20), (6, 5)],
    ];
    let cones = check_chain_interning_early(RULES, &early, &steps).unwrap();
    assert_eq!(cones.len(), steps.len());

    let mut kb = KnowledgeBase::from_source(RULES).unwrap();
    let late = intern_edges(&mut kb, &early)[0];
    let mut prev = kb.solve();
    for (k, step) in steps.iter().enumerate() {
        insert_edges(&mut kb, step);
        let model = kb.solve();
        let (before, now) = (prev.model(), model.model());
        let (was, is) = (
            before.component_stats().unwrap(),
            now.component_stats().unwrap(),
        );
        let old_atoms = before.ground.atoms().iter();
        let ids_stay = (now.ground.atoms().iter().take(old_atoms.len())).eq(old_atoms);
        assert!(ids_stay, "step {k}");
        match k {
            1 => {
                assert_eq!(is.components_reused, was.components, "step {k}: {is:?}");
            }
            2 => {
                assert!(is.components_reused < was.components, "step {k}: {is:?}");
                assert!(
                    is.recursive_components > was.recursive_components,
                    "step {k}"
                );
            }
            3 => {
                let appended = now.ground.local_id(late).unwrap() as usize;
                assert!(appended >= before.ground.num_atoms(), "step {k}");
                assert!(late < *before.ground.atoms().last().unwrap(), "step {k}");
                // The model's index is built and patched over its possible
                // atoms in id order, whatever order the local ids follow.
                let possible = TruthSource::possible_atoms(now);
                assert!(possible.windows(2).all(|w| w[0] < w[1]), "step {k}");
                assert!(is.components_reused < was.components, "step {k}: {is:?}");
            }
            _ => {}
        }
        // The carried condensation is a condensation of the program: every
        // atom's component is the row it sits in. Dissolved components keep
        // their ordinals, read as empty, so the rows are walked by ordinal.
        let cond = &now.result.memo.as_ref().unwrap().condensation;
        assert_eq!(cond.num_components(), is.components, "step {k}");
        let live = cond.iter().filter(|c| !c.is_empty()).count();
        assert_eq!(live, is.components, "step {k}");
        for c in 0..cond.num_ordinals() {
            for &atom in cond.component(c) {
                assert_eq!(cond.comp_of[atom as usize] as usize, c, "step {k}");
            }
        }
        assert_eq!(cond.comp_of.len(), now.ground.num_atoms(), "step {k}");
        prev = model;
    }
}

/// Everything a published model shows of itself, down to the chunked
/// arrays a resume shares with it: the observations, every atom's local
/// id, stage and occurrence rows, and the memo's condensation row by row.
fn frozen_view(model: &SolvedModel) -> String {
    use std::fmt::Write;
    let (wfm, u) = (model.model(), model.universe());
    let mut out = format!("{:?}\n{}\n", observe(model), wfm.stages());
    for &atom in wfm.ground.atoms() {
        let rows = [
            wfm.ground.rules_with_head(atom),
            wfm.ground.rules_with_pos(atom),
            wfm.ground.rules_with_neg(atom),
        ];
        let (local, stage) = (wfm.ground.local_id(atom), wfm.stage_of(atom));
        writeln!(out, "{} {local:?} {stage:?} {rows:?}", u.display_atom(atom)).unwrap();
    }
    let cond = &wfm.result.memo.as_ref().unwrap().condensation;
    for (c, comp) in cond.iter().enumerate() {
        writeln!(out, "{c}: {comp:?}").unwrap();
    }
    writeln!(out, "{:?}", cond.comp_of).unwrap();
    out
}

/// A chained win–move leg whose moves leave **old** positions: a new move
/// out of a decided node puts it, and everything that moves to it, in the
/// cone, so old components dissolve at every step (and draw cycles close
/// and open). After each resume the verdicts and the counters that describe
/// the model equal a fresh solve's, and every model handed out before
/// still renders as it did when it was handed out — a resume that wrote a
/// chunk it shares with them in place would show here. The chain is long
/// enough (≈ 8k atoms) that the cones reach into full chunks, which are
/// the ones a resume shares rather than copies.
#[test]
fn chained_moves_out_of_old_positions_leave_earlier_models_as_they_were() {
    const LEN: usize = 2_000;
    let base: Vec<(usize, usize)> = (0..LEN)
        .map(|i| (i + 1, i))
        .chain([(LEN + 50, LEN + 51)])
        .collect();
    let steps = [
        vec![(LEN - 3, LEN + 1)],
        vec![(10, LEN - 3), (LEN + 1, 10)],
        vec![(20, LEN + 2), (LEN + 2, 20)],
        vec![(0, LEN + 3), (25, 0)],
        vec![(LEN + 1, LEN + 4), (30, LEN + 50)],
        vec![(LEN + 51, LEN + 50), (LEN + 4, LEN + 5)],
    ];
    let mut kb = KnowledgeBase::from_source(RULES).unwrap();
    insert_edges(&mut kb, &base);
    let first = kb.solve();
    let mut held = vec![(frozen_view(&first), first)];
    let mut union = base.clone();
    for (k, step) in steps.iter().enumerate() {
        insert_edges(&mut kb, step);
        union.extend_from_slice(step);
        let model = kb.solve();
        assert!(model.solve_stats().incremental, "step {k}");
        let carried = model.model().component_stats().unwrap();
        assert!(carried.components_reused < carried.components, "step {k}");

        let mut scratch = KnowledgeBase::from_source(RULES).unwrap();
        insert_edges(&mut scratch, &union);
        let reference = scratch.solve();
        assert_eq!(observe(&model), observe(&reference), "step {k}");
        let fresh = reference.model().component_stats().unwrap();
        assert_eq!(model_counters(carried), model_counters(fresh), "step {k}");
        let wfm = model.model();
        let full = ModularEngine::new(&wfm.ground).solve().stats.unwrap();
        assert_eq!(model_counters(carried), model_counters(full), "step {k}");

        for (i, (then, old)) in held.iter().enumerate() {
            assert!(*then == frozen_view(old), "step {k}: model {i} changed");
        }
        held.push((frozen_view(&model), model));
    }
}

/// Example 4's existential chain under a depth budget, one seed at a time:
/// the chase resume (nulls, depth gates) feeds the same carry-and-patch.
#[test]
fn chained_deltas_over_an_existential_chain() {
    const CHAIN: &str = r#"
        r(X,Y,Z) -> r(X,Z,W).
        r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
        r(X,Y,Z), not p(X,Y) -> q(Z).
        p(X,Y), not q(Y) -> s(X).
    "#;
    let mut chained = KnowledgeBase::from_source(CHAIN).unwrap().with_depth(5);
    let mut text = String::new();
    for k in 0..6 {
        let delta = format!(
            "r(a{k},a{k},b{k}).\np(a{k},a{k}).\nr(a{k},b{k},a{}).\n",
            k / 2
        );
        chained.add_source(&delta).unwrap();
        text.push_str(&delta);
        let model = chained.solve();
        assert_eq!(model.solve_stats().incremental, k > 0, "step {k}");

        let mut scratch = KnowledgeBase::from_source(CHAIN).unwrap().with_depth(5);
        scratch.add_source(&text).unwrap();
        let reference = scratch.solve();
        assert_eq!(model.render_true(), reference.render_true(), "step {k}");
        let unknown = |m: &SolvedModel| {
            let mut names: Vec<String> = (m.model().unknown_atoms())
                .map(|a| m.universe().display_atom(a).to_string())
                .collect();
            names.sort();
            names
        };
        assert_eq!(unknown(&model), unknown(&reference), "step {k}");
        assert_eq!(
            model_counters(model.model().component_stats().unwrap()),
            model_counters(reference.model().component_stats().unwrap()),
            "step {k}"
        );
        let wfm = model.model();
        let global = WpEngine::new(&wfm.ground).solve(StepMode::Accelerated);
        for &atom in wfm.ground.atoms() {
            assert_eq!(
                wfm.result.value(atom),
                global.value(atom),
                "step {k}: {atom:?}"
            );
        }
    }
}

/// The same comparison below the façade: `solve_resumed` — resume the
/// chase with a delta, carry the model over — against a from-scratch
/// `solve` over the union database.
#[test]
fn solver_level_resume_matches_scratch() {
    // Name-keyed: chase nulls intern in different orders on the resumed
    // and scratch paths, so raw atom ids do not align across universes.
    fn observe(model: &WellFoundedModel, u: &Universe) -> (String, Vec<String>) {
        let mut unknown: Vec<String> = model
            .unknown_atoms()
            .map(|a| u.display_atom(a).to_string())
            .collect();
        unknown.sort();
        (model.render_true(u), unknown)
    }

    let options = WfsOptions::depth(6);
    for seeds in [24usize, 64] {
        let mut u_ref = Universe::new();
        let sigma_ref = example4_sigma(&mut u_ref);
        let db_ref = chain_database(&mut u_ref, seeds + 2);
        let reference = solve(&mut u_ref, &db_ref, &sigma_ref, options);

        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let base = chain_database(&mut u, seeds);
        let prev = solve(&mut u, &base, &sigma, options);
        // Delta: two more chain seeds (`chain_database` re-interns the
        // shared prefix, so only the fresh seeds' facts pass the filter).
        let delta_db = chain_database(&mut u, seeds + 2);
        let new_facts: Vec<AtomId> = (delta_db.facts().iter().copied())
            .filter(|f| !base.contains(*f))
            .collect();
        assert_eq!(new_facts.len(), 4, "two fresh seeds = four facts");
        let (inc, stats) =
            solve_resumed(&mut u, &prev, &sigma, &new_facts, options).expect("resumable");
        assert!(stats.incremental);
        assert!(
            stats.components_reused > 0,
            "independent chain seeds must be reused"
        );
        assert_eq!(inc.segment.atoms().len(), reference.segment.atoms().len());
        assert_eq!(
            observe(&inc, &u),
            observe(&reference, &u_ref),
            "{seeds} seeds"
        );
    }
}

/// Everything a published model shows, rendered: its observations, its
/// chase segment's atoms (with depth and level) and instances, its ground
/// program's rules, and where each atom of its universe sits in both.
fn published_view(model: &SolvedModel) -> String {
    use std::fmt::Write as _;
    let (m, u) = (model.model(), model.universe());
    let mut out = format!("{:?}\n", observe(model));
    for sa in m.segment.atoms() {
        writeln!(out, "{} {} {}", u.display_atom(sa.atom), sa.depth, sa.level).unwrap();
    }
    for i in m.segment.instance_ids() {
        writeln!(out, "{:?}", m.segment.instance(i)).unwrap();
    }
    for rule in m.ground.rules() {
        writeln!(out, "{rule:?}").unwrap();
    }
    for a in (0..u.atoms.len()).map(AtomId::from_index) {
        let (seg, local) = (m.segment.seg_id(a), m.ground.local_id(a));
        writeln!(out, "{} {seg:?} {local:?}", u.display_atom(a)).unwrap();
    }
    out
}

/// A resume shares the chunks of the model it extends and copies the ones
/// it writes: chained inserts into a knowledge base whose every chunked
/// array spans at least three chunks — names, terms and atoms, the chase
/// segment with thousands of instances parked on a missing side atom, the
/// ground program — leave every model handed out before exactly as it
/// was. The deltas wake parked instances deep in old chunks, turn old
/// hypotheses into facts and append, and each resumed model agrees with a
/// from-scratch solve.
#[test]
fn chained_inserts_leave_every_published_model_as_it_was() {
    const PARKED: &str = r#"
        a(X), b(X) -> c(X).
        a(X), not d(X) -> e(X).
        c(X), not e(X) -> f(X).
        e(X) -> g(X).
    "#;
    const N: usize = 3 * wfdatalog::core::chunked::CHUNK + 500;
    let base: String = (0..N).map(|i| format!("a\tn{i}\n")).collect();
    let mut kb = KnowledgeBase::from_source(PARKED).unwrap();
    kb.insert_tsv(&base).unwrap();
    let mut facts = base;
    let mut published: Vec<(std::sync::Arc<SolvedModel>, String)> = Vec::new();
    for k in 0..5 {
        if k > 0 {
            let (old, hyp) = ((k * 4_099) % N, (k * 2_053 + 7) % N);
            let delta = format!("b\tn{old}\nd\tn{hyp}\na\tm{k}\nb\tm{k}\n");
            kb.insert_tsv(&delta).unwrap();
            facts.push_str(&delta);
        }
        let model = kb.solve();
        assert_eq!(model.solve_stats().incremental, k > 0, "step {k}");
        if k == 0 {
            let (m, chunk) = (model.model(), wfdatalog::core::chunked::CHUNK);
            let sizes = [
                model.universe().symbols.len(),
                model.universe().atoms.len(),
                m.segment.atoms().len(),
                m.segment.num_instances(),
                m.segment.pending_at_end,
                m.ground.num_atoms(),
                m.ground.num_rules(),
            ];
            assert!(sizes.iter().all(|&n| n > 3 * chunk), "{sizes:?}");
        }
        let mut scratch = KnowledgeBase::from_source(PARKED).unwrap();
        scratch.insert_tsv(&facts).unwrap();
        assert_eq!(observe(&model), observe(&scratch.solve()), "step {k}");
        for (j, (earlier, then)) in published.iter().enumerate() {
            assert!(
                published_view(earlier) == *then,
                "step {k}: the model of step {j} changed"
            );
        }
        published.push((std::sync::Arc::clone(&model), published_view(&model)));
    }
}
