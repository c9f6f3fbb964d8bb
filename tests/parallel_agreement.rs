//! Parallel determinism: the modular engine at 2/4/8 worker threads must
//! be **bit-identical** to the serial engine — truth values, decision
//! stages, stage count and the semantic (scheduling-independent)
//! statistics. `WfsOptions::threads` now also shards the
//! chase match phase, so the full-pipeline comparisons additionally pin
//! the **segment** itself: atom ids in `SegAtomId` order with their
//! depths and levels, the rule-instance list, and the extracted ground
//! program must not move under any worker count. Covered shapes:
//!
//! * random ground normal programs (proptest, dense negation);
//! * win–move graphs with genuine draw cycles (recursive components);
//! * random guarded Datalog± workloads run through the chase (the ground
//!   programs the engine actually meets in production);
//! * the wide-fanout workload (thousands of shallow components — the
//!   scheduler-stress shape);
//! * the incremental re-solve path: the chase resume sharded at every
//!   thread count (the engine phase of a resumed solve is serial by
//!   construction), against a from-scratch serial solve of the union.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdatalog::storage::{GroundProgram, GroundProgramBuilder, GroundRule};
use wfdatalog::wfs::{solve, solve_resumed, ModularEngine, WfsOptions};
use wfdatalog::{AtomId, Truth, Universe};
use wfdl_gen::{
    chain_database, example4_sigma, fanout_database, fanout_sigma, random_database, random_program,
    winmove_database, winmove_sigma, FanoutConfig, RandomConfig, RandomDbConfig, WinMoveConfig,
};
use wfdl_reference::{StepMode, WpEngine};

const THREADS: [usize; 3] = [2, 4, 8];

/// Serial vs parallel on a prebuilt ground program: everything observable
/// out of the [`wfdatalog::wfs::EngineResult`] must coincide.
fn assert_engine_bit_identical(p: &GroundProgram, context: &str) {
    let serial = ModularEngine::new(p).solve();
    for &t in &THREADS {
        let par = ModularEngine::new(p).with_threads(t).solve();
        assert_eq!(par.stages, serial.stages, "{context}: {t} threads");
        for &a in p.atoms() {
            assert_eq!(
                par.value(a),
                serial.value(a),
                "{context}: {t} threads, value of {a:?}"
            );
            assert_eq!(
                par.stage_of(a),
                serial.stage_of(a),
                "{context}: {t} threads, stage of {a:?}"
            );
        }
        let (ps, ss) = (par.stats.unwrap(), serial.stats.unwrap());
        assert_eq!(ps.components, ss.components, "{context}");
        assert_eq!(ps.definite_components, ss.definite_components, "{context}");
        assert_eq!(
            ps.recursive_components, ss.recursive_components,
            "{context}"
        );
        assert_eq!(ps.largest_component, ss.largest_component, "{context}");
        assert_eq!(ps.atoms_in_recursive, ss.atoms_in_recursive, "{context}");
        assert_eq!(ps.unknown_atoms, ss.unknown_atoms, "{context}");
    }
}

/// Full-pipeline variant: solve the same universe/database/sigma with the
/// serial and parallel engines and compare the resulting models.
fn assert_solve_bit_identical(
    u: &mut Universe,
    db: &wfdatalog::Database,
    sigma: &wfdatalog::SkolemProgram,
    options: WfsOptions,
    context: &str,
) {
    let serial = solve(u, db, sigma, options.with_threads(1));
    assert_eq!(serial.segment.stats().threads, 1, "{context}");
    for &t in &THREADS {
        let par = solve(u, db, sigma, options.with_threads(t));
        assert_eq!(par.exact, serial.exact, "{context}");
        assert_eq!(par.counts(), serial.counts(), "{context}: {t} threads");

        // The chase ran with `t` match workers and must have produced the
        // exact same segment: same atoms in the same `SegAtomId` order
        // (so raw ids align), same depths/levels, same instances, same
        // ground program.
        assert_eq!(par.segment.stats().threads, t, "{context}");
        assert_eq!(
            par.segment.atoms().len(),
            serial.segment.atoms().len(),
            "{context}: {t} threads"
        );
        for (pa, sa) in par.segment.atoms().iter().zip(serial.segment.atoms()) {
            assert_eq!(
                (pa.atom, pa.depth, pa.level),
                (sa.atom, sa.depth, sa.level),
                "{context}: {t} threads, segment atom order"
            );
        }
        let iids: Vec<_> = serial.segment.instance_ids().collect();
        assert_eq!(
            par.segment.instance_ids().count(),
            iids.len(),
            "{context}: {t} threads"
        );
        for iid in iids {
            let (pi, si) = (par.segment.instance(iid), serial.segment.instance(iid));
            assert_eq!(
                (pi.src_rule, pi.guard_atom, pi.head, &pi.pos, &pi.neg),
                (si.src_rule, si.guard_atom, si.head, &si.pos, &si.neg),
                "{context}: {t} threads, instance {iid:?}"
            );
        }
        let (pg, sg) = (
            par.segment.to_ground_program(),
            serial.segment.to_ground_program(),
        );
        assert_eq!(pg.num_atoms(), sg.num_atoms(), "{context}: {t} threads");
        assert_eq!(pg.num_rules(), sg.num_rules(), "{context}: {t} threads");
        for sa in serial.segment.atoms() {
            assert_eq!(
                par.value(sa.atom),
                serial.value(sa.atom),
                "{context}: {t} threads, atom {}",
                u.display_atom(sa.atom)
            );
            assert_eq!(
                par.result.stage_of(sa.atom),
                serial.result.stage_of(sa.atom),
                "{context}: {t} threads, stage of {}",
                u.display_atom(sa.atom)
            );
        }
    }
}

/// Strategy: a random ground normal program over `n` atoms (the same
/// shape `engine_agreement.rs` uses).
fn ground_program(max_atoms: usize, max_rules: usize) -> impl Strategy<Value = GroundProgram> {
    let rule = (
        0..max_atoms,
        proptest::collection::vec(0..max_atoms, 0..3),
        proptest::collection::vec(0..max_atoms, 0..3),
    );
    (
        proptest::collection::vec(0..max_atoms, 0..3),
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense random ground programs: parallel ≡ serial, bit for bit.
    #[test]
    fn parallel_equals_serial_on_random_ground_programs(p in ground_program(12, 16)) {
        assert_engine_bit_identical(&p, "random ground program");
    }
}

/// Win–move graphs with draw cycles: 12 seeds, every one with genuinely
/// three-valued components.
#[test]
fn parallel_agrees_on_winmove_draw_graphs() {
    let mut saw_unknowns = false;
    for seed in 0..12u64 {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = winmove_database(
            &mut u,
            &WinMoveConfig {
                nodes: 96,
                out_degree: 2.0,
                forward_bias: 0.5,
                seed,
            },
        );
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
        saw_unknowns |= model.counts().2 > 0;
        assert_engine_bit_identical(&model.ground, &format!("winmove seed {seed}"));
        assert_solve_bit_identical(
            &mut u,
            &db,
            &sigma,
            WfsOptions::unbounded(),
            &format!("winmove seed {seed}"),
        );
    }
    assert!(saw_unknowns, "the seeds must include draw cycles");
}

/// Random guarded Datalog± workloads (existentials, depth-bounded chase):
/// the ground programs the engine meets in production.
#[test]
fn parallel_agrees_on_random_guarded_workloads() {
    for seed in 0..12u64 {
        let mut u = Universe::new();
        let cfg = RandomConfig {
            seed,
            num_rules: 12,
            negation_prob: 0.6,
            existential_prob: 0.25,
            ..Default::default()
        };
        let w = random_program(&mut u, &cfg);
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed ^ 0xFF,
                ..Default::default()
            },
        );
        assert_solve_bit_identical(
            &mut u,
            &db,
            &w.sigma,
            WfsOptions::depth(5),
            &format!("guarded seed {seed}"),
        );
    }
}

/// The chain and fanout workloads: thousands of shallow components.
#[test]
fn parallel_agrees_on_wide_condensations() {
    for seeds in [32usize, 96] {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let db = chain_database(&mut u, seeds);
        assert_solve_bit_identical(
            &mut u,
            &db,
            &sigma,
            WfsOptions::depth(6),
            &format!("chain({seeds})"),
        );
    }
    for seed in [1u64, 2, 3, 4, 5, 6] {
        let mut u = Universe::new();
        let sigma = fanout_sigma(&mut u);
        let db = fanout_database(
            &mut u,
            &FanoutConfig {
                groups: 256,
                recursive_fraction: 0.3,
                seed,
            },
        );
        assert_solve_bit_identical(
            &mut u,
            &db,
            &sigma,
            WfsOptions::unbounded(),
            &format!("fanout seed {seed}"),
        );
    }
}

/// The incremental re-solve path at every thread count: resume the chase
/// with a delta (sharded), carry the model over, and compare bit-for-bit
/// against a from-scratch **serial** solve over the union database. Also
/// pins that what is carried is thread-independent.
#[test]
fn parallel_incremental_resolve_matches_serial_scratch() {
    // Renders everything observable about a model, name-keyed: chase
    // nulls intern in different orders on the resumed vs scratch paths,
    // so raw atom ids do not align across universes.
    fn observe(model: &wfdatalog::wfs::WellFoundedModel, u: &Universe) -> (String, Vec<String>) {
        let mut unknown: Vec<String> = model
            .unknown_atoms()
            .map(|a| u.display_atom(a).to_string())
            .collect();
        unknown.sort();
        (model.render_true(u), unknown)
    }

    for seeds in [24usize, 64] {
        // From-scratch serial reference over the union.
        let mut u_ref = Universe::new();
        let sigma_ref = example4_sigma(&mut u_ref);
        let db_ref = chain_database(&mut u_ref, seeds + 2);
        let reference = solve(&mut u_ref, &db_ref, &sigma_ref, WfsOptions::depth(6));
        let want = observe(&reference, &u_ref);

        for &t in &[1usize, 2, 4, 8] {
            let mut u = Universe::new();
            let sigma = example4_sigma(&mut u);
            let base = chain_database(&mut u, seeds);
            let options = WfsOptions::depth(6).with_threads(t);
            let prev = solve(&mut u, &base, &sigma, options);

            // Delta: two more chain seeds, inserted as facts
            // (`chain_database` re-interns the shared prefix, so only the
            // fresh seeds' facts survive the filter).
            let delta_db = chain_database(&mut u, seeds + 2);
            let new_facts: Vec<AtomId> = delta_db
                .facts()
                .iter()
                .copied()
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
            // `resume_with` inherits the budget, threads included: the
            // delta chase ran sharded too, and the segment still lines up
            // with the from-scratch serial reference below.
            assert_eq!(inc.segment.stats().threads, t, "chase resume threads");

            assert_eq!(
                inc.segment.atoms().len(),
                reference.segment.atoms().len(),
                "threads {t}"
            );
            assert_eq!(observe(&inc, &u), want, "threads {t}");
            // Reuse accounting is scheduling-independent: the serial
            // incremental run reuses exactly the same components.
            if t > 1 {
                let mut u2 = Universe::new();
                let sigma2 = example4_sigma(&mut u2);
                let base2 = chain_database(&mut u2, seeds);
                let prev2 = solve(&mut u2, &base2, &sigma2, WfsOptions::depth(6));
                let delta2 = chain_database(&mut u2, seeds + 2);
                let facts2: Vec<AtomId> = delta2
                    .facts()
                    .iter()
                    .copied()
                    .filter(|f| !base2.contains(*f))
                    .collect();
                let (_, s2) =
                    solve_resumed(&mut u2, &prev2, &sigma2, &facts2, WfsOptions::depth(6))
                        .expect("resumable");
                assert_eq!(stats.components_reused, s2.components_reused, "threads {t}");
            }
        }
    }
}

/// `WfsOptions::threads` only applies to the modular engine (and the
/// chase); the global engines have no thread knob, run serially on the
/// 4-shard chase's ground program, and still agree with it.
#[test]
fn global_engines_ignore_threads_and_agree() {
    let mut u = Universe::new();
    let sigma = winmove_sigma(&mut u);
    let db = winmove_database(&mut u, &WinMoveConfig::default());
    let modular = solve(&mut u, &db, &sigma, WfsOptions::unbounded().with_threads(4));
    let wp = WpEngine::new(&modular.ground).solve(StepMode::Accelerated);
    for sa in modular.segment.atoms() {
        assert_eq!(modular.value(sa.atom), wp.value(sa.atom));
    }
    assert_eq!(modular.result.stats.unwrap().threads, 4);
    assert!(wp.stats.is_none(), "global engines report no stats");
}

/// Truth sanity on a known workload at every thread count.
#[test]
fn parallel_path_win_values_are_exact() {
    for &t in &[1usize, 2, 4, 8] {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = wfdl_gen::winmove_path(&mut u, 5);
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded().with_threads(t));
        let win = u.lookup_pred("win").unwrap();
        let value = |i: usize| {
            let n = u.lookup_constant(&format!("n{i}")).unwrap();
            u.atoms
                .lookup(win, &[n])
                .map_or(Truth::False, |a| model.value(a))
        };
        assert_eq!(value(4), Truth::False, "{t} threads");
        assert_eq!(value(3), Truth::True, "{t} threads");
        assert_eq!(value(2), Truth::False, "{t} threads");
        assert_eq!(value(1), Truth::True, "{t} threads");
        assert_eq!(value(0), Truth::False, "{t} threads");
    }
}
