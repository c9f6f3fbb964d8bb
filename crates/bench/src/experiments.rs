//! The experiment implementations (E1–E11): each prints the
//! regenerated table/figure next to the paper's expected shape.

use crate::timing::{median_time, Series};
use wfdl_chase::{paper, ChaseBudget, ChaseSegment, ExplicitForest};
use wfdl_core::{Truth, Universe};
use wfdl_gen::{
    chain_database, employment_ontology, example4_sigma, random_database,
    random_stratified_program, winmove_database, winmove_sigma, EmploymentConfig, RandomConfig,
    RandomDbConfig, WinMoveConfig,
};
use wfdl_ontology::translate;
use wfdl_query::{holds3, Nbcq, QTerm, QVar, QueryAtom};
use wfdl_reference::{
    paper_delta, perfect_model, solve_no_una, stratify, AlternatingEngine, ForwardEngine, StepMode,
    WpEngine,
};
use wfdl_wfs::{solve, wcheck, EngineResult, ModularEngine, WellFoundedModel, WfsOptions};

/// E1 — the Example 6 figure: `F⁺(P)` up to depth 3.
pub fn e1_chase_forest_figure() {
    println!("== E1: Example 6 figure — guarded chase forest F+(P), depth ≤ 3 ==");
    let mut u = Universe::new();
    let (db, sigma) = paper::example4(&mut u);
    let seg = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(3));
    let forest = ExplicitForest::unfold(&seg, 3, 100_000);
    print!("{}", forest.render(&u));
    println!(
        "nodes: {} (paper figure: 17 at depth ≤ 3; 13 distinct atoms)",
        forest.len()
    );
    println!();
}

/// E2 — Example 9: the transfinite-iteration shadow. The stage at which
/// `T(0)` enters `lfp(Ŵ_P)` grows with segment depth (ω+2 in the limit).
pub fn e2_transfinite_stages() {
    println!("== E2: Example 9 — Ŵ_P stage arithmetic on growing segments ==");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>10}",
        "depth", "atoms", "stages", "stage(T(0))", "T(0)"
    );
    for depth in [4u32, 6, 8, 10, 12, 16] {
        let mut u = Universe::new();
        let (db, sigma) = paper::example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(depth));
        let engine = ForwardEngine::new(&seg);
        let res = engine.solve_staged();
        let t = u.lookup_pred("T").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let t0 = u.atoms.lookup(t, &[zero]).unwrap();
        println!(
            "{:>6} {:>10} {:>12} {:>12} {:>10}",
            depth,
            seg.atoms().len(),
            res.result.stages,
            res.stage_of(t0).unwrap(),
            res.value(t0).to_string()
        );
    }
    println!("paper: WFS(P) = Ŵ_(P,ω+2); finite segments enter T(0) ever later.\n");
}

/// E3 — Theorem 13 data complexity: fixed Σ, growing `D`; expected
/// polynomial (near-linear) runtime.
pub fn e3_data_complexity() {
    println!("== E3: Theorem 13 — data complexity (fixed Σ, |D| grows) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "|D|", "atoms", "rules", "time"
    );
    let mut series = Series::default();
    for k in [4usize, 8, 16, 32, 64, 128, 256] {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let db = chain_database(&mut u, k);
        let model = solve(&mut u, &db, &sigma, WfsOptions::depth(6)); // warm-up
        let t = median_time(3, || solve(&mut u, &db, &sigma, WfsOptions::depth(6)));
        println!(
            "{:>10} {:>12} {:>12} {:>11.2?}",
            db.len(),
            model.segment.atoms().len(),
            model.ground.num_rules(),
            t
        );
        series.push(db.len() as f64, t.as_secs_f64());
    }
    println!(
        "log-log slope: {:.2}  (paper: PTIME in data complexity — polynomial, \
         here ≈ linear)\n",
        series.loglog_slope()
    );
}

/// E4 — Theorem 13 combined complexity: the chase's branching factor and
/// the type space grow with the maximum arity `w`. The workload has one
/// `w`-ary predicate and one existential rule per argument position, so a
/// depth-`d` segment holds on the order of `w^d` atoms; next to the
/// measured cost we print the paper's formal bound `δ` (doubly exponential
/// in `w`, quickly overflowing u128).
pub fn e4_combined_complexity() {
    use wfdl_core::{Program, RTerm, RuleAtom, Tgd, Var};
    println!("== E4: Theorem 13 — combined complexity (arity w grows) ==");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>24}",
        "w", "atoms", "rules", "time", "paper δ (|R|=3, w)"
    );
    let mut series = Series::default();
    for w in [1usize, 2, 3, 4, 5] {
        let mut u = Universe::new();
        let p = u.pred("p", w).unwrap();
        let good = u.pred("good", 1).unwrap();
        let bad = u.pred("bad", 1).unwrap();
        let mut prog = Program::new();
        let guard_args: Vec<RTerm> = (0..w as u32).map(|i| RTerm::Var(Var::new(i))).collect();
        // One existential-refresh rule per argument position: the chase
        // branches w ways below every p-atom.
        for pos in 0..w {
            let mut head_args = guard_args.clone();
            head_args[pos] = RTerm::Var(Var::new(w as u32));
            prog.push(
                Tgd::new(
                    &u,
                    vec![RuleAtom::new(p, guard_args.clone())],
                    vec![],
                    vec![RuleAtom::new(p, head_args)],
                )
                .unwrap(),
            );
        }
        // A negation pair on the first argument keeps the WFS machinery hot.
        let x0 = vec![RTerm::Var(Var::new(0))];
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, guard_args.clone())],
                vec![RuleAtom::new(good, x0.clone())],
                vec![RuleAtom::new(bad, x0.clone())],
            )
            .unwrap(),
        );
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, guard_args.clone())],
                vec![RuleAtom::new(bad, x0.clone())],
                vec![RuleAtom::new(good, x0)],
            )
            .unwrap(),
        );
        let sigma = prog.skolemize(&mut u).unwrap();
        let c = u.constant("c");
        let seed = u.atom(p, vec![c; w]).unwrap();
        let mut db = wfdl_storage::Database::new();
        db.insert(&u, seed).unwrap();
        let model = solve(&mut u, &db, &sigma, WfsOptions::depth(4)); // warm-up
        let t = median_time(3, || solve(&mut u, &db, &sigma, WfsOptions::depth(4)));
        let delta = paper_delta(wfdl_core::SchemaStats {
            num_preds: 3,
            max_arity: w,
        });
        let delta_str = match delta {
            Some(d) => format!("{d:.3e}"),
            None => "> u128 (overflow)".to_string(),
        };
        println!(
            "{:>6} {:>10} {:>12} {:>11.2?} {:>24}",
            w,
            model.segment.atoms().len(),
            model.ground.num_rules(),
            t,
            delta_str
        );
        series.push(w as f64, t.as_secs_f64());
    }
    println!(
        "log-log slope vs w: {:.2} — superlinear growth at fixed depth, while\n\
         the formal bound δ is doubly exponential in w (decidability-only).\n",
        series.loglog_slope()
    );
}

/// E5 — Theorem 14: NBCQ answering, scaling database size and query size.
pub fn e5_nbcq_answering() {
    println!("== E5: Theorem 14 — NBCQ answering ==");
    println!("-- fixed query (n = 2 literals), growing |D| --");
    println!("{:>10} {:>12}", "|D|", "time");
    let mut series = Series::default();
    for k in [8usize, 16, 32, 64, 128, 256] {
        let mut u = Universe::new();
        let sigma = example4_sigma(&mut u);
        let db = chain_database(&mut u, k);
        let model = solve(&mut u, &db, &sigma, WfsOptions::depth(6));
        // ∃X,Y P(X,Y) ∧ ¬S(X)
        let p = u.lookup_pred("P").unwrap();
        let s = u.lookup_pred("S").unwrap();
        let q = Nbcq::boolean(
            &u,
            vec![QueryAtom::new(
                p,
                vec![QTerm::Var(QVar::new(0)), QTerm::Var(QVar::new(1))],
            )],
            vec![QueryAtom::new(s, vec![QTerm::Var(QVar::new(0))])],
        )
        .unwrap();
        let t = median_time(5, || wfdl_query::answers(&u, &model, &q));
        println!("{:>10} {:>11.2?}", db.len(), t);
        series.push(db.len() as f64, t.as_secs_f64());
    }
    println!(
        "log-log slope: {:.2} (paper: PTIME data complexity)",
        series.loglog_slope()
    );

    println!("-- fixed |D|, growing query size n --");
    println!("{:>6} {:>12} {:>10}", "n", "time", "holds");
    let mut u = Universe::new();
    let sigma = example4_sigma(&mut u);
    let db = chain_database(&mut u, 32);
    let model = solve(&mut u, &db, &sigma, WfsOptions::depth(6));
    let r = u.lookup_pred("R").unwrap();
    for n in 1..=5usize {
        // R(X0,X1,X2), R(X2,?,?)… chained joins of length n.
        let mut pos = Vec::new();
        for i in 0..n {
            pos.push(QueryAtom::new(
                r,
                vec![
                    QTerm::Var(QVar::new(3 * i as u32)),
                    QTerm::Var(QVar::new(3 * i as u32 + 1)),
                    QTerm::Var(QVar::new(3 * i as u32 + 2)),
                ],
            ));
        }
        // Chain them: share the first variable across atoms (star join).
        let pos: Vec<QueryAtom> = pos
            .into_iter()
            .map(|a| {
                let mut args = a.args.to_vec();
                args[0] = QTerm::Var(QVar::new(0));
                QueryAtom::new(a.pred, args)
            })
            .collect();
        let q = Nbcq::boolean(&u, pos, vec![]).unwrap();
        let t = median_time(5, || wfdl_query::holds(&u, &model, &q));
        let yes = wfdl_query::holds(&u, &model, &q);
        println!("{:>6} {:>11.2?} {:>10}", n, t, yes);
    }
    println!("(combined complexity grows with n — the n·δ bound is linear in n)\n");
}

/// E6 — Example 2: UNA vs no-UNA on the scaled employment ontology.
pub fn e6_dllite_employment() {
    println!("== E6: Example 2 — DL-Lite employment, UNA vs no-UNA ==");
    println!(
        "{:>9} {:>10} {:>12} {:>14} {:>12}",
        "persons", "employed", "validIDs", "validIDs", "time"
    );
    println!(
        "{:>9} {:>10} {:>12} {:>14} {:>12}",
        "", "", "(UNA)", "(no-UNA)", "(UNA)"
    );
    for n in [4usize, 8, 16, 32, 64] {
        let onto = employment_ontology(&EmploymentConfig {
            num_persons: n,
            employed_fraction: 0.5,
            seed: 5,
        });
        let mut u = Universe::new();
        let tr = translate(&mut u, &onto).unwrap();
        let sigma = tr.program.clone().skolemize(&mut u).unwrap();
        let model = solve(&mut u, &tr.database, &sigma, WfsOptions::depth(5)); // warm-up
        let t = median_time(3, || {
            solve(&mut u, &tr.database, &sigma, WfsOptions::depth(5))
        });
        let valid = u.lookup_pred("ValidID").unwrap();
        let una_count = model
            .true_atoms()
            .filter(|&a| u.atoms.pred(a) == valid)
            .count();
        let no_una = solve_no_una(&mut u, &tr.database, &sigma, ChaseBudget::depth(5));
        let no_una_count = no_una
            .true_atoms()
            .filter(|&a| u.atoms.pred(a) == valid)
            .count();
        let employed = onto
            .abox
            .concept_assertions
            .iter()
            .filter(|(c, _)| c == "Employed")
            .count();
        println!(
            "{:>9} {:>10} {:>12} {:>14} {:>11.2?}",
            n, employed, una_count, no_una_count, t
        );
    }
    println!(
        "paper: under UNA every employee ID validates (ValidID(f(a)) ∈ WFS);\n\
         without UNA none can be certainly validated.\n"
    );
}

/// E7 — engine ablation: one semantics, five engines (Theorem 8 made
/// executable). Each workload is chased and grounded once; only the
/// fixpoint computation is timed — the production engine on the solved
/// model's ground program, the oracles on the same program (the forward
/// engine on its chase segment).
pub fn e7_engine_ablation() {
    println!("== E7: engine ablation (modular / Wp / Wp-literal / alternating / forward) ==");
    let winmove = |nodes: usize, forward_bias: f64| {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = winmove_database(
            &mut u,
            &WinMoveConfig {
                nodes,
                out_degree: 2.0,
                forward_bias,
                seed: 3,
            },
        );
        solve(&mut u, &db, &sigma, WfsOptions::unbounded())
    };
    let workloads: Vec<(&str, WellFoundedModel)> = vec![
        ("example4 depth 8", {
            let mut u = Universe::new();
            let (db, sigma) = paper::example4(&mut u);
            solve(&mut u, &db, &sigma, WfsOptions::depth(8))
        }),
        ("chains 64 depth 6", {
            let mut u = Universe::new();
            let sigma = example4_sigma(&mut u);
            let db = chain_database(&mut u, 64);
            solve(&mut u, &db, &sigma, WfsOptions::depth(6))
        }),
        // Every component definite: one linear sweep for the modular
        // engine, staged unfounded-set rounds for the global ones.
        ("stratified 2048", {
            let mut u = Universe::new();
            let config = RandomConfig {
                seed: 2,
                num_rules: 32,
                num_preds: 12,
                negation_prob: 0.6,
                existential_prob: 0.0,
                ..Default::default()
            };
            let w = random_stratified_program(&mut u, &config, 4);
            let db_config = RandomDbConfig {
                num_constants: 48,
                num_facts: 2048,
                seed: 9,
            };
            let db = random_database(&mut u, &w, &db_config);
            solve(&mut u, &db, &w.sigma, WfsOptions::unbounded())
        }),
        // Acyclic game graph: the global engines' stage count grows with
        // the longest path, the condensation stays all-definite.
        ("win-move dag 2048", winmove(2048, 1.0)),
        // Draw cycles: recursive components exist but stay tiny.
        ("win-move 512", winmove(512, 0.5)),
    ];
    println!(
        "{:>20} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "modular", "Wp", "Wp-literal", "alternating", "forward"
    );
    for (name, model) in &workloads {
        let (ground, segment) = (&model.ground, &model.segment);
        let engines: [&dyn Fn() -> EngineResult; 5] = [
            &|| ModularEngine::new(ground).solve(),
            &|| WpEngine::new(ground).solve(StepMode::Accelerated),
            &|| WpEngine::new(ground).solve(StepMode::Literal),
            &|| AlternatingEngine::new(ground).solve(),
            &|| ForwardEngine::new(segment).solve(),
        ];
        let mut row = format!("{name:>20}");
        let mut verdicts = Vec::new();
        for run in engines {
            let t = median_time(3, run);
            let result = run();
            let count = |v: Truth| {
                let atoms = segment.atoms().iter();
                atoms.filter(|sa| result.value(sa.atom) == v).count()
            };
            verdicts.push((
                count(Truth::True),
                count(Truth::False),
                count(Truth::Unknown),
            ));
            row.push_str(&format!(" {:>12.2?}", t));
        }
        println!("{row}");
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "engines disagree on {name}: {verdicts:?}"
        );
    }
    println!("(identical (true, false, unknown) counts asserted per workload)\n");
}

/// E8 — stratified programs: WFS coincides with the perfect model; measure
/// the overhead of full WFS over stratified evaluation.
pub fn e8_stratified_vs_wfs() {
    println!("== E8: stratified baseline vs full WFS ==");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>8}",
        "seed", "rules", "stratified", "wfs", "agree"
    );
    for seed in 0..5u64 {
        let mut u = Universe::new();
        let w = random_stratified_program(
            &mut u,
            &RandomConfig {
                seed,
                num_rules: 14,
                num_preds: 8,
                negation_prob: 0.6,
                existential_prob: 0.0,
                ..Default::default()
            },
            3,
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                num_constants: 12,
                num_facts: 48,
                seed: seed ^ 0x5A,
            },
        );
        let strat = stratify(&w.sigma).expect("stratified by construction");
        let model = solve(&mut u, &db, &w.sigma, WfsOptions::unbounded());
        let t_strat = median_time(5, || perfect_model(&u, &model.ground, &strat));
        let t_wfs = median_time(5, || solve(&mut u, &db, &w.sigma, WfsOptions::unbounded()));
        let perfect = perfect_model(&u, &model.ground, &strat);
        let agree = model
            .ground
            .atoms()
            .iter()
            .all(|&a| perfect.value(a) == model.value(a));
        println!(
            "{:>6} {:>12} {:>13.2?} {:>13.2?} {:>8}",
            seed,
            model.ground.num_rules(),
            t_strat,
            t_wfs,
            agree
        );
        assert!(agree);
    }
    println!("(paper/[1]: on stratified programs the WFS equals the perfect model)\n");
}

/// E9 — win–move at scale: three-valued model statistics and runtime.
pub fn e9_winmove_scaling() {
    println!("== E9: win–move — three-valued models at scale ==");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>12}",
        "nodes", "won", "lost", "drawn", "stages", "time"
    );
    let mut series = Series::default();
    for nodes in [64usize, 128, 256, 512, 1024, 2048] {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = winmove_database(
            &mut u,
            &WinMoveConfig {
                nodes,
                out_degree: 2.0,
                forward_bias: 0.5,
                seed: 17,
            },
        );
        // Pinned to W_P: the "stages" column is the paper's fixpoint stage
        // count, which the production engine does not report — it counts
        // dependency components instead.
        let mut run = || {
            let segment = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::unbounded());
            let ground = segment.to_ground_program();
            let result = WpEngine::new(&ground).solve(StepMode::Accelerated);
            (segment, result)
        };
        let (segment, result) = run(); // warm-up
        let t = median_time(3, &mut run);
        let win = u.lookup_pred("win").unwrap();
        let mut won = 0usize;
        let mut drawn = 0usize;
        for sa in segment.atoms() {
            if u.atoms.pred(sa.atom) == win {
                match result.value(sa.atom) {
                    Truth::True => won += 1,
                    Truth::Unknown => drawn += 1,
                    Truth::False => {}
                }
            }
        }
        let lost = nodes - won - drawn;
        println!(
            "{:>8} {:>8} {:>8} {:>8} {:>8} {:>11.2?}",
            nodes, won, lost, drawn, result.stages, t
        );
        series.push(nodes as f64, t.as_secs_f64());
    }
    println!(
        "log-log slope: {:.2} (PTIME data complexity; WFS finds wins, losses \
         and draws in one fixpoint)\n",
        series.loglog_slope()
    );
}

/// E10 — WCHECK: demand-driven membership vs global fixpoint.
pub fn e10_wcheck() {
    println!("== E10: WCHECK — demand-driven membership vs global solve ==");
    let mut u = Universe::new();
    let sigma = example4_sigma(&mut u);
    let db = chain_database(&mut u, 64);
    let model = solve(&mut u, &db, &sigma, WfsOptions::depth(6));
    let t_global = median_time(3, || solve(&mut u, &db, &sigma, WfsOptions::depth(6)));
    // Probe one T-atom per chain: its cone is a single chain.
    let t_pred = u.lookup_pred("T").unwrap();
    let c0 = u.lookup_constant("c0").unwrap();
    let t_atom = u.atoms.lookup(t_pred, &[c0]).unwrap();
    let t_demand = median_time(10, || wcheck::decide(&model.ground, t_atom));
    println!("global solve (64 chains, depth 6): {t_global:.2?}");
    println!("wcheck::decide(T(c0)) on same ground program: {t_demand:.2?}");
    println!(
        "speedup: {:.1}x (the dependency cone of one chain is 1/64 of the program)",
        t_global.as_secs_f64() / t_demand.as_secs_f64().max(1e-12)
    );
    assert_eq!(wcheck::decide(&model.ground, t_atom), model.value(t_atom));
    // Certificate extraction round trip.
    let cert = wcheck::certify(&model.segment, &model.result.interp, t_atom).unwrap();
    assert!(wcheck::verify(&model.segment, &model.result.interp, &cert));
    println!(
        "certificate path length for T(c0): {} (verified independently)\n",
        cert.path.len()
    );
}

/// E11 — the finite-type argument behind decidability (Section 3): as
/// segments deepen, atom counts grow without bound while the number of
/// distinct canonical types plateaus.
pub fn e11_type_census() {
    println!("== E11: locality — atom count grows, type count plateaus ==");
    println!("{:>6} {:>10} {:>16}", "depth", "atoms", "distinct types");
    for depth in [3u32, 5, 7, 9, 11] {
        let mut u = Universe::new();
        let (db, sigma) = paper::example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(depth));
        let interp = ForwardEngine::new(&seg).solve().interp;
        let census = wfdl_wfs::type_census(&mut u, &seg, &interp);
        println!(
            "{:>6} {:>10} {:>16}",
            depth, census.atoms, census.distinct_types
        );
    }
    println!(
        "paper (Lemmas 10/11, Prop. 12): finitely many non-isomorphic types\n\
         over a schema ⇒ bounded chase depth suffices for query answering.\n"
    );
}

/// E2-adjacent: three-valued query answering sanity — an undefined query on
/// a draw cycle (used by the binary's `--all` run as a smoke check).
pub fn smoke_three_valued_query() {
    let mut u = Universe::new();
    let sigma = winmove_sigma(&mut u);
    let db = wfdl_gen::winmove_cycle(&mut u, 3);
    let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
    let win = u.lookup_pred("win").unwrap();
    let q = Nbcq::boolean(
        &u,
        vec![QueryAtom::new(win, vec![QTerm::Var(QVar::new(0))])],
        vec![],
    )
    .unwrap();
    assert_eq!(holds3(&u, &model, &q), Truth::Unknown);
}
