//! Golden tests: every worked example in the paper, end to end.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::chase::{paper, ChaseBudget, ChaseSegment, ExplicitForest};
use wfdatalog::ontology::{example1, example2_abox, example2_tbox, Ontology};
use wfdatalog::wfs::{solve, WfsOptions};
use wfdatalog::{KnowledgeBase, Truth, Universe};
use wfdl_reference::{solve_no_una, AlternatingEngine, ForwardEngine, StepMode, WpEngine};

/// Example 1: the literature ontology and its BCQ.
#[test]
fn example1_literature() {
    let mut kb = KnowledgeBase::from_ontology(&example1()).unwrap();
    let model = kb.solve();
    assert!(model.ask("?- isAuthorOf(john, X).").unwrap());
    assert!(!model.ask("?- Article(X).").unwrap());
    // Adding a conference paper makes it an article.
    kb.add_source("ConferencePaper(pods13).").unwrap();
    let model = kb.solve();
    assert!(model.ask("?- Article(pods13).").unwrap());
    // Unsafe query (Y occurs only under negation) must be rejected.
    assert!(model.ask("?- Article(X), not ConferencePaper(Y).").is_err());
}

/// Example 2: `ValidID(f(a))` under UNA; withheld without UNA.
#[test]
fn example2_unique_name_assumption_matters() {
    let onto = Ontology {
        tbox: example2_tbox(),
        abox: example2_abox(),
    };
    let mut kb = KnowledgeBase::from_ontology(&onto).unwrap();
    let model = kb.solve_with(WfsOptions::depth(6));

    // The paper: EmployeeID(a, f(a)) and JobSeekerID(b, g(b)) derived.
    assert!(model.ask("?- EmployeeID(a, X).").unwrap());
    assert!(model.ask("?- JobSeekerID(b, X).").unwrap());
    // a is employed, so a is NOT registered as a job seeker.
    assert!(!model.ask("?- JobSeekerID(a, X).").unwrap());
    // And the crux: some ID is valid (namely f(a)).
    assert!(model.ask("?- ValidID(X).").unwrap());
    // The valid ID belongs to a's employee record.
    assert!(model.ask("?- EmployeeID(a, X), ValidID(X).").unwrap());
    // b's job-seeker ID is not valid (it is in JobSeekerID's range).
    assert!(!model.ask("?- JobSeekerID(b, X), ValidID(X).").unwrap());

    // Conservative no-UNA reading: the validation is withheld. The no-UNA
    // solver sits below the lifecycle API, so drive the layers directly.
    let mut u = Universe::new();
    let translated = wfdatalog::ontology::translate(&mut u, &onto).unwrap();
    let (sigma, _violations) =
        wfdatalog::wfs::lower_with_constraints(&mut u, &translated.program).unwrap();
    let no_una = solve_no_una(&mut u, &translated.database, &sigma, ChaseBudget::depth(6));
    let ast = wfdatalog::syntax::parse_single_query("?- ValidID(X).").unwrap();
    let q = wfdatalog::syntax::lower_query(&mut u, &ast).unwrap();
    assert_ne!(wfdatalog::query::holds3(&u, &no_una, &q), Truth::True);
}

/// Example 4: key literals of the well-founded model.
#[test]
fn example4_model_verdicts() {
    let mut u = Universe::new();
    let (db, sigma) = paper::example4(&mut u);
    let model = solve(&mut u, &db, &sigma, WfsOptions::depth(7));
    let atom = |p: &str, args: &[wfdatalog::core::TermId]| {
        let pid = u.lookup_pred(p).unwrap();
        u.atoms.lookup(pid, args)
    };
    let zero = u.lookup_constant("0").unwrap();
    let one = u.lookup_constant("1").unwrap();
    let f = u.lookup_skolem("sk_r1_0").unwrap();
    let a = u.terms.lookup_skolem(f, &[zero, zero, one]).unwrap();
    let r01a = atom("R", &[zero, one, a]).unwrap();
    let p01 = atom("P", &[zero, one]).unwrap();
    let q1 = atom("Q", &[one]).unwrap();
    let s0 = atom("S", &[zero]).unwrap();
    let t0 = atom("T", &[zero]).unwrap();
    // The production engine's result, then every oracle engine on the
    // same ground program / segment.
    for (engine, result) in [
        ("modular", &model.result),
        (
            "wp",
            &WpEngine::new(&model.ground).solve(StepMode::Accelerated),
        ),
        (
            "wp-literal",
            &WpEngine::new(&model.ground).solve(StepMode::Literal),
        ),
        (
            "alternating",
            &AlternatingEngine::new(&model.ground).solve(),
        ),
        ("forward", &ForwardEngine::new(&model.segment).solve()),
    ] {
        // R(0,1,f(0,0,1)) ∈ WFS (the paper's first observation).
        assert!(result.value(r01a).is_true(), "{engine}");
        // P(0,1) ∈ WFS (the paper's second observation).
        assert!(result.value(p01).is_true(), "{engine}");
        // ¬Q(1) ∈ WFS.
        assert!(result.value(q1).is_false(), "{engine}");
        // Example 9's limit verdicts: ¬S(0), T(0).
        assert!(result.value(s0).is_false(), "{engine}");
        assert!(result.value(t0).is_true(), "{engine}");
    }
}

/// Example 6: the figure — node counts and multiplicities at depth 3.
#[test]
fn example6_figure_reproduction() {
    let mut u = Universe::new();
    let (db, sigma) = paper::example4(&mut u);
    let seg = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(3));
    let forest = ExplicitForest::unfold(&seg, 3, 100_000);
    assert_eq!(forest.len(), 17);
    // Distinct labels = 13 atoms (4 R, 4 P, 3 Q, S(0), T(0)).
    let mut labels: Vec<_> = forest.nodes().iter().map(|n| n.atom).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), 13);
    let rendered = forest.render(&u);
    // The R-chain of the figure.
    assert!(rendered.contains("R(0,0,1)"));
    assert!(rendered.contains("R(0,1,sk_r1_0(0,0,1))"));
    assert!(rendered.contains("R(0,sk_r1_0(0,0,1),sk_r1_0(0,1,sk_r1_0(0,0,1)))"));
}

/// Example 9: the transfinite-iteration shadow — `T(0)`'s entry stage grows
/// without bound as the segment deepens, matching `Ŵ_{P,ω+2}`.
#[test]
fn example9_stage_growth() {
    let mut stages = Vec::new();
    for depth in [3u32, 5, 7, 9] {
        let mut u = Universe::new();
        let (db, sigma) = paper::example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(depth));
        let engine = ForwardEngine::new(&seg);
        let res = engine.solve_staged();
        let t = u.lookup_pred("T").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let t0 = u.atoms.lookup(t, &[zero]).unwrap();
        assert!(res.value(t0).is_true());
        stages.push(res.stage_of(t0).unwrap());
    }
    assert!(
        stages.windows(2).all(|w| w[0] < w[1]),
        "entry stages must strictly grow with depth: {stages:?}"
    );
}

/// The functional program of Example 4 written in surface syntax gives the
/// same model as the programmatic construction.
#[test]
fn example4_via_surface_syntax() {
    let mut kb = KnowledgeBase::from_source(
        r#"
        r(0,0,1).  p(0,0).
        r(X,Y,Z) -> r(X,Z,f(X,Y,Z)).
        r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
        r(X,Y,Z), not p(X,Y) -> q(Z).
        r(X,Y,Z), not p(X,Z) -> s(X).
        p(X,Y), not s(X) -> t(X).
        "#,
    )
    .unwrap();
    let model = kb.solve_with(WfsOptions::depth(7));
    assert!(model.ask("?- t(0).").unwrap());
    assert!(!model.ask("?- s(0).").unwrap());
    assert_eq!(model.ask3("?- s(0).").unwrap(), Truth::False);
    assert!(model.ask("?- p(0, 1).").unwrap());
    assert!(!model.ask("?- q(1).").unwrap());
}

/// The paper's δ bound is computable for tiny schemas and `None` once it
/// overflows — and the *practical* depths used above are minuscule next to
/// it.
#[test]
fn delta_bound_reporting() {
    use wfdl_reference::{paper_delta, query_depth_bound};
    let tiny = wfdatalog::core::SchemaStats {
        num_preds: 1,
        max_arity: 1,
    };
    let delta = paper_delta(tiny).unwrap();
    assert_eq!(delta, 16);
    assert_eq!(query_depth_bound(tiny, 2), Some(32));
    // Example 4's schema: |R| = 5, w = 3 → δ overflows u128 (the bound is
    // astronomic; decidability-only).
    let ex4 = wfdatalog::core::SchemaStats {
        num_preds: 5,
        max_arity: 3,
    };
    assert_eq!(paper_delta(ex4), None);
}
