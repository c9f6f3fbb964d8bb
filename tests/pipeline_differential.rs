//! End-to-end pipeline differential test: a generated workload solved
//! directly must produce the same model as its printed text re-parsed
//! through the surface syntax and solved again — across engines.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::syntax::{print_database, print_skolem_program};
use wfdatalog::wfs::{solve, WfsOptions};
use wfdatalog::{KnowledgeBase, Universe};
use wfdl_gen::{random_database, random_program, RandomConfig, RandomDbConfig};
use wfdl_reference::AlternatingEngine;

/// Renders an engine's verdicts over a model's segment as sorted
/// `atom=truth` lines (aux predicates excluded).
fn fingerprint(
    u: &Universe,
    model: &wfdatalog::WellFoundedModel,
    result: &wfdatalog::wfs::EngineResult,
) -> Vec<String> {
    let mut lines: Vec<String> = model
        .segment
        .atoms()
        .iter()
        .map(|sa| sa.atom)
        .filter(|&a| !u.pred_info(u.atoms.pred(a)).auxiliary)
        .map(|a| format!("{}={}", u.display_atom(a), result.value(a)))
        .collect();
    lines.sort();
    lines
}

#[test]
fn printed_programs_solve_identically() {
    for seed in 0..15u64 {
        // Direct pipeline.
        let mut u = Universe::new();
        let w = random_program(
            &mut u,
            &RandomConfig {
                seed,
                num_rules: 10,
                negation_prob: 0.5,
                existential_prob: 0.25,
                ..Default::default()
            },
        );
        let db = random_database(
            &mut u,
            &w,
            &RandomDbConfig {
                seed: seed ^ 0x1234,
                ..Default::default()
            },
        );
        let direct = solve(&mut u, &db, &w.sigma, WfsOptions::depth(4));
        let direct_fp = fingerprint(&u, &direct, &direct.result);

        // Text round trip: print Σf + D, re-parse, re-solve.
        let mut text = print_skolem_program(&u, &w.sigma);
        text.push_str(&print_database(&u, &db));
        let mut kb = KnowledgeBase::from_source(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: printed program must parse: {e}\n{text}"));
        let reparsed = kb.solve_with(WfsOptions::depth(4));
        let model = reparsed.model();
        let reparsed_fp = fingerprint(reparsed.universe(), model, &model.result);

        assert_eq!(
            direct_fp, reparsed_fp,
            "seed {seed}: text round trip changed the model\n{text}"
        );

        // And the alternating engine agrees on the re-parsed program.
        let alt = AlternatingEngine::new(&model.ground).solve();
        assert_eq!(
            reparsed_fp,
            fingerprint(reparsed.universe(), model, &alt),
            "seed {seed}"
        );
    }
}

#[test]
fn ontology_text_round_trip() {
    // The DL-Lite text parser feeds the same pipeline.
    let src = r#"
        Person, Employed, not exists JobSeekerID < exists EmployeeID .
        Person, not Employed, not exists EmployeeID < exists JobSeekerID .
        exists EmployeeID-, not exists JobSeekerID- < ValidID .
        Person(a). Person(b). Employed(a).
    "#;
    let onto = wfdatalog::ontology::parse_ontology(src).unwrap();
    let mut kb = KnowledgeBase::from_ontology(&onto).unwrap();
    let model = kb.solve_with(WfsOptions::depth(6));
    assert!(model.ask("?- ValidID(X).").unwrap());
    assert!(model.ask("?- EmployeeID(a, X), ValidID(X).").unwrap());
}
