//! Walkthrough of the paper's running example (Examples 4, 6 and 9):
//! prints the Example 6 chase-forest figure, the `Ŵ_P` stage table of
//! Example 9, the final verdicts, and a WCHECK-style certificate for
//! `T(0)`.
//!
//! ```text
//! cargo run --example paper_example4
//! ```

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::chase::{paper::example4, ChaseBudget, ChaseSegment, ExplicitForest};
use wfdatalog::wfs::wcheck;
use wfdatalog::Universe;
use wfdl_reference::{ForwardEngine, StageTrace};

fn main() {
    let mut universe = Universe::new();
    let (db, sigma) = example4(&mut universe);

    // ---- Example 6: the chase forest up to depth 3 ----------------------
    let seg3 = ChaseSegment::build(&mut universe, &db, &sigma, ChaseBudget::depth(3));
    let forest = ExplicitForest::unfold(&seg3, 3, 10_000);
    println!(
        "=== Example 6: F+(P) up to depth 3 ({} nodes) ===",
        forest.len()
    );
    print!("{}", forest.render(&universe));

    // ---- Example 9: Ŵ_P stages on a depth-8 segment ----------------------
    let seg = ChaseSegment::build(&mut universe, &db, &sigma, ChaseBudget::depth(8));
    let engine = ForwardEngine::new(&seg);
    let staged = engine.solve_staged();
    let result = &staged.result;
    println!("\n=== Example 9: Ŵ_P stages (segment depth 8) ===");
    println!("fixpoint after {} stages", result.stages);
    let trace = StageTrace::from_result(&staged);
    print!("{}", trace.render(&universe, 4));

    // ---- Verdicts --------------------------------------------------------
    let lookup = |pred: &str, args: &[&str]| {
        let p = universe.lookup_pred(pred).unwrap();
        let ts: Vec<_> = args
            .iter()
            .map(|a| universe.lookup_constant(a).unwrap())
            .collect();
        universe.atoms.lookup(p, &ts).unwrap()
    };
    let t0 = lookup("T", &["0"]);
    let s0 = lookup("S", &["0"]);
    println!("\n=== verdicts (paper: T(0) true, S(0) false) ===");
    println!("T(0) = {}", result.value(t0));
    println!("S(0) = {}", result.value(s0));
    println!(
        "T(0) entered at stage {} — on the infinite forest this is the\n\
         transfinite stage ω+2 (the entry stage grows with segment depth).",
        staged.stage_of(t0).unwrap()
    );

    // ---- WCHECK-style certificate for T(0) -------------------------------
    let cert = wcheck::certify(&seg, &result.interp, t0).expect("T(0) is true");
    println!("\n=== WCHECK certificate for T(0) ===");
    println!(
        "guard path: {}",
        cert.path
            .iter()
            .map(|&a| universe.display_atom(a).to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!(
        "negative hypotheses: {}",
        cert.hypotheses
            .iter()
            .map(|&a| format!("¬{}", universe.display_atom(a)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let ok = wcheck::verify(&seg, &result.interp, &cert);
    println!(
        "independent verification: {}",
        if ok { "PASS" } else { "FAIL" }
    );
    assert!(ok);
}
