//! The paper's Example 2: employee/job-seeker IDs in DL-Lite_{R,⊓,not},
//! and why the unique name assumption matters.
//!
//! With `D = {Person(a), Person(b), Employed(a)}` the WFS under UNA derives
//! `EmployeeID(a, f(a))`, `JobSeekerID(b, g(b))` and — because `f(a) ≠ g(b)`
//! under UNA — also `ValidID(f(a))`. Without UNA the inequality is not
//! known, and the ID cannot be validated.
//!
//! ```text
//! cargo run --example employment
//! ```

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::ontology::{example2_abox, example2_tbox, Ontology};
use wfdatalog::{ChaseBudget, KnowledgeBase, Truth, Universe, WfsOptions};

fn main() -> Result<(), wfdatalog::Error> {
    let onto = Ontology {
        tbox: example2_tbox(),
        abox: example2_abox(),
    };

    // --- UNA (the paper's semantics) ------------------------------------
    let mut kb = KnowledgeBase::from_ontology(&onto)?;
    let model = kb.solve_with(WfsOptions::depth(6));
    println!("=== standard WFS under UNA ===");
    println!("{}", model.render_true());

    let valid_under_una = model.ask("?- ValidID(X).")?;
    println!("\n∃X ValidID(X)?  {valid_under_una}");
    assert!(valid_under_una, "Example 2: UNA-WFS validates f(a)");

    // --- conservative no-UNA approximation ------------------------------
    // Labelled nulls might denote equal values, so null-atoms are never
    // declared false and negation over them cannot fire. The no-UNA solver
    // is a different semantics and lives with the oracles in the test-only
    // `wfdl-reference` crate, so this part drives the layers directly.
    let mut u = Universe::new();
    let translated = wfdatalog::ontology::translate(&mut u, &onto)?;
    let (sigma, _violations) = wfdatalog::wfs::lower_with_constraints(&mut u, &translated.program)?;
    let no_una =
        wfdl_reference::solve_no_una(&mut u, &translated.database, &sigma, ChaseBudget::depth(6));
    let ast = wfdatalog::syntax::parse_single_query("?- ValidID(X).")?;
    let q = wfdatalog::syntax::lower_query(&mut u, &ast)?;
    let verdict = wfdatalog::query::holds3(&u, &no_una, &q);
    println!("\n=== conservative no-UNA reading ===");
    println!("∃X ValidID(X)?  {verdict}");
    assert_ne!(
        verdict,
        Truth::True,
        "without UNA the ID cannot be certainly validated"
    );

    println!(
        "\nThe separation the paper draws in Example 2: the same program\n\
         validates the employee ID only under the unique name assumption."
    );
    Ok(())
}
