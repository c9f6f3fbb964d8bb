//! Hostile input at the two text entry points beside the `.dl` frontend
//! (whose own property lives in `crates/syntax/tests/proptest_syntax.rs`):
//! whatever bytes arrive — over `/ingest`, from a `--facts` file, as an
//! ontology text — the answer is a value or an error, never a panic. And
//! at the `.dl` frontend itself, input deep enough to overflow a recursive
//! descent: nested function terms are an error, not an abort.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdatalog::ontology::parse_ontology;
use wfdatalog::syntax::{load, prepare_query};
use wfdatalog::{fact_batch_from_reader, Universe};

/// `f(f(…f(inner)…))`, `depth` applications deep.
fn nested(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "f(".repeat(depth), ")".repeat(depth))
}

#[test]
fn deeply_nested_terms_in_a_program_are_an_error() {
    let src = format!("p(X) -> q(X, {}).", nested(100_000, "X"));
    let mut u = Universe::new();
    let err = load(&mut u, &src).unwrap_err();
    assert!(err.message.contains("nested"), "{err}");
    // A nested fact is an error too, and so is one in a rule body.
    for src in [
        format!("p({}).", nested(100_000, "a")),
        format!("p({}) -> q(X).", nested(100_000, "X")),
    ] {
        assert!(load(&mut Universe::new(), &src).is_err());
    }
}

#[test]
fn deeply_nested_terms_in_a_query_are_an_error() {
    let mut u = Universe::new();
    load(&mut u, "p(a).").unwrap();
    let src = format!("?- p({}).", nested(100_000, "a"));
    let err = prepare_query(&u, &src).map(|_| ()).unwrap_err();
    assert!(err.message.contains("nested"), "{err}");
}

proptest! {
    /// Arbitrary bytes, valid UTF-8 or not, through the bulk fact loader.
    #[test]
    fn fact_batch_from_reader_never_panics(
        bytes in proptest::collection::vec(0u8..=255, 0..200)
    ) {
        let mut u = Universe::new();
        let _ = fact_batch_from_reader(&mut u, bytes.as_slice());
    }

    /// Field-shaped soup: separators, comments, blank and multi-byte
    /// fields, every line ending, arities that change mid-file.
    #[test]
    fn fact_lines_never_panic(parts in proptest::collection::vec(
        prop_oneof![
            Just("p"), Just("q"), Just("a"), Just(","), Just("\t"), Just(" "),
            Just("\n"), Just("\r\n"), Just("#"), Just("%"), Just("é"), Just("\u{2028}"),
            Just("\""), Just("🦀"),
        ],
        0..40,
    )) {
        let text = parts.concat();
        let mut u = Universe::new();
        let _ = fact_batch_from_reader(&mut u, text.as_bytes());
    }

    /// Arbitrary printable text as an ontology.
    #[test]
    fn parse_ontology_never_panics(src in "\\PC{0,200}") {
        let _ = parse_ontology(&src);
    }

    /// Ontology-shaped soup: unbalanced parentheses, empty sides, stray
    /// inverse markers, comments inside statements.
    #[test]
    fn ontology_soup_never_panics(parts in proptest::collection::vec(
        prop_oneof![
            Just("A"), Just("r"), Just("("), Just(")"), Just(","), Just("."),
            Just(" < "), Just("not "), Just("exists "), Just("∃"), Just("-"),
            Just("bottom"), Just("⊥"), Just("#"), Just("%"), Just("\n"), Just(" "),
            Just("é"),
        ],
        0..40,
    )) {
        let _ = parse_ontology(&parts.concat());
    }
}
