//! Property-based tests for the surface syntax: the lexer/parser never
//! panic on arbitrary input, and printing a generated program re-parses to
//! a fixed point.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdl_core::Universe;
use wfdl_syntax::{load, print_database, print_program, print_skolem_program};

proptest! {
    /// Total robustness: arbitrary bytes never panic the pipeline.
    #[test]
    fn parser_never_panics(src in "\\PC{0,200}") {
        let mut u = Universe::new();
        let _ = load(&mut u, &src);
    }

    /// Arbitrary token-shaped soup never panics either.
    #[test]
    fn token_soup_never_panics(parts in proptest::collection::vec(
        prop_oneof![
            Just("p".to_string()),
            Just("q(".to_string()),
            Just("X".to_string()),
            Just(")".to_string()),
            Just(",".to_string()),
            Just("->".to_string()),
            Just("not ".to_string()),
            Just("false".to_string()),
            Just(".".to_string()),
            Just("?-".to_string()),
            Just("f(".to_string()),
            Just("\"s\"".to_string()),
        ],
        0..40,
    )) {
        let src: String = parts.concat();
        let mut u = Universe::new();
        let _ = load(&mut u, &src);
    }
}

/// Constants as they are spelled in source text: bare names, and quoted
/// strings that would *not* lex back as a name if printed bare — a space
/// inside, a capital or `_` first (a variable), a keyword, the empty name
/// — beside digit-leading and non-ASCII names that need no quotes.
const CONSTANTS: [&str; 12] = [
    "k0",
    "k1",
    "42",
    "7up",
    "été",
    "中文",
    "\"Hello World\"",
    "\"X1\"",
    "\"_u\"",
    "\"not\"",
    "\"false\"",
    "\"\"",
];

/// A small generator of valid guarded programs in surface syntax.
fn program_strategy() -> impl Strategy<Value = String> {
    let constant = || (0..CONSTANTS.len()).prop_map(|i| CONSTANTS[i]);
    let fact =
        (0usize..4, constant(), constant()).prop_map(|(p, c, d)| format!("p{p}({c}, {d}).\n"));
    let plain_rule = (0usize..4, 0usize..4, any::<bool>()).prop_map(|(p, q, neg)| {
        if neg {
            format!("p{p}(X, Y), not p{q}(Y, X) -> p{}(X, Y).\n", (p + q) % 4)
        } else {
            format!("p{p}(X, Y) -> p{q}(Y, X).\n")
        }
    });
    let constant_rule = (0usize..4, 0usize..4, constant())
        .prop_map(|(p, q, c)| format!("p{p}(X, {c}) -> p{q}({c}, X).\n"));
    let existential_rule =
        (0usize..4, 0usize..4).prop_map(|(p, q)| format!("p{p}(X, Y) -> p{q}(Y, Z).\n"));
    let constraint = (0usize..4usize,).prop_map(|(p,)| format!("p{p}(X, X) -> false.\n"));
    let query = (0usize..4, any::<bool>(), constant()).prop_map(|(p, ans, c)| {
        if ans {
            format!("?(X) p{p}(X, {c}).\n")
        } else {
            format!("?- p{p}(X, Y).\n")
        }
    });
    proptest::collection::vec(
        prop_oneof![
            fact,
            plain_rule,
            constant_rule,
            existential_rule,
            constraint,
            query
        ],
        1..12,
    )
    .prop_map(|stmts| stmts.concat())
}

fn render_all(src: &str) -> Option<String> {
    let mut u = Universe::new();
    let l = load(&mut u, src).ok()?;
    let mut out = print_program(&u, &l.program);
    out.push_str(&print_skolem_program(
        &u,
        &wfdl_core::SkolemProgram {
            rules: l.functional.clone(),
        },
    ));
    out.push_str(&print_database(&u, &l.database));
    for q in &l.queries {
        out.push_str(&wfdl_syntax::print_query(&u, q));
        out.push('\n');
    }
    Some(out)
}

proptest! {
    /// Generated programs load, print, and reach a print fixed point.
    #[test]
    fn generated_programs_roundtrip(src in program_strategy()) {
        let once = render_all(&src).expect("generated programs are valid");
        let twice = render_all(&once).expect("printed programs re-load");
        prop_assert_eq!(&once, &twice);
        // And the print kept every constant's name: each one the source
        // spells is spelled the same way in the print.
        for c in CONSTANTS {
            prop_assert_eq!(src.contains(c), once.contains(c), "constant {} in {}", c, once);
        }
    }
}
