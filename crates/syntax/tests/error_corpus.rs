//! Every kind of [`SyntaxError`](wfdl_syntax::SyntaxError) the frontend can
//! report, pinned with its message **and** position.
//!
//! The expectations were recorded on the three-pass frontend this crate
//! had before the streaming one (commit `fb20b2e`); the streaming frontend
//! must report the same error at the same place. Two differences are
//! deliberate, and each affected row says what the old frontend reported:
//!
//! * columns are counted from the line start, so the end of input after a
//!   `%`/`//` comment is where the comment ends (the old lexer did not
//!   advance the column through a comment);
//! * of several errors, the first in source order wins (the old frontend
//!   finished lexing before parsing and parsing before lowering, so a late
//!   syntax error beat an early lowering error).

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdl_core::Universe;

/// `(entry, source, "line:col: message")` — entry `L` is `load` into a
/// fresh universe, `Q` is `prepare_query` against [`FROZEN`].
const CORPUS: &[(char, &str, &str)] = &[
    ('L', "p(\"abc", "1:3: unterminated string literal"),
    ('L', "p(a).\n  q(\"ab\nc\").", "2:5: newline inside string literal"),
    ('L', "p(a) & q(b).", "1:6: unexpected character `&`"),
    ('L', "p(a) → q(a).", "1:6: unexpected character `→`"),
    ('L', "p(é, ∀).", "1:6: unexpected character `∀`"),
    ('L', "p(\"é中\", 🦀).", "1:9: unexpected character `🦀`"),
    ('L', "p(a). /", "1:7: unexpected character `/`"),
    ('L', "p(a). -", "1:7: unexpected character `-`"),
    ('L', "'a(b).", "1:1: unexpected character `'`"),
    ('L', "p(a) %éé\n&", "2:1: unexpected character `&`"),
    ('L', "p(\u{2028}a) ;", "1:7: unexpected character `;`"),
    ('L', "\tp(a) ?", "1:7: expected `.` or `->`, found Question"),
    ('L', "p(a)\r\n  q(", "2:3: expected `.` or `->`, found Name(\"q\")"),
    ('L', "é(a) ?", "1:6: expected `.` or `->`, found Question"),
    ('L', "Éa(b) -> ", "1:10: expected a predicate name, found Eof"),
    ('L', "p(\"a b\", \"c\td\") q", "1:17: expected `.` or `->`, found Name(\"q\")"),
    // Columns through a comment — the old lexer said 1:6 for all three.
    ('L', "p(a) % c", "1:9: expected `.` or `->`, found Eof"),
    ('L', "p(a) // c", "1:10: expected `.` or `->`, found Eof"),
    ('L', "p(a) %éé", "1:9: expected `.` or `->`, found Eof"),
    ('L', "p(a)", "1:5: expected `.` or `->`, found Eof"),
    ('L', "p(a).\n?- q(X)\n", "3:1: expected `.`, found Eof"),
    ('L', "not p(a).", "1:1: a fact must be a single positive atom"),
    ('L', "p(a), q(b).", "1:1: a fact must be a single positive atom"),
    ('L', "?() p(X).", "1:3: expected an answer variable"),
    ('L', "?(a) p(a).", "1:3: expected an answer variable"),
    ('L', "?(X, ) p(X).", "1:6: expected an answer variable"),
    ('L', "? p(X).", "1:3: expected `(` after `?`, found Name(\"p\")"),
    ('L', "p(X) -> .", "1:9: expected a predicate name, found Period"),
    ('L', "p(X) -> q(X)", "1:13: expected `.`, found Eof"),
    ('L', "p(a,).", "1:5: expected a term, found RParen"),
    ('L', "p(a", "1:4: expected `)`, found Eof"),
    ('L', "(a).", "1:1: expected a predicate name, found LParen"),
    ('L', "-> p(a).", "1:1: expected a predicate name, found Arrow"),
    ('L', "!", "1:2: expected a predicate name, found Eof"),
    ('L', "p(not).", "1:3: expected a term, found Not"),
    ('L', "p(false).", "1:3: expected a term, found False"),
    ('L', "p(X) -> false(X).", "1:14: expected `.`, found LParen"),
    ('L', "p(a).\n\nq(X) -> false, r(X).", "3:14: expected `.`, found Comma"),
    ('L', "p(X), q(X) -> false", "1:20: expected `.`, found Eof"),
    ('L', "p(f(a,)) -> q(a).", "1:7: expected a term, found RParen"),
    ('L', "p(X).", "1:1: facts must be ground, found variable `X`"),
    ('L', "  p(a, f(a)).", "1:3: facts must be null-free, found function term `f(…)`"),
    ('L', "p(f(X)) -> q(X).", "1:1: function terms may only appear in rule heads, found `f(…)`"),
    ('L', "p(a). ?- p(f(a)).", "1:10: queries cannot mention nulls (function terms)"),
    ('L', "p(a).\np(a,b).", "2:1: predicate `p` declared with arity 1 but used with arity 2"),
    ('L', "p(a). p(X) -> p(X, X).", "1:15: predicate `p` declared with arity 1 but used with arity 2"),
    ('L', "p(X), p(X, X) -> q(X).", "1:7: predicate `p` declared with arity 1 but used with arity 2"),
    ('L', "p(a). ?- p(a), p(a, b).", "1:16: predicate `p` declared with arity 1 but used with arity 2"),
    ('L', "p(X,Y), p(Y,Z) -> p(X,Z).", "1:1: rule is not guarded (no positive body atom contains every universal variable): p(X0,X1), p(X1,X2) -> p(X0,X2)"),
    ('L', "\n p(X), q(Y) -> false.", "2:2: rule is not guarded (no positive body atom contains every universal variable): p(X0), q(X1) -> false"),
    ('L', "p(X), not q(Y) -> r(X).", "1:1: unsafe rule (variable X1 occurs in a negated body atom but in no positive body atom): p(X0), not q(X1) -> r(X0)"),
    ('L', "p(X) -> q(X, f(X, Y)).", "1:9: function argument `Y` must occur in the body"),
    ('L', "p(X) -> q(X, Y, f(X)).", "1:9: variable `Y` in a functional head must occur in the body (use a plain existential head instead)"),
    ('L', "p(X) -> q(f(a)).", "1:9: function arguments must be variables"),
    ('L', "p(X) -> q(f(X)), r(X).", "1:1: rules with function terms in the head must have a single head atom"),
    ('L', "p(X) -> q(X, f(X)). p(X) -> r(f(X, X)).", "1:29: function `f` declared with arity 1 but used with arity 2"),
    ('L', "p(a). ?- p(X), not q(Y).", "1:7: variable V1 occurs only in negated atoms (query not range-restricted)"),
    ('L', "p(a).\n?(Y) p(X).", "2:1: answer variable V1 occurs in no positive atom"),
    ('L', "?- not p(a).", "1:1: a normal conjunctive query needs at least one positive atom"),
    // First error in source order — the old frontend said
    // "2:3: expected a term, found Eof".
    ('L', "p(X).\nq(", "1:1: facts must be ground, found variable `X`"),
    // Old: "1:17: unterminated string literal".
    ('L', "p(a). p(a,b). q(\"x", "1:7: predicate `p` declared with arity 1 but used with arity 2"),
    // Old: "2:1: unexpected character `&`".
    ('L', "p(X,Y), p(Y,Z) -> p(X,Z).\n&", "1:1: rule is not guarded (no positive body atom contains every universal variable): p(X0,X1), p(X1,X2) -> p(X0,X2)"),
    // The edges of the fact path (a byte scan that reads
    // `name(name, …, name).` and declines everything else to the parser),
    // recorded before it existed: a declined fact reports what the parser
    // reported, and an accepted one moves no later position.
    ('L', "p(a, b)", "1:8: expected `.` or `->`, found Eof"),
    ('L', "p().", "1:3: expected a term, found RParen"),
    ('L', "not(a).", "1:4: expected a predicate name, found LParen"),
    ('L', "false(a).", "1:1: expected a predicate name, found False"),
    ('L', "p(A).", "1:1: facts must be ground, found variable `A`"),
    ('L', "p(_x).", "1:1: facts must be ground, found variable `_x`"),
    ('L', "p(f(a)).", "1:1: facts must be null-free, found function term `f(…)`"),
    ('L', "p(a) q(b).", "1:6: expected `.` or `->`, found Name(\"q\")"),
    ('L', "p(a).\np(a, b).", "2:1: predicate `p` declared with arity 1 but used with arity 2"),
    ('L', "p(a). p(b). p(c, d).", "1:13: predicate `p` declared with arity 1 but used with arity 2"),
    ('L', "p(a).p(b).p(\"c\", d).", "1:11: predicate `p` declared with arity 1 but used with arity 2"),
    ('L', "p(é). q(a). q(X).", "1:13: facts must be ground, found variable `X`"),
    ('L', "p(a).\tp(b).  p(c) -> .", "1:22: expected a predicate name, found Period"),
    ('L', "p(a) % c\n.\np(b, c).", "3:1: predicate `p` declared with arity 1 but used with arity 2"),
    ('L', "p(a).\r\np(b).\r\np(c).\r\n  q(a, X).", "4:3: facts must be ground, found variable `X`"),
    ('L', "e(a, b).\r\ne(b, c).\r\ne(c, d).\r\ne(d) .\r\n", "4:1: predicate `e` declared with arity 2 but used with arity 1"),
    ('L', "e(a,b).\r\ne(b,c).\r\n  e(c, ).\r\n", "3:8: expected a term, found RParen"),
    ('Q', "", "1:1: expected a query (`?- ….` or `?(X) …  .`)"),
    ('Q', "% only a comment", "1:1: expected a query (`?- ….` or `?(X) …  .`)"),
    ('Q', "\n\n  edge(a,b).", "3:3: expected a query (`?- ….` or `?(X) …  .`)"),
    ('Q', "?- edge(a).", "1:4: atom arity mismatch for predicate `edge`"),
    ('Q', "?- edge(a, f(a)).", "1:4: queries cannot mention nulls (function terms)"),
    ('Q', "?- edge(a, X), not ghost(Y).", "1:1: variable V1 occurs only in negated atoms (query not range-restricted)"),
    ('Q', "?(Y) edge(a, X).", "1:1: answer variable V1 occurs in no positive atom"),
    ('Q', "?- not mark(a).", "1:1: a normal conjunctive query needs at least one positive atom"),
    ('Q', "?- edge(a, X)", "1:14: expected `.`, found Eof"),
    ('Q', "?- edge(a, X). ?- edge(", "1:24: expected a term, found Eof"),
    ('Q', "mark(a).\n?- edge(a,", "2:11: expected a term, found Eof"),
];

const FROZEN: &str = "edge(a,b). edge(b,c). mark(a).";

#[test]
fn every_error_keeps_its_message_and_position() {
    assert!(CORPUS.len() >= 30);
    let mut failures = Vec::new();
    for &(entry, src, expected) in CORPUS {
        let mut u = Universe::new();
        let result = match entry {
            'L' => wfdl_syntax::load(&mut u, src).map(|_| ()),
            'Q' => {
                wfdl_syntax::load(&mut u, FROZEN).unwrap();
                wfdl_syntax::prepare_query(&u, src).map(|_| ())
            }
            other => panic!("unknown entry point {other:?}"),
        };
        let actual = match result {
            Ok(()) => "OK".to_owned(),
            Err(e) => e.to_string(),
        };
        if actual != expected {
            failures.push(format!(
                "{entry} {src:?}\n  expected {expected:?}\n  actual   {actual:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
