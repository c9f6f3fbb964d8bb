//! The fact path against the parser. `load` reads a ground fact written
//! `name(name, …, name).` in ASCII straight off the bytes and hands
//! anything else to the parser; which of the two read a fact must change
//! nothing. Each generated text is written three ways — every fact in a
//! spelling the fact path takes where it has one, every fact in a spelling
//! it must decline, and a random mix — and the three loads must agree on
//! every atom, term and predicate in id order and on the database in
//! insertion order. So that a path that declines everything cannot pass,
//! `Lowered::fact_path_facts` must count exactly the facts spelled for it.
//! A bad fact after the text must be reported at its own line and column,
//! however many facts the path took before it.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::fmt::Write as _;
use wfdl_core::{SkolemProgram, Universe};
use wfdl_syntax::{load, print_program, print_query, print_skolem_program};

/// Constants the fact path reads: ASCII names.
const BARE: [&str; 6] = ["a", "k1", "42", "7up", "x'", "b_c"];

/// Constants it declines whatever the spelling: non-ASCII or quoted.
const OTHER: [&str; 4] = ["été", "\"Hello World\"", "\"X1\"", "\"not\""];

/// Rules and queries between the facts, over `p0/1`, `p1/2`, `p2/3`.
const RULES: [&str; 4] = [
    "p1(X, Y), not p0(X) -> p0(Y).",
    "p2(X, Y, Z) -> p1(X, Z).",
    "?(X) p1(X, a).",
    "p1(X, Y) -> p2(Y, X, W).",
];

/// What goes between two statements.
const SEPARATORS: [&str; 7] = ["\n", " ", "", "\r\n", "\t", "  % c\n", "\n\n// d\n"];

/// One statement: a rule or query of [`RULES`], or the fact
/// `p{pred}(args…)` with `pred + 1` arguments; `style` picks its
/// spellings, `fast` whether the mixed text spells it for the fact path.
#[derive(Clone, Debug)]
struct Stmt {
    rule: Option<usize>,
    pred: usize,
    args: Vec<&'static str>,
    style: usize,
    fast: bool,
}

impl Stmt {
    /// Whether the fact path can read some spelling of this fact.
    fn has_fast_spelling(&self) -> bool {
        self.rule.is_none() && self.args.iter().all(|a| BARE.contains(a))
    }

    /// A spelling the fact path takes, if the fact has one.
    fn fast(&self) -> Option<String> {
        if !self.has_fast_spelling() {
            return None;
        }
        let p = self.pred;
        Some(match self.style % 4 {
            0 => format!("p{p}({}).", self.args.join(", ")),
            1 => format!("p{p}({}).", self.args.join(",")),
            2 => format!("p{p} ( {} ) .", self.args.join(" ,\t")),
            _ => format!("p{p}({})  .", self.args.join(",  ")),
        })
    }

    /// A spelling of the same statement the fact path must decline.
    fn slow(&self) -> String {
        if let Some(r) = self.rule {
            return RULES[r].to_owned();
        }
        let p = self.pred;
        let args = &self.args;
        let rest = args[1..]
            .iter()
            .map(|a| format!(", {a}"))
            .collect::<String>();
        let first = args[0];
        match self.style % 7 {
            // A comment inside the statement.
            0 => format!("p{p}( % note\n{first}{rest})."),
            // A newline inside the argument list.
            1 => format!("p{p}(\n  {first}{rest})."),
            // A quoted name (one that was not quoted already).
            2 if !first.starts_with('"') => format!("p{p}(\"{first}\"{rest})."),
            // Non-ASCII whitespace.
            3 => format!("p{p}(\u{2028}{first}{rest})."),
            4 => format!("p{p}({first}{rest})\u{a0}."),
            // A carriage return alone is whitespace, not a line end.
            5 => format!("p{p}({first}\r{rest})."),
            // A comment before the period.
            _ => format!("p{p}({first}{rest}) // c\n."),
        }
    }
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let constant = || {
        (0..BARE.len() + OTHER.len()).prop_map(|i| {
            if i < BARE.len() {
                BARE[i]
            } else {
                OTHER[i - BARE.len()]
            }
        })
    };
    (
        0usize..10,
        0usize..3,
        proptest::collection::vec(constant(), 3),
        0usize..28,
        any::<bool>(),
    )
        .prop_map(|(kind, pred, args, style, fast)| Stmt {
            // Mostly facts, mostly of ASCII names.
            rule: (kind >= 8).then_some(kind % RULES.len()),
            pred,
            args: args[..=pred]
                .iter()
                .map(|&a| {
                    if kind < 5 && !BARE.contains(&a) {
                        BARE[pred]
                    } else {
                        a
                    }
                })
                .collect(),
            style,
            fast,
        })
}

/// A text of `stmts`, each fact spelled for the fact path when `fast`
/// says so and it can be; also how many facts are so spelled.
fn text(stmts: &[Stmt], seps: &[usize], fast: impl Fn(&Stmt) -> bool) -> (String, usize) {
    let mut out = String::new();
    let mut taken = 0;
    for (s, &sep) in stmts.iter().zip(seps.iter().cycle()) {
        match s.fast().filter(|_| fast(s)) {
            Some(spelling) => {
                out.push_str(&spelling);
                taken += 1;
            }
            None => out.push_str(&s.slow()),
        }
        out.push_str(SEPARATORS[sep]);
    }
    (out, taken)
}

/// Everything a `load` decides, as text (the shape of the root package's
/// `tests/frontend_golden.rs`), and how many facts the fact path read.
fn dump(src: &str) -> (String, usize) {
    let mut u = Universe::new();
    let l = load(&mut u, src).expect("generated texts are valid");
    let mut out = String::from("-- program\n");
    out.push_str(&print_program(&u, &l.program));
    out.push_str("-- functional\n");
    let functional = SkolemProgram {
        rules: l.functional.clone(),
    };
    out.push_str(&print_skolem_program(&u, &functional));
    out.push_str("-- database (insertion order)\n");
    for &fact in l.database.facts() {
        writeln!(out, "{}", u.display_atom(fact)).unwrap();
    }
    out.push_str("-- queries\n");
    for q in &l.queries {
        writeln!(out, "{}", print_query(&u, q)).unwrap();
    }
    out.push_str("-- predicates (id order)\n");
    for p in u.pred_ids() {
        writeln!(out, "{}/{}", u.pred_name(p), u.pred_arity(p)).unwrap();
    }
    out.push_str("-- terms (id order)\n");
    for t in u.terms.ids() {
        writeln!(out, "{}", u.display_term(t)).unwrap();
    }
    out.push_str("-- atoms (id order)\n");
    for a in u.atoms.ids() {
        writeln!(out, "{}", u.display_atom(a)).unwrap();
    }
    (out, l.fact_path_facts)
}

/// The error a fact with a variable, appended to `src`, must get: at its
/// predicate, counting lines by `\n` and columns in characters.
fn expected_error(src: &str) -> String {
    let line = 1 + src.matches('\n').count();
    let last_line = &src[src.rfind('\n').map_or(0, |i| i + 1)..];
    let col = last_line.chars().count() + 3;
    format!("{line}:{col}: facts must be ground, found variable `X`")
}

proptest! {
    #[test]
    fn the_fact_path_changes_no_id_and_no_position(
        stmts in proptest::collection::vec(stmt_strategy(), 1..40),
        seps in proptest::collection::vec(0..SEPARATORS.len(), 1..8),
    ) {
        let (fast, fast_taken) = text(&stmts, &seps, |_| true);
        let (slow, slow_taken) = text(&stmts, &seps, |_| false);
        let (mixed, mixed_taken) = text(&stmts, &seps, |s| s.fast);
        prop_assert_eq!(slow_taken, 0);
        let (want, none) = dump(&slow);
        prop_assert_eq!(none, 0, "declined spellings: {:?}", slow);
        for (src, taken) in [(&fast, fast_taken), (&mixed, mixed_taken)] {
            let (got, took) = dump(src);
            prop_assert_eq!(&got, &want, "{:?} against {:?}", src, slow);
            prop_assert_eq!(took, taken, "facts the fact path read in {:?}", src);
        }
        for src in [&fast, &slow, &mixed] {
            let bad = format!("{src}  bad(X).");
            let err = load(&mut Universe::new(), &bad).unwrap_err();
            prop_assert_eq!(err.to_string(), expected_error(src), "{:?}", bad);
        }
    }
}

/// A few fixed texts, so that a reader sees what the path takes.
#[test]
fn the_fact_path_takes_exactly_the_ascii_facts() {
    for (src, taken) in [
        ("p(a). q(b, c).", 2),
        ("p(a).\r\np(b).\r\n", 2),
        ("p (a) . q( b ,\tc ).", 2),
        ("p(a). p(b) -> q(b). q(c).", 2),
        ("p(été). p(\"a\"). p(% c\na). p(a\n). p(a)\n.", 0),
        ("Article(a). go. p(f). p(a) // c\n.", 1),
    ] {
        let lowered = load(&mut Universe::new(), src).unwrap();
        assert_eq!(lowered.fact_path_facts, taken, "{src:?}");
    }
}
