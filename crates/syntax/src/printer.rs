//! Pretty-printer: core structures → surface syntax (round-trips through
//! the parser).

use crate::lexer::is_bare_name;
use wfdl_core::{
    HeadTerm, Program, RTerm, RuleAtom, SkolemProgram, SkolemRule, TermId, TermNode, Tgd, Universe,
    Var,
};
use wfdl_query::{Nbcq, QTerm, QueryAtom};
use wfdl_storage::Database;

fn var_name(v: Var) -> String {
    format!("V{}", v.index())
}

/// Writes a constant so that it lexes back as the same name: bare when
/// that works, otherwise — spaces, a capital or `_` first, a keyword, the
/// empty name — as a quoted string. (Strings have no escapes: a name
/// containing `"` or a newline has no spelling in the surface syntax.)
fn push_const(universe: &Universe, c: TermId, out: &mut String) {
    match universe.terms.node(c) {
        TermNode::Const(name) => {
            let name = universe.symbols.resolve(name);
            if is_bare_name(name) {
                out.push_str(name);
            } else {
                out.push('"');
                out.push_str(name);
                out.push('"');
            }
        }
        TermNode::Skolem { .. } => out.push_str(&universe.display_term(c).to_string()),
    }
}

fn push_rterm(universe: &Universe, t: &RTerm, out: &mut String) {
    match t {
        RTerm::Const(c) => push_const(universe, *c, out),
        RTerm::Var(v) => out.push_str(&var_name(*v)),
    }
}

/// `name(arg, arg, …)` with `sep` between the arguments, or just `name`.
fn push_atom<T>(
    out: &mut String,
    name: &str,
    args: &[T],
    sep: &str,
    mut push_arg: impl FnMut(&T, &mut String),
) {
    out.push_str(name);
    if args.is_empty() {
        return;
    }
    out.push('(');
    for (i, t) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        push_arg(t, out);
    }
    out.push(')');
}

fn push_rule_atom(universe: &Universe, a: &RuleAtom, out: &mut String) {
    push_atom(out, universe.pred_name(a.pred), &a.args, ", ", |t, out| {
        push_rterm(universe, t, out)
    });
}

fn push_body(universe: &Universe, pos: &[RuleAtom], neg: &[RuleAtom], out: &mut String) {
    let mut first = true;
    for a in pos {
        if !first {
            out.push_str(", ");
        }
        first = false;
        push_rule_atom(universe, a, out);
    }
    for a in neg {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str("not ");
        push_rule_atom(universe, a, out);
    }
}

/// Renders a TGD as `body -> head.`
pub fn print_tgd(universe: &Universe, tgd: &Tgd) -> String {
    let mut out = String::new();
    push_body(universe, &tgd.body_pos, &tgd.body_neg, &mut out);
    out.push_str(" -> ");
    for (i, a) in tgd.head.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_rule_atom(universe, a, &mut out);
    }
    out.push('.');
    out
}

/// Renders a skolemized rule, with explicit function terms in the head.
pub fn print_skolem_rule(universe: &Universe, rule: &SkolemRule) -> String {
    let mut out = String::new();
    push_body(universe, &rule.body_pos, &rule.body_neg, &mut out);
    out.push_str(" -> ");
    out.push_str(universe.pred_name(rule.head_pred));
    if !rule.head_args.is_empty() {
        out.push('(');
        for (i, t) in rule.head_args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match t {
                HeadTerm::Const(c) => push_const(universe, *c, &mut out),
                HeadTerm::Var(v) => out.push_str(&var_name(*v)),
                HeadTerm::Skolem(f, vars) => {
                    out.push_str(universe.skolem_name(*f));
                    out.push('(');
                    for (k, v) in vars.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&var_name(*v));
                    }
                    out.push(')');
                }
            }
        }
        out.push(')');
    }
    out.push('.');
    out
}

/// Renders a whole program (TGDs then constraints), one statement per line.
pub fn print_program(universe: &Universe, program: &Program) -> String {
    let mut out = String::new();
    for tgd in &program.tgds {
        out.push_str(&print_tgd(universe, tgd));
        out.push('\n');
    }
    for c in &program.constraints {
        push_body(universe, &c.body_pos, &c.body_neg, &mut out);
        out.push_str(" -> false.\n");
    }
    out
}

/// Renders a skolemized program, one rule per line.
pub fn print_skolem_program(universe: &Universe, program: &SkolemProgram) -> String {
    let mut out = String::new();
    for r in &program.rules {
        out.push_str(&print_skolem_rule(universe, r));
        out.push('\n');
    }
    out
}

/// Renders a database, one fact per line (sorted for stability).
pub fn print_database(universe: &Universe, db: &Database) -> String {
    let mut lines: Vec<String> = db
        .facts()
        .iter()
        .map(|&a| {
            let mut line = String::new();
            let pred = universe.pred_name(universe.atoms.pred(a));
            push_atom(&mut line, pred, universe.atoms.args(a), ",", |&c, out| {
                push_const(universe, c, out)
            });
            line.push('.');
            line
        })
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

fn push_query_atom(universe: &Universe, a: &QueryAtom, out: &mut String) {
    push_atom(
        out,
        universe.pred_name(a.pred),
        &a.args,
        ", ",
        |t, out| match t {
            QTerm::Const(c) => push_const(universe, *c, out),
            QTerm::Var(v) => out.push_str(&format!("V{}", v.index())),
        },
    );
}

/// Renders an NBCQ in surface syntax (`?- …` or `?(…) …`).
pub fn print_query(universe: &Universe, q: &Nbcq) -> String {
    let mut out = String::new();
    if q.is_boolean() {
        out.push_str("?- ");
    } else {
        out.push_str("?(");
        for (i, v) in q.answer_vars.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("V{}", v.index()));
        }
        out.push_str(") ");
    }
    let mut first = true;
    for a in &q.pos {
        if !first {
            out.push_str(", ");
        }
        first = false;
        push_query_atom(universe, a, &mut out);
    }
    for a in &q.neg {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str("not ");
        push_query_atom(universe, a, &mut out);
    }
    out.push('.');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::load;

    /// Fixed-point round trip: print → parse+lower → print must agree.
    fn roundtrip(src: &str) {
        let mut u1 = Universe::new();
        let l1 = load(&mut u1, src).unwrap();
        let mut printed = print_program(&u1, &l1.program);
        printed.push_str(&print_skolem_program(
            &u1,
            &SkolemProgram {
                rules: l1.functional.clone(),
            },
        ));
        printed.push_str(&print_database(&u1, &l1.database));
        for q in &l1.queries {
            printed.push_str(&print_query(&u1, q));
            printed.push('\n');
        }

        let mut u2 = Universe::new();
        let l2 = load(&mut u2, &printed).unwrap();
        let mut printed2 = print_program(&u2, &l2.program);
        printed2.push_str(&print_skolem_program(
            &u2,
            &SkolemProgram {
                rules: l2.functional.clone(),
            },
        ));
        printed2.push_str(&print_database(&u2, &l2.database));
        for q in &l2.queries {
            printed2.push_str(&print_query(&u2, q));
            printed2.push('\n');
        }
        assert_eq!(printed, printed2, "print/parse round trip diverged");
    }

    #[test]
    fn roundtrip_example1() {
        roundtrip(
            r#"
            scientist(john).
            conferencePaper(X) -> article(X).
            scientist(X) -> isAuthorOf(X, Y).
            ?- isAuthorOf(john, X).
            "#,
        );
    }

    #[test]
    fn roundtrip_example4() {
        roundtrip(
            r#"
            r(0,0,1). p(0,0).
            r(X,Y,Z) -> r(X,Z,f(X,Y,Z)).
            r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
            r(X,Y,Z), not p(X,Y) -> q(Z).
            r(X,Y,Z), not p(X,Z) -> s(X).
            p(X,Y), not s(X) -> t(X).
            "#,
        );
    }

    #[test]
    fn roundtrip_constraints_and_answer_queries() {
        roundtrip(
            r#"
            emp(a). person(a). person(b).
            person(X), not emp(X) -> seeker(X).
            emp(X), seeker(X) -> false.
            ?(X) person(X), not seeker(X).
            "#,
        );
    }

    #[test]
    fn constants_that_do_not_lex_as_names_are_quoted() {
        let src = r#"p("Hello World", "X1", 42). q("not"). r("", "_", "false").
            p(X, "Y", Z) -> s(X, "a b").
            ?(X) p(X, "X1", "not")."#;
        let mut u = Universe::new();
        let l = load(&mut u, src).unwrap();
        assert_eq!(
            print_database(&u, &l.database),
            "p(\"Hello World\",\"X1\",42).\nq(\"not\").\nr(\"\",\"_\",\"false\").\n"
        );
        assert_eq!(
            print_program(&u, &l.program),
            "p(V0, \"Y\", V1) -> s(V0, \"a b\").\n"
        );
        assert_eq!(
            print_query(&u, &l.queries[0]),
            "?(V0) p(V0, \"X1\", \"not\")."
        );
        roundtrip(src);
    }

    #[test]
    fn roundtrip_nullary() {
        roundtrip("go. go, not stop -> run.");
    }

    #[test]
    fn printed_tgd_shape() {
        let mut u = Universe::new();
        let l = load(&mut u, "p(X), not q(X) -> r(X, Y).").unwrap();
        let s = print_tgd(&u, &l.program.tgds[0]);
        assert_eq!(s, "p(V0), not q(V0) -> r(V0, V1).");
    }
}
