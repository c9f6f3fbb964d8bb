//! Lowering: surface AST → interned core structures.
//!
//! Predicates, constants and Skolem functions are auto-declared on first
//! use (arity mismatches are errors). A rule whose head contains function
//! terms is lowered directly to a [`SkolemRule`] (the user wrote a rule of
//! `Σf`, as the paper does in Example 4); all other rules become guarded
//! NTGDs, with head-only variables read as existentials.

use crate::ast::*;
use crate::error::{Result, SyntaxError};
use crate::parser::Parser;
use wfdl_core::{
    AtomId, Constraint, HeadTerm, PredId, Program, RTerm, RuleAtom, SkolemProgram, SkolemRule,
    Span, TermId, Tgd, Universe, Var,
};
use wfdl_query::{
    Nbcq, PreparedQuery, QTerm, QVar, QueryAtom, QueryError, QueryShape, ShapeAtom, ShapeTerm,
};
use wfdl_storage::Database;

/// The result of lowering a source file.
#[derive(Debug, Default)]
pub struct Lowered {
    /// TGDs and negative constraints.
    pub program: Program,
    /// Rules written directly in functional (skolemized) form.
    pub functional: Vec<SkolemRule>,
    /// The database facts.
    pub database: Database,
    /// Queries, in source order.
    pub queries: Vec<Nbcq>,
    /// How many of the database's facts the fact path read ([`load`]);
    /// the parser read the rest.
    pub fact_path_facts: usize,
}

impl Lowered {
    /// Produces the complete `Σf`: skolemizes the TGD part and appends the
    /// directly-functional rules. Constraints are **not** included (see
    /// `wfdl-wfs::lower_with_constraints` for constraint handling).
    pub fn skolem_program(&self, universe: &mut Universe) -> wfdl_core::Result<SkolemProgram> {
        let mut sk = self.program.clone().skolemize(universe)?;
        sk.rules.extend(self.functional.iter().cloned());
        Ok(sk)
    }
}

/// Parses and lowers a source file in one streaming pass: each statement
/// is lowered as the parser produces it, in source order — so ids are
/// assigned in the order names first appear in the text, and of several
/// errors the first in source order is the one reported. A fact costs no
/// allocation: its names are slices of `src` until they are interned.
///
/// At each statement boundary the fact path ([`Parser::fact`]) tries to
/// read a ground fact in ASCII straight off the bytes; it hands the same
/// names to the same [`FactInterner`] calls, in the same order, as a fact
/// the parser read, so it changes no id and no error.
///
/// On `Err` nothing but interning has happened to `universe` (names,
/// terms and atoms of the statements before the error), which never
/// changes a model; the partial [`Lowered`] is dropped.
pub fn load(universe: &mut Universe, src: &str) -> Result<Lowered> {
    let mut parser = Parser::new(src);
    let mut out = Lowered::default();
    let mut facts = FactInterner::default();
    let mut names = Vec::new();
    loop {
        if let Some((pred, pos)) = parser.fact(&mut names) {
            let at = |e: wfdl_core::CoreError| SyntaxError::new(e.to_string(), pos);
            let pred = facts.pred(universe, pred, names.len()).map_err(at)?;
            let fact = facts
                .atom(universe, pred, names.iter().copied())
                .map_err(at)?;
            out.database.insert_unchecked(universe, fact);
            out.fact_path_facts += 1;
            continue;
        }
        let Some(stmt) = parser.next_statement()? else {
            return Ok(out);
        };
        match stmt {
            Statement::Fact(atom) => {
                let fact = lower_fact(universe, &mut facts, &atom)?;
                out.database.insert_unchecked(universe, fact);
                parser.recycle(atom);
            }
            Statement::Rule(rule) => lower_rule(universe, &rule, &mut out)?,
            Statement::Query(q) => out.queries.push(lower_query(universe, &q)?),
        }
    }
}

/// Interns ground facts given as text — a predicate name and constant
/// names — without allocating per fact: the argument buffer is reused and
/// the last predicate is remembered (fact texts are typically grouped by
/// relation), so a row costs its constants' interning and one atom probe.
/// Shared by the `.dl` frontend and the tab/comma-separated bulk loader.
#[derive(Debug, Default)]
pub struct FactInterner {
    last: Option<PredId>,
    args: Vec<TermId>,
}

impl FactInterner {
    /// Declares (or re-finds) the predicate `name` at `arity`; an arity
    /// mismatch with an earlier declaration is an error.
    pub fn pred(
        &mut self,
        universe: &mut Universe,
        name: &str,
        arity: usize,
    ) -> wfdl_core::Result<PredId> {
        if let Some(p) = self.last {
            if universe.pred_arity(p) == arity && universe.pred_name(p) == name {
                return Ok(p);
            }
        }
        let p = universe.pred(name, arity)?;
        self.last = Some(p);
        Ok(p)
    }

    /// Interns the ground atom `pred(constants…)`, interning each constant
    /// on first sight.
    pub fn atom<'a>(
        &mut self,
        universe: &mut Universe,
        pred: PredId,
        constants: impl Iterator<Item = &'a str>,
    ) -> wfdl_core::Result<AtomId> {
        self.args.clear();
        self.args.extend(constants.map(|c| universe.constant(c)));
        universe.atom(pred, &self.args)
    }
}

/// Interns a fact the parser read; a variable or a function term among
/// its arguments is an error, so the atom is constant-only.
fn lower_fact(
    universe: &mut Universe,
    facts: &mut FactInterner,
    atom: &AstAtom<'_>,
) -> Result<AtomId> {
    let at = |e: wfdl_core::CoreError| SyntaxError::new(e.to_string(), atom.pos);
    let pred = facts
        .pred(universe, atom.pred, atom.args.len())
        .map_err(at)?;
    let not_ground = atom.args.iter().find_map(|t| match t {
        AstTerm::Const(_) => None,
        AstTerm::Var(v) => Some(format!("facts must be ground, found variable `{v}`")),
        AstTerm::Fn(f, _) => Some(format!(
            "facts must be null-free, found function term `{f}(…)`"
        )),
    });
    if let Some(message) = not_ground {
        return Err(SyntaxError::new(message, atom.pos));
    }
    // Every argument is a constant (checked above; `atom` checks the
    // count against the arity once more).
    let constants = atom.args.iter().filter_map(|t| match t {
        AstTerm::Const(c) => Some(*c),
        _ => None,
    });
    facts.atom(universe, pred, constants).map_err(at)
}

/// Per-statement variable table: a variable's number is the index of its
/// first occurrence.
#[derive(Default)]
struct VarTable<'src> {
    names: Vec<&'src str>,
}

impl<'src> VarTable<'src> {
    fn index(&mut self, name: &'src str) -> u32 {
        let i = self.names.iter().position(|n| *n == name);
        let i = i.unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        i as u32
    }

    fn var(&mut self, name: &'src str) -> Var {
        Var::new(self.index(name))
    }

    fn qvar(&mut self, name: &'src str) -> QVar {
        QVar::new(self.index(name))
    }
}

fn lower_body_atom<'src>(
    universe: &mut Universe,
    vt: &mut VarTable<'src>,
    atom: &AstAtom<'src>,
) -> Result<RuleAtom> {
    let pred = universe
        .pred(atom.pred, atom.args.len())
        .map_err(|e| SyntaxError::new(e.to_string(), atom.pos))?;
    let mut args = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        match t {
            AstTerm::Var(v) => args.push(RTerm::Var(vt.var(v))),
            AstTerm::Const(c) => args.push(RTerm::Const(universe.constant(c))),
            AstTerm::Fn(f, _) => {
                return Err(SyntaxError::new(
                    format!("function terms may only appear in rule heads, found `{f}(…)`"),
                    atom.pos,
                ))
            }
        }
    }
    Ok(RuleAtom::new(pred, args))
}

fn head_has_functions(head: &[AstAtom<'_>]) -> bool {
    head.iter()
        .any(|a| a.args.iter().any(|t| matches!(t, AstTerm::Fn(..))))
}

fn lower_rule(universe: &mut Universe, rule: &AstRule<'_>, out: &mut Lowered) -> Result<()> {
    let span = Span {
        line: rule.pos.line,
        col: rule.pos.col,
    };
    let mut vt = VarTable::default();
    let mut body_pos = Vec::new();
    let mut body_neg = Vec::new();
    for lit in &rule.body {
        let atom = lower_body_atom(universe, &mut vt, &lit.atom)?;
        if lit.negated {
            body_neg.push(atom);
        } else {
            body_pos.push(atom);
        }
    }

    if rule.head.is_empty() {
        let c = Constraint::new(universe, body_pos, body_neg)
            .map_err(|e| SyntaxError::new(e.to_string(), rule.pos))?;
        out.program.push_constraint(c.with_span(span));
        return Ok(());
    }

    if head_has_functions(&rule.head) {
        if rule.head.len() != 1 {
            return Err(SyntaxError::new(
                "rules with function terms in the head must have a single head atom",
                rule.pos,
            ));
        }
        let rule_lowered = lower_functional_head(universe, &mut vt, rule, body_pos, body_neg)?;
        out.functional.push(rule_lowered.with_span(span));
        return Ok(());
    }

    let mut head = Vec::with_capacity(rule.head.len());
    for a in &rule.head {
        head.push(lower_body_atom(universe, &mut vt, a)?);
    }
    let tgd = Tgd::new(universe, body_pos, body_neg, head)
        .map_err(|e| SyntaxError::new(e.to_string(), rule.pos))?;
    out.program.push(tgd.with_span(span));
    Ok(())
}

fn lower_functional_head<'src>(
    universe: &mut Universe,
    vt: &mut VarTable<'src>,
    rule: &AstRule<'src>,
    body_pos: Vec<RuleAtom>,
    body_neg: Vec<RuleAtom>,
) -> Result<SkolemRule> {
    let head_ast = &rule.head[0];
    let head_pred = universe
        .pred(head_ast.pred, head_ast.args.len())
        .map_err(|e| SyntaxError::new(e.to_string(), head_ast.pos))?;
    // Variables seen in the body (function arguments must come from there).
    let body_var_count = vt.names.len();
    let mut head_args = Vec::with_capacity(head_ast.args.len());
    for t in &head_ast.args {
        match t {
            AstTerm::Const(c) => head_args.push(HeadTerm::Const(universe.constant(c))),
            AstTerm::Var(v) => {
                let var = vt.var(v);
                if var.index() >= body_var_count {
                    return Err(SyntaxError::new(
                        format!(
                            "variable `{v}` in a functional head must occur in the body \
                             (use a plain existential head instead)"
                        ),
                        head_ast.pos,
                    ));
                }
                head_args.push(HeadTerm::Var(var));
            }
            AstTerm::Fn(f, args) => {
                let mut vars = Vec::with_capacity(args.len());
                for arg in args {
                    match arg {
                        AstTerm::Var(v) => {
                            let var = vt.var(v);
                            if var.index() >= body_var_count {
                                return Err(SyntaxError::new(
                                    format!("function argument `{v}` must occur in the body"),
                                    head_ast.pos,
                                ));
                            }
                            vars.push(var);
                        }
                        _ => {
                            return Err(SyntaxError::new(
                                "function arguments must be variables",
                                head_ast.pos,
                            ))
                        }
                    }
                }
                let sk = universe
                    .skolem_fn(f, vars.len())
                    .map_err(|e| SyntaxError::new(e.to_string(), head_ast.pos))?;
                head_args.push(HeadTerm::Skolem(sk, vars.into()));
            }
        }
    }
    SkolemRule::new(universe, body_pos, body_neg, head_pred, head_args)
        .map_err(|e| SyntaxError::new(e.to_string(), rule.pos))
}

/// Lowers a parsed query, interning predicates and constants on first use
/// (the compile-stage path; for the serving path see
/// [`lower_query_frozen`]).
pub fn lower_query(universe: &mut Universe, q: &AstQuery<'_>) -> Result<Nbcq> {
    let mut vt = VarTable::default();
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for lit in &q.body {
        let atom = &lit.atom;
        let pred = universe
            .pred(atom.pred, atom.args.len())
            .map_err(|e| SyntaxError::new(e.to_string(), atom.pos))?;
        let mut args = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match t {
                AstTerm::Var(v) => args.push(QTerm::Var(vt.qvar(v))),
                AstTerm::Const(c) => args.push(QTerm::Const(universe.constant(c))),
                AstTerm::Fn(..) => {
                    return Err(SyntaxError::new(
                        "queries cannot mention nulls (function terms)",
                        atom.pos,
                    ))
                }
            }
        }
        let qa = QueryAtom::new(pred, args);
        if lit.negated {
            neg.push(qa);
        } else {
            pos.push(qa);
        }
    }
    let answer_vars: Vec<QVar> = q.answer_vars.iter().map(|v| vt.qvar(v)).collect();
    Nbcq::new(universe, pos, neg, answer_vars).map_err(|e| SyntaxError::new(e.to_string(), q.pos))
}

/// Lowers a parsed query against a **frozen** universe: predicates and
/// constants are looked up, never interned, so this works through
/// `&Universe` and is safe to call concurrently.
///
/// A name the reasoning session has never interned cannot occur in any
/// materialized atom, so resolution failure is a semantic verdict rather
/// than an error: an unresolved *positive* literal makes the whole query
/// [`PreparedQuery::is_definitely_empty`]; an unresolved *negated* literal
/// is certainly satisfied and dropped. Either way the name-level
/// [`QueryShape`] is retained inside the prepared query, so
/// [`PreparedQuery::rebind`] can revisit those verdicts after the
/// universe grows — without re-parsing. Malformed queries (non-range-
/// restricted, arity mismatches against known predicates, function terms)
/// still error, with the same messages as the interning path.
pub fn lower_query_frozen(universe: &Universe, q: &AstQuery<'_>) -> Result<PreparedQuery> {
    let mut vt = VarTable::default();

    // Per-literal variable lists, for validating the query *as written*.
    let mut atom_vars: Vec<(bool, Vec<QVar>)> = Vec::new();
    let mut shape_atoms: Vec<ShapeAtom> = Vec::new();
    for lit in &q.body {
        let atom = &lit.atom;
        // Arity against *known* predicates is a genuine error, reported at
        // the atom's own position.
        if let Some(p) = universe.lookup_pred(atom.pred) {
            if universe.pred_arity(p) != atom.args.len() {
                return Err(SyntaxError::new(
                    QueryError::ArityMismatch {
                        predicate: atom.pred.to_owned(),
                    }
                    .to_string(),
                    atom.pos,
                ));
            }
        }
        let mut vars = Vec::new();
        let mut args = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match t {
                AstTerm::Var(v) => {
                    let var = vt.qvar(v);
                    vars.push(var);
                    args.push(ShapeTerm::Var(var));
                }
                AstTerm::Const(c) => args.push(ShapeTerm::Const((*c).to_owned())),
                AstTerm::Fn(..) => {
                    return Err(SyntaxError::new(
                        "queries cannot mention nulls (function terms)",
                        atom.pos,
                    ))
                }
            }
        }
        atom_vars.push((lit.negated, vars));
        shape_atoms.push(ShapeAtom {
            negated: lit.negated,
            pred: atom.pred.to_owned(),
            args,
        });
    }
    let answer_vars: Vec<QVar> = q.answer_vars.iter().map(|v| vt.qvar(v)).collect();

    // Validate the query *as written* (resolved or not), mirroring the
    // checks `Nbcq::new` performs on the interning path.
    if !atom_vars.iter().any(|(negated, _)| !negated) {
        return Err(SyntaxError::new(
            QueryError::NoPositiveAtom.to_string(),
            q.pos,
        ));
    }
    let pos_vars: Vec<QVar> = atom_vars
        .iter()
        .filter(|(negated, _)| !negated)
        .flat_map(|(_, vars)| vars.iter().copied())
        .collect();
    for (negated, vars) in &atom_vars {
        if !negated {
            continue;
        }
        if let Some(&v) = vars.iter().find(|v| !pos_vars.contains(v)) {
            return Err(SyntaxError::new(
                QueryError::UnsafeVariable(v).to_string(),
                q.pos,
            ));
        }
    }
    for &v in &answer_vars {
        if !pos_vars.contains(&v) {
            return Err(SyntaxError::new(
                QueryError::UnboundAnswerVariable(v).to_string(),
                q.pos,
            ));
        }
    }

    let shape = QueryShape {
        atoms: shape_atoms,
        answer_vars,
    };
    PreparedQuery::resolve(universe, std::sync::Arc::new(shape))
        .map_err(|e| SyntaxError::new(e.to_string(), q.pos))
}

/// Parses and lowers a single query against a frozen universe in one step:
/// the text entry point of the serving path. The parsed query borrows
/// `src`; only the prepared query's own name-level shape is copied out.
pub fn prepare_query(universe: &Universe, src: &str) -> Result<PreparedQuery> {
    let ast = crate::parser::parse_single_query(src)?;
    lower_query_frozen(universe, &ast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_example1() {
        let mut u = Universe::new();
        let lowered = load(
            &mut u,
            r#"
            scientist(john).
            conferencePaper(X) -> article(X).
            scientist(X) -> isAuthorOf(X, Y).
            ?- isAuthorOf(john, X).
            "#,
        )
        .unwrap();
        assert_eq!(lowered.database.len(), 1);
        assert_eq!(lowered.program.tgds.len(), 2);
        assert!(lowered.program.tgds[1].has_existentials());
        assert_eq!(lowered.queries.len(), 1);
        let sk = lowered.skolem_program(&mut u).unwrap();
        assert_eq!(sk.rules.len(), 2);
    }

    #[test]
    fn lower_example4_functional_form() {
        let mut u = Universe::new();
        let lowered = load(
            &mut u,
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
        assert_eq!(lowered.functional.len(), 1);
        assert_eq!(lowered.program.tgds.len(), 4);
        let sk = lowered.skolem_program(&mut u).unwrap();
        assert_eq!(sk.rules.len(), 5);
        // No auto-skolem was needed; the explicit `f` is the only function.
        assert_eq!(u.num_skolems(), 1);
        assert_eq!(u.skolem_name(u.lookup_skolem("f").unwrap()), "f");
    }

    #[test]
    fn constraint_lowering() {
        let mut u = Universe::new();
        let lowered = load(&mut u, "p(X), q(X) -> false.").unwrap();
        assert_eq!(lowered.program.constraints.len(), 1);
    }

    #[test]
    fn unguarded_rule_reports_position() {
        let mut u = Universe::new();
        let err = load(&mut u, "p(X,Y), p(Y,Z) -> p(X,Z).").unwrap_err();
        assert!(err.message.contains("guard"), "{err}");
        assert_eq!(err.pos.line, 1);
    }

    #[test]
    fn fact_with_variable_rejected() {
        let mut u = Universe::new();
        let err = load(&mut u, "p(X).").unwrap_err();
        assert!(err.message.contains("ground"), "{err}");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut u = Universe::new();
        let err = load(&mut u, "p(a). p(a,b).").unwrap_err();
        assert!(err.message.contains("arity"), "{err}");
    }

    #[test]
    fn functional_head_with_fresh_var_rejected() {
        let mut u = Universe::new();
        let err = load(&mut u, "p(X) -> q(X, f(X, Y)).").unwrap_err();
        assert!(err.message.contains("must occur in the body"), "{err}");
    }

    #[test]
    fn query_with_answer_vars() {
        let mut u = Universe::new();
        let lowered = load(&mut u, "edge(a,b). ?(X) edge(X, Y), not edge(Y, X).").unwrap();
        let q = &lowered.queries[0];
        assert_eq!(q.answer_vars.len(), 1);
        assert_eq!(q.pos.len(), 1);
        assert_eq!(q.neg.len(), 1);
    }

    #[test]
    fn unsafe_query_rejected() {
        let mut u = Universe::new();
        let err = load(&mut u, "p(a). ?- p(X), not q(Y).").unwrap_err();
        assert!(err.message.contains("range-restricted"), "{err}");
    }

    #[test]
    fn shared_function_symbols_unify_across_rules() {
        let mut u = Universe::new();
        let lowered = load(&mut u, "p(X) -> q(X, f(X)).  q(X, Y) -> r(X, f(X)).").unwrap();
        assert_eq!(lowered.functional.len(), 2);
        assert_eq!(u.num_skolems(), 1, "same `f` in both rules");
    }

    // ---- frozen-universe query lowering ---------------------------------

    fn frozen_universe() -> Universe {
        let mut u = Universe::new();
        load(&mut u, "edge(a,b). edge(b,c). mark(a).").unwrap();
        u
    }

    #[test]
    fn prepare_query_does_not_intern() {
        let u = frozen_universe();
        let before = (u.num_preds(), u.terms.len());
        let q = prepare_query(&u, "?- edge(a, X), not mark(X).").unwrap();
        assert!(!q.is_definitely_empty());
        assert_eq!((u.num_preds(), u.terms.len()), before, "no interning");
    }

    #[test]
    fn unknown_constant_in_positive_literal_short_circuits() {
        let u = frozen_universe();
        let q = prepare_query(&u, "?(X) edge(X, zz).").unwrap();
        assert!(q.is_definitely_empty());
        assert_eq!(q.answer_arity(), 1);
        // Unknown predicate too.
        let q2 = prepare_query(&u, "?- ghost(a).").unwrap();
        assert!(q2.is_definitely_empty());
        assert!(q2.is_boolean());
    }

    #[test]
    fn unknown_name_in_negated_literal_is_dropped() {
        let u = frozen_universe();
        // `not mark(zz)` can never be falsified: the atom was never
        // materialized, so the literal is certainly satisfied.
        let q = prepare_query(&u, "?- edge(a, X), not mark(zz).").unwrap();
        let nbcq = q.query().expect("still evaluable");
        assert_eq!(nbcq.neg.len(), 0, "unresolved negated literal dropped");
        assert_eq!(nbcq.pos.len(), 1);
        // Unknown predicate under negation likewise.
        let q2 = prepare_query(&u, "?- edge(a, X), not ghost(X).").unwrap();
        assert_eq!(q2.query().unwrap().neg.len(), 0);
    }

    #[test]
    fn frozen_lowering_still_validates() {
        let u = frozen_universe();
        // Non-range-restricted query: the unsafe variable occurs only under
        // negation, even though the negated predicate is unknown.
        let err = prepare_query(&u, "?- edge(a, X), not ghost(Y).").unwrap_err();
        assert!(err.message.contains("range-restricted"), "{err}");
        // Arity mismatch against a *known* predicate is still an error.
        let err = prepare_query(&u, "?- edge(a).").unwrap_err();
        assert!(err.message.contains("arity"), "{err}");
        // Function terms are still rejected.
        let err = prepare_query(&u, "?- edge(a, f(a)).").unwrap_err();
        assert!(err.message.contains("null"), "{err}");
        // A source with no query reports the real position.
        let err = prepare_query(&u, "\n\n  edge(a,b).").unwrap_err();
        assert!(err.message.contains("expected a query"), "{err}");
        assert_eq!(err.pos.line, 3, "{err}");
    }

    #[test]
    fn parse_single_query_returns_first_query() {
        let q = crate::parser::parse_single_query("?- p(X). ?- q(X).").unwrap();
        assert_eq!(q.body.len(), 1);
        assert_eq!(q.body[0].atom.pred, "p");
        let err = crate::parser::parse_single_query("").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (1, 1));
    }
}
