//! Prepared queries: parse/lower once, evaluate many times.
//!
//! The serving path of the compile → solve → serve lifecycle resolves a
//! query against a **frozen** universe snapshot: predicates and constants
//! are looked up, never interned. A constant (or whole predicate) the
//! reasoning session has never seen cannot appear in any materialized atom,
//! so instead of erroring the resolution **short-circuits to a definite
//! verdict**:
//!
//! * a *positive* literal mentioning an unknown predicate or constant can
//!   never be matched — the query is definitely unsatisfied
//!   ([`PreparedQuery::is_definitely_empty`]);
//! * a *negated* literal mentioning one is satisfied by every assignment
//!   (the atom has no forward proof, hence is false under WFS), so the
//!   literal is dropped during preparation.
//!
//! Both verdicts read "an atom nobody has seen is false", which is what a
//! complete model says. Evaluation asks the model
//! ([`TruthSource::unseen`]): against one cut off before its fixpoint a
//! short-circuited query is `Unknown`, and one with a dropped negated
//! literal has no *certain* answers.
//!
//! Evaluation borrows everything (`&Universe`, `&impl TruthSource`, a
//! prebuilt [`AtomIndex`]), so a prepared query can be re-evaluated from
//! many threads without any synchronization.

use crate::eval::{answers_indexed, holds3_indexed, holds_indexed, AnswerSet};
use crate::nbcq::{Nbcq, QTerm, QueryAtom, QueryError};
use crate::source::TruthSource;
use std::sync::Arc;
use wfdl_core::{Truth, Universe};
use wfdl_storage::AtomIndex;

/// One term of a [`QueryShape`] literal: a query variable or a constant
/// kept by **name** (it may not be interned yet).
#[derive(Clone, Debug)]
pub enum ShapeTerm {
    /// A query variable (numbering fixed at parse time).
    Var(crate::nbcq::QVar),
    /// A constant, by name.
    Const(String),
}

/// One literal of a [`QueryShape`], predicate kept by name.
#[derive(Clone, Debug)]
pub struct ShapeAtom {
    /// True for `not p(…)`.
    pub negated: bool,
    /// Predicate name.
    pub pred: String,
    /// Arguments.
    pub args: Vec<ShapeTerm>,
}

/// The **name-level** form of a query: everything resolution needs, with
/// no dependence on what the universe happens to have interned. This is
/// what [`PreparedQuery`] retains when some name failed to resolve, so
/// [`PreparedQuery::rebind`] can re-resolve after universe growth with
/// pure lookups — no parser anywhere.
#[derive(Clone, Debug)]
pub struct QueryShape {
    /// Literals in source order.
    pub atoms: Vec<ShapeAtom>,
    /// Free (answer) variables.
    pub answer_vars: Vec<crate::nbcq::QVar>,
}

/// A query lowered against a frozen universe, ready for repeated
/// evaluation through `&self`.
///
/// Built by `wfdl_syntax::prepare_query` (text entry point),
/// [`PreparedQuery::from_query`] or [`PreparedQuery::resolve`]
/// (programmatic entry points).
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    /// The lowered query; `None` when preparation proved the query can
    /// have no certain or possible answers (see module docs).
    query: Option<Nbcq>,
    /// Number of answer variables (shape of the answer tuples even when
    /// the query is definitely empty).
    answer_arity: usize,
    /// Name-level form, retained **iff** some literal failed to resolve:
    /// those verdicts depend on what the universe had interned, so a
    /// [`PreparedQuery::rebind`] against a grown universe may upgrade
    /// them. Fully-resolved queries carry `None` — their dense ids are
    /// stable under universe growth and rebinding is the identity.
    shape: Option<Arc<QueryShape>>,
}

impl PreparedQuery {
    /// Wraps an already-lowered query.
    pub fn from_query(query: Nbcq) -> Self {
        PreparedQuery {
            answer_arity: query.answer_vars.len(),
            query: Some(query),
            shape: None,
        }
    }

    /// A query whose positive part mentions a predicate or constant the
    /// universe has never interned: definitely no answers. (Prefer
    /// [`PreparedQuery::resolve`], which also retains the shape needed to
    /// re-resolve later.)
    pub fn definitely_empty(answer_arity: usize) -> Self {
        PreparedQuery {
            query: None,
            answer_arity,
            shape: None,
        }
    }

    /// Resolves a name-level query shape against a frozen universe.
    ///
    /// Resolution failure is a semantic verdict, not an error (see the
    /// module docs): an unresolved positive literal makes the query
    /// definitely empty, an unresolved negated literal is certainly
    /// satisfied and dropped. Either way the shape is retained so
    /// [`PreparedQuery::rebind`] can revisit the verdict once the
    /// universe grows. Errors are reserved for genuine malformations:
    /// arity mismatch against a *known* predicate, or the structural
    /// checks `Nbcq::new` performs.
    pub fn resolve(
        universe: &Universe,
        shape: Arc<QueryShape>,
    ) -> Result<PreparedQuery, QueryError> {
        let answer_arity = shape.answer_vars.len();
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        let mut all_resolved = true;
        for atom in &shape.atoms {
            let pred = universe.lookup_pred(&atom.pred);
            if let Some(p) = pred {
                if universe.pred_arity(p) != atom.args.len() {
                    return Err(QueryError::ArityMismatch {
                        predicate: atom.pred.clone(),
                    });
                }
            }
            let mut args = Some(Vec::with_capacity(atom.args.len()));
            for t in &atom.args {
                match t {
                    ShapeTerm::Var(v) => {
                        if let Some(a) = args.as_mut() {
                            a.push(QTerm::Var(*v));
                        }
                    }
                    ShapeTerm::Const(c) => match universe.lookup_constant(c) {
                        Some(t) => {
                            if let Some(a) = args.as_mut() {
                                a.push(QTerm::Const(t));
                            }
                        }
                        None => args = None,
                    },
                }
            }
            let resolved = match (pred, args) {
                (Some(p), Some(a)) => Some(QueryAtom::new(p, a)),
                _ => None,
            };
            if resolved.is_none() {
                all_resolved = false;
            }
            if atom.negated {
                neg.push(resolved);
            } else {
                pos.push(resolved);
            }
        }
        // Unresolved positive literal: no homomorphism can ever match it.
        if pos.iter().any(Option::is_none) {
            return Ok(PreparedQuery {
                query: None,
                answer_arity,
                shape: Some(shape),
            });
        }
        let pos: Vec<QueryAtom> = pos.into_iter().flatten().collect();
        // Unresolved negated literals are certainly satisfied: drop them.
        let neg: Vec<QueryAtom> = neg.into_iter().flatten().collect();
        let query = Nbcq::new(universe, pos, neg, shape.answer_vars.clone())?;
        Ok(PreparedQuery {
            query: Some(query),
            answer_arity,
            shape: if all_resolved { None } else { Some(shape) },
        })
    }

    /// Re-resolves this query against a (grown) universe.
    ///
    /// Fully-resolved queries return a clone — dense predicate, constant
    /// and term ids never change once interned, so this is the promised
    /// id-remap-not-reparse (and the remap is the identity). Queries that
    /// short-circuited on unknown names at prepare time re-run name
    /// resolution from the retained [`QueryShape`]: a constant the
    /// knowledge base has since learned turns a definitely-empty verdict
    /// back into a live query. Errors only if a previously-unknown
    /// predicate materialized with a different arity.
    pub fn rebind(&self, universe: &Universe) -> Result<PreparedQuery, QueryError> {
        match &self.shape {
            None => Ok(self.clone()),
            Some(shape) => PreparedQuery::resolve(universe, Arc::clone(shape)),
        }
    }

    /// True iff some literal failed to resolve at preparation time, so a
    /// [`PreparedQuery::rebind`] against a grown universe could change
    /// the verdict.
    pub fn needs_rebind(&self) -> bool {
        self.shape.is_some()
    }

    /// Names in the retained shape that do not resolve against `universe`,
    /// rendered as `` "predicate `p`" `` / `` "constant `c`" `` strings in
    /// source order, deduplicated. Empty for fully-resolved queries. This
    /// is the payload for the short-circuit warning the CLI and serve tier
    /// attach when a query is answered definitely-empty (or with a negated
    /// literal dropped) because of an unknown name.
    pub fn unresolved_symbols(&self, universe: &Universe) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let Some(shape) = &self.shape else {
            return out;
        };
        let mut push = |s: String| {
            if !out.contains(&s) {
                out.push(s);
            }
        };
        for atom in &shape.atoms {
            if universe.lookup_pred(&atom.pred).is_none() {
                push(format!("predicate `{}`", atom.pred));
            }
            for t in &atom.args {
                if let ShapeTerm::Const(c) = t {
                    if universe.lookup_constant(c).is_none() {
                        push(format!("constant `{c}`"));
                    }
                }
            }
        }
        out
    }

    /// The lowered query, unless preparation short-circuited.
    pub fn query(&self) -> Option<&Nbcq> {
        self.query.as_ref()
    }

    /// The distinct predicates the query reads (positive **and** negated
    /// literals), sorted by dense id. Empty when preparation
    /// short-circuited on an unknown name — such a query already has its
    /// definite verdict and needs no solving at all. This is the goal set
    /// for goal-directed (sliced) solving: the slice must preserve the
    /// well-founded verdicts of every predicate returned here.
    pub fn goal_preds(&self) -> Vec<wfdl_core::PredId> {
        let Some(q) = &self.query else {
            return Vec::new();
        };
        let mut preds: Vec<wfdl_core::PredId> =
            q.pos.iter().chain(q.neg.iter()).map(|a| a.pred).collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// True iff preparation already proved there are no answers.
    pub fn is_definitely_empty(&self) -> bool {
        self.query.is_none()
    }

    /// True iff the query has no answer variables.
    pub fn is_boolean(&self) -> bool {
        self.answer_arity == 0
    }

    /// Number of answer variables (width of each answer tuple).
    pub fn answer_arity(&self) -> usize {
        self.answer_arity
    }

    /// The lowered query, if evaluating it against `model` yields this
    /// query's certain answers: not when preparation short-circuited it
    /// empty, and not when a negated literal was dropped as satisfied by an
    /// atom nobody has seen while `model` reads such atoms `Unknown`.
    fn certain<S: TruthSource>(&self, model: &S) -> Option<&Nbcq> {
        (self.query.as_ref()).filter(|_| self.shape.is_none() || model.unseen().is_false())
    }

    /// Certain answers, reusing a prebuilt index that covers at least the
    /// model's certainly-true atoms (see [`answers_indexed`]).
    pub fn answers_with<S: TruthSource>(
        &self,
        universe: &Universe,
        model: &S,
        index: &AtomIndex,
    ) -> AnswerSet {
        match self.certain(model) {
            Some(q) => answers_indexed(universe, model, index, q),
            None => AnswerSet::default(),
        }
    }

    /// Boolean satisfaction (certain-answer semantics); stops at the first
    /// witness.
    pub fn holds_with<S: TruthSource>(
        &self,
        universe: &Universe,
        model: &S,
        index: &AtomIndex,
    ) -> bool {
        self.certain(model)
            .is_some_and(|q| holds_indexed(universe, model, index, q))
    }

    /// Three-valued satisfaction; `index` must cover at least the model's
    /// not-certainly-false atoms (see [`holds3_indexed`]).
    pub fn holds3_with<S: TruthSource>(
        &self,
        universe: &Universe,
        model: &S,
        index: &AtomIndex,
    ) -> Truth {
        match self.certain(model) {
            Some(q) => holds3_indexed(universe, model, index, q),
            None => model.unseen(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbcq::{QTerm, QVar, QueryAtom};
    use crate::source::InterpSource;
    use wfdl_core::Interp;

    #[test]
    fn definitely_empty_short_circuits_everywhere() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let mut i = Interp::new();
        i.set_true(pc);
        let atoms = vec![pc];
        let src = InterpSource::new(&i, &atoms);
        let certain = AtomIndex::build(&u, [pc]);

        let q = PreparedQuery::definitely_empty(1);
        assert!(q.is_definitely_empty());
        assert!(!q.is_boolean());
        assert_eq!(q.answer_arity(), 1);
        assert!(q.answers_with(&u, &src, &certain).is_empty());
        assert!(!q.holds_with(&u, &src, &certain));
        assert_eq!(q.holds3_with(&u, &src, &certain), Truth::False);
    }

    #[test]
    fn rebind_upgrades_short_circuits_after_universe_growth() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        u.constant("c");
        // ?- p(d). with `d` unknown: definitely empty, but rebindable.
        let shape = Arc::new(QueryShape {
            atoms: vec![ShapeAtom {
                negated: false,
                pred: "p".into(),
                args: vec![ShapeTerm::Const("d".into())],
            }],
            answer_vars: vec![],
        });
        let q = PreparedQuery::resolve(&u, Arc::clone(&shape)).unwrap();
        assert!(q.is_definitely_empty());
        assert!(q.needs_rebind());

        // The universe learns `d`; rebinding revives the query.
        let d = u.constant("d");
        let pd = u.atom(p, vec![d]).unwrap();
        let rebound = q.rebind(&u).unwrap();
        assert!(!rebound.is_definitely_empty());
        assert!(!rebound.needs_rebind(), "fully resolved now");
        let mut i = Interp::new();
        i.set_true(pd);
        let atoms = vec![pd];
        let src = InterpSource::new(&i, &atoms);
        let certain = AtomIndex::build(&u, [pd]);
        assert!(rebound.holds_with(&u, &src, &certain));
        // Rebinding a fully-resolved query is the identity.
        let again = rebound.rebind(&u).unwrap();
        assert!(!again.is_definitely_empty());
    }

    #[test]
    fn rebind_drops_then_restores_negated_literals() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        // ?- p(X), not q(X). with `q` unknown: the negated literal drops,
        // but the shape remembers it.
        let shape = Arc::new(QueryShape {
            atoms: vec![
                ShapeAtom {
                    negated: false,
                    pred: "p".into(),
                    args: vec![ShapeTerm::Var(QVar::new(0))],
                },
                ShapeAtom {
                    negated: true,
                    pred: "q".into(),
                    args: vec![ShapeTerm::Var(QVar::new(0))],
                },
            ],
            answer_vars: vec![],
        });
        let q = PreparedQuery::resolve(&u, shape).unwrap();
        assert_eq!(q.query().unwrap().neg.len(), 0);
        assert!(q.needs_rebind());

        u.pred("q", 1).unwrap();
        let rebound = q.rebind(&u).unwrap();
        assert_eq!(rebound.query().unwrap().neg.len(), 1, "literal restored");
        assert!(!rebound.needs_rebind());
        let _ = pc;
    }

    #[test]
    fn unresolved_symbols_name_the_missing_parts() {
        let mut u = Universe::new();
        u.pred("p", 2).unwrap();
        u.constant("c");
        // ?- p(d, X), ghost(d). — `d` and `ghost` are unknown.
        let shape = Arc::new(QueryShape {
            atoms: vec![
                ShapeAtom {
                    negated: false,
                    pred: "p".into(),
                    args: vec![ShapeTerm::Const("d".into()), ShapeTerm::Var(QVar::new(0))],
                },
                ShapeAtom {
                    negated: false,
                    pred: "ghost".into(),
                    args: vec![ShapeTerm::Const("d".into())],
                },
            ],
            answer_vars: vec![QVar::new(0)],
        });
        let q = PreparedQuery::resolve(&u, Arc::clone(&shape)).unwrap();
        assert!(q.is_definitely_empty());
        assert_eq!(
            q.unresolved_symbols(&u),
            vec!["constant `d`".to_owned(), "predicate `ghost`".to_owned()],
            "source order, deduplicated"
        );
        // Fully-resolved queries report nothing.
        let ok = Arc::new(QueryShape {
            atoms: vec![ShapeAtom {
                negated: false,
                pred: "p".into(),
                args: vec![ShapeTerm::Const("c".into()), ShapeTerm::Var(QVar::new(0))],
            }],
            answer_vars: vec![QVar::new(0)],
        });
        let ok = PreparedQuery::resolve(&u, ok).unwrap();
        assert!(ok.unresolved_symbols(&u).is_empty());
        // After the universe learns the names, the same shape resolves
        // clean on rebind.
        u.pred("ghost", 1).unwrap();
        u.constant("d");
        let rebound = q.rebind(&u).unwrap();
        assert!(rebound.unresolved_symbols(&u).is_empty());
    }

    #[test]
    fn rebind_errors_on_conflicting_late_arity() {
        let mut u = Universe::new();
        u.pred("p", 1).unwrap();
        let shape = Arc::new(QueryShape {
            atoms: vec![ShapeAtom {
                negated: false,
                pred: "ghost".into(),
                args: vec![ShapeTerm::Var(QVar::new(0))],
            }],
            answer_vars: vec![],
        });
        let q = PreparedQuery::resolve(&u, shape).unwrap();
        assert!(q.is_definitely_empty());
        u.pred("ghost", 2).unwrap();
        assert!(matches!(
            q.rebind(&u),
            Err(QueryError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn prepared_query_agrees_with_direct_evaluation() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        let d = u.constant("d");
        let pc = u.atom(p, vec![c]).unwrap();
        let pd = u.atom(p, vec![d]).unwrap();
        let mut i = Interp::new();
        i.set_true(pc);
        // pd stays unknown.
        let atoms = vec![pc, pd];
        let src = InterpSource::new(&i, &atoms);
        let certain = AtomIndex::build(&u, [pc]);
        let possible = AtomIndex::build(&u, [pc, pd]);

        let nbcq = Nbcq::new(
            &u,
            vec![QueryAtom::new(p, vec![QTerm::Var(QVar::new(0))])],
            vec![],
            vec![QVar::new(0)],
        )
        .unwrap();
        let direct = crate::eval::answers(&u, &src, &nbcq);
        let prepared = PreparedQuery::from_query(nbcq.clone());
        assert!(!prepared.is_definitely_empty());
        assert!(prepared.is_boolean() == nbcq.is_boolean());
        assert_eq!(prepared.answers_with(&u, &src, &certain), direct);
        assert!(prepared.holds_with(&u, &src, &certain));
        // The wider index is filtered by verdict: same certain answers.
        assert_eq!(prepared.answers_with(&u, &src, &possible), direct);

        // holds3: p(d) is only possible, not certain.
        let qd = Nbcq::boolean(&u, vec![QueryAtom::new(p, vec![QTerm::Const(d)])], vec![]).unwrap();
        let prepared_d = PreparedQuery::from_query(qd.clone());
        assert_eq!(
            prepared_d.holds3_with(&u, &src, &possible),
            crate::eval::holds3(&u, &src, &qd)
        );
        assert_eq!(prepared_d.holds3_with(&u, &src, &possible), Truth::Unknown);
    }

    /// A source cut off before its fixpoint: what it has is right, what it
    /// lacks is undecided.
    struct CutOff<'a>(InterpSource<'a>);

    impl TruthSource for CutOff<'_> {
        fn value(&self, atom: wfdl_core::AtomId) -> Truth {
            self.0.value(atom)
        }
        fn certain_atoms(&self) -> Vec<wfdl_core::AtomId> {
            self.0.certain_atoms()
        }
        fn possible_atoms(&self) -> Vec<wfdl_core::AtomId> {
            self.0.possible_atoms()
        }
        fn unseen(&self) -> Truth {
            Truth::Unknown
        }
    }

    #[test]
    fn short_circuits_are_undecided_on_a_cut_off_source() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        u.pred("q", 1).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        let mut i = Interp::new();
        i.set_true(pc);
        let atoms = vec![pc];
        let complete = InterpSource::new(&i, &atoms);
        let cut_off = CutOff(complete.clone());
        let index = AtomIndex::build(&u, [pc]);
        let literal = |negated, pred: &str, arg| ShapeAtom {
            negated,
            pred: pred.into(),
            args: vec![arg],
        };
        let resolve = |atoms| {
            let answer_vars = vec![];
            PreparedQuery::resolve(&u, Arc::new(QueryShape { atoms, answer_vars })).unwrap()
        };
        let x = || ShapeTerm::Var(QVar::new(0));
        // ?- p(d). — `d` unknown: no answers either way, but only the
        // complete source refutes it.
        let unknown_name = resolve(vec![literal(false, "p", ShapeTerm::Const("d".into()))]);
        assert_eq!(
            unknown_name.holds3_with(&u, &complete, &index),
            Truth::False
        );
        assert_eq!(
            unknown_name.holds3_with(&u, &cut_off, &index),
            Truth::Unknown
        );
        assert!(!unknown_name.holds_with(&u, &cut_off, &index));
        // ?- p(X), not ghost(X). — the dropped literal is satisfied only
        // where an unseen atom is false.
        let dropped = resolve(vec![literal(false, "p", x()), literal(true, "ghost", x())]);
        assert!(dropped.holds_with(&u, &complete, &index));
        assert!(!dropped.holds_with(&u, &cut_off, &index));
        assert_eq!(dropped.holds3_with(&u, &cut_off, &index), Truth::Unknown);
        // ?- p(X), not q(X). — q(c) was never interned: the same reading at
        // the evaluation leaf.
        let never_interned = resolve(vec![literal(false, "p", x()), literal(true, "q", x())]);
        assert!(!never_interned.needs_rebind());
        assert!(never_interned.holds_with(&u, &complete, &index));
        assert!(!never_interned.holds_with(&u, &cut_off, &index));
        assert_eq!(
            never_interned.holds3_with(&u, &cut_off, &index),
            Truth::Unknown
        );
        // What the cut-off source has is still certain.
        let seen = resolve(vec![literal(false, "p", x())]);
        assert_eq!(seen.holds3_with(&u, &cut_off, &index), Truth::True);
    }
}
