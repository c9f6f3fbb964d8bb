//! Non-ground rules: normal tuple-generating dependencies (NTGDs).
//!
//! An NTGD `σ` has the form `Φ(X,Y) → ∃Z Ψ(X,Z)` where `Φ` is a conjunction
//! of atoms and negated atoms and `Ψ` a conjunction of atoms (Section 2.4).
//! `σ` is **guarded** iff some positive body atom — the *guard* — contains
//! every universally quantified variable of `σ`. [`Tgd::new`] validates
//! safety and guardedness at construction time, so all downstream code can
//! rely on those invariants.

use crate::bitset::BitSet;
use crate::error::{CoreError, Result};
use crate::schema::PredId;
use crate::term::TermId;
use crate::universe::Universe;
use std::fmt;

/// A rule-local variable (`X`, `Y`, `Z`, … in the paper). Variables are
/// numbered densely within each rule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given rule-local index.
    #[inline]
    pub fn new(i: u32) -> Self {
        Var(i)
    }

    /// Dense rule-local index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// A source location (1-based line and column) carried by rules lowered
/// from surface syntax, so diagnostics can point back into the `.dl` file.
/// Rules built programmatically have no span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A term position inside a rule: a constant or a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RTerm {
    /// A ground data constant (interned in the universe).
    Const(TermId),
    /// A rule-local variable.
    Var(Var),
}

/// An atom appearing in a rule: predicate over constants and variables.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RuleAtom {
    /// The predicate symbol.
    pub pred: PredId,
    /// Arguments (constants or variables).
    pub args: Box<[RTerm]>,
}

impl RuleAtom {
    /// Creates a rule atom.
    pub fn new(pred: PredId, args: impl Into<Box<[RTerm]>>) -> Self {
        RuleAtom {
            pred,
            args: args.into(),
        }
    }

    /// Iterates over the variables of this atom (with repetitions).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(|t| match t {
            RTerm::Var(v) => Some(*v),
            RTerm::Const(_) => None,
        })
    }

    /// Collects this atom's variables into `set`.
    pub fn collect_vars(&self, set: &mut BitSet) {
        for v in self.vars() {
            set.insert(v.index());
        }
    }
}

/// A validated guarded normal TGD.
///
/// Invariants established by [`Tgd::new`]:
/// * at least one positive body atom and at least one head atom;
/// * every variable of a negated body atom occurs in a positive body atom;
/// * the atom `body_pos[guard]` contains every universal variable;
/// * `existential` lists exactly the head-only variables, ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tgd {
    /// Positive body atoms `β1, …, βn`.
    pub body_pos: Vec<RuleAtom>,
    /// Negated body atoms `βn+1, …, βn+m` (stored un-negated).
    pub body_neg: Vec<RuleAtom>,
    /// Head atoms `Ψ(X,Z)` (conjunctive; normalized to singletons by
    /// [`crate::normalize`]).
    pub head: Vec<RuleAtom>,
    /// Optional label for diagnostics and Skolem naming.
    pub label: Option<Box<str>>,
    guard: usize,
    num_vars: u32,
    universal: BitSet,
    existential: Vec<Var>,
    span: Option<Span>,
}

impl Tgd {
    /// Validates and constructs a guarded NTGD.
    pub fn new(
        universe: &Universe,
        body_pos: Vec<RuleAtom>,
        body_neg: Vec<RuleAtom>,
        head: Vec<RuleAtom>,
    ) -> Result<Tgd> {
        if head.is_empty() {
            return Err(CoreError::EmptyHead);
        }
        if body_pos.is_empty() {
            return Err(CoreError::EmptyPositiveBody);
        }

        let mut pos_vars = BitSet::new();
        for a in &body_pos {
            a.collect_vars(&mut pos_vars);
        }
        let mut neg_vars = BitSet::new();
        for a in &body_neg {
            a.collect_vars(&mut neg_vars);
        }
        let mut head_vars = BitSet::new();
        for a in &head {
            a.collect_vars(&mut head_vars);
        }

        let render = || render_rule(universe, &body_pos, &body_neg, &head);

        if let Some(v) = neg_vars.iter().find(|i| !pos_vars.contains(*i)) {
            return Err(CoreError::UnsafeRule {
                rule: render(),
                detail: format!(
                    "variable {} occurs in a negated body atom but in no positive body atom",
                    var_name(Var(v as u32))
                ),
            });
        }

        // Universal variables: all body variables. (Head variables that also
        // occur in the body are universal; head-only variables are
        // existential.)
        let mut universal = pos_vars.clone();
        universal.union_with(&neg_vars);

        let existential: Vec<Var> = head_vars
            .iter()
            .filter(|i| !universal.contains(*i))
            .map(|i| Var(i as u32))
            .collect();

        // Guard: first positive body atom containing every universal var.
        let mut guard = None;
        for (i, a) in body_pos.iter().enumerate() {
            let mut vs = BitSet::new();
            a.collect_vars(&mut vs);
            if universal.is_subset(&vs) {
                guard = Some(i);
                break;
            }
        }
        let Some(guard) = guard else {
            return Err(CoreError::NotGuarded { rule: render() });
        };

        let num_vars = universal
            .iter()
            .chain(head_vars.iter())
            .max()
            .map(|m| m as u32 + 1)
            .unwrap_or(0);

        Ok(Tgd {
            body_pos,
            body_neg,
            head,
            label: None,
            guard,
            num_vars,
            universal,
            existential,
            span: None,
        })
    }

    /// Attaches a diagnostic label.
    pub fn with_label(mut self, label: impl Into<Box<str>>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Source span of the rule, when it was lowered from surface syntax.
    #[inline]
    pub fn span(&self) -> Option<Span> {
        self.span
    }

    /// Index (into `body_pos`) of the guard atom.
    #[inline]
    pub fn guard(&self) -> usize {
        self.guard
    }

    /// The guard atom itself.
    #[inline]
    pub fn guard_atom(&self) -> &RuleAtom {
        &self.body_pos[self.guard]
    }

    /// One past the largest variable index used in the rule.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Universal variables, ascending.
    pub fn universal_vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.universal.iter().map(|i| Var(i as u32))
    }

    /// Number of universal variables.
    pub fn num_universal(&self) -> usize {
        self.universal.len()
    }

    /// Existential (head-only) variables, ascending.
    pub fn existential_vars(&self) -> &[Var] {
        &self.existential
    }

    /// True iff the rule has no negated body atoms.
    pub fn is_positive(&self) -> bool {
        self.body_neg.is_empty()
    }

    /// True iff the head introduces existential variables.
    pub fn has_existentials(&self) -> bool {
        !self.existential.is_empty()
    }

    /// Renders the rule for diagnostics.
    pub fn render(&self, universe: &Universe) -> String {
        render_rule(universe, &self.body_pos, &self.body_neg, &self.head)
    }
}

/// A negative constraint `Φ(X,Y) → ⊥` (the extension named in the paper's
/// conclusion; required for DL-Lite disjointness axioms).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// Positive body atoms.
    pub body_pos: Vec<RuleAtom>,
    /// Negated body atoms (stored un-negated).
    pub body_neg: Vec<RuleAtom>,
    /// Optional label for diagnostics.
    pub label: Option<Box<str>>,
    guard: usize,
    span: Option<Span>,
}

impl Constraint {
    /// Validates and constructs a guarded negative constraint.
    pub fn new(
        universe: &Universe,
        body_pos: Vec<RuleAtom>,
        body_neg: Vec<RuleAtom>,
    ) -> Result<Constraint> {
        if body_pos.is_empty() {
            return Err(CoreError::EmptyPositiveBody);
        }
        let mut pos_vars = BitSet::new();
        for a in &body_pos {
            a.collect_vars(&mut pos_vars);
        }
        let mut neg_vars = BitSet::new();
        for a in &body_neg {
            a.collect_vars(&mut neg_vars);
        }
        let render = || {
            let mut s = render_body(universe, &body_pos, &body_neg);
            s.push_str(" -> false");
            s
        };
        if !neg_vars.is_subset(&pos_vars) {
            return Err(CoreError::UnsafeRule {
                rule: render(),
                detail: "negated body variable missing from positive body".into(),
            });
        }
        let mut universal = pos_vars;
        universal.union_with(&neg_vars);
        let mut guard = None;
        for (i, a) in body_pos.iter().enumerate() {
            let mut vs = BitSet::new();
            a.collect_vars(&mut vs);
            if universal.is_subset(&vs) {
                guard = Some(i);
                break;
            }
        }
        let Some(guard) = guard else {
            return Err(CoreError::NotGuarded { rule: render() });
        };
        Ok(Constraint {
            body_pos,
            body_neg,
            label: None,
            guard,
            span: None,
        })
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Source span of the constraint, when lowered from surface syntax.
    #[inline]
    pub fn span(&self) -> Option<Span> {
        self.span
    }

    /// Index (into `body_pos`) of the guard atom.
    #[inline]
    pub fn guard(&self) -> usize {
        self.guard
    }
}

/// Default display name for a rule variable: `X0, X1, …`.
pub fn var_name(v: Var) -> String {
    format!("X{}", v.index())
}

fn render_term(universe: &Universe, t: &RTerm, out: &mut String) {
    match t {
        RTerm::Const(c) => out.push_str(&universe.display_term(*c).to_string()),
        RTerm::Var(v) => out.push_str(&var_name(*v)),
    }
}

/// Renders a rule atom for diagnostics.
pub fn render_atom(universe: &Universe, atom: &RuleAtom) -> String {
    let mut s = universe.pred_name(atom.pred).to_owned();
    s.push('(');
    for (i, t) in atom.args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        render_term(universe, t, &mut s);
    }
    s.push(')');
    s
}

fn render_body(universe: &Universe, pos: &[RuleAtom], neg: &[RuleAtom]) -> String {
    let mut s = String::new();
    for (i, a) in pos.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&render_atom(universe, a));
    }
    for a in neg {
        s.push_str(", not ");
        s.push_str(&render_atom(universe, a));
    }
    s
}

fn render_rule(
    universe: &Universe,
    pos: &[RuleAtom],
    neg: &[RuleAtom],
    head: &[RuleAtom],
) -> String {
    let mut s = render_body(universe, pos, neg);
    s.push_str(" -> ");
    for (i, a) in head.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&render_atom(universe, a));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Universe, PredId, PredId, PredId) {
        let mut u = Universe::new();
        let r = u.pred("R", 3).unwrap();
        let p = u.pred("P", 2).unwrap();
        let q = u.pred("Q", 1).unwrap();
        (u, r, p, q)
    }

    fn v(i: u32) -> RTerm {
        RTerm::Var(Var::new(i))
    }

    #[test]
    fn guarded_rule_accepted() {
        let (u, r, p, q) = setup();
        // R(X,Y,Z), P(X,Y), not Q(Z) -> P(X,Z)
        let tgd = Tgd::new(
            &u,
            vec![
                RuleAtom::new(r, vec![v(0), v(1), v(2)]),
                RuleAtom::new(p, vec![v(0), v(1)]),
            ],
            vec![RuleAtom::new(q, vec![v(2)])],
            vec![RuleAtom::new(p, vec![v(0), v(2)])],
        )
        .unwrap();
        assert_eq!(tgd.guard(), 0);
        assert_eq!(tgd.num_universal(), 3);
        assert!(tgd.existential_vars().is_empty());
        assert!(!tgd.is_positive());
        assert!(!tgd.has_existentials());
    }

    #[test]
    fn existential_vars_detected() {
        let (u, r, _p, _q) = setup();
        // R(X,Y,Z) -> R(X,Z,W)   (W existential)
        let tgd = Tgd::new(
            &u,
            vec![RuleAtom::new(r, vec![v(0), v(1), v(2)])],
            vec![],
            vec![RuleAtom::new(r, vec![v(0), v(2), v(3)])],
        )
        .unwrap();
        assert_eq!(tgd.existential_vars(), &[Var::new(3)]);
        assert!(tgd.has_existentials());
        assert!(tgd.is_positive());
    }

    #[test]
    fn unguarded_rule_rejected() {
        let (u, _r, p, _q) = setup();
        // P(X,Y), P(Y,Z) -> P(X,Z): no atom contains X,Y,Z.
        let err = Tgd::new(
            &u,
            vec![
                RuleAtom::new(p, vec![v(0), v(1)]),
                RuleAtom::new(p, vec![v(1), v(2)]),
            ],
            vec![],
            vec![RuleAtom::new(p, vec![v(0), v(2)])],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NotGuarded { .. }));
    }

    #[test]
    fn unsafe_negation_rejected() {
        let (u, _r, p, q) = setup();
        // P(X,Y), not Q(Z) -> P(X,Y): Z only in negative body.
        let err = Tgd::new(
            &u,
            vec![RuleAtom::new(p, vec![v(0), v(1)])],
            vec![RuleAtom::new(q, vec![v(2)])],
            vec![RuleAtom::new(p, vec![v(0), v(1)])],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UnsafeRule { .. }));
    }

    #[test]
    fn empty_head_and_body_rejected() {
        let (u, _r, p, _q) = setup();
        assert!(matches!(
            Tgd::new(&u, vec![RuleAtom::new(p, vec![v(0), v(1)])], vec![], vec![]),
            Err(CoreError::EmptyHead)
        ));
        assert!(matches!(
            Tgd::new(&u, vec![], vec![], vec![RuleAtom::new(p, vec![v(0), v(1)])]),
            Err(CoreError::EmptyPositiveBody)
        ));
    }

    #[test]
    fn negative_guard_variables_are_covered() {
        let (u, r, p, q) = setup();
        // R(X,Y,Z), not P(X,Y), not Q(Z) -> Q(X): guard must cover X,Y,Z.
        let tgd = Tgd::new(
            &u,
            vec![RuleAtom::new(r, vec![v(0), v(1), v(2)])],
            vec![
                RuleAtom::new(p, vec![v(0), v(1)]),
                RuleAtom::new(q, vec![v(2)]),
            ],
            vec![RuleAtom::new(q, vec![v(0)])],
        )
        .unwrap();
        assert_eq!(tgd.guard(), 0);
    }

    #[test]
    fn constraint_construction() {
        let (u, _r, p, q) = setup();
        let c = Constraint::new(
            &u,
            vec![RuleAtom::new(p, vec![v(0), v(1)])],
            vec![RuleAtom::new(q, vec![v(0)])],
        )
        .unwrap();
        assert_eq!(c.guard(), 0);
        assert!(Constraint::new(&u, vec![], vec![]).is_err());
    }

    #[test]
    fn render_mentions_not() {
        let (u, r, p, q) = setup();
        let tgd = Tgd::new(
            &u,
            vec![RuleAtom::new(r, vec![v(0), v(1), v(2)])],
            vec![RuleAtom::new(q, vec![v(2)])],
            vec![RuleAtom::new(p, vec![v(0), v(2)])],
        )
        .unwrap();
        let s = tgd.render(&u);
        assert!(s.contains("not Q(X2)"), "{s}");
        assert!(s.contains("-> P(X0,X2)"), "{s}");
    }
}
