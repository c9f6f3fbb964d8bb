//! The functional transformation `Σ ↦ Σf` (Section 2.4) and the resulting
//! *normal rules* with Skolem-term heads.
//!
//! Given an NTGD `σ = Φ(X,Y) → ∃Z Ψ(X,Z)`, its functional transformation is
//! the normal rule `Φ(X,Y) → Ψ(X, f_σ(X,Y))` where `f_σ` has one Skolem
//! function `f_{σ,Z}` per existential variable `Z`, applied to **all**
//! universal variables of `σ` (the paper's Example 4 uses `f(X,Y,Z)` for the
//! rule `R(X,Y,Z) → R(X,Z,W)`, confirming that non-frontier variables are
//! included).
//!
//! [`SkolemRule`] also serves as the direct representation of user-written
//! functional programs (like the paper's `Σf` in Example 4), so the surface
//! syntax can express both TGDs and their transformations.

use crate::bitset::BitSet;
use crate::error::{CoreError, Result};
use crate::rule::{render_atom, RTerm, RuleAtom, Span, Tgd, Var};
use crate::schema::PredId;
use crate::term::{SkolemId, TermId};
use crate::universe::Universe;

/// A term in the head of a skolemized rule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum HeadTerm {
    /// A ground constant.
    Const(TermId),
    /// A universal variable of the rule.
    Var(Var),
    /// A Skolem function applied to universal variables.
    Skolem(SkolemId, Box<[Var]>),
}

/// A normal rule with a (possibly Skolem-term-producing) single-atom head:
/// an element of `Σf`.
///
/// Invariants established by [`SkolemRule::new`]:
/// * at least one positive body atom; the guard covers every variable;
/// * every head variable and every Skolem argument occurs in the body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkolemRule {
    /// Positive body atoms.
    pub body_pos: Vec<RuleAtom>,
    /// Negated body atoms (stored un-negated).
    pub body_neg: Vec<RuleAtom>,
    /// Head predicate.
    pub head_pred: PredId,
    /// Head argument terms.
    pub head_args: Box<[HeadTerm]>,
    /// Optional diagnostic label.
    pub label: Option<Box<str>>,
    guard: usize,
    num_vars: u32,
    span: Option<Span>,
}

impl SkolemRule {
    /// Validates and constructs a skolemized normal rule.
    pub fn new(
        universe: &Universe,
        body_pos: Vec<RuleAtom>,
        body_neg: Vec<RuleAtom>,
        head_pred: PredId,
        head_args: impl Into<Box<[HeadTerm]>>,
    ) -> Result<SkolemRule> {
        let head_args = head_args.into();
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
        for t in head_args.iter() {
            match t {
                HeadTerm::Const(_) => {}
                HeadTerm::Var(v) => {
                    head_vars.insert(v.index());
                }
                HeadTerm::Skolem(_, args) => {
                    for v in args.iter() {
                        head_vars.insert(v.index());
                    }
                }
            }
        }

        let render = || {
            let mut s = String::new();
            for (i, a) in body_pos.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&render_atom(universe, a));
            }
            for a in &body_neg {
                s.push_str(", not ");
                s.push_str(&render_atom(universe, a));
            }
            s.push_str(" -> ");
            s.push_str(universe.pred_name(head_pred));
            s.push_str("(..)");
            s
        };

        if !neg_vars.is_subset(&pos_vars) {
            return Err(CoreError::UnsafeRule {
                rule: render(),
                detail: "negated body variable missing from positive body".into(),
            });
        }
        if !head_vars.is_subset(&pos_vars) {
            return Err(CoreError::UnsafeRule {
                rule: render(),
                detail: "head variable (or Skolem argument) missing from positive body".into(),
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

        let num_vars = universal.iter().max().map(|m| m as u32 + 1).unwrap_or(0);

        Ok(SkolemRule {
            body_pos,
            body_neg,
            head_pred,
            head_args,
            label: None,
            guard,
            num_vars,
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

    /// The guard atom.
    #[inline]
    pub fn guard_atom(&self) -> &RuleAtom {
        &self.body_pos[self.guard]
    }

    /// One past the largest variable index (binding vectors need this size).
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// True iff the rule has no negated body atoms.
    pub fn is_positive(&self) -> bool {
        self.body_neg.is_empty()
    }

    /// Instantiates the head under a total binding of the rule's variables,
    /// interning any Skolem terms it produces.
    pub fn instantiate_head(
        &self,
        universe: &mut Universe,
        binding: &[TermId],
    ) -> crate::atom::AtomId {
        let mut scratch = Vec::with_capacity(self.head_args.len());
        self.instantiate_head_into(universe, binding, &mut scratch)
    }

    /// Allocation-free [`SkolemRule::instantiate_head`] (the head's twin of
    /// [`crate::subst::instantiate_atom_into`]): the head arguments are
    /// staged in `scratch` (cleared first), each Skolem term's arguments
    /// transiently behind them, and everything is interned from borrowed
    /// slices — Skolem terms in head-argument order, then the atom, the
    /// same interning order as ever. Callers keep one scratch buffer alive
    /// across a matching loop.
    // Skolem arities are fixed when the rule is skolemized, so the
    // interning call cannot see an arity mismatch.
    #[allow(clippy::expect_used)]
    pub fn instantiate_head_into(
        &self,
        universe: &mut Universe,
        binding: &[TermId],
        scratch: &mut Vec<TermId>,
    ) -> crate::atom::AtomId {
        scratch.clear();
        for t in self.head_args.iter() {
            let term = match t {
                HeadTerm::Const(c) => *c,
                HeadTerm::Var(v) => binding[v.index()],
                HeadTerm::Skolem(f, vars) => {
                    let staged = scratch.len();
                    scratch.extend(vars.iter().map(|v| binding[v.index()]));
                    let term = universe
                        .skolem_term_ref(*f, &scratch[staged..])
                        .expect("skolem arity fixed at construction");
                    scratch.truncate(staged);
                    term
                }
            };
            scratch.push(term);
        }
        universe.atoms.intern_ref(self.head_pred, scratch)
    }
}

/// A skolemized program `Σf`: the rule part of `P = D ∪ Σf`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SkolemProgram {
    /// The normal rules.
    pub rules: Vec<SkolemRule>,
}

impl SkolemProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff no rule uses negation.
    pub fn is_positive(&self) -> bool {
        self.rules.iter().all(|r| r.is_positive())
    }
}

/// Applies the functional transformation to one (single-head) TGD.
///
/// The head must already be a singleton (see [`crate::normalize`]). Skolem
/// functions are freshly named `sk{n}` (or `sk_{label}_{k}` when the TGD is
/// labelled) and take all universal variables in ascending order.
pub fn skolemize_tgd(universe: &mut Universe, tgd: &Tgd) -> Result<SkolemRule> {
    assert_eq!(
        tgd.head.len(),
        1,
        "skolemize_tgd requires a normalized (single-atom-head) TGD"
    );
    let head = &tgd.head[0];
    let universal: Vec<Var> = tgd.universal_vars().collect();
    let existential = tgd.existential_vars();

    // One Skolem function per existential variable.
    let mut sk_for: Vec<(Var, SkolemId)> = Vec::with_capacity(existential.len());
    for (k, &z) in existential.iter().enumerate() {
        let base = match &tgd.label {
            Some(l) => format!("sk_{l}_{k}"),
            None => format!("sk{}", universe.num_skolems()),
        };
        let f = fresh_skolem(universe, &base, universal.len());
        sk_for.push((z, f));
    }

    let head_args: Vec<HeadTerm> = head
        .args
        .iter()
        .map(|t| match t {
            RTerm::Const(c) => HeadTerm::Const(*c),
            RTerm::Var(v) => match sk_for.iter().find(|(z, _)| z == v) {
                Some((_, f)) => HeadTerm::Skolem(*f, universal.clone().into_boxed_slice()),
                None => HeadTerm::Var(*v),
            },
        })
        .collect();

    let mut rule = SkolemRule::new(
        universe,
        tgd.body_pos.clone(),
        tgd.body_neg.clone(),
        head.pred,
        head_args,
    )?;
    rule.label = tgd.label.clone();
    rule.span = tgd.span();
    Ok(rule)
}

fn fresh_skolem(universe: &mut Universe, base: &str, arity: usize) -> SkolemId {
    let mut name = base.to_owned();
    let mut n = 0usize;
    while universe.lookup_skolem(&name).is_some() {
        n += 1;
        name = format!("{base}#{n}");
    }
    // The loop above stopped at the first unregistered name, so the
    // registration cannot collide.
    #[allow(clippy::expect_used)]
    universe
        .skolem_fn(&name, arity)
        .expect("name was just checked to be fresh")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> RTerm {
        RTerm::Var(Var::new(i))
    }

    #[test]
    fn skolemize_example4_rule() {
        // R(X,Y,Z) -> ∃W R(X,Z,W)  becomes  R(X,Y,Z) -> R(X,Z,f(X,Y,Z)).
        let mut u = Universe::new();
        let r = u.pred("R", 3).unwrap();
        let tgd = Tgd::new(
            &u,
            vec![RuleAtom::new(r, vec![v(0), v(1), v(2)])],
            vec![],
            vec![RuleAtom::new(r, vec![v(0), v(2), v(3)])],
        )
        .unwrap();
        let rule = skolemize_tgd(&mut u, &tgd).unwrap();
        assert_eq!(rule.head_pred, r);
        assert!(matches!(rule.head_args[0], HeadTerm::Var(x) if x == Var::new(0)));
        assert!(matches!(rule.head_args[1], HeadTerm::Var(x) if x == Var::new(2)));
        match &rule.head_args[2] {
            HeadTerm::Skolem(f, args) => {
                assert_eq!(u.skolem_info(*f).arity, 3);
                assert_eq!(args.as_ref(), &[Var::new(0), Var::new(1), Var::new(2)]);
            }
            other => panic!("expected skolem head arg, got {other:?}"),
        }
    }

    #[test]
    fn instantiate_head_interns_skolem_terms() {
        let mut u = Universe::new();
        let r = u.pred("R", 3).unwrap();
        let tgd = Tgd::new(
            &u,
            vec![RuleAtom::new(r, vec![v(0), v(1), v(2)])],
            vec![],
            vec![RuleAtom::new(r, vec![v(0), v(2), v(3)])],
        )
        .unwrap();
        let rule = skolemize_tgd(&mut u, &tgd).unwrap();
        let zero = u.constant("0");
        let one = u.constant("1");
        let head = rule.instantiate_head(&mut u, &[zero, zero, one]);
        // Head is R(0,1,sk(0,0,1)).
        let rendered = u.display_atom(head).to_string();
        assert!(rendered.starts_with("R(0,1,"), "{rendered}");
        assert!(rendered.contains("(0,0,1)"), "{rendered}");
        // Instantiating twice yields the same interned atom (UNA).
        let head2 = rule.instantiate_head(&mut u, &[zero, zero, one]);
        assert_eq!(head, head2);
    }

    #[test]
    fn direct_functional_rule_validation() {
        let mut u = Universe::new();
        let r = u.pred("R", 3).unwrap();
        let f = u.skolem_fn("f", 3).unwrap();
        // R(X,Y,Z) -> R(X,Z,f(X,Y,Z)): the paper's Example 4 first rule.
        let rule = SkolemRule::new(
            &u,
            vec![RuleAtom::new(r, vec![v(0), v(1), v(2)])],
            vec![],
            r,
            vec![
                HeadTerm::Var(Var::new(0)),
                HeadTerm::Var(Var::new(2)),
                HeadTerm::Skolem(f, vec![Var::new(0), Var::new(1), Var::new(2)].into()),
            ],
        )
        .unwrap();
        assert_eq!(rule.guard(), 0);
        assert!(rule.is_positive());
    }

    #[test]
    fn head_var_not_in_body_rejected() {
        let mut u = Universe::new();
        let r = u.pred("R", 3).unwrap();
        let p = u.pred("P", 1).unwrap();
        let err = SkolemRule::new(
            &u,
            vec![RuleAtom::new(r, vec![v(0), v(1), v(2)])],
            vec![],
            p,
            vec![HeadTerm::Var(Var::new(5))],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UnsafeRule { .. }));
    }
}
