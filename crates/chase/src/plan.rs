//! Rules compiled against their guards.
//!
//! A guard holds every universal variable of its rule (§2), so matching it
//! against a ground atom binds them all, and every other atom of the
//! instance is a fixed function of the guard's arguments. A [`Plan`] writes
//! that function down once per build: which guard positions must hold a
//! constant or repeat an earlier position, and where each argument of every
//! other atom comes from. A chase round then matches and instantiates a
//! rule with array reads alone.

use wfdl_core::{
    AtomId, HeadTerm, PredId, RTerm, RuleAtom, SkolemId, SkolemRule, TermId, Universe,
};

/// A condition a guard's arguments meet beyond its predicate.
#[derive(Clone, Copy, Debug)]
enum Check {
    /// Position `pos` holds the constant `term`.
    Const { pos: u32, term: TermId },
    /// Position `pos` holds what position `first` holds: a repeated
    /// variable, first seen at `first`.
    Same { pos: u32, first: u32 },
}

/// Where an argument of an instantiated atom comes from.
#[derive(Clone, Debug)]
enum Arg {
    /// The guard's argument at this position.
    Guard(u32),
    /// A constant of the rule.
    Const(TermId),
    /// A Skolem term over guard positions (heads only).
    Skolem(SkolemId, Box<[u32]>),
}

/// An atom of a rule as a predicate over [`Arg`]s.
#[derive(Clone, Debug)]
pub(crate) struct AtomPlan {
    pred: PredId,
    args: Box<[Arg]>,
}

/// One rule, compiled against its guard.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    checks: Box<[Check]>,
    /// The positive body in rule order, `None` at the guard.
    pub(crate) pos: Box<[Option<AtomPlan>]>,
    /// The negated body in rule order.
    pub(crate) neg: Box<[AtomPlan]>,
    pub(crate) head: AtomPlan,
}

impl Plan {
    /// Compiles `rule`. Its Skolem functions must be declared in
    /// `universe` with the arities the head applies them at.
    pub(crate) fn compile(universe: &Universe, rule: &SkolemRule) -> Plan {
        const UNSEEN: u32 = u32::MAX;
        let mut first = vec![UNSEEN; rule.num_vars() as usize];
        let mut checks = Vec::new();
        for (pos, t) in (0u32..).zip(rule.guard_atom().args.iter()) {
            match *t {
                RTerm::Const(term) => checks.push(Check::Const { pos, term }),
                RTerm::Var(v) if first[v.index()] == UNSEEN => first[v.index()] = pos,
                RTerm::Var(v) => checks.push(Check::Same {
                    pos,
                    first: first[v.index()],
                }),
            }
        }
        // The guard covers every variable (`SkolemRule::new`), so `first`
        // is set wherever it is read.
        let atom = |a: &RuleAtom| AtomPlan {
            pred: a.pred,
            args: (a.args.iter())
                .map(|t| match *t {
                    RTerm::Const(c) => Arg::Const(c),
                    RTerm::Var(v) => Arg::Guard(first[v.index()]),
                })
                .collect(),
        };
        let head = AtomPlan {
            pred: rule.head_pred,
            args: (rule.head_args.iter())
                .map(|t| match t {
                    HeadTerm::Const(c) => Arg::Const(*c),
                    HeadTerm::Var(v) => Arg::Guard(first[v.index()]),
                    HeadTerm::Skolem(f, vars) => {
                        assert_eq!(
                            universe.skolem_info(*f).arity,
                            vars.len(),
                            "skolem arity fixed at construction"
                        );
                        Arg::Skolem(*f, vars.iter().map(|v| first[v.index()]).collect())
                    }
                })
                .collect(),
        };
        Plan {
            checks: checks.into(),
            pos: (rule.body_pos.iter().enumerate())
                .map(|(k, a)| (k != rule.guard()).then(|| atom(a)))
                .collect(),
            neg: rule.body_neg.iter().map(atom).collect(),
            head,
        }
    }

    /// True iff a guard atom of the rule's predicate with arguments
    /// `guard` matches the rule's guard.
    #[inline]
    pub(crate) fn matches(&self, guard: &[TermId]) -> bool {
        self.checks.iter().all(|c| match *c {
            Check::Const { pos, term } => guard[pos as usize] == term,
            Check::Same { pos, first } => guard[pos as usize] == guard[first as usize],
        })
    }
}

impl AtomPlan {
    /// Interns the atom for a match of the guard arguments `guard`: its
    /// Skolem terms in argument order, then the atom itself — the order of
    /// `SkolemRule::instantiate_head_into`. The arguments are staged in
    /// `scratch` (cleared first), so a hit allocates nothing.
    #[inline]
    pub(crate) fn intern(
        &self,
        universe: &mut Universe,
        guard: &[TermId],
        scratch: &mut Vec<TermId>,
    ) -> AtomId {
        scratch.clear();
        for a in self.args.iter() {
            let term = match a {
                Arg::Guard(p) => guard[*p as usize],
                Arg::Const(c) => *c,
                Arg::Skolem(f, ps) => {
                    let staged = scratch.len();
                    scratch.extend(ps.iter().map(|&p| guard[p as usize]));
                    let term = universe.terms.skolem_ref(*f, &scratch[staged..]);
                    scratch.truncate(staged);
                    term
                }
            };
            scratch.push(term);
        }
        universe.atoms.intern_ref(self.pred, scratch)
    }
}
