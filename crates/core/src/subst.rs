//! Substitutions and guard matching.
//!
//! Because every guard contains all universal variables of its rule, a
//! successful match of the guard against a ground atom yields a **total**
//! binding for the rule. This is the linchpin of the condensed chase: rule
//! instances are enumerable per `(ground atom, rule)` pair with no joins.

use crate::atom::AtomId;
use crate::rule::{RTerm, RuleAtom};
use crate::term::TermId;
use crate::universe::Universe;

/// A partial binding of rule variables to ground terms, indexed by variable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Binding {
    slots: Vec<Option<TermId>>,
}

impl Binding {
    /// Creates an unbound binding for `num_vars` variables.
    pub fn new(num_vars: u32) -> Self {
        Binding {
            slots: vec![None; num_vars as usize],
        }
    }

    /// Value bound to variable `v`, if any.
    #[inline]
    pub fn get(&self, v: usize) -> Option<TermId> {
        self.slots.get(v).copied().flatten()
    }

    /// Binds `v` to `t`; returns `false` on conflict with an existing
    /// distinct binding.
    #[inline]
    pub fn bind(&mut self, v: usize, t: TermId) -> bool {
        if v >= self.slots.len() {
            self.slots.resize(v + 1, None);
        }
        match self.slots[v] {
            None => {
                self.slots[v] = Some(t);
                true
            }
            Some(existing) => existing == t,
        }
    }

    /// Clears all bindings, keeping capacity.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }

    /// Extracts a total binding as a dense vector, panicking if any variable
    /// in `0..n` is unbound (callers use this only after a guard match).
    pub fn to_total(&self, n: u32) -> Vec<TermId> {
        let mut out = Vec::with_capacity(n as usize);
        self.write_total(n, &mut out);
        out
    }

    /// Allocation-free variant of [`Binding::to_total`]: writes the dense
    /// binding into `out` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if any variable in `0..n` is unbound — callers invoke this
    /// only after a successful guard match, which binds every universal
    /// variable by construction.
    #[allow(clippy::expect_used)]
    pub fn write_total(&self, n: u32, out: &mut Vec<TermId>) {
        out.clear();
        out.extend(
            (0..n as usize)
                .map(|v| self.slots[v].expect("guard match binds all universal variables")),
        );
    }
}

/// Matches a rule atom against a ground atom, extending `binding`.
///
/// Returns `false` (leaving `binding` in an arbitrary extended state — clear
/// or clone before retrying) if predicates differ, a constant mismatches, or
/// a variable would need two distinct values.
pub fn match_atom(
    universe: &Universe,
    pattern: &RuleAtom,
    ground: AtomId,
    binding: &mut Binding,
) -> bool {
    let node = universe.atoms.node(ground);
    if node.pred != pattern.pred {
        return false;
    }
    debug_assert_eq!(node.args.len(), pattern.args.len());
    for (pat, &val) in pattern.args.iter().zip(node.args.iter()) {
        match pat {
            RTerm::Const(c) => {
                if *c != val {
                    return false;
                }
            }
            RTerm::Var(v) => {
                if !binding.bind(v.index(), val) {
                    return false;
                }
            }
        }
    }
    true
}

/// Instantiates a rule atom under a total binding, interning the ground atom.
pub fn instantiate_atom(universe: &mut Universe, pattern: &RuleAtom, binding: &[TermId]) -> AtomId {
    let mut scratch = Vec::with_capacity(pattern.args.len());
    instantiate_atom_into(universe, pattern, binding, &mut scratch)
}

/// Borrow-friendly instantiation fast path: writes the ground arguments
/// into `scratch` (cleared first) and interns via the borrowed-slice probe,
/// so re-deriving an already-interned atom — the common case in chase
/// saturation — allocates nothing. Callers keep one scratch buffer alive
/// across an instantiation loop.
#[inline]
pub fn instantiate_atom_into(
    universe: &mut Universe,
    pattern: &RuleAtom,
    binding: &[TermId],
    scratch: &mut Vec<TermId>,
) -> AtomId {
    scratch.clear();
    scratch.extend(pattern.args.iter().map(|t| match t {
        RTerm::Const(c) => *c,
        RTerm::Var(v) => binding[v.index()],
    }));
    universe.atoms.intern_ref(pattern.pred, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Var;

    fn v(i: u32) -> RTerm {
        RTerm::Var(Var::new(i))
    }

    #[test]
    fn guard_match_binds_all_vars() {
        let mut u = Universe::new();
        let r = u.pred("R", 3).unwrap();
        let zero = u.constant("0");
        let one = u.constant("1");
        let ground = u.atom(r, vec![zero, zero, one]).unwrap();
        let pattern = RuleAtom::new(r, vec![v(0), v(1), v(2)]);
        let mut b = Binding::new(3);
        assert!(match_atom(&u, &pattern, ground, &mut b));
        assert_eq!(b.to_total(3), vec![zero, zero, one]);
    }

    #[test]
    fn repeated_variable_requires_equal_terms() {
        let mut u = Universe::new();
        let p = u.pred("p", 2).unwrap();
        let a = u.constant("a");
        let b_ = u.constant("b");
        let same = u.atom(p, vec![a, a]).unwrap();
        let diff = u.atom(p, vec![a, b_]).unwrap();
        let pattern = RuleAtom::new(p, vec![v(0), v(0)]);
        let mut bind = Binding::new(1);
        assert!(match_atom(&u, &pattern, same, &mut bind));
        bind.clear();
        assert!(!match_atom(&u, &pattern, diff, &mut bind));
    }

    #[test]
    fn constant_in_pattern_must_match() {
        let mut u = Universe::new();
        let p = u.pred("p", 2).unwrap();
        let a = u.constant("a");
        let b_ = u.constant("b");
        let ground = u.atom(p, vec![a, b_]).unwrap();
        let good = RuleAtom::new(p, vec![RTerm::Const(a), v(0)]);
        let bad = RuleAtom::new(p, vec![RTerm::Const(b_), v(0)]);
        let mut bind = Binding::new(1);
        assert!(match_atom(&u, &good, ground, &mut bind));
        assert_eq!(bind.get(0), Some(b_));
        bind.clear();
        assert!(!match_atom(&u, &bad, ground, &mut bind));
    }

    #[test]
    fn predicate_mismatch_fails_fast() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let a = u.constant("a");
        let ground = u.atom(p, vec![a]).unwrap();
        let pattern = RuleAtom::new(q, vec![v(0)]);
        let mut bind = Binding::new(1);
        assert!(!match_atom(&u, &pattern, ground, &mut bind));
    }

    #[test]
    fn instantiate_round_trips_match() {
        let mut u = Universe::new();
        let p = u.pred("p", 2).unwrap();
        let a = u.constant("a");
        let b_ = u.constant("b");
        let ground = u.atom(p, vec![a, b_]).unwrap();
        let pattern = RuleAtom::new(p, vec![v(0), v(1)]);
        let mut bind = Binding::new(2);
        assert!(match_atom(&u, &pattern, ground, &mut bind));
        let total = bind.to_total(2);
        assert_eq!(instantiate_atom(&mut u, &pattern, &total), ground);
    }
}
