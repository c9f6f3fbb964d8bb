//! Three-valued interpretations over interned ground atoms.
//!
//! A (consistent) set of ground literals `I ⊆ Lit_P` (Section 2.2) is stored
//! as a flat truth-value array indexed by [`AtomId`]: `a ∈ I` becomes
//! `value(a) = True`, `¬a ∈ I` becomes `value(a) = False`, and absence
//! becomes `Unknown`. Consistency (`S ∩ ¬.S = ∅`) holds by construction
//! since an atom has exactly one value.

use crate::atom::AtomId;
use crate::truth::Truth;

/// A three-valued interpretation (a consistent literal set).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Interp {
    vals: Vec<Truth>,
    n_true: usize,
    n_false: usize,
}

impl Interp {
    /// Creates the empty interpretation (everything unknown).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interpretation sized for `n` atoms.
    pub fn with_capacity(n: usize) -> Self {
        Interp {
            vals: vec![Truth::Unknown; n],
            n_true: 0,
            n_false: 0,
        }
    }

    /// A copy of this interpretation with room for atom ids below `n`
    /// without reallocation: one allocation, one straight copy.
    pub fn copy_with_capacity(&self, n: usize) -> Self {
        let mut vals = Vec::with_capacity(n.max(self.vals.len()));
        vals.extend_from_slice(&self.vals);
        Interp { vals, ..*self }
    }

    /// Truth value of `atom` (atoms never assigned are `Unknown`).
    #[inline]
    pub fn value(&self, atom: AtomId) -> Truth {
        self.vals
            .get(atom.index())
            .copied()
            .unwrap_or(Truth::Unknown)
    }

    /// True iff `atom ∈ I`.
    #[inline]
    pub fn is_true(&self, atom: AtomId) -> bool {
        self.value(atom).is_true()
    }

    /// True iff `¬atom ∈ I`.
    #[inline]
    pub fn is_false(&self, atom: AtomId) -> bool {
        self.value(atom).is_false()
    }

    /// Marks `atom` true. Returns `true` if the value changed.
    ///
    /// # Panics
    /// In debug builds, panics if the atom was previously false (fixpoint
    /// engines only ever refine `Unknown`).
    #[inline]
    pub fn set_true(&mut self, atom: AtomId) -> bool {
        self.set(atom, Truth::True)
    }

    /// Marks `atom` false. Returns `true` if the value changed.
    #[inline]
    pub fn set_false(&mut self, atom: AtomId) -> bool {
        self.set(atom, Truth::False)
    }

    fn set(&mut self, atom: AtomId, value: Truth) -> bool {
        debug_assert!(
            self.value(atom).is_unknown() || self.value(atom) == value,
            "inconsistent refinement of atom {atom:?}: {} -> {value}",
            self.value(atom)
        );
        self.revise(atom, value)
    }

    /// Replaces the value of `atom` — in any direction, `Unknown` included.
    /// Returns `true` if it changed. A fixpoint engine only ever refines
    /// `Unknown` ([`Interp::set_true`] / [`Interp::set_false`]); this is for
    /// carrying an interpretation over to a changed program, where an old
    /// verdict may be withdrawn or reversed.
    pub fn revise(&mut self, atom: AtomId, value: Truth) -> bool {
        let i = atom.index();
        if i >= self.vals.len() {
            self.vals.resize(i + 1, Truth::Unknown);
        }
        let old = self.vals[i];
        if old == value {
            return false;
        }
        match old {
            Truth::True => self.n_true -= 1,
            Truth::False => self.n_false -= 1,
            Truth::Unknown => {}
        }
        match value {
            Truth::True => self.n_true += 1,
            Truth::False => self.n_false += 1,
            Truth::Unknown => {}
        }
        self.vals[i] = value;
        true
    }

    /// Number of true atoms.
    #[inline]
    pub fn num_true(&self) -> usize {
        self.n_true
    }

    /// Number of false atoms.
    #[inline]
    pub fn num_false(&self) -> usize {
        self.n_false
    }

    /// Number of decided (non-unknown) atoms.
    #[inline]
    pub fn num_decided(&self) -> usize {
        self.n_true + self.n_false
    }

    /// Iterates over the true atoms, ascending.
    pub fn true_atoms(&self) -> impl Iterator<Item = AtomId> + Clone + '_ {
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_true())
            .map(|(i, _)| AtomId::from_index(i))
    }

    /// Iterates over the false atoms, ascending.
    pub fn false_atoms(&self) -> impl Iterator<Item = AtomId> + Clone + '_ {
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_false())
            .map(|(i, _)| AtomId::from_index(i))
    }

    /// Iterates over the unknown atoms among the first `n` ids.
    pub fn unknown_atoms(&self, n: usize) -> impl Iterator<Item = AtomId> + '_ {
        (0..n).filter_map(move |i| {
            let a = AtomId::from_index(i);
            self.value(a).is_unknown().then_some(a)
        })
    }

    /// Information-order comparison: true iff every literal of `self` is in
    /// `other` (i.e. `self ⊑ other` in the knowledge order).
    pub fn subsumed_by(&self, other: &Interp) -> bool {
        self.vals
            .iter()
            .enumerate()
            .all(|(i, &v)| v.is_unknown() || other.value(AtomId::from_index(i)) == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    #[test]
    fn default_is_unknown() {
        let i = Interp::new();
        assert!(i.value(a(42)).is_unknown());
        assert_eq!(i.num_decided(), 0);
    }

    #[test]
    fn set_and_count() {
        let mut i = Interp::new();
        assert!(i.set_true(a(3)));
        assert!(!i.set_true(a(3)));
        assert!(i.set_false(a(5)));
        assert_eq!(i.num_true(), 1);
        assert_eq!(i.num_false(), 1);
        assert!(i.is_true(a(3)));
        assert!(i.is_false(a(5)));
        assert_eq!(i.true_atoms().collect::<Vec<_>>(), vec![a(3)]);
        assert_eq!(i.false_atoms().collect::<Vec<_>>(), vec![a(5)]);
    }

    #[test]
    #[should_panic(expected = "inconsistent refinement")]
    #[cfg(debug_assertions)]
    fn flipping_is_a_bug() {
        let mut i = Interp::new();
        i.set_true(a(0));
        i.set_false(a(0));
    }

    #[test]
    fn knowledge_order() {
        let mut small = Interp::new();
        small.set_true(a(1));
        let mut big = Interp::new();
        big.set_true(a(1));
        big.set_false(a(2));
        assert!(small.subsumed_by(&big));
        assert!(!big.subsumed_by(&small));
        assert!(Interp::new().subsumed_by(&small));
    }

    #[test]
    fn unknown_iteration() {
        let mut i = Interp::new();
        i.set_true(a(0));
        i.set_false(a(2));
        let unknown: Vec<AtomId> = i.unknown_atoms(4).collect();
        assert_eq!(unknown, vec![a(1), a(3)]);
    }
}
