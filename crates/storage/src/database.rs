//! Database instances: finite sets of ground, null-free atoms over `∆`.

use wfdl_core::{AtomId, BitSet, CoreError, PredId, Result, Universe};

/// A database `D` for a relational schema: ground atoms whose arguments are
/// data constants (no nulls, no variables), per Section 2.1.
///
/// Atom and predicate ids are dense, so membership is a bit per atom id and
/// the per-predicate listing an array of rows: storing a fact hashes
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct Database {
    facts: Vec<AtomId>,
    set: BitSet,
    /// Row `p`: the facts of predicate `p`, in insertion order; predicates
    /// past the end have none.
    by_pred: Vec<Vec<AtomId>>,
}

/// Two databases are equal iff they list the same facts in the same
/// order: the membership bits and the per-predicate rows are functions of
/// that list, and how far either has grown (a fact stored and retracted
/// leaves room behind) is not part of the value.
impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.facts == other.facts
    }
}

impl Eq for Database {}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks that `atom` may enter a database over `universe`: an id the
    /// universe issued ([`CoreError::UnknownAtom`] otherwise — the atom
    /// came from another universe), with constant arguments only
    /// ([`CoreError::NonGroundFact`]). Callers that must apply a batch all
    /// or nothing check every fact before inserting any.
    pub fn check_fact(universe: &Universe, atom: AtomId) -> Result<()> {
        let interned = universe.atoms.len();
        if atom.index() >= interned {
            return Err(CoreError::UnknownAtom {
                index: atom.index(),
                interned,
            });
        }
        if !universe.atom_is_constant_free_of_nulls(atom) {
            return Err(CoreError::NonGroundFact {
                atom: universe.display_atom(atom).to_string(),
            });
        }
        Ok(())
    }

    /// Inserts a fact, validating it with [`Database::check_fact`].
    ///
    /// Returns `Ok(true)` if the fact is new, `Ok(false)` if it was already
    /// present, and an error if the atom is not of this universe or any
    /// argument is a labelled null.
    pub fn insert(&mut self, universe: &Universe, atom: AtomId) -> Result<bool> {
        Self::check_fact(universe, atom)?;
        Ok(self.insert_unchecked(universe, atom))
    }

    /// Inserts a fact without the null-freeness check (used by generators
    /// that construct constants directly).
    pub fn insert_unchecked(&mut self, universe: &Universe, atom: AtomId) -> bool {
        if !self.set.insert(atom.index()) {
            return false;
        }
        self.facts.push(atom);
        let pred = universe.atoms.pred(atom).index();
        if pred >= self.by_pred.len() {
            self.by_pred.resize_with(pred + 1, Vec::new);
        }
        self.by_pred[pred].push(atom);
        true
    }

    /// Removes a batch of facts, returning how many were actually present.
    ///
    /// Order of the surviving facts is preserved. One linear pass over the
    /// database per batch — retraction invalidates every derived
    /// consequence anyway, so it is never on a hot path.
    ///
    /// Ids that are not stored facts are skipped **before** the universe is
    /// consulted: an atom that is not in the universe (a batch built
    /// against another one) cannot be a stored fact, and looking up its
    /// predicate would index out of range.
    pub fn retract_batch(&mut self, universe: &Universe, atoms: &[AtomId]) -> usize {
        let mut preds: Vec<PredId> = Vec::new();
        for &a in atoms {
            if self.set.remove(a.index()) {
                preds.push(universe.atoms.pred(a));
            }
        }
        let removed = preds.len();
        if removed == 0 {
            return 0;
        }
        self.facts.retain(|f| self.set.contains(f.index()));
        preds.sort_unstable();
        preds.dedup();
        for p in preds {
            self.by_pred[p.index()].retain(|f| self.set.contains(f.index()));
        }
        removed
    }

    /// True iff the database contains `atom`.
    #[inline]
    pub fn contains(&self, atom: AtomId) -> bool {
        self.set.contains(atom.index())
    }

    /// All facts, in insertion order.
    #[inline]
    pub fn facts(&self) -> &[AtomId] {
        &self.facts
    }

    /// Facts with the given predicate.
    pub fn facts_with_pred(&self, pred: PredId) -> &[AtomId] {
        self.by_pred.get(pred.index()).map_or(&[], Vec::as_slice)
    }

    /// The predicates that hold facts, ascending: one look per predicate,
    /// none per fact.
    pub fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        (self.by_pred.iter().enumerate())
            .filter(|(_, row)| !row.is_empty())
            .map(|(p, _)| PredId::from_index(p))
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True iff the database is empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedups() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        let a = u.atom(p, vec![c]).unwrap();
        let mut db = Database::new();
        assert!(db.insert(&u, a).unwrap());
        assert!(!db.insert(&u, a).unwrap());
        assert_eq!(db.len(), 1);
        assert!(db.contains(a));
    }

    #[test]
    fn rejects_nulls() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let f = u.skolem_fn("f", 0).unwrap();
        let null = u.skolem_term(f, vec![]).unwrap();
        let a = u.atom(p, vec![null]).unwrap();
        let mut db = Database::new();
        assert!(matches!(
            db.insert(&u, a),
            Err(CoreError::NonGroundFact { .. })
        ));
    }

    #[test]
    fn rejects_atoms_of_another_universe() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        u.atom(p, [c]).unwrap();
        let mut db = Database::new();
        // An id past everything `u` interned: an error, not a panic.
        assert_eq!(
            db.insert(&u, AtomId::from_index(7)),
            Err(CoreError::UnknownAtom {
                index: 7,
                interned: 1
            })
        );
        assert!(db.is_empty());
    }

    #[test]
    fn retract_batch_removes_and_preserves_order() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let c = u.constant("c");
        let d = u.constant("d");
        let pc = u.atom(p, vec![c]).unwrap();
        let pd = u.atom(p, vec![d]).unwrap();
        let qc = u.atom(q, vec![c]).unwrap();
        let mut db = Database::new();
        for a in [pc, pd, qc] {
            db.insert(&u, a).unwrap();
        }
        assert_eq!(db.retract_batch(&u, &[pc, qc, pc]), 2, "pc counted once");
        assert_eq!(db.facts(), &[pd]);
        assert_eq!(db.facts_with_pred(p), &[pd]);
        assert!(db.facts_with_pred(q).is_empty());
        assert!(!db.contains(pc));
        assert_eq!(db.retract_batch(&u, &[pc]), 0, "already gone");
    }

    #[test]
    fn a_retracted_fact_leaves_no_trace_in_equality() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let c = u.constant("c");
        let pc = u.atom(p, vec![c]).unwrap();
        // A high atom id under the last predicate: the bits and the rows
        // of `held` grow past anything `never` allocates.
        for i in 0..100 {
            let k = u.constant(&format!("k{i}"));
            u.atom(p, vec![k]).unwrap();
        }
        let qc = u.atom(q, vec![c]).unwrap();
        let mut held = Database::new();
        let mut never = Database::new();
        held.insert(&u, pc).unwrap();
        never.insert(&u, pc).unwrap();
        held.insert(&u, qc).unwrap();
        assert_ne!(held, never);
        assert_eq!(held.retract_batch(&u, &[qc]), 1);
        assert_eq!(held, never);
        assert_eq!(never, held);
        assert_eq!(Database::new(), {
            held.retract_batch(&u, &[pc]);
            held
        });
    }

    #[test]
    fn retract_batch_skips_atoms_of_another_universe() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        let d = u.constant("d");
        let pc = u.atom(p, vec![c]).unwrap();
        let pd = u.atom(p, vec![d]).unwrap();
        let mut db = Database::new();
        db.insert(&u, pc).unwrap();
        db.insert(&u, pd).unwrap();
        // An id past everything `u` interned rides along with a stored
        // fact: exactly the stored one goes, and nothing panics.
        let foreign = AtomId::from_index(u.atoms.len() + 5);
        assert_eq!(db.retract_batch(&u, &[foreign, pc]), 1);
        assert_eq!(db.facts(), &[pd]);
        assert_eq!(db.facts_with_pred(p), &[pd]);
    }

    #[test]
    fn per_predicate_listing() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let c = u.constant("c");
        let d = u.constant("d");
        let pa = u.atom(p, vec![c]).unwrap();
        let pb = u.atom(p, vec![d]).unwrap();
        let qa = u.atom(q, vec![c]).unwrap();
        let mut db = Database::new();
        db.insert(&u, pa).unwrap();
        db.insert(&u, pb).unwrap();
        db.insert(&u, qa).unwrap();
        assert_eq!(db.facts_with_pred(p), &[pa, pb]);
        assert_eq!(db.facts_with_pred(q), &[qa]);
        let r = u.pred("r", 1).unwrap();
        assert!(db.facts_with_pred(r).is_empty());
    }
}
