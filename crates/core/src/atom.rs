//! Ground atoms, hash-consed to dense [`AtomId`]s.
//!
//! Everything downstream — chase segments, interpretations, ground programs —
//! identifies a ground atom by its `AtomId`, so set membership, truth values
//! and indexes are all flat arrays.

use crate::chunked::{ChunkVec, Footprint};
use crate::idtable::{hash_words, IdTable};
use crate::schema::PredId;
use crate::term::{ArgPool, TermId};
use std::fmt;

/// An interned ground atom.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(u32);

impl AtomId {
    /// Dense index usable for direct-indexed side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an `AtomId` from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        AtomId(crate::dense_u32(i, "atom id"))
    }
}

impl fmt::Debug for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Structure of a ground atom: a predicate applied to ground terms. A
/// borrowed view into the store's pools.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtomNode<'a> {
    /// The predicate symbol.
    pub pred: PredId,
    /// Ground arguments, of length equal to the predicate's arity.
    pub args: &'a [TermId],
}

/// Hash-consing store for ground atoms.
///
/// Layout: one predicate and one argument row per atom, in copy-on-write
/// chunked pools, and one id table per predicate over them — interning
/// allocates nothing per atom, and a clone copies each table's owned level
/// and shares its frozen base and the pools' full chunks.
///
/// A probe reads its predicate's table only, so its cost follows the size
/// of one relation, not of the universe (a `not employed(X)` check of every
/// person probes the `employed` atoms), and its key test compares the
/// argument row alone: the table already implies the predicate.
#[derive(Clone, Debug, Default)]
pub struct AtomStore {
    preds: ChunkVec<PredId>,
    args: ArgPool,
    /// Indexed by `PredId`; grown on a predicate's first intern.
    tables: Vec<IdTable>,
}

impl AtomStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `pred(args…)` from a borrowed argument slice: the hit path —
    /// the overwhelmingly common case during chase saturation, where the
    /// same ground side atoms are re-instantiated per rule match — performs
    /// **zero** allocations; a genuinely new atom appends to the pools.
    ///
    /// Arity agreement with the predicate declaration is the caller's
    /// responsibility; [`crate::universe::Universe::atom`] performs the check.
    pub fn intern_ref(&mut self, pred: PredId, args: &[TermId]) -> AtomId {
        if pred.index() >= self.tables.len() {
            self.tables.resize_with(pred.index() + 1, IdTable::default);
        }
        let hash = hash_words(pred.raw(), args.iter().map(|t| t.raw()));
        let stored = &self.args;
        let is_key = |id: u32| stored.row(id as usize) == args;
        let vacant = match self.tables[pred.index()].find_or_vacant(hash, is_key) {
            Ok(id) => return AtomId(id),
            Err(vacant) => vacant,
        };
        let id = crate::dense_u32(self.preds.len(), "atom store");
        self.preds.push(pred);
        self.args.push(args);
        self.tables[pred.index()].insert_vacant(vacant, hash, id);
        AtomId(id)
    }

    /// Looks up an atom without interning it. Allocation-free.
    pub fn lookup(&self, pred: PredId, args: &[TermId]) -> Option<AtomId> {
        let table = self.tables.get(pred.index())?;
        let hash = hash_words(pred.raw(), args.iter().map(|t| t.raw()));
        table
            .find(hash, |id| self.args.row(id as usize) == args)
            .map(AtomId)
    }

    /// [`AtomStore::lookup`] of arguments that are computed rather than
    /// stored — a query atom under a binding — so that the caller needs no
    /// buffer to put them in.
    pub fn lookup_iter(
        &self,
        pred: PredId,
        args: impl Iterator<Item = TermId> + Clone,
    ) -> Option<AtomId> {
        let table = self.tables.get(pred.index())?;
        let hash = hash_words(pred.raw(), args.clone().map(|t| t.raw()));
        let hit = table.find(hash, |id| {
            self.args.row(id as usize).iter().copied().eq(args.clone())
        });
        hit.map(AtomId)
    }

    /// The structure of an interned atom.
    #[inline]
    pub fn node(&self, id: AtomId) -> AtomNode<'_> {
        AtomNode {
            pred: self.pred(id),
            args: self.args(id),
        }
    }

    /// The predicate of an interned atom.
    #[inline]
    pub fn pred(&self, id: AtomId) -> PredId {
        self.preds[id.index()]
    }

    /// The arguments of an interned atom.
    #[inline]
    pub fn args(&self, id: AtomId) -> &[TermId] {
        self.args.row(id.index())
    }

    /// Number of interned atoms.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True iff the store is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Iterates over all interned atom ids in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> {
        (0..self.preds.len() as u32).map(AtomId)
    }

    /// The heap bytes of the store's chunked pools and id tables; the array
    /// of tables is copied by every clone, so it is owned.
    pub fn footprint(&self) -> Footprint {
        let array = self.tables.capacity() * std::mem::size_of::<IdTable>();
        let array = Footprint {
            held: array,
            owned: array,
        };
        let tables = self
            .tables
            .iter()
            .map(IdTable::footprint)
            .sum::<Footprint>();
        self.preds.footprint() + self.args.footprint() + tables + array
    }

    /// Shares every id table's entries with later clones (see
    /// [`IdTable::freeze`]).
    pub fn freeze(&mut self) {
        self.tables.iter_mut().for_each(IdTable::freeze);
    }

    /// Heap bytes held by the store: O(chunks + predicates), a sum of
    /// capacities.
    pub fn heap_bytes(&self) -> usize {
        self.footprint().held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PredId;

    #[test]
    fn atoms_are_hash_consed() {
        let mut store = AtomStore::new();
        let p = PredId::from_index(0);
        let q = PredId::from_index(1);
        let t0 = TermId::from_index(0);
        let t1 = TermId::from_index(1);
        let a1 = store.intern_ref(p, &[t0, t1]);
        let a2 = store.intern_ref(p, &[t0, t1]);
        let a3 = store.intern_ref(p, &[t1, t0]);
        let a4 = store.intern_ref(q, &[t0, t1]);
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
        assert_ne!(a1, a4);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut store = AtomStore::new();
        let p = PredId::from_index(0);
        let t0 = TermId::from_index(0);
        assert_eq!(store.lookup(p, &[t0]), None);
        let id = store.intern_ref(p, &[t0]);
        assert_eq!(store.lookup(p, &[t0]), Some(id));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn lookup_iter_agrees_with_lookup() {
        let mut store = AtomStore::new();
        let (p, q) = (PredId::from_index(0), PredId::from_index(1));
        let t: Vec<TermId> = (0..3).map(TermId::from_index).collect();
        let p01 = store.intern_ref(p, &t[..2]);
        let q0 = store.intern_ref(q, &t[..1]);
        let p_nullary = store.intern_ref(p, &[]);
        for pred in [p, q] {
            for args in [&t[..0], &t[..1], &t[..2], &t[..3], &t[1..]] {
                let found = store.lookup_iter(pred, args.iter().copied());
                assert_eq!(found, store.lookup(pred, args), "{pred:?} {args:?}");
            }
        }
        assert_eq!(store.lookup_iter(p, t[..2].iter().copied()), Some(p01));
        assert_eq!(store.lookup_iter(q, t[..1].iter().copied()), Some(q0));
        assert_eq!(store.lookup_iter(p, [].into_iter()), Some(p_nullary));
    }

    /// The same argument rows under two predicates, with the real hash and
    /// with every hash folded to two bits: no key test compares predicates,
    /// so only the predicate's table keeps the two atoms apart.
    #[test]
    fn one_row_under_two_predicates_is_two_atoms() {
        for collide in [false, true] {
            crate::idtable::COLLIDE.with(|c| c.set(collide));
            let mut store = AtomStore::new();
            let (p, q) = (PredId::from_index(0), PredId::from_index(2));
            let rows: Vec<Vec<TermId>> = (0..50u32)
                .map(|i| vec![TermId::from_index(i as usize), TermId::from_index(7)])
                .collect();
            let ids: Vec<(AtomId, AtomId)> = rows
                .iter()
                .map(|row| (store.intern_ref(p, row), store.intern_ref(q, row)))
                .collect();
            assert_eq!(store.len(), 2 * rows.len(), "collide={collide}");
            for (row, &(at_p, at_q)) in rows.iter().zip(&ids) {
                assert_ne!(at_p, at_q);
                assert_eq!((store.pred(at_p), store.pred(at_q)), (p, q));
                assert_eq!(store.intern_ref(p, row), at_p);
                assert_eq!(store.lookup(q, row), Some(at_q));
                assert_eq!(store.lookup_iter(p, row.iter().copied()), Some(at_p));
                // A declared predicate between the two holds none of them.
                assert_eq!(store.lookup(PredId::from_index(1), row), None);
            }
            crate::idtable::COLLIDE.with(|c| c.set(false));
        }
    }

    #[test]
    fn a_predicate_without_a_table_finds_nothing_and_grows_nothing() {
        let mut store = AtomStore::new();
        let t0 = TermId::from_index(0);
        let far = PredId::from_index(1000);
        assert_eq!(store.lookup(far, &[t0]), None);
        assert_eq!(store.lookup_iter(far, [t0].into_iter()), None);
        assert_eq!(store.tables.capacity(), 0);
        store.intern_ref(PredId::from_index(1), &[t0]);
        let grown = (store.tables.len(), store.tables.capacity());
        assert_eq!(grown.0, 2);
        assert_eq!(store.lookup(far, &[t0]), None);
        assert_eq!(store.lookup_iter(far, [t0].into_iter()), None);
        assert_eq!(store.lookup(PredId::from_index(0), &[t0]), None);
        assert_eq!((store.tables.len(), store.tables.capacity()), grown);
    }

    #[test]
    fn node_accessors() {
        let mut store = AtomStore::new();
        let p = PredId::from_index(3);
        let t0 = TermId::from_index(7);
        let id = store.intern_ref(p, &[t0]);
        assert_eq!(store.pred(id), p);
        assert_eq!(store.args(id), &[t0]);
    }
}
