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
/// chunked pools, and an id table over them — interning allocates nothing
/// per atom, and a clone copies the table's owned level and shares its
/// frozen base and the pools' full chunks.
#[derive(Clone, Debug, Default)]
pub struct AtomStore {
    preds: ChunkVec<PredId>,
    args: ArgPool,
    table: IdTable,
}

impl AtomStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table hash of `pred(args…)` and the test of a stored id against
    /// it — what every probe of the table needs.
    #[inline]
    fn key<'k>(&'k self, pred: PredId, args: &'k [TermId]) -> (u32, impl FnMut(u32) -> bool + 'k) {
        let hash = hash_words(pred.raw(), args.iter().map(|t| t.raw()));
        let is_key =
            move |id: u32| self.preds[id as usize] == pred && self.args.row(id as usize) == args;
        (hash, is_key)
    }

    /// Interns `pred(args…)` from a borrowed argument slice: the hit path —
    /// the overwhelmingly common case during chase saturation, where the
    /// same ground side atoms are re-instantiated per rule match — performs
    /// **zero** allocations; a genuinely new atom appends to the pools.
    ///
    /// Arity agreement with the predicate declaration is the caller's
    /// responsibility; [`crate::universe::Universe::atom`] performs the check.
    pub fn intern_ref(&mut self, pred: PredId, args: &[TermId]) -> AtomId {
        let (hash, is_key) = self.key(pred, args);
        let vacant = match self.table.find_or_vacant(hash, is_key) {
            Ok(id) => return AtomId(id),
            Err(vacant) => vacant,
        };
        let id = crate::dense_u32(self.preds.len(), "atom store");
        self.preds.push(pred);
        self.args.push(args);
        self.table.insert_vacant(vacant, hash, id);
        AtomId(id)
    }

    /// Looks up an atom without interning it. Allocation-free.
    pub fn lookup(&self, pred: PredId, args: &[TermId]) -> Option<AtomId> {
        let (hash, is_key) = self.key(pred, args);
        self.table.find(hash, is_key).map(AtomId)
    }

    /// [`AtomStore::lookup`] of arguments that are computed rather than
    /// stored — a query atom under a binding — so that the caller needs no
    /// buffer to put them in.
    pub fn lookup_iter(
        &self,
        pred: PredId,
        args: impl Iterator<Item = TermId> + Clone,
    ) -> Option<AtomId> {
        let hash = hash_words(pred.raw(), args.clone().map(|t| t.raw()));
        let hit = self.table.find(hash, |id| {
            self.preds[id as usize] == pred
                && self.args.row(id as usize).iter().copied().eq(args.clone())
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

    /// The heap bytes of the store's chunked pools and id table.
    pub fn footprint(&self) -> Footprint {
        self.preds.footprint() + self.args.footprint() + self.table.footprint()
    }

    /// Shares the id table's entries with later clones (see
    /// [`IdTable::freeze`]).
    pub fn freeze(&mut self) {
        self.table.freeze();
    }

    /// Heap bytes held by the store: O(chunks), a sum of capacities.
    pub fn heap_bytes(&self) -> usize {
        self.preds.heap_bytes() + self.args.heap_bytes() + self.table.heap_bytes()
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
