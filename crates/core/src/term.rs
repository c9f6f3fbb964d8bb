//! Ground terms: constants and Skolem terms (labelled nulls under UNA).
//!
//! Following the paper's Section 2, the universe consists of data constants
//! `∆` and labelled nulls `∆_N`. Under the unique name assumption the nulls
//! produced by the functional transformation are Skolem terms
//! `f_{σ,Z}(t̄)`, and **syntactically distinct ground terms denote distinct
//! values** (Example 4 relies on `f(t1,t2,t3) ≠ 1` by construction). We
//! therefore hash-cons ground terms: equality of values is equality of
//! [`TermId`]s.

use crate::chunked::{ChunkVec, Footprint, RowPool};
use crate::idtable::{hash_words, IdTable};
use crate::symbol::{Symbol, SymbolMap};
use std::fmt;

/// An interned ground term (constant or Skolem term).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// Dense index of the term, usable for direct-indexed side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `TermId` from a dense index (inverse of [`TermId::index`]).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        TermId(crate::dense_u32(i, "term id"))
    }

    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An interned Skolem function symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkolemId(u32);

impl SkolemId {
    /// Dense index of the function symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> Self {
        SkolemId(crate::dense_u32(i, "skolem id"))
    }
}

impl fmt::Debug for SkolemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Structure of a ground term: a borrowed view into the store's pools.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermNode<'a> {
    /// A data constant from `∆`, identified by its interned name.
    Const(Symbol),
    /// A labelled null from `∆_N`: a Skolem function applied to ground terms.
    Skolem {
        /// The Skolem function symbol.
        f: SkolemId,
        /// Its ground arguments.
        args: &'a [TermId],
    },
}

/// Variable-length `TermId` rows in copy-on-write chunks: row `i` is
/// `row(i)`. Shared by the term and atom stores.
#[derive(Clone, Debug, Default)]
pub(crate) struct ArgPool {
    rows: RowPool<TermId>,
}

impl ArgPool {
    #[inline]
    pub(crate) fn push(&mut self, row: &[TermId]) {
        self.rows.push(row.iter().copied());
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[TermId] {
        self.rows.row(i)
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }

    pub(crate) fn footprint(&self) -> Footprint {
        self.rows.footprint()
    }
}

/// Set in a term's head word iff the term is a Skolem term; the other 31
/// bits are the function index (set) or the constant's symbol index (clear).
const SKOLEM_BIT: u32 = 1 << 31;

/// Hash-consing store for ground terms.
///
/// Guarantees: one `TermId` per structurally distinct term; term ids are
/// dense and allocation-ordered, so sub-terms always have smaller ids than
/// the terms containing them.
///
/// Layout: one head word, one depth and one (possibly empty) argument row
/// per term, all in copy-on-write chunked pools — interning allocates
/// nothing per term, and a clone shares every full chunk. A
/// constant is found through a side array at its [`Symbol`] (a dense id
/// already: its name was hashed once, by the symbol table); only Skolem
/// terms are in the hash table.
#[derive(Clone, Debug, Default)]
pub struct TermStore {
    heads: ChunkVec<u32>,
    args: ArgPool,
    depth: ChunkVec<u32>,
    /// `Symbol → TermId` of the constants.
    constants: SymbolMap,
    /// The Skolem terms, by head word and argument row.
    table: IdTable,
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Head word of a constant (`tag` clear) or a Skolem term (`tag` set),
    /// asserting that the index leaves the tag bit free.
    #[inline]
    fn head_word(index: u32, tag: u32) -> u32 {
        assert!(
            index & SKOLEM_BIT == 0,
            "term store overflow: index {index} runs into the term tag bit"
        );
        index | tag
    }

    /// Interns a constant.
    pub fn constant(&mut self, name: Symbol) -> TermId {
        if let Some(id) = self.lookup_const(name) {
            return id;
        }
        let id = self.push(Self::head_word(name.raw(), 0), &[], 0);
        self.constants.insert(name, id.index());
        id
    }

    /// Interns the Skolem term `f(args…)` from a borrowed argument slice;
    /// a hit allocates nothing. All `args` must already belong to this
    /// store.
    pub fn skolem_ref(&mut self, f: SkolemId, args: &[TermId]) -> TermId {
        let head = Self::head_word(f.0, SKOLEM_BIT);
        let (hash, is_key) = self.skolem_key(head, args);
        let vacant = match self.table.find_or_vacant(hash, is_key) {
            Ok(id) => return TermId(id),
            Err(vacant) => vacant,
        };
        let depth = 1 + args
            .iter()
            .map(|a| self.depth[a.index()])
            .max()
            .unwrap_or(0);
        let id = self.push(head, args, depth);
        self.table.insert_vacant(vacant, hash, id.0);
        id
    }

    /// The table hash of the Skolem term with head word `head` and the
    /// test of a stored id against it — what every probe of the table
    /// needs.
    #[inline]
    fn skolem_key<'k>(
        &'k self,
        head: u32,
        args: &'k [TermId],
    ) -> (u32, impl FnMut(u32) -> bool + 'k) {
        let hash = hash_words(head, args.iter().map(|t| t.raw()));
        let is_key =
            move |id: u32| self.heads[id as usize] == head && self.args.row(id as usize) == args;
        (hash, is_key)
    }

    /// Appends a term the caller has established is new.
    fn push(&mut self, head: u32, args: &[TermId], depth: u32) -> TermId {
        let id = crate::dense_u32(self.heads.len(), "term store");
        self.heads.push(head);
        self.args.push(args);
        self.depth.push(depth);
        TermId(id)
    }

    /// Looks up the constant with the given name without interning it.
    #[inline]
    pub fn lookup_const(&self, name: Symbol) -> Option<TermId> {
        self.constants.get(name).map(TermId::from_index)
    }

    /// Looks up a Skolem term without interning it. Allocation-free.
    pub fn lookup_skolem(&self, f: SkolemId, args: &[TermId]) -> Option<TermId> {
        let (hash, is_key) = self.skolem_key(f.0 | SKOLEM_BIT, args);
        self.table.find(hash, is_key).map(TermId)
    }

    /// The structure of a term.
    #[inline]
    pub fn node(&self, id: TermId) -> TermNode<'_> {
        let head = self.heads[id.index()];
        if head & SKOLEM_BIT == 0 {
            TermNode::Const(Symbol::from_raw(head))
        } else {
            TermNode::Skolem {
                f: SkolemId(head & !SKOLEM_BIT),
                args: self.args.row(id.index()),
            }
        }
    }

    /// Nesting depth of Skolem applications (constants have depth 0).
    #[inline]
    pub fn depth(&self, id: TermId) -> u32 {
        self.depth[id.index()]
    }

    /// True iff the term is a data constant (an element of `∆`).
    #[inline]
    pub fn is_constant(&self, id: TermId) -> bool {
        self.heads[id.index()] & SKOLEM_BIT == 0
    }

    /// True iff the term is a labelled null (an element of `∆_N`).
    #[inline]
    pub fn is_null(&self, id: TermId) -> bool {
        !self.is_constant(id)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True iff the store is empty.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Iterates over all interned term ids in allocation order.
    pub fn ids(&self) -> impl Iterator<Item = TermId> {
        (0..self.heads.len() as u32).map(TermId)
    }

    /// The heap bytes of the store's chunked pools and id table.
    pub fn footprint(&self) -> Footprint {
        self.heads.footprint()
            + self.args.footprint()
            + self.depth.footprint()
            + self.constants.footprint()
            + self.table.footprint()
    }

    /// Shares the id table's entries with later clones (see
    /// [`IdTable::freeze`]).
    pub fn freeze(&mut self) {
        self.table.freeze();
    }

    /// Heap bytes held by the store: O(chunks), a sum of capacities.
    pub fn heap_bytes(&self) -> usize {
        self.heads.heap_bytes()
            + self.depth.heap_bytes()
            + self.args.heap_bytes()
            + self.constants.heap_bytes()
            + self.table.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn syms() -> (SymbolTable, Symbol, Symbol) {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        (t, a, b)
    }

    #[test]
    fn constants_are_hash_consed() {
        let (_t, a, b) = syms();
        let mut store = TermStore::new();
        let t1 = store.constant(a);
        let t2 = store.constant(a);
        let t3 = store.constant(b);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn skolem_terms_are_hash_consed_and_una_distinct() {
        let (_t, a, _b) = syms();
        let mut store = TermStore::new();
        let f = SkolemId::from_index(0);
        let g = SkolemId::from_index(1);
        let ca = store.constant(a);
        let fa1 = store.skolem_ref(f, &[ca]);
        let fa2 = store.skolem_ref(f, &[ca]);
        let ga = store.skolem_ref(g, &[ca]);
        assert_eq!(fa1, fa2);
        // UNA: f(a) and g(a) are distinct values.
        assert_ne!(fa1, ga);
        assert_ne!(fa1, ca);
    }

    #[test]
    fn depth_tracks_nesting() {
        let (_t, a, _b) = syms();
        let mut store = TermStore::new();
        let f = SkolemId::from_index(0);
        let ca = store.constant(a);
        let fa = store.skolem_ref(f, &[ca]);
        let ffa = store.skolem_ref(f, &[fa]);
        assert_eq!(store.depth(ca), 0);
        assert_eq!(store.depth(fa), 1);
        assert_eq!(store.depth(ffa), 2);
        assert!(store.is_constant(ca));
        assert!(store.is_null(ffa));
    }

    #[test]
    fn subterms_have_smaller_ids() {
        let (_t, a, _b) = syms();
        let mut store = TermStore::new();
        let f = SkolemId::from_index(0);
        let ca = store.constant(a);
        let fa = store.skolem_ref(f, &[ca]);
        assert!(ca.index() < fa.index());
    }
}
