//! String interning.
//!
//! Predicate, constant, function and variable *names* are interned once into
//! a [`SymbolTable`] and from then on handled as copyable 4-byte [`Symbol`]
//! ids. All hot-path structures (terms, atoms, rules) store symbols, never
//! strings.

use crate::chunked::{ChunkVec, Footprint, StrPool};
use crate::fxhash::FxHasher;
use crate::idtable::{fold, IdTable};
use std::fmt;
use std::hash::Hasher;

/// An interned string.
///
/// Symbols are only meaningful relative to the [`SymbolTable`] that produced
/// them; resolving a symbol from a different table is a logic error (caught
/// by the table's bounds check in debug builds).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    #[inline]
    pub(crate) fn from_raw(raw: u32) -> Self {
        Symbol(raw)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// A `Symbol → dense id` side array: what a name *is* (a constant, a
/// predicate, a Skolem function) is read at the symbol's index — symbols
/// are dense ids already, so nothing is hashed a second time. A clone
/// shares the full chunks.
#[derive(Clone, Debug, Default)]
pub(crate) struct SymbolMap {
    /// `id + 1` at the symbol's index; `0` (and past the end): no entry.
    slots: ChunkVec<u32>,
}

impl SymbolMap {
    /// The id recorded for `sym`, if any.
    #[inline]
    pub(crate) fn get(&self, sym: Symbol) -> Option<usize> {
        match self.slots.get(sym.index()) {
            Some(&slot) if slot != 0 => Some(slot as usize - 1),
            _ => None,
        }
    }

    /// Records `id` for `sym`, which has no entry yet.
    pub(crate) fn insert(&mut self, sym: Symbol, id: usize) {
        if sym.index() >= self.slots.len() {
            self.slots.resize(sym.index() + 1, 0);
        }
        debug_assert_eq!(self.slots[sym.index()], 0);
        self.slots[sym.index()] = crate::dense_u32(id + 1, "symbol side array");
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes()
    }

    pub(crate) fn footprint(&self) -> Footprint {
        self.slots.footprint()
    }
}

/// Bidirectional string ↔ [`Symbol`] map.
///
/// Every name lives once, as one row of a chunked string pool; symbol `i`
/// is row `i`, and the id table finds it by hash. No per-name allocation,
/// no UTF-8 check on a read, and a clone copies the table's owned level
/// and shares its frozen base and the pool's full chunks.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    /// The names, one row each.
    names: StrPool,
    table: IdTable,
}

/// Fx over the bytes (eight a word, the tail zero-padded), then the
/// length, so that a name and its zero-padded extension differ.
#[inline]
fn hash_str(name: &str) -> u32 {
    let mut hasher = FxHasher::default();
    hasher.write(name.as_bytes());
    hasher.write_usize(name.len());
    fold(hasher.finish())
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table hash of `name` and the test of a stored id against it —
    /// what every probe of the table needs.
    #[inline]
    fn key<'k>(&'k self, name: &'k str) -> (u32, impl FnMut(u32) -> bool + 'k) {
        (hash_str(name), move |id: u32| {
            self.names.row(id as usize) == name
        })
    }

    /// Interns `name`, returning its symbol (stable across repeated calls).
    pub fn intern(&mut self, name: &str) -> Symbol {
        let (hash, is_key) = self.key(name);
        let vacant = match self.table.find_or_vacant(hash, is_key) {
            Ok(id) => return Symbol(id),
            Err(vacant) => vacant,
        };
        let id = crate::dense_u32(self.len(), "symbol table");
        self.names.push(name);
        self.table.insert_vacant(vacant, hash, id);
        Symbol(id)
    }

    /// Looks up an already-interned name without inserting.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        let (hash, is_key) = self.key(name);
        self.table.find(hash, is_key).map(Symbol)
    }

    /// Resolves a symbol back to its string.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.names.row(sym.index())
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The heap bytes of the name pool and the id table.
    pub fn footprint(&self) -> Footprint {
        self.names.footprint() + self.table.footprint()
    }

    /// Shares the id table's entries with later clones (see
    /// [`IdTable::freeze`]).
    pub fn freeze(&mut self) {
        self.table.freeze();
    }

    /// Heap bytes held by the table: O(chunks), a sum of capacities.
    pub fn heap_bytes(&self) -> usize {
        self.names.heap_bytes() + self.table.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("edge");
        let b = t.intern("edge");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = SymbolTable::new();
        let names = ["p", "q", "isAuthorOf", "f#0_Y"];
        let syms: Vec<Symbol> = names.iter().map(|n| t.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(t.resolve(*sym), *name);
        }
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut t = SymbolTable::new();
        assert_eq!(t.lookup("missing"), None);
        let s = t.intern("present");
        assert_eq!(t.lookup("present"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
    }
}
