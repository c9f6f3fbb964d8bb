//! Relational schemas: predicate symbols with fixed arities.

use crate::symbol::Symbol;
use std::fmt;

/// An interned predicate symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(u32);

impl PredId {
    /// Dense index usable for direct-indexed side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `PredId` from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        PredId(crate::dense_u32(i, "pred id"))
    }

    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Metadata about a predicate symbol.
#[derive(Clone, Debug)]
pub struct PredInfo {
    /// Interned name.
    pub name: Symbol,
    /// Number of arguments.
    pub arity: usize,
    /// True for predicates introduced internally (e.g. by head-atom
    /// normalization); hidden from default pretty-printing of models.
    pub auxiliary: bool,
}

/// Summary of a relational schema `R`, as used by the paper's complexity
/// bounds: the number of predicates `|R|` and the maximum arity `w`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemaStats {
    /// Number of predicate symbols, `|R|`.
    pub num_preds: usize,
    /// Maximum arity, `w`.
    pub max_arity: usize,
}

impl fmt::Display for SchemaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "|R| = {}, w = {}", self.num_preds, self.max_arity)
    }
}
