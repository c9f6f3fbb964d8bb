//! The [`Universe`]: the shared interning context for a reasoning session.
//!
//! A `Universe` owns the symbol table, the predicate and Skolem-function
//! declarations, and the hash-consing stores for ground terms and atoms.
//! Every other component (databases, programs, chase segments, models)
//! carries plain ids into a universe.

use crate::atom::{AtomId, AtomStore};
use crate::error::{CoreError, Result};
use crate::schema::{PredId, PredInfo, SchemaStats};
use crate::symbol::{Symbol, SymbolMap, SymbolTable};
use crate::term::{SkolemId, TermId, TermNode, TermStore};
use std::fmt;

/// Metadata about a Skolem function symbol.
#[derive(Clone, Debug)]
pub struct SkolemInfo {
    /// Interned name (e.g. `f` or the generated `sk_r2_Y`).
    pub name: Symbol,
    /// Number of arguments.
    pub arity: usize,
}

/// Interning context: symbols, predicates, Skolem functions, terms, atoms.
///
/// The pools and side arrays over dense ids are copy-on-write chunked
/// arrays ([`crate::chunked`]), and the id tables — the symbol and term
/// stores' and one per predicate in the atom store — keep a frozen base
/// behind an `Arc` ([`crate::IdTable`]): a clone of a frozen universe
/// copies the declarations, the chunk tables, what was interned since the
/// universe was last cloned and the tables' owned levels, and shares every
/// chunk and table base with the original.
#[derive(Clone, Debug, Default)]
pub struct Universe {
    /// String interner.
    pub symbols: SymbolTable,
    preds: Vec<PredInfo>,
    pred_by_name: SymbolMap,
    skolems: Vec<SkolemInfo>,
    skolem_by_name: SymbolMap,
    /// Ground term store.
    pub terms: TermStore,
    /// Ground atom store.
    pub atoms: AtomStore,
}

impl Universe {
    /// Creates an empty universe.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- predicates -------------------------------------------------

    /// Declares (or re-finds) a predicate with the given name and arity.
    ///
    /// Returns an error if `name` was previously declared with a different
    /// arity.
    pub fn pred(&mut self, name: &str, arity: usize) -> Result<PredId> {
        let sym = self.symbols.intern(name);
        if let Some(id) = self.pred_by_name.get(sym) {
            let declared = self.preds[id].arity;
            if declared != arity {
                return Err(CoreError::ArityMismatch {
                    predicate: name.to_owned(),
                    declared,
                    used: arity,
                });
            }
            return Ok(PredId::from_index(id));
        }
        Ok(self.declare_pred(sym, arity, false))
    }

    /// Appends a predicate whose name has no declaration yet.
    fn declare_pred(&mut self, name: Symbol, arity: usize, auxiliary: bool) -> PredId {
        let id = PredId::from_index(self.preds.len());
        self.preds.push(PredInfo {
            name,
            arity,
            auxiliary,
        });
        self.pred_by_name.insert(name, id.index());
        id
    }

    /// Declares an auxiliary predicate (hidden from default model printing).
    /// The name is made unique by suffixing if necessary.
    pub fn aux_pred(&mut self, base_name: &str, arity: usize) -> PredId {
        let mut name = base_name.to_owned();
        let mut n = 0usize;
        loop {
            let sym = self.symbols.intern(&name);
            if self.pred_by_name.get(sym).is_none() {
                return self.declare_pred(sym, arity, true);
            }
            n += 1;
            name = format!("{base_name}#{n}");
        }
    }

    /// Looks up a predicate by name.
    pub fn lookup_pred(&self, name: &str) -> Option<PredId> {
        self.symbols
            .lookup(name)
            .and_then(|s| self.pred_by_name.get(s))
            .map(PredId::from_index)
    }

    /// Predicate metadata.
    #[inline]
    pub fn pred_info(&self, id: PredId) -> &PredInfo {
        &self.preds[id.index()]
    }

    /// Predicate name as a string.
    pub fn pred_name(&self, id: PredId) -> &str {
        self.symbols.resolve(self.preds[id.index()].name)
    }

    /// Arity of a predicate.
    #[inline]
    pub fn pred_arity(&self, id: PredId) -> usize {
        self.preds[id.index()].arity
    }

    /// Number of declared predicates.
    pub fn num_preds(&self) -> usize {
        self.preds.len()
    }

    /// Iterates over all predicate ids.
    pub fn pred_ids(&self) -> impl Iterator<Item = PredId> {
        (0..self.preds.len()).map(PredId::from_index)
    }

    /// Schema summary `(|R|, w)` over the non-auxiliary predicates.
    pub fn schema_stats(&self) -> SchemaStats {
        SchemaStats {
            num_preds: self.preds.len(),
            max_arity: self.preds.iter().map(|p| p.arity).max().unwrap_or(0),
        }
    }

    // ----- Skolem functions -------------------------------------------

    /// Declares (or re-finds) a Skolem function with the given name/arity.
    pub fn skolem_fn(&mut self, name: &str, arity: usize) -> Result<SkolemId> {
        let sym = self.symbols.intern(name);
        if let Some(id) = self.skolem_by_name.get(sym) {
            let declared = self.skolems[id].arity;
            if declared != arity {
                return Err(CoreError::SkolemArityMismatch {
                    function: name.to_owned(),
                    declared,
                    used: arity,
                });
            }
            return Ok(SkolemId::from_index(id));
        }
        let id = SkolemId::from_index(self.skolems.len());
        self.skolems.push(SkolemInfo { name: sym, arity });
        self.skolem_by_name.insert(sym, id.index());
        Ok(id)
    }

    /// Looks up a Skolem function by name.
    pub fn lookup_skolem(&self, name: &str) -> Option<SkolemId> {
        self.symbols
            .lookup(name)
            .and_then(|s| self.skolem_by_name.get(s))
            .map(SkolemId::from_index)
    }

    /// Skolem function metadata.
    #[inline]
    pub fn skolem_info(&self, id: SkolemId) -> &SkolemInfo {
        &self.skolems[id.index()]
    }

    /// Skolem function name as a string.
    pub fn skolem_name(&self, id: SkolemId) -> &str {
        self.symbols.resolve(self.skolems[id.index()].name)
    }

    /// Number of declared Skolem functions.
    pub fn num_skolems(&self) -> usize {
        self.skolems.len()
    }

    // ----- terms -------------------------------------------------------

    /// Interns the constant `name`.
    pub fn constant(&mut self, name: &str) -> TermId {
        let sym = self.symbols.intern(name);
        self.terms.constant(sym)
    }

    /// Looks up a constant by name without interning it.
    pub fn lookup_constant(&self, name: &str) -> Option<TermId> {
        self.symbols
            .lookup(name)
            .and_then(|s| self.terms.lookup_const(s))
    }

    /// Interns the Skolem term `f(args…)`, checking arity.
    pub fn skolem_term(&mut self, f: SkolemId, args: impl AsRef<[TermId]>) -> Result<TermId> {
        self.skolem_term_ref(f, args.as_ref())
    }

    /// [`Universe::skolem_term`] on a borrowed slice (not generic, so hot
    /// loops share one copy of it); a hit allocates nothing.
    pub fn skolem_term_ref(&mut self, f: SkolemId, args: &[TermId]) -> Result<TermId> {
        let declared = self.skolems[f.index()].arity;
        if args.len() != declared {
            return Err(CoreError::SkolemArityMismatch {
                function: self.skolem_name(f).to_owned(),
                declared,
                used: args.len(),
            });
        }
        Ok(self.terms.skolem_ref(f, args))
    }

    // ----- atoms -------------------------------------------------------

    /// Interns the ground atom `pred(args…)`, checking arity.
    pub fn atom(&mut self, pred: PredId, args: impl AsRef<[TermId]>) -> Result<AtomId> {
        let args = args.as_ref();
        let declared = self.preds[pred.index()].arity;
        if args.len() != declared {
            return Err(CoreError::ArityMismatch {
                predicate: self.pred_name(pred).to_owned(),
                declared,
                used: args.len(),
            });
        }
        Ok(self.atoms.intern_ref(pred, args))
    }

    /// True iff every argument of `atom` is a data constant.
    pub fn atom_is_constant_free_of_nulls(&self, atom: AtomId) -> bool {
        self.atoms
            .args(atom)
            .iter()
            .all(|&t| self.terms.is_constant(t))
    }

    /// Maximum Skolem-nesting depth among the atom's arguments.
    pub fn atom_term_depth(&self, atom: AtomId) -> u32 {
        self.atoms
            .args(atom)
            .iter()
            .map(|&t| self.terms.depth(t))
            .max()
            .unwrap_or(0)
    }

    // ----- memory ------------------------------------------------------

    /// Makes every id table's entries a base that later clones share
    /// instead of copying ([`crate::IdTable::freeze`]). Call it where the
    /// universe is about to be shared.
    pub fn freeze(&mut self) {
        self.symbols.freeze();
        self.terms.freeze();
        self.atoms.freeze();
    }

    /// The heap bytes of the universe's chunked pools, side arrays and id
    /// tables — everything but its declarations. A table's base counts as
    /// owned while no clone shares it, as a pool chunk does.
    pub fn footprint(&self) -> crate::chunked::Footprint {
        self.symbols.footprint()
            + self.pred_by_name.footprint()
            + self.skolem_by_name.footprint()
            + self.terms.footprint()
            + self.atoms.footprint()
    }

    /// Heap bytes held by the universe: O(chunks), a sum of the capacities of
    /// the stores' pools, tables and side arrays.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.symbols.heap_bytes()
            + self.terms.heap_bytes()
            + self.atoms.heap_bytes()
            + self.preds.capacity() * size_of::<PredInfo>()
            + self.skolems.capacity() * size_of::<SkolemInfo>()
            + self.pred_by_name.heap_bytes()
            + self.skolem_by_name.heap_bytes()
    }

    // ----- display -----------------------------------------------------

    /// Displayable wrapper for a ground term.
    pub fn display_term(&self, id: TermId) -> DisplayTerm<'_> {
        DisplayTerm { u: self, id }
    }

    /// Displayable wrapper for a ground atom.
    pub fn display_atom(&self, id: AtomId) -> DisplayAtom<'_> {
        DisplayAtom { u: self, id }
    }
}

/// Renders a ground term using the universe's symbol table.
pub struct DisplayTerm<'a> {
    u: &'a Universe,
    id: TermId,
}

impl fmt::Display for DisplayTerm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(self.u, self.id, f)
    }
}

fn write_term(u: &Universe, id: TermId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match u.terms.node(id) {
        TermNode::Const(sym) => f.write_str(u.symbols.resolve(sym)),
        TermNode::Skolem { f: func, args } => {
            f.write_str(u.skolem_name(func))?;
            f.write_str("(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write_term(u, *a, f)?;
            }
            f.write_str(")")
        }
    }
}

/// Renders a ground atom using the universe's symbol table.
pub struct DisplayAtom<'a> {
    u: &'a Universe,
    id: AtomId,
}

impl fmt::Display for DisplayAtom<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = self.u.atoms.node(self.id);
        f.write_str(self.u.pred_name(node.pred))?;
        if node.args.is_empty() {
            return Ok(());
        }
        f.write_str("(")?;
        for (i, a) in node.args.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write_term(self.u, *a, f)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_declaration_and_arity_check() {
        let mut u = Universe::new();
        let p = u.pred("edge", 2).unwrap();
        assert_eq!(u.pred("edge", 2).unwrap(), p);
        assert!(matches!(
            u.pred("edge", 3),
            Err(CoreError::ArityMismatch { .. })
        ));
        assert_eq!(u.pred_name(p), "edge");
        assert_eq!(u.pred_arity(p), 2);
    }

    #[test]
    fn aux_pred_names_are_unique() {
        let mut u = Universe::new();
        u.pred("aux", 1).unwrap();
        let a = u.aux_pred("aux", 2);
        assert!(u.pred_info(a).auxiliary);
        assert_ne!(u.pred_name(a), "aux");
    }

    #[test]
    fn atom_arity_is_checked() {
        let mut u = Universe::new();
        let p = u.pred("p", 2).unwrap();
        let c = u.constant("c");
        assert!(u.atom(p, vec![c]).is_err());
        assert!(u.atom(p, vec![c, c]).is_ok());
    }

    #[test]
    fn skolem_term_rendering() {
        let mut u = Universe::new();
        let p = u.pred("R", 3).unwrap();
        let f = u.skolem_fn("f", 3).unwrap();
        let zero = u.constant("0");
        let one = u.constant("1");
        let fa = u.skolem_term(f, vec![zero, zero, one]).unwrap();
        let atom = u.atom(p, vec![zero, one, fa]).unwrap();
        assert_eq!(u.display_atom(atom).to_string(), "R(0,1,f(0,0,1))");
        assert_eq!(u.display_term(fa).to_string(), "f(0,0,1)");
    }

    #[test]
    fn schema_stats() {
        let mut u = Universe::new();
        u.pred("p", 1).unwrap();
        u.pred("q", 3).unwrap();
        let s = u.schema_stats();
        assert_eq!(s.num_preds, 2);
        assert_eq!(s.max_arity, 3);
        assert_eq!(s.to_string(), "|R| = 2, w = 3");
    }

    #[test]
    fn constant_free_of_nulls() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let f = u.skolem_fn("f", 1).unwrap();
        let c = u.constant("c");
        let fc = u.skolem_term(f, vec![c]).unwrap();
        let a1 = u.atom(p, vec![c]).unwrap();
        let a2 = u.atom(p, vec![fc]).unwrap();
        assert!(u.atom_is_constant_free_of_nulls(a1));
        assert!(!u.atom_is_constant_free_of_nulls(a2));
        assert_eq!(u.atom_term_depth(a2), 1);
    }
}
