//! Model tests of the three flat interning stores (`SymbolTable`,
//! `TermStore`, `AtomStore`) against `HashMap` references.
//!
//! What is pinned is the *property* the rest of the system builds on, not a
//! layout: one dense, allocation-ordered id per distinct key; lookups that
//! never intern; and a `clone()` that is a true fork — both sides keep
//! answering the shared prefix and neither sees the other's additions.
//! The pools are copy-on-write chunked arrays, so a growth step interns
//! long fresh names and long argument rows until the name and argument
//! pools span several chunks before the fork: both sides then write into
//! chunks they share. The id tables are frozen right before the fork and
//! now and then on either side of it, so both sides probe a base they
//! share and insert into owned levels of their own.
//!
//! Everything runs twice: with the real hash, and with every hash folded
//! to two bits ([`crate::idtable::COLLIDE`]). A slot stores 32 hash bits
//! and a key is compared only when they match, so under the real hash no
//! test of this size ever reaches a store's key comparison with a wrong
//! candidate — while a universe of a million atoms holds about a hundred
//! pairs that do.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::idtable::COLLIDE;
use crate::{AtomId, PredId, SkolemId, Symbol, TermId, TermNode, Universe};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A term as the reference sees it: indexes into the reference's own lists.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum TermKey {
    Const(usize),
    Skolem(usize, Vec<usize>),
}

type AtomKey = (usize, Vec<usize>);

/// The stores under test (inside a [`Universe`], which is what gets
/// cloned in production) next to the reference they must agree with.
#[derive(Clone)]
struct Model {
    u: Universe,
    preds: Vec<PredId>,
    fns: Vec<SkolemId>,
    syms: Vec<Symbol>,
    sym_names: Vec<String>,
    sym_ids: HashMap<String, usize>,
    term_keys: Vec<TermKey>,
    term_ids: HashMap<TermKey, usize>,
    term_depth: Vec<u32>,
    atom_keys: Vec<AtomKey>,
    atom_ids: HashMap<AtomKey, usize>,
    /// Fresh names interned by growth steps so far.
    fresh: usize,
}

/// One step: an operation selector and three small numbers the step reads
/// against the stores' current sizes, so every argument is a valid id.
type Step = (u8, usize, usize, usize);

const ALPHABET: [char; 3] = ['a', 'b', 'é'];

/// One of 121 names over a three-letter alphabet (one letter two bytes
/// long), the empty name included: few enough that sequences are
/// duplicate-heavy, and neighbours in the byte pool share prefixes.
fn name_of(a: usize, b: usize) -> String {
    let mut digits = b;
    (0..a % 5)
        .map(|_| {
            let c = ALPHABET[digits % 3];
            digits /= 3;
            c
        })
        .collect()
}

impl Model {
    fn new() -> Model {
        let mut m = Model {
            u: Universe::new(),
            preds: Vec::new(),
            fns: Vec::new(),
            syms: Vec::new(),
            sym_names: Vec::new(),
            sym_ids: HashMap::new(),
            term_keys: Vec::new(),
            term_ids: HashMap::new(),
            term_depth: Vec::new(),
            atom_keys: Vec::new(),
            atom_ids: HashMap::new(),
            fresh: 0,
        };
        // Declarations intern their names: mirror them, in order. The
        // declared arities are never consulted — the steps drive the stores
        // directly, below `Universe`'s arity checks, to reach every shape.
        for name in ["p0", "p1", "p2", "p3"] {
            m.preds.push(m.u.pred(name, 0).unwrap());
            m.expect_symbol(name);
        }
        for name in ["f0", "f1", "f2"] {
            m.fns.push(m.u.skolem_fn(name, 0).unwrap());
            m.expect_symbol(name);
        }
        m
    }

    /// Records in the reference a name the universe interned on its own.
    fn expect_symbol(&mut self, name: &str) {
        let sym = self.u.symbols.lookup(name).unwrap();
        assert_eq!(sym.index(), self.sym_names.len());
        self.syms.push(sym);
        self.sym_ids.insert(name.to_owned(), self.sym_names.len());
        self.sym_names.push(name.to_owned());
    }

    /// Up to two arguments drawn from the first seven terms (so that the
    /// same argument rows keep coming back, under every head).
    fn args_of(&self, a: usize, b: usize) -> Vec<usize> {
        let pool = self.term_keys.len().min(7);
        if pool == 0 {
            return Vec::new();
        }
        (0..a % 3)
            .scan(b, |digits, _| {
                let arg = *digits % pool;
                *digits /= pool;
                Some(arg)
            })
            .collect()
    }

    fn term_ids_of(args: &[usize]) -> Vec<TermId> {
        args.iter().map(|&i| TermId::from_index(i)).collect()
    }

    fn intern_symbol(&mut self, name: &str) -> Result<usize, TestCaseError> {
        let sym = self.u.symbols.intern(name);
        let expected = match self.sym_ids.get(name) {
            Some(&i) => i,
            None => {
                let i = self.sym_names.len();
                self.sym_names.push(name.to_owned());
                self.sym_ids.insert(name.to_owned(), i);
                self.syms.push(sym);
                i
            }
        };
        prop_assert_eq!(sym.index(), expected, "symbol {:?}", name);
        prop_assert_eq!(self.u.symbols.len(), self.sym_names.len());
        Ok(expected)
    }

    fn intern_term(&mut self, key: TermKey) -> Result<usize, TestCaseError> {
        let id = match &key {
            TermKey::Const(s) => self.u.terms.constant(self.syms[*s]),
            TermKey::Skolem(f, args) => self
                .u
                .terms
                .skolem_ref(self.fns[*f], &Self::term_ids_of(args)),
        };
        let expected = match self.term_ids.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.term_keys.len();
                self.term_depth.push(match &key {
                    TermKey::Const(_) => 0,
                    TermKey::Skolem(_, args) => {
                        1 + args.iter().map(|&a| self.term_depth[a]).max().unwrap_or(0)
                    }
                });
                self.term_keys.push(key.clone());
                self.term_ids.insert(key.clone(), i);
                i
            }
        };
        prop_assert_eq!(id.index(), expected, "term {:?}", key);
        prop_assert_eq!(self.u.terms.len(), self.term_keys.len());
        Ok(expected)
    }

    fn lookup_term(&self, key: &TermKey) -> Option<usize> {
        match key {
            TermKey::Const(s) => self.u.terms.lookup_const(self.syms[*s]),
            TermKey::Skolem(f, args) => self
                .u
                .terms
                .lookup_skolem(self.fns[*f], &Self::term_ids_of(args)),
        }
        .map(TermId::index)
    }

    fn intern_atom(&mut self, key: AtomKey) -> Result<(), TestCaseError> {
        let id = self
            .u
            .atoms
            .intern_ref(self.preds[key.0], &Self::term_ids_of(&key.1));
        let expected = match self.atom_ids.get(&key) {
            Some(&i) => i,
            None => {
                let i = self.atom_keys.len();
                self.atom_keys.push(key.clone());
                self.atom_ids.insert(key.clone(), i);
                i
            }
        };
        prop_assert_eq!(id.index(), expected, "atom {:?}", key);
        prop_assert_eq!(self.u.atoms.len(), self.atom_keys.len());
        Ok(())
    }

    fn lookup_atom(&self, key: &AtomKey) -> Option<usize> {
        self.u
            .atoms
            .lookup(self.preds[key.0], &Self::term_ids_of(&key.1))
            .map(AtomId::index)
    }

    /// Interns four long fresh names, each as a constant and as the last
    /// argument of an atom over predicate `pred` with a long argument row:
    /// what carries the name and argument pools across chunk boundaries
    /// while the tables stay small enough for colliding hashes.
    fn grow(&mut self, pred: usize) -> Result<(), TestCaseError> {
        for _ in 0..4 {
            let name = format!("n{}{}", self.fresh, "x".repeat(self.fresh % 300));
            self.fresh += 1;
            let sym = self.intern_symbol(&name)?;
            let term = self.intern_term(TermKey::Const(sym))?;
            let args = (term.saturating_sub(63)..=term).collect();
            self.intern_atom((pred, args))?;
        }
        Ok(())
    }

    /// Bytes in the name pool and entries in the argument pools of the
    /// reference.
    fn pool_sizes(&self) -> (usize, usize) {
        let names = self.sym_names.iter().map(String::len).sum();
        let term_args = self.term_keys.iter().map(|k| match k {
            TermKey::Const(_) => 0,
            TermKey::Skolem(_, args) => args.len(),
        });
        let atom_args = self.atom_keys.iter().map(|k| k.1.len());
        (names, term_args.sum::<usize>() + atom_args.sum::<usize>())
    }

    fn apply(&mut self, (op, a, b, c): Step) -> Result<(), TestCaseError> {
        match op % 11 {
            0 | 1 => {
                self.intern_symbol(&name_of(a, b))?;
            }
            2 => {
                let name = name_of(a, b);
                let before = self.u.symbols.len();
                prop_assert_eq!(
                    self.u.symbols.lookup(&name).map(Symbol::index),
                    self.sym_ids.get(&name).copied()
                );
                prop_assert_eq!(self.u.symbols.len(), before, "lookup interned");
            }
            3 => {
                let sym = self.intern_symbol(&name_of(a, b))?;
                self.intern_term(TermKey::Const(sym))?;
            }
            4 | 5 => {
                self.intern_term(TermKey::Skolem(c % 3, self.args_of(a, b)))?;
            }
            6 => {
                let key = TermKey::Skolem(c % 3, self.args_of(a, b));
                let before = self.u.terms.len();
                prop_assert_eq!(self.lookup_term(&key), self.term_ids.get(&key).copied());
                prop_assert_eq!(self.u.terms.len(), before, "lookup interned");
            }
            7 | 8 => self.intern_atom((c % 4, self.args_of(a, b)))?,
            9 => self.grow(c % 4)?,
            _ => {
                let key = (c % 4, self.args_of(a, b));
                let before = self.u.atoms.len();
                prop_assert_eq!(self.lookup_atom(&key), self.atom_ids.get(&key).copied());
                prop_assert_eq!(self.u.atoms.len(), before, "lookup interned");
            }
        }
        Ok(())
    }

    /// Reads every id back and compares it with the reference.
    fn check_contents(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.u.symbols.len(), self.sym_names.len());
        for (i, name) in self.sym_names.iter().enumerate() {
            prop_assert_eq!(self.u.symbols.resolve(self.syms[i]), name.as_str());
            prop_assert_eq!(self.u.symbols.lookup(name).map(Symbol::index), Some(i));
        }
        let term_ids: Vec<usize> = self.u.terms.ids().map(TermId::index).collect();
        prop_assert_eq!(term_ids, (0..self.term_keys.len()).collect::<Vec<_>>());
        for (i, key) in self.term_keys.iter().enumerate() {
            let id = TermId::from_index(i);
            let read_back = match self.u.terms.node(id) {
                TermNode::Const(sym) => TermKey::Const(sym.index()),
                TermNode::Skolem { f, args } => {
                    TermKey::Skolem(f.index(), args.iter().map(|t| t.index()).collect())
                }
            };
            prop_assert_eq!(&read_back, key);
            prop_assert_eq!(self.u.terms.depth(id), self.term_depth[i]);
            prop_assert_eq!(
                self.u.terms.is_constant(id),
                matches!(key, TermKey::Const(_))
            );
            prop_assert_eq!(self.u.terms.is_null(id), !self.u.terms.is_constant(id));
            prop_assert_eq!(self.lookup_term(key), Some(i));
        }
        let atom_ids: Vec<usize> = self.u.atoms.ids().map(AtomId::index).collect();
        prop_assert_eq!(atom_ids, (0..self.atom_keys.len()).collect::<Vec<_>>());
        for (i, key) in self.atom_keys.iter().enumerate() {
            let id = AtomId::from_index(i);
            let node = self.u.atoms.node(id);
            prop_assert_eq!(node.pred, self.preds[key.0]);
            prop_assert_eq!(node.pred, self.u.atoms.pred(id));
            prop_assert_eq!(node.args, self.u.atoms.args(id));
            let args: Vec<usize> = node.args.iter().map(|t| t.index()).collect();
            prop_assert_eq!(&args, &key.1);
            prop_assert_eq!(self.lookup_atom(key), Some(i));
        }
        Ok(())
    }

    /// Asks this side about every key either side knows: it must answer
    /// exactly as its own reference does.
    fn check_against_keys_of(&self, other: &Model) -> Result<(), TestCaseError> {
        let names: HashSet<&String> = self.sym_names.iter().chain(&other.sym_names).collect();
        for name in names {
            prop_assert_eq!(
                self.u.symbols.lookup(name).map(Symbol::index),
                self.sym_ids.get(name).copied(),
                "symbol {:?}",
                name
            );
        }
        // A key of the other side may mention ids this side never issued:
        // lookups compare ids, they do not dereference them.
        let terms: HashSet<&TermKey> = self.term_keys.iter().chain(&other.term_keys).collect();
        for key in terms {
            if matches!(key, TermKey::Const(s) if *s >= self.syms.len()) {
                continue; // no `Symbol` of this side to ask with
            }
            prop_assert_eq!(
                self.lookup_term(key),
                self.term_ids.get(key).copied(),
                "term {:?}",
                key
            );
        }
        let atoms: HashSet<&AtomKey> = self.atom_keys.iter().chain(&other.atom_keys).collect();
        for key in atoms {
            prop_assert_eq!(
                self.lookup_atom(key),
                self.atom_ids.get(key).copied(),
                "atom {:?}",
                key
            );
        }
        Ok(())
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..11, 0usize..64, 0usize..4096, 0usize..64), 1600..2000)
}

/// Steps between two freezes of the id tables: the first freeze makes a
/// base, and later ones merge the owned level into it or leave it alone.
const FREEZE_EVERY: usize = 192;

/// The stores agree with the references step by step, through a fork in
/// the middle, and on a full read-back at the end. The id tables are
/// frozen now and then on both sides and right before the fork, so the
/// two sides probe a base they share.
fn run(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut left = Model::new();
    let (shared, rest) = steps.split_at(steps.len() / 2);
    for (i, &step) in shared.iter().enumerate() {
        if i % FREEZE_EVERY == FREEZE_EVERY - 1 {
            left.u.freeze();
        }
        left.apply(step)?;
    }
    left.u.freeze();
    let at_fork = (left.u.symbols.len(), left.u.terms.len(), left.u.atoms.len());
    // Both sides write into pools that span several chunks, shared at the
    // fork.
    let (names, args) = left.pool_sizes();
    prop_assert!(names > 2 * crate::chunked::CHUNK, "{} name bytes", names);
    prop_assert!(args > 2 * crate::chunked::CHUNK, "{} argument ids", args);

    // Fork: the clone takes a different second half.
    let mut right = left.clone();
    for (i, &(op, a, b, c)) in rest.iter().enumerate() {
        if i % FREEZE_EVERY == FREEZE_EVERY - 1 {
            left.u.freeze();
            right.u.freeze();
        }
        left.apply((op, a, b, c))?;
        right.apply((op.wrapping_add(3), a + 1, b / 2, c + 1))?;
    }
    left.check_contents()?;
    right.check_contents()?;
    left.check_against_keys_of(&right)?;
    right.check_against_keys_of(&left)?;

    // The sequences are long enough to double every table at least
    // three times (from 8 slots: past 56 entries at a load bound of
    // 7/8, sooner at a lower one) before the fork, and to keep every
    // store growing after it.
    for (before, after) in [
        (at_fork.0, left.u.symbols.len()),
        (at_fork.1, left.u.terms.len()),
        (at_fork.2, left.u.atoms.len()),
    ] {
        prop_assert!(before > 56, "only {} entries before the fork", before);
        prop_assert!(after > before, "nothing interned after the fork");
    }
    Ok(())
}

/// Folds every hash of this thread to two bits while `f` runs.
fn with_colliding_hashes<T>(f: impl FnOnce() -> T) -> T {
    COLLIDE.with(|c| c.set(true));
    let out = f();
    COLLIDE.with(|c| c.set(false));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stores_match_hashmap_references(steps in steps()) {
        run(&steps)?;
    }

    #[test]
    fn stores_match_hashmap_references_when_hashes_collide(steps in steps()) {
        with_colliding_hashes(|| run(&steps))?;
    }
}

/// Rows sit back to back in one pool, so where a row ends is part of the
/// key: the same bytes (or ids) split differently are different entries.
#[test]
fn pool_boundaries_are_part_of_the_key() {
    pool_boundaries();
    with_colliding_hashes(pool_boundaries);
}

fn pool_boundaries() {
    let mut u = Universe::new();
    let ab = u.symbols.intern("ab");
    let c = u.symbols.intern("c");
    assert_ne!(ab, c);
    for absent in ["a", "b", "bc", "abc", ""] {
        assert_eq!(u.symbols.lookup(absent), None, "{absent:?}");
    }
    let a = u.symbols.intern("a");
    let bc = u.symbols.intern("bc");
    let empty = u.symbols.intern("");
    let all = [ab, c, a, bc, empty];
    assert_eq!(
        all.map(Symbol::index),
        [0, 1, 2, 3, 4],
        "dense, allocation-ordered"
    );
    for (sym, name) in all.into_iter().zip(["ab", "c", "a", "bc", ""]) {
        assert_eq!(u.symbols.resolve(sym), name);
        assert_eq!(u.symbols.lookup(name), Some(sym));
    }
    assert_eq!(u.symbols.intern(""), empty, "the empty symbol is a symbol");

    // Same for argument rows: p(t0,t1), q(t2) against p(t0), q(t1,t2),
    // nullary atoms in between, and one row under two predicates.
    let p = u.pred("p", 0).unwrap();
    let q = u.pred("q", 0).unwrap();
    let t: Vec<TermId> = ["x", "y", "z"].iter().map(|n| u.constant(n)).collect();
    let p01 = u.atoms.intern_ref(p, &t[..2]);
    let q2 = u.atoms.intern_ref(q, &t[2..]);
    assert_eq!(u.atoms.lookup(p, &t[..1]), None);
    assert_eq!(u.atoms.lookup(q, &t[1..]), None);
    assert_eq!(u.atoms.lookup(p, &t), None);
    assert_eq!(u.atoms.lookup(p, &[]), None);
    let p_nullary = u.atoms.intern_ref(p, &[]);
    let q_nullary = u.atoms.intern_ref(q, &[]);
    let p0 = u.atoms.intern_ref(p, &t[..1]);
    let q12 = u.atoms.intern_ref(q, &t[1..]);
    let q01 = u.atoms.intern_ref(q, &t[..2]);
    let ids = [p01, q2, p_nullary, q_nullary, p0, q12, q01];
    assert_eq!(ids.map(AtomId::index), [0, 1, 2, 3, 4, 5, 6]);
    assert_eq!(u.atoms.args(p_nullary), &[] as &[TermId]);
    assert_eq!(u.atoms.pred(q_nullary), q);
    assert_eq!(u.atoms.args(q12), &t[1..]);
    assert_eq!(u.atoms.lookup(p, &t[..2]), Some(p01));
    assert_eq!(u.atoms.lookup(q, &t[..2]), Some(q01));

    // And for Skolem arguments; a nullary Skolem term is not a constant.
    let f = u.skolem_fn("f", 0).unwrap();
    let g = u.skolem_fn("g", 0).unwrap();
    let f01 = u.terms.skolem_ref(f, &t[..2]);
    let g2 = u.terms.skolem_ref(g, &t[2..]);
    assert_ne!(f01, g2);
    assert_eq!(u.terms.lookup_skolem(f, &t[..1]), None);
    assert_eq!(u.terms.lookup_skolem(g, &t[1..]), None);
    assert_eq!(u.terms.lookup_skolem(g, &t[..2]), None);
    let f_nullary = u.terms.skolem_ref(f, &[]);
    assert!(u.terms.is_null(f_nullary));
    assert_eq!(u.terms.depth(f_nullary), 1);
    assert_eq!(u.terms.lookup_skolem(g, &[]), None);
    assert_eq!(u.terms.lookup_skolem(f, &[]), Some(f_nullary));
}
