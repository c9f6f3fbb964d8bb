//! Secondary indexes over sets of ground atoms, used by the query engine's
//! homomorphism search.

use std::sync::{Arc, OnceLock};
use wfdl_core::csr::{self, Csr, RowEdits};
use wfdl_core::idtable::hash_words;
use wfdl_core::{AtomId, AtomStore, IdTable, PredId, TermId, Universe};

/// An index over a collection of ground atoms supporting
/// lookup-by-predicate and lookup-by-(predicate, argument position, term).
///
/// Built as far as it is read. [`AtomIndex::build`] lays out one row per
/// predicate (a counting sort: nothing is hashed); the `(position, term)`
/// key table of a predicate is built from that row by the first lookup
/// that binds an argument of it, on the thread that asks, and kept. A
/// predicate nobody asks about by argument — every predicate, for a model
/// that only answers ground asks and scans — never pays for one.
///
/// Every row lists its atoms in the order `build` received them.
#[derive(Clone, Debug, Default)]
pub struct AtomIndex {
    /// Row `p` holds the atoms of predicate `p`; predicates past the end —
    /// declared after the build — have no row.
    preds: Csr<AtomId>,
    /// One slot per predicate row, set by the first bound lookup of that
    /// predicate. A table is shared (not copied) with the indexes
    /// [patched](AtomIndex::patched) from this one whose delta does not
    /// touch the predicate.
    key_tables: Vec<OnceLock<Arc<KeyTable>>>,
}

/// A reading of how much of an [`AtomIndex`] exists ([`AtomIndex::stats`]).
/// It moves with the reads: a bound lookup of a predicate that had no key
/// table adds one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexStats {
    /// [`AtomIndex::heap_bytes`].
    pub bytes: usize,
    /// Predicate rows.
    pub preds: usize,
    /// Predicates whose key table has been built — by a bound lookup on
    /// this index, or on one it was patched from.
    pub key_tables_built: usize,
}

/// The `(pos, term)` lookup of one predicate: a CSR with one row per
/// distinct key, found through an [`IdTable`] over the key array.
#[derive(Debug)]
struct KeyTable {
    /// The distinct keys in discovery order behind a leading sentinel:
    /// key `k` is `keys[k + 1]`, its row `atoms[keys[k].end..keys[k + 1].end]`.
    keys: Vec<KeyRow>,
    atoms: Vec<AtomId>,
    table: IdTable,
}

/// A `(pos, term)` key and where its row of atoms ends; the row starts
/// where the previous key's ends, so a lookup reads two neighbouring
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct KeyRow {
    pos: u32,
    term: TermId,
    end: u32,
}

impl KeyRow {
    /// The record in front of the first key: where row 0 starts.
    fn sentinel() -> KeyRow {
        KeyRow {
            pos: 0,
            term: TermId::from_index(0),
            end: 0,
        }
    }

    #[inline]
    fn is(&self, pos: u32, term: TermId) -> bool {
        self.pos == pos && self.term == term
    }
}

#[inline]
fn hash_key(pos: u32, term: TermId) -> u32 {
    // Ids are `u32`s inside: the cast is exact.
    hash_words(pos, [term.index() as u32])
}

impl KeyTable {
    /// The key of `(pos, term)`, appended with an empty row if it is new.
    fn key_or_insert(&mut self, pos: u32, term: TermId) -> u32 {
        let hash = hash_key(pos, term);
        let keys = &mut self.keys;
        let found = self
            .table
            .find(hash, |k| keys[k as usize + 1].is(pos, term));
        found.unwrap_or_else(|| {
            let k = (keys.len() - 1) as u32;
            keys.push(KeyRow { pos, term, end: 0 });
            self.table.insert_new(hash, k);
            k
        })
    }

    /// The key table of one predicate row.
    ///
    /// Two passes, a stable counting sort: the first counts each key's row
    /// (and discovers the keys), a running sum turns the counts into row
    /// starts, and the second pass drops every atom at its rows' cursors —
    /// which leaves each cursor at its row's end, the form lookups read.
    fn build(store: &AtomStore, row: &[AtomId]) -> KeyTable {
        let num_args: usize = row.iter().map(|&atom| store.args(atom).len()).sum();
        let _ = wfdl_core::dense_u32(num_args, "atom index arguments");
        let mut this = KeyTable {
            keys: Vec::with_capacity(num_args + 1),
            atoms: Vec::new(),
            table: IdTable::with_capacity(row.len()),
        };
        this.keys.push(KeyRow::sentinel());

        // Each argument's key is remembered so that the fill hashes nothing.
        let mut key_of_arg: Vec<u32> = Vec::with_capacity(num_args);
        for &atom in row {
            for (pos, &term) in store.args(atom).iter().enumerate() {
                let k = this.key_or_insert(pos as u32, term);
                this.keys[k as usize + 1].end += 1;
                key_of_arg.push(k);
            }
        }
        this.keys.shrink_to_fit();
        let mut start = 0u32;
        for key in &mut this.keys[1..] {
            start += std::mem::replace(&mut key.end, start);
        }

        this.atoms = vec![AtomId::from_index(0); num_args];
        let mut arg_keys = key_of_arg.iter();
        for &atom in row {
            for &k in arg_keys.by_ref().take(store.args(atom).len()) {
                let cursor = &mut this.keys[k as usize + 1].end;
                this.atoms[*cursor as usize] = atom;
                *cursor += 1;
            }
        }
        this
    }

    /// This table minus `removed` plus `added` (`(_, atom)` pairs of its
    /// predicate, each ascending by atom): keys and table are copied, keys
    /// that appear are appended, and exactly the rows of the atoms named
    /// are [spliced](csr::splice_with).
    fn patched(
        &self,
        store: &AtomStore,
        removed: &[(u32, AtomId)],
        added: &[(u32, AtomId)],
    ) -> KeyTable {
        // Keys seen for the first time are appended (at most one per
        // argument of an added atom: room for them up front, so the copy
        // is the only time the key array moves).
        let new_args: usize = added.iter().map(|&(_, atom)| store.args(atom).len()).sum();
        let mut keys = Vec::with_capacity(self.keys.len() + new_args);
        keys.extend_from_slice(&self.keys);
        let old_keys = keys.len() - 1;
        let mut this = KeyTable {
            keys,
            atoms: Vec::new(),
            table: self.table.clone(),
        };
        let mut by_key = |atoms: &[(u32, AtomId)]| {
            by_row(atoms.iter().map(|&(_, atom)| atom), |atom, out| {
                for (pos, &term) in store.args(atom).iter().enumerate() {
                    out.push((this.key_or_insert(pos as u32, term), atom));
                }
            })
        };
        let (gone, new) = (by_key(removed), by_key(added));
        let inserted: Vec<u32> = (old_keys as u32..(this.keys.len() - 1) as u32).collect();
        // The offsets live in the key records: read the old ones there and
        // write the new ones into the copy.
        let mut next = 1;
        this.atoms = csr::splice_with(
            old_keys,
            |k| self.keys[k].end,
            &self.atoms,
            &RowEdits {
                inserted: &inserted,
                removed: &gone,
                added: &new,
                ..RowEdits::default()
            },
            |end| {
                this.keys[next].end = end;
                next += 1;
            },
        );
        debug_assert_eq!(next, this.keys.len());
        this
    }

    fn row(&self, pos: u32, term: TermId) -> &[AtomId] {
        let found = self.table.find(hash_key(pos, term), |k| {
            self.keys[k as usize + 1].is(pos, term)
        });
        match found {
            Some(k) => {
                let k = k as usize;
                &self.atoms[self.keys[k].end as usize..self.keys[k + 1].end as usize]
            }
            None => &[],
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.keys.capacity() * size_of::<KeyRow>()
            + self.atoms.capacity() * size_of::<AtomId>()
            + self.table.heap_bytes()
    }
}

/// `(row, atom)` per row each of `atoms` (ascending) sits in, grouped by
/// row.
fn by_row(
    atoms: impl Iterator<Item = AtomId>,
    mut rows_of: impl FnMut(AtomId, &mut Vec<(u32, AtomId)>),
) -> Vec<(u32, AtomId)> {
    let mut pairs = Vec::new();
    for atom in atoms {
        rows_of(atom, &mut pairs);
    }
    // Ascending atoms, so a stable sort by row keeps rows ascending.
    pairs.sort_by_key(|&(row, _)| row);
    pairs
}

impl AtomIndex {
    /// Builds an index over `atoms`: the predicate rows only, one
    /// [counting sort](Csr::count), which walks `atoms` more than once and
    /// copies nothing. So pass a borrowing iterator (a slice's
    /// `iter().copied()`), not an owning one: cloning a `Vec`'s iterator
    /// copies the `Vec`.
    pub fn build<I>(universe: &Universe, atoms: I) -> Self
    where
        I: IntoIterator<Item = AtomId>,
        I::IntoIter: Clone,
    {
        let store = &universe.atoms;
        let atoms = atoms.into_iter();
        // Offsets are `u32`; the total checked here bounds every one.
        let _ = wfdl_core::dense_u32(atoms.clone().count(), "atom index");
        let rows = atoms.map(|atom| (store.pred(atom).index() as u32, atom));
        let preds = Csr::count(universe.num_preds(), rows);
        let mut key_tables = Vec::new();
        key_tables.resize_with(preds.num_rows(), OnceLock::new);
        AtomIndex { preds, key_tables }
    }

    /// The index over the same atoms minus `removed` plus `added`, derived
    /// from this one instead of rebuilt: the predicate rows of exactly the
    /// atoms named are [spliced](csr::splice); so is the key table of a
    /// predicate that has one **and** is named by the delta; a key table
    /// the delta does not touch is shared; and a predicate that had none
    /// still has none. Cost: one sequential copy of the predicate rows and
    /// of the touched key tables — a `memcpy` per run of untouched atoms,
    /// inside a touched row too — plus a binary search per atom of the two
    /// lists.
    ///
    /// This index must have been built over atoms in ascending id order
    /// (as the model indexes are); `removed` must be indexed atoms and
    /// `added` unindexed ones, both ascending. Every lookup then returns
    /// the slice a fresh `build` over the edited ascending list would. (A
    /// key whose row empties out stays behind with an empty row.)
    pub fn patched(&self, universe: &Universe, removed: &[AtomId], added: &[AtomId]) -> Self {
        debug_assert!(removed.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(added.windows(2).all(|w| w[0] < w[1]));
        let store = &universe.atoms;

        // Predicate rows; predicates declared since the build get rows.
        let old_preds = self.key_tables.len();
        let mut num_preds = old_preds.max(universe.num_preds());
        let mut pred_row = |atom: AtomId, out: &mut Vec<(u32, AtomId)>| {
            let pred = store.pred(atom).index();
            num_preds = num_preds.max(pred + 1);
            out.push((pred as u32, atom));
        };
        let gone = by_row(removed.iter().copied(), &mut pred_row);
        let new = by_row(added.iter().copied(), &mut pred_row);
        let inserted: Vec<u32> = (old_preds as u32..num_preds as u32).collect();
        let old_end: &[u32] = if self.preds.off.is_empty() {
            &[0]
        } else {
            &self.preds.off
        };
        let preds = csr::splice(
            old_end,
            &self.preds.items,
            &RowEdits {
                inserted: &inserted,
                removed: &gone,
                added: &new,
                ..RowEdits::default()
            },
        );

        let (mut gone, mut new) = (&gone[..], &new[..]);
        let key_tables = (0..num_preds)
            .map(|pred| {
                let (gone, new) = (
                    csr::take_row(&mut gone, pred as u32),
                    csr::take_row(&mut new, pred as u32),
                );
                match self.key_tables.get(pred).and_then(OnceLock::get) {
                    Some(old) if gone.is_empty() && new.is_empty() => {
                        OnceLock::from(Arc::clone(old))
                    }
                    Some(old) => OnceLock::from(Arc::new(old.patched(store, gone, new))),
                    None => OnceLock::new(),
                }
            })
            .collect();

        AtomIndex { preds, key_tables }
    }

    /// Atoms with the given predicate.
    pub fn with_pred(&self, pred: PredId) -> &[AtomId] {
        if pred.index() < self.preds.num_rows() {
            self.preds.row(pred.index())
        } else {
            &[]
        }
    }

    /// Atoms with the given predicate whose `pos`-th argument is `term`.
    ///
    /// The first call that names a predicate builds that predicate's key
    /// table from its row — O(arguments in the row), on the calling
    /// thread; callers racing for the same first lookup wait for the one
    /// that builds. `universe` must see every indexed atom.
    pub fn with_pred_pos_term(
        &self,
        universe: &Universe,
        pred: PredId,
        pos: u32,
        term: TermId,
    ) -> &[AtomId] {
        let row = self.with_pred(pred);
        if row.is_empty() {
            return &[];
        }
        self.key_tables[pred.index()]
            .get_or_init(|| Arc::new(KeyTable::build(&universe.atoms, row)))
            .row(pos, term)
    }

    /// The most selective candidate list for a predicate given optional
    /// known argument values: picks the shortest among the per-position
    /// lists and the full predicate list. With nothing known, no key table
    /// is read (or built).
    pub fn candidates(
        &self,
        universe: &Universe,
        pred: PredId,
        known: impl Iterator<Item = (u32, TermId)>,
    ) -> &[AtomId] {
        let mut best = self.with_pred(pred);
        for (pos, term) in known {
            let list = self.with_pred_pos_term(universe, pred, pos, term);
            if list.len() < best.len() {
                best = list;
            }
        }
        best
    }

    /// Number of indexed atoms.
    pub fn len(&self) -> usize {
        self.preds.items.len()
    }

    /// True iff no atoms are indexed.
    pub fn is_empty(&self) -> bool {
        self.preds.items.is_empty()
    }

    /// How far the index has been built by the reads so far.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            bytes: self.heap_bytes(),
            preds: self.key_tables.len(),
            key_tables_built: self.built().count(),
        }
    }

    fn built(&self) -> impl Iterator<Item = &KeyTable> {
        self.key_tables
            .iter()
            .filter_map(|slot| slot.get().map(Arc::as_ref))
    }

    /// Heap bytes held by the index, the key tables built so far
    /// included (one shared with another index is counted by both): a sum
    /// of capacities, O(predicates).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.preds.off.capacity() * size_of::<u32>()
            + self.preds.items.capacity() * size_of::<AtomId>()
            + self.key_tables.capacity() * size_of::<OnceLock<Arc<KeyTable>>>()
            + self.built().map(KeyTable::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The map-of-`Vec`s index the CSR layout replaced, kept as the
    /// reference the differential test compares against.
    #[derive(Default)]
    struct MapIndex {
        by_pred: HashMap<PredId, Vec<AtomId>>,
        by_pred_pos_term: HashMap<(PredId, u32, TermId), Vec<AtomId>>,
    }

    impl MapIndex {
        fn build(universe: &Universe, atoms: impl IntoIterator<Item = AtomId>) -> Self {
            let mut idx = MapIndex::default();
            for atom in atoms {
                let node = universe.atoms.node(atom);
                idx.by_pred.entry(node.pred).or_default().push(atom);
                for (i, &t) in node.args.iter().enumerate() {
                    idx.by_pred_pos_term
                        .entry((node.pred, i as u32, t))
                        .or_default()
                        .push(atom);
                }
            }
            idx
        }

        fn with_pred(&self, pred: PredId) -> &[AtomId] {
            self.by_pred.get(&pred).map(Vec::as_slice).unwrap_or(&[])
        }

        fn with_pred_pos_term(&self, pred: PredId, pos: u32, term: TermId) -> &[AtomId] {
            self.by_pred_pos_term
                .get(&(pred, pos, term))
                .map(Vec::as_slice)
                .unwrap_or(&[])
        }
    }

    /// Compares the two indexes on every key there is to ask about:
    /// every predicate × every position up to one past the widest arity ×
    /// every term, present or absent.
    fn assert_same_answers(universe: &Universe, csr: &AtomIndex, map: &MapIndex) {
        let positions = universe.schema_stats().max_arity as u32 + 1;
        for pred in universe.pred_ids() {
            assert_eq!(csr.with_pred(pred), map.with_pred(pred), "{pred:?}");
            for pos in 0..positions {
                for term in universe.terms.ids() {
                    assert_eq!(
                        csr.with_pred_pos_term(universe, pred, pos, term),
                        map.with_pred_pos_term(pred, pos, term),
                        "{pred:?} {pos} {term:?}"
                    );
                }
            }
        }
    }

    const ARITIES: [usize; 4] = [0, 1, 2, 3];

    /// A bound lookup of each of `preds` in turn — what builds a key table
    /// — after which exactly the predicates read so far that have atoms
    /// have one.
    fn read(universe: &Universe, index: &AtomIndex, preds: &[PredId], term: TermId) {
        let was_built = |index: &AtomIndex| -> Vec<bool> {
            let built = |slot: &OnceLock<_>| slot.get().is_some();
            index.key_tables.iter().map(built).collect()
        };
        let mut expected = was_built(index);
        for &pred in preds {
            let _ = index.with_pred_pos_term(universe, pred, 0, term);
            if !index.with_pred(pred).is_empty() {
                expected[pred.index()] = true;
            }
        }
        assert_eq!(was_built(index), expected);
        let built = expected.iter().filter(|&&b| b).count();
        assert_eq!(index.stats().key_tables_built, built);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Identical slices in identical order, for random atom lists (with
        /// repeats, nullary atoms, and atoms of the universe left out),
        /// whichever predicates were read first and in whatever order.
        #[test]
        fn csr_index_matches_the_map_of_vecs(
            interned in proptest::collection::vec((0usize..4, 0usize..216), 0..120),
            picked in proptest::collection::vec(0usize..120, 0..200),
            reads in proptest::collection::vec(0usize..4, 0..6),
        ) {
            let mut u = Universe::new();
            let preds: Vec<PredId> = ARITIES
                .iter()
                .map(|&arity| u.pred(&format!("p{arity}"), arity).unwrap())
                .collect();
            let consts: Vec<TermId> = (0..6).map(|i| u.constant(&format!("c{i}"))).collect();
            let atoms: Vec<AtomId> = interned
                .iter()
                .map(|&(p, digits)| {
                    let args: Vec<TermId> = (0..ARITIES[p])
                        .map(|pos| consts[digits / 6usize.pow(pos as u32) % 6])
                        .collect();
                    u.atom(preds[p], args).unwrap()
                })
                .collect();
            let input: Vec<AtomId> = if atoms.is_empty() {
                Vec::new()
            } else {
                picked.iter().map(|&i| atoms[i % atoms.len()]).collect()
            };

            let csr = AtomIndex::build(&u, input.iter().copied());
            let map = MapIndex::build(&u, input.iter().copied());
            prop_assert_eq!(csr.len(), input.len());
            prop_assert_eq!(csr.is_empty(), input.is_empty());
            prop_assert_eq!(csr.stats().preds, preds.len());
            prop_assert_eq!(csr.stats().key_tables_built, 0, "build reads no argument");
            let reads: Vec<PredId> = reads.iter().map(|&p| preds[p]).collect();
            read(&u, &csr, &reads, consts[0]);
            assert_same_answers(&u, &csr, &map);

            // Names the index has never heard of: a predicate and a term
            // declared after it was built.
            let late_pred = u.pred("late", 1).unwrap();
            let late_term = u.constant("late");
            prop_assert!(csr.with_pred(late_pred).is_empty());
            prop_assert!(csr.with_pred_pos_term(&u, late_pred, 0, consts[0]).is_empty());
            prop_assert!(csr.with_pred_pos_term(&u, preds[1], 0, late_term).is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `patched` answers every lookup with the slice a fresh `build`
        /// over the edited (ascending) atom list returns: random flips in
        /// and out, rows that empty out, keys and a predicate that appear
        /// only after the first build, and patches of patches — each patch
        /// applied to an index some of whose predicates (a random subset,
        /// the late one included) have been read and the rest have not, so
        /// key tables are spliced, shared and left unbuilt side by side.
        #[test]
        fn patched_index_matches_a_fresh_build(
            interned in proptest::collection::vec((0usize..4, 0usize..216), 1..60),
            member in proptest::collection::vec(any::<bool>(), 60),
            late in proptest::collection::vec(0usize..6, 0..4),
            flips in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..64, 0..12),
                    proptest::collection::vec(0usize..5, 0..4),
                ),
                1..4,
            ),
        ) {
            let mut u = Universe::new();
            let preds: Vec<PredId> = ARITIES
                .iter()
                .map(|&arity| u.pred(&format!("p{arity}"), arity).unwrap())
                .collect();
            let consts: Vec<TermId> = (0..6).map(|i| u.constant(&format!("c{i}"))).collect();
            let mut atoms: Vec<AtomId> = interned
                .iter()
                .map(|&(p, digits)| {
                    let args: Vec<TermId> = (0..ARITIES[p])
                        .map(|pos| consts[digits / 6usize.pow(pos as u32) % 6])
                        .collect();
                    u.atom(preds[p], args).unwrap()
                })
                .collect();
            atoms.sort_unstable();
            atoms.dedup();
            let mut inside: Vec<bool> = (0..atoms.len()).map(|i| member[i]).collect();
            let listed = |inside: &[bool], atoms: &[AtomId]| -> Vec<AtomId> {
                atoms.iter().zip(inside).filter(|(_, &m)| m).map(|(&a, _)| a).collect()
            };
            let mut index = AtomIndex::build(&u, listed(&inside, &atoms));

            // A predicate, a constant and atoms the first build never saw.
            let late_pred = u.pred("late", 1).unwrap();
            let late_term = u.constant("late");
            for &c in &late {
                atoms.push(u.atom(late_pred, [consts[c]]).unwrap());
                atoms.push(u.atom(preds[2], [late_term, consts[c]]).unwrap());
            }
            atoms.sort_unstable();
            atoms.dedup();
            inside.resize(atoms.len(), false);
            // `inside` was positional over the old list; late atoms have the
            // largest ids, so the old positions did not move.

            let readable = [preds[0], preds[1], preds[2], preds[3], late_pred];
            for (round, reads) in &flips {
                let reads: Vec<PredId> = reads.iter().map(|&p| readable[p]).collect();
                read(&u, &index, &reads, consts[0]);
                let built_before = index.stats().key_tables_built;
                let mut flipped: Vec<usize> = round.iter().map(|&i| i % atoms.len()).collect();
                flipped.sort_unstable();
                flipped.dedup();
                let (mut removed, mut added) = (Vec::new(), Vec::new());
                for &i in &flipped {
                    if inside[i] { removed.push(atoms[i]) } else { added.push(atoms[i]) }
                    inside[i] = !inside[i];
                }
                index = index.patched(&u, &removed, &added);
                prop_assert_eq!(index.stats().key_tables_built, built_before, "a patch builds nothing");
                prop_assert_eq!(index.stats().preds, u.num_preds());
                let fresh = AtomIndex::build(&u, listed(&inside, &atoms));
                prop_assert_eq!(index.len(), fresh.len());
                // The comparison reads every predicate: of a copy, so that
                // the next round patches what only `reads` has built.
                let index = index.clone();
                let positions = u.schema_stats().max_arity as u32 + 1;
                for pred in u.pred_ids() {
                    prop_assert_eq!(index.with_pred(pred), fresh.with_pred(pred), "{:?}", pred);
                    for pos in 0..positions {
                        for term in u.terms.ids() {
                            prop_assert_eq!(
                                index.with_pred_pos_term(&u, pred, pos, term),
                                fresh.with_pred_pos_term(&u, pred, pos, term),
                                "{:?} {} {:?}", pred, pos, term
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_empty_index_answers_everything_with_nothing() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        for idx in [AtomIndex::default(), AtomIndex::build(&u, [])] {
            assert!(idx.is_empty());
            assert_eq!(idx.len(), 0);
            assert!(idx.with_pred(p).is_empty());
            assert!(idx.with_pred_pos_term(&u, p, 0, c).is_empty());
            assert!(idx.candidates(&u, p, [(0, c)].into_iter()).is_empty());
            assert_eq!(idx.stats().key_tables_built, 0);
        }
        assert_eq!(AtomIndex::default().heap_bytes(), 0);
    }

    #[test]
    fn nullary_atoms_are_listed_under_their_predicate_only() {
        let mut u = Universe::new();
        let flag = u.pred("flag", 0).unwrap();
        let p = u.pred("p", 1).unwrap();
        let c = u.constant("c");
        let flag_atom = u.atom(flag, []).unwrap();
        let pc = u.atom(p, [c]).unwrap();
        let idx = AtomIndex::build(&u, [flag_atom, pc]);
        assert_eq!(idx.with_pred(flag), &[flag_atom]);
        assert!(idx.with_pred_pos_term(&u, flag, 0, c).is_empty());
        assert_eq!(idx.with_pred_pos_term(&u, p, 0, c), &[pc]);
        assert!(idx.heap_bytes() > 0);
    }

    #[test]
    fn lookup_by_pred_and_position() {
        let mut u = Universe::new();
        let e = u.pred("edge", 2).unwrap();
        let n1 = u.constant("n1");
        let n2 = u.constant("n2");
        let n3 = u.constant("n3");
        let e12 = u.atom(e, vec![n1, n2]).unwrap();
        let e13 = u.atom(e, vec![n1, n3]).unwrap();
        let e23 = u.atom(e, vec![n2, n3]).unwrap();
        let idx = AtomIndex::build(&u, [e12, e13, e23]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.with_pred(e), &[e12, e13, e23]);
        assert_eq!(idx.with_pred_pos_term(&u, e, 0, n1), &[e12, e13]);
        assert_eq!(idx.with_pred_pos_term(&u, e, 1, n3), &[e13, e23]);
        assert!(idx.with_pred_pos_term(&u, e, 1, n1).is_empty());
    }

    #[test]
    fn a_key_table_is_built_by_the_first_bound_lookup_of_its_predicate() {
        let mut u = Universe::new();
        let e = u.pred("edge", 2).unwrap();
        let m = u.pred("mark", 1).unwrap();
        let a = u.constant("a");
        let b = u.constant("b");
        let eab = u.atom(e, vec![a, b]).unwrap();
        let ma = u.atom(m, vec![a]).unwrap();
        let idx = AtomIndex::build(&u, [eab, ma]);
        let rows_only = idx.heap_bytes();
        assert_eq!((idx.stats().preds, idx.stats().key_tables_built), (2, 0));
        // Neither a scan nor a lookup with nothing known reads a key table.
        assert_eq!(idx.with_pred(e), &[eab]);
        assert_eq!(idx.candidates(&u, e, [].into_iter()), &[eab]);
        assert_eq!(
            (idx.stats().key_tables_built, idx.heap_bytes()),
            (0, rows_only)
        );
        // A bound lookup builds its predicate's table and no other.
        assert_eq!(idx.with_pred_pos_term(&u, e, 1, b), &[eab]);
        assert_eq!(idx.stats().key_tables_built, 1);
        let one_table = idx.heap_bytes();
        assert!(one_table > rows_only);
        assert_eq!(idx.with_pred_pos_term(&u, e, 0, a), &[eab]);
        assert_eq!(
            (idx.stats().key_tables_built, idx.heap_bytes()),
            (1, one_table)
        );

        // A patch that leaves `edge` alone shares its table; `mark`, never
        // read, still has none.
        let mb = u.atom(m, vec![b]).unwrap();
        let patched = idx.patched(&u, &[], &[mb]);
        assert_eq!(patched.stats().key_tables_built, 1);
        let table = |i: &AtomIndex| Arc::as_ptr(i.key_tables[e.index()].get().unwrap());
        assert_eq!(table(&patched), table(&idx), "shared, not copied");
        assert_eq!(patched.with_pred_pos_term(&u, m, 0, b), &[mb]);
        assert_eq!(patched.stats().key_tables_built, 2);
        assert_eq!(
            idx.stats().key_tables_built,
            1,
            "the old index is not touched"
        );
    }

    #[test]
    fn candidates_picks_most_selective() {
        let mut u = Universe::new();
        let e = u.pred("edge", 2).unwrap();
        let hub = u.constant("hub");
        let mut atoms = Vec::new();
        for i in 0..10 {
            let c = u.constant(&format!("n{i}"));
            atoms.push(u.atom(e, vec![hub, c]).unwrap());
        }
        let spoke = u.constant("n3");
        let idx = AtomIndex::build(&u, atoms.iter().copied());
        // Position 0 = hub matches all 10; position 1 = n3 matches 1.
        let c = idx.candidates(&u, e, [(0, hub), (1, spoke)].into_iter());
        assert_eq!(c.len(), 1);
    }
}
