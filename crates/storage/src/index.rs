//! Secondary indexes over sets of ground atoms, used by the query engine's
//! homomorphism search.

use wfdl_core::csr::{self, RowEdits};
use wfdl_core::idtable::hash_words;
use wfdl_core::{AtomId, IdTable, PredId, TermId, Universe};

/// An index over a collection of ground atoms supporting
/// lookup-by-predicate and lookup-by-(predicate, argument position, term).
///
/// Built once, read many times: both lookups are CSR arrays (one row per
/// predicate; one row per distinct `(pred, pos, term)` key, found through
/// an [`IdTable`] over the key array), so an index is a handful of flat
/// allocations however many atoms it covers. Every row lists its atoms in
/// the order [`AtomIndex::build`] received them.
#[derive(Clone, Debug, Default)]
pub struct AtomIndex {
    /// Row of predicate `p` is `pred_atoms[pred_end[p]..pred_end[p + 1]]`
    /// (`pred_end[0] = 0`); predicates past the end — declared after the
    /// build — have no row.
    pred_end: Vec<u32>,
    pred_atoms: Vec<AtomId>,
    /// The distinct keys in discovery order behind a leading sentinel:
    /// key `k` is `keys[k + 1]`, its row `key_atoms[keys[k].end..keys[k + 1].end]`.
    keys: Vec<KeyRow>,
    key_atoms: Vec<AtomId>,
    table: IdTable,
}

/// A `(pred, pos, term)` key and where its row of `key_atoms` ends; the
/// row starts where the previous key's ends, so a lookup reads two
/// neighbouring records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct KeyRow {
    pred: PredId,
    pos: u32,
    term: TermId,
    end: u32,
}

impl KeyRow {
    /// The record in front of the first key: where row 0 starts.
    fn sentinel() -> KeyRow {
        KeyRow {
            pred: PredId::from_index(0),
            pos: 0,
            term: TermId::from_index(0),
            end: 0,
        }
    }

    #[inline]
    fn is(&self, pred: PredId, pos: u32, term: TermId) -> bool {
        self.pred == pred && self.pos == pos && self.term == term
    }
}

#[inline]
fn hash_key(pred: PredId, pos: u32, term: TermId) -> u32 {
    // Ids are `u32`s inside: the casts are exact.
    hash_words(pred.index() as u32, [pos, term.index() as u32])
}

impl AtomIndex {
    /// Builds an index over `atoms`.
    ///
    /// Two passes, a stable counting sort: the first counts each row (and
    /// discovers the keys), a running sum turns the counts into row
    /// starts, and the second pass drops every atom at its row's cursor —
    /// which leaves each cursor at its row's end, the form lookups read.
    pub fn build(universe: &Universe, atoms: impl IntoIterator<Item = AtomId>) -> Self {
        let store = &universe.atoms;
        let atoms: Vec<AtomId> = atoms.into_iter().collect();

        // Row sizes per predicate, and how many arguments there are: every
        // array below but the key table is then allocated once. Offsets
        // are `u32`; the two totals checked here bound every one of them.
        let _ = wfdl_core::dense_u32(atoms.len(), "atom index");
        let mut pred_end = vec![0u32; universe.num_preds() + 1];
        let mut num_args = 0usize;
        for &atom in &atoms {
            let pred = store.pred(atom).index();
            if pred + 1 >= pred_end.len() {
                pred_end.resize(pred + 2, 0);
            }
            pred_end[pred + 1] += 1;
            num_args += store.args(atom).len();
        }
        let _ = wfdl_core::dense_u32(num_args, "atom index arguments");

        // Row sizes per key, discovering the keys; each argument's key is
        // remembered so that the fill below hashes nothing.
        let mut keys = Vec::with_capacity(num_args + 1);
        keys.push(KeyRow::sentinel());
        let mut table = IdTable::with_capacity(atoms.len());
        let mut key_of_arg: Vec<u32> = Vec::with_capacity(num_args);
        for &atom in &atoms {
            let pred = store.pred(atom);
            for (pos, &term) in store.args(atom).iter().enumerate() {
                let pos = pos as u32;
                let hash = hash_key(pred, pos, term);
                let found = table.find(hash, |k| keys[k as usize + 1].is(pred, pos, term));
                let k = found.unwrap_or_else(|| {
                    let k = (keys.len() - 1) as u32;
                    keys.push(KeyRow {
                        pred,
                        pos,
                        term,
                        end: 0,
                    });
                    table.insert_new(hash, k);
                    k
                });
                keys[k as usize + 1].end += 1;
                key_of_arg.push(k);
            }
        }
        keys.shrink_to_fit();

        let mut start = 0u32;
        for end in &mut pred_end[1..] {
            start += std::mem::replace(end, start);
        }
        let mut start = 0u32;
        for key in &mut keys[1..] {
            start += std::mem::replace(&mut key.end, start);
        }

        let filler = AtomId::from_index(0);
        let mut pred_atoms = vec![filler; atoms.len()];
        let mut key_atoms = vec![filler; key_of_arg.len()];
        let mut arg_keys = key_of_arg.iter();
        for &atom in &atoms {
            let cursor = &mut pred_end[store.pred(atom).index() + 1];
            pred_atoms[*cursor as usize] = atom;
            *cursor += 1;
            for &k in arg_keys.by_ref().take(store.args(atom).len()) {
                let cursor = &mut keys[k as usize + 1].end;
                key_atoms[*cursor as usize] = atom;
                *cursor += 1;
            }
        }

        AtomIndex {
            pred_end,
            pred_atoms,
            keys,
            key_atoms,
            table,
        }
    }

    /// The index over the same atoms minus `removed` plus `added`, derived
    /// from this one instead of rebuilt: keys and table are copied, keys
    /// that appear are appended, and the predicate and key rows of exactly
    /// the atoms named are [spliced](csr::splice) — cost one copy of the
    /// index plus work proportional to the two lists, where
    /// [`AtomIndex::build`] hashes every argument of every atom.
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
        // `(row, atom)` per row each of `atoms` sits in, grouped by row.
        fn by_row(
            atoms: &[AtomId],
            mut rows_of: impl FnMut(AtomId, &mut Vec<(u32, AtomId)>),
        ) -> Vec<(u32, AtomId)> {
            let mut pairs = Vec::new();
            for &atom in atoms {
                rows_of(atom, &mut pairs);
            }
            // Ascending atoms, so a stable sort by row keeps rows ascending.
            pairs.sort_by_key(|&(row, _)| row);
            pairs
        }

        // Predicate rows; predicates declared since the build get rows.
        let old_preds = self.pred_end.len().saturating_sub(1);
        let mut num_preds = old_preds.max(universe.num_preds());
        let mut pred_row = |atom: AtomId, out: &mut Vec<(u32, AtomId)>| {
            let pred = store.pred(atom).index();
            num_preds = num_preds.max(pred + 1);
            out.push((pred as u32, atom));
        };
        let (gone, new) = (by_row(removed, &mut pred_row), by_row(added, &mut pred_row));
        let inserted: Vec<u32> = (old_preds as u32..num_preds as u32).collect();
        let old_end: &[u32] = if self.pred_end.is_empty() {
            &[0]
        } else {
            &self.pred_end
        };
        let (pred_end, pred_atoms) = csr::splice(
            old_end,
            &self.pred_atoms,
            &RowEdits {
                inserted: &inserted,
                removed: &gone,
                added: &new,
                ..RowEdits::default()
            },
        );

        // Key rows; keys seen for the first time are appended (at most one
        // per argument of an added atom: room for them up front, so the
        // copy is the only time the key array moves).
        let new_args: usize = added.iter().map(|&atom| store.args(atom).len()).sum();
        let mut keys = Vec::with_capacity(self.keys.len().max(1) + new_args);
        keys.extend_from_slice(&self.keys);
        if keys.is_empty() {
            keys.push(KeyRow::sentinel());
        }
        let old_keys = keys.len() - 1;
        let mut table = self.table.clone();
        let mut key_rows = |atom: AtomId, out: &mut Vec<(u32, AtomId)>| {
            let pred = store.pred(atom);
            for (pos, &term) in store.args(atom).iter().enumerate() {
                let pos = pos as u32;
                let hash = hash_key(pred, pos, term);
                let found = table.find(hash, |k| keys[k as usize + 1].is(pred, pos, term));
                let k = found.unwrap_or_else(|| {
                    let k = (keys.len() - 1) as u32;
                    keys.push(KeyRow {
                        pred,
                        pos,
                        term,
                        end: 0,
                    });
                    table.insert_new(hash, k);
                    k
                });
                out.push((k, atom));
            }
        };
        let (gone, new) = (by_row(removed, &mut key_rows), by_row(added, &mut key_rows));
        let inserted: Vec<u32> = (old_keys as u32..(keys.len() - 1) as u32).collect();
        // The offsets live in the key records: read the old ones there and
        // write the new ones into the copy.
        let mut next = 1;
        let key_atoms = csr::splice_with(
            old_keys,
            |k| self.keys[k].end,
            &self.key_atoms,
            &RowEdits {
                inserted: &inserted,
                removed: &gone,
                added: &new,
                ..RowEdits::default()
            },
            |end| {
                keys[next].end = end;
                next += 1;
            },
        );
        debug_assert_eq!(next, keys.len());

        AtomIndex {
            pred_end,
            pred_atoms,
            keys,
            key_atoms,
            table,
        }
    }

    /// Atoms with the given predicate.
    pub fn with_pred(&self, pred: PredId) -> &[AtomId] {
        match self.pred_end.get(pred.index()..pred.index() + 2) {
            Some(&[start, end]) => &self.pred_atoms[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Atoms with the given predicate whose `pos`-th argument is `term`.
    pub fn with_pred_pos_term(&self, pred: PredId, pos: u32, term: TermId) -> &[AtomId] {
        let found = self.table.find(hash_key(pred, pos, term), |k| {
            self.keys[k as usize + 1].is(pred, pos, term)
        });
        match found {
            Some(k) => {
                let k = k as usize;
                &self.key_atoms[self.keys[k].end as usize..self.keys[k + 1].end as usize]
            }
            None => &[],
        }
    }

    /// The most selective candidate list for a predicate given optional
    /// known argument values: picks the shortest among the per-position
    /// lists and the full predicate list.
    pub fn candidates(
        &self,
        pred: PredId,
        known: impl Iterator<Item = (u32, TermId)>,
    ) -> &[AtomId] {
        let mut best = self.with_pred(pred);
        for (pos, term) in known {
            let list = self.with_pred_pos_term(pred, pos, term);
            if list.len() < best.len() {
                best = list;
            }
        }
        best
    }

    /// Number of indexed atoms.
    pub fn len(&self) -> usize {
        self.pred_atoms.len()
    }

    /// True iff no atoms are indexed.
    pub fn is_empty(&self) -> bool {
        self.pred_atoms.is_empty()
    }

    /// Heap bytes held by the index: O(1), a sum of capacities.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pred_end.capacity() * size_of::<u32>()
            + (self.pred_atoms.capacity() + self.key_atoms.capacity()) * size_of::<AtomId>()
            + self.keys.capacity() * size_of::<KeyRow>()
            + self.table.heap_bytes()
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
                        csr.with_pred_pos_term(pred, pos, term),
                        map.with_pred_pos_term(pred, pos, term),
                        "{pred:?} {pos} {term:?}"
                    );
                }
            }
        }
    }

    const ARITIES: [usize; 4] = [0, 1, 2, 3];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Identical slices in identical order, for random atom lists (with
        /// repeats, nullary atoms, and atoms of the universe left out).
        #[test]
        fn csr_index_matches_the_map_of_vecs(
            interned in proptest::collection::vec((0usize..4, 0usize..216), 0..120),
            picked in proptest::collection::vec(0usize..120, 0..200),
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
            assert_same_answers(&u, &csr, &map);

            // Names the index has never heard of: a predicate and a term
            // declared after it was built.
            let late_pred = u.pred("late", 1).unwrap();
            let late_term = u.constant("late");
            prop_assert!(csr.with_pred(late_pred).is_empty());
            prop_assert!(csr.with_pred_pos_term(late_pred, 0, consts[0]).is_empty());
            prop_assert!(csr.with_pred_pos_term(preds[1], 0, late_term).is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `patched` answers every lookup with the slice a fresh `build`
        /// over the edited (ascending) atom list returns: random flips in
        /// and out, rows that empty out, keys and a predicate that appear
        /// only after the first build, and patches of patches.
        #[test]
        fn patched_index_matches_a_fresh_build(
            interned in proptest::collection::vec((0usize..4, 0usize..216), 1..60),
            member in proptest::collection::vec(any::<bool>(), 60),
            late in proptest::collection::vec(0usize..6, 0..4),
            flips in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..12), 1..4),
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

            for round in &flips {
                let mut flipped: Vec<usize> = round.iter().map(|&i| i % atoms.len()).collect();
                flipped.sort_unstable();
                flipped.dedup();
                let (mut removed, mut added) = (Vec::new(), Vec::new());
                for &i in &flipped {
                    if inside[i] { removed.push(atoms[i]) } else { added.push(atoms[i]) }
                    inside[i] = !inside[i];
                }
                index = index.patched(&u, &removed, &added);
                let fresh = AtomIndex::build(&u, listed(&inside, &atoms));
                prop_assert_eq!(index.len(), fresh.len());
                let positions = u.schema_stats().max_arity as u32 + 1;
                for pred in u.pred_ids() {
                    prop_assert_eq!(index.with_pred(pred), fresh.with_pred(pred), "{:?}", pred);
                    for pos in 0..positions {
                        for term in u.terms.ids() {
                            prop_assert_eq!(
                                index.with_pred_pos_term(pred, pos, term),
                                fresh.with_pred_pos_term(pred, pos, term),
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
            assert!(idx.with_pred_pos_term(p, 0, c).is_empty());
            assert!(idx.candidates(p, [(0, c)].into_iter()).is_empty());
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
        assert!(idx.with_pred_pos_term(flag, 0, c).is_empty());
        assert_eq!(idx.with_pred_pos_term(p, 0, c), &[pc]);
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
        assert_eq!(idx.with_pred_pos_term(e, 0, n1), &[e12, e13]);
        assert_eq!(idx.with_pred_pos_term(e, 1, n3), &[e13, e23]);
        assert!(idx.with_pred_pos_term(e, 1, n1).is_empty());
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
        let c = idx.candidates(e, [(0, hub), (1, spoke)].into_iter());
        assert_eq!(c.len(), 1);
    }
}
