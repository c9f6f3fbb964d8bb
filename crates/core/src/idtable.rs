//! The open-addressing id table behind every interning store: the symbol
//! table's, the term store's, one per predicate in the atom store, and
//! each key table of the query index.
//!
//! A store keeps its keys in pools of its own (argument pools, a byte pool,
//! all copy-on-write chunked arrays) and assigns dense ids in allocation
//! order; this table only maps a
//! key's *hash* to candidate ids. A slot is a tag byte and `(hash, id)` —
//! no pointer — so copying a level is two `memcpy`s, dropping it two
//! `free`s, and growing it re-places entries from the stored hashes without
//! ever looking at a key. Nothing iterates a table, so its layout cannot
//! leak into ids, interning order or results.
//!
//! A table has two levels: a frozen base behind an [`Arc`], shared by every
//! clone, and an owned level that takes what was interned since the base
//! was frozen. A clone copies the owned level only.

use crate::chunked::Footprint;
use crate::fxhash::mix64;
use std::sync::Arc;

/// Folds a 64-bit Fx digest to the 32 bits a slot stores. Fx's low bits
/// are weak (the last step is a multiplication), so the high half is
/// xor-ed in before the low bits pick the home slot.
#[inline]
pub(crate) fn fold(h: u64) -> u32 {
    #[cfg(test)]
    if COLLIDE.with(std::cell::Cell::get) {
        return h as u32 & 3;
    }
    ((h >> 32) ^ h) as u32
}

#[cfg(test)]
thread_local! {
    /// Test switch (per thread; set it before the stores are created):
    /// fold every hash to two bits. A slot stores 32 hash bits and a key
    /// is compared only when they match, which shields the stores' key
    /// comparisons from any test of ordinary size; with this set nearly
    /// every probe meets an equal stored hash and the comparison decides.
    pub(crate) static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Hash of a key made of a head word followed by `u32` ids.
#[inline]
pub fn hash_words(head: u32, rest: impl IntoIterator<Item = u32>) -> u32 {
    let mut h = mix64(0, u64::from(head));
    for w in rest {
        h = mix64(h, u64::from(w));
    }
    fold(h)
}

/// Maps hashes to dense `u32` ids. Keys live with the caller, who supplies
/// the equality test on a candidate id.
///
/// Two levels, each a flat open-addressing table: a frozen base behind
/// an [`Arc`], shared by every clone, and an owned level. A probe reads
/// the base first and the owned level after a miss there: nearly every
/// key a read or a resume finds was interned before the last freeze, and
/// such a key then costs one probe, as in a flat table. An insert writes
/// the owned level only. [`IdTable::freeze`] turns the owned level into
/// the base when there is none yet, and merges the two into a new base
/// once the owned level outgrows an eighth of the base — so a probe never
/// reads more than two levels, and a merge costs `O(1)` amortized per
/// entry. A table that is never frozen (a cold build, a key table) is one
/// flat level, probed as such.
#[derive(Clone, Debug, Default)]
pub struct IdTable {
    base: Option<Arc<Flat>>,
    own: Flat,
}

/// One level of an [`IdTable`]: power-of-two capacity, linear probing,
/// load at most 7/8.
///
/// Probing walks a one-byte-per-slot tag array (a miss usually never
/// leaves it, and it is small enough to stay cached beside a large
/// store); the eight-byte `(hash, id)` slot is read only on a tag match.
#[derive(Clone, Debug, Default)]
struct Flat {
    /// `0` = empty slot, else `0x80 |` the hash's top seven bits.
    tags: Vec<u8>,
    /// `(hash, id)` of every occupied slot.
    slots: Vec<(u32, u32)>,
    len: usize,
}

/// The empty slot that ended a missed [`IdTable::find_or_vacant`] probe.
#[derive(Clone, Copy, Debug)]
pub struct Vacant(usize);

#[inline]
fn tag_of(hash: u32) -> u8 {
    // The top bits: the low ones pick the home slot.
    (hash >> 25) as u8 | 0x80
}

impl IdTable {
    /// A table that holds `entries` ids without growing.
    pub fn with_capacity(entries: usize) -> Self {
        IdTable {
            base: None,
            own: Flat::with_capacity(entries),
        }
    }

    /// The id stored under `hash` for which `eq` holds, if any.
    #[inline]
    pub fn find(&self, hash: u32, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.find_or_vacant(hash, eq).ok()
    }

    /// The id stored under `hash` for which `eq` holds, or the empty slot
    /// that ended the probe of the owned level — where
    /// [`IdTable::insert_new`] would place the key, so
    /// [`IdTable::insert_vacant`] need not walk the probe again.
    #[inline]
    pub fn find_or_vacant(
        &self,
        hash: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> Result<u32, Vacant> {
        if let Some(base) = &self.base {
            if let Ok(id) = base.find_or_vacant(hash, &mut eq) {
                return Ok(id);
            }
        }
        self.own.find_or_vacant(hash, eq)
    }

    /// Records `id` under `hash` in the slot a miss of
    /// [`IdTable::find_or_vacant`] returned; the table must not have
    /// changed since.
    #[inline]
    pub fn insert_vacant(&mut self, vacant: Vacant, hash: u32, id: u32) {
        self.own.insert_vacant(vacant, hash, id);
    }

    /// Records `id` under `hash`. The caller has established (with
    /// [`IdTable::find`]) that no equal key is present.
    pub fn insert_new(&mut self, hash: u32, id: u32) {
        self.own.insert_new(hash, id);
    }

    /// Makes what was interned so far the shared base, when that is cheap:
    /// with no base yet the owned level becomes it (no copy); once the
    /// owned level holds more than an eighth of the base's entries, the
    /// two merge into a new base (the old base is copied if a clone still
    /// holds it); otherwise nothing changes. Call it before the table is
    /// cloned, so that the clone shares the base.
    pub fn freeze(&mut self) {
        if self.own.len == 0 {
            return;
        }
        match &mut self.base {
            None => self.base = Some(Arc::new(std::mem::take(&mut self.own))),
            Some(base) if self.own.len * 8 > base.len => {
                let base = Arc::make_mut(base);
                let own = std::mem::take(&mut self.own);
                for (tag, (hash, id)) in own.tags.into_iter().zip(own.slots) {
                    if tag != 0 {
                        base.insert_new(hash, id);
                    }
                }
            }
            Some(_) => {}
        }
    }

    /// Heap bytes held by the table, both levels.
    pub fn heap_bytes(&self) -> usize {
        self.footprint().held
    }

    /// The heap bytes of both levels: the base is owned while no other
    /// clone holds it, the owned level always.
    pub fn footprint(&self) -> Footprint {
        let own = self.own.heap_bytes();
        let base = self.base.as_ref().map_or(Footprint::default(), |base| {
            let held = base.heap_bytes();
            let owned = if Arc::strong_count(base) == 1 {
                held
            } else {
                0
            };
            Footprint { held, owned }
        });
        base + Footprint {
            held: own,
            owned: own,
        }
    }
}

impl Flat {
    /// A level that holds `entries` ids without growing.
    fn with_capacity(entries: usize) -> Self {
        let slots = (entries.saturating_mul(8) / 7 + 1).next_power_of_two();
        Self::with_slots(slots.max(8))
    }

    fn with_slots(slots: usize) -> Self {
        Flat {
            tags: vec![0; slots],
            slots: vec![(0, 0); slots],
            len: 0,
        }
    }

    /// The id stored under `hash` for which `eq` holds, if any.
    #[cfg(test)]
    fn find(&self, hash: u32, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.find_or_vacant(hash, eq).ok()
    }

    /// The id stored under `hash` for which `eq` holds, or the empty slot
    /// that ended the probe — where [`Flat::insert_new`] would place the key,
    /// so [`Flat::insert_vacant`] need not walk the probe again.
    #[inline]
    fn find_or_vacant(&self, hash: u32, mut eq: impl FnMut(u32) -> bool) -> Result<u32, Vacant> {
        if self.tags.is_empty() {
            return Err(Vacant(0));
        }
        let mask = self.tags.len() - 1;
        let tag = tag_of(hash);
        let mut i = hash as usize & mask;
        // Terminates: the load bound leaves at least one empty slot.
        loop {
            let t = self.tags[i];
            if t == 0 {
                return Err(Vacant(i));
            }
            if t == tag {
                let (h, id) = self.slots[i];
                if h == hash && eq(id) {
                    return Ok(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `id` under `hash` in the slot a miss of
    /// [`Flat::find_or_vacant`] returned; the level must not have
    /// changed since. An insert that crosses the load bound (or into an
    /// empty level) grows and places as [`Flat::insert_new`] does, so
    /// the layout is the same either way.
    #[inline]
    fn insert_vacant(&mut self, vacant: Vacant, hash: u32, id: u32) {
        // An empty table crosses the bound with its first insert.
        if (self.len + 1) * 8 > self.tags.len() * 7 {
            self.insert_new(hash, id);
            return;
        }
        debug_assert_eq!(self.tags[vacant.0], 0, "the table changed since the probe");
        self.tags[vacant.0] = tag_of(hash);
        self.slots[vacant.0] = (hash, id);
        self.len += 1;
    }

    /// Records `id` under `hash`. The caller has established that no equal
    /// key is present.
    fn insert_new(&mut self, hash: u32, id: u32) {
        if (self.len + 1) * 8 > self.tags.len() * 7 {
            self.grow();
        }
        self.place(hash, id);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = Self::with_slots((self.tags.len() * 2).max(8));
        let old = std::mem::replace(self, doubled);
        for (tag, (hash, id)) in old.tags.into_iter().zip(old.slots) {
            if tag != 0 {
                self.place(hash, id);
            }
        }
        self.len = old.len;
    }

    #[inline]
    fn place(&mut self, hash: u32, id: u32) {
        let mask = self.tags.len() - 1;
        let mut i = hash as usize & mask;
        while self.tags[i] != 0 {
            i = (i + 1) & mask;
        }
        self.tags[i] = tag_of(hash);
        self.slots[i] = (hash, id);
    }

    /// Heap bytes held by the level.
    fn heap_bytes(&self) -> usize {
        self.tags.capacity() + self.slots.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn empty_table_finds_nothing() {
        let t = IdTable::default();
        assert_eq!(t.find(7, |_| true), None);
        assert_eq!(t.heap_bytes(), 0);
    }

    #[test]
    fn colliding_hashes_are_told_apart_by_the_callers_keys() {
        // Every key hashes to the same slot: the worst case for probing.
        let keys: Vec<u32> = (0..100).map(|i| i * 3).collect();
        let mut t = Flat::default();
        for (id, _) in keys.iter().enumerate() {
            t.insert_new(42, id as u32);
        }
        assert_eq!(t.len, keys.len());
        for (id, &k) in keys.iter().enumerate() {
            assert_eq!(t.find(42, |c| keys[c as usize] == k), Some(id as u32));
        }
        assert_eq!(t.find(42, |_| false), None);
        assert_eq!(t.find(43, |_| true), None);
    }

    #[test]
    fn growth_keeps_every_entry_and_the_load_bound() {
        let mut t = Flat::with_capacity(4);
        for id in 0..10_000u32 {
            t.insert_new(hash_words(id, []), id);
            assert!(t.len * 8 <= t.tags.len() * 7);
        }
        for id in 0..10_000u32 {
            assert_eq!(t.find(hash_words(id, []), |c| c == id), Some(id));
        }
    }

    /// Interns `keys` (with repeats) into two levels, one through
    /// `find_or_vacant` + `insert_vacant` and one through `find` +
    /// `insert_new`, asserting after every step that both hand out the
    /// same ids and hold the same slots.
    fn one_walk_matches_two(keys: &[u32]) {
        let (mut one, mut two) = (Flat::default(), Flat::default());
        let (mut one_keys, mut two_keys) = (Vec::new(), Vec::new());
        for &k in keys {
            let hash = hash_words(k, []);
            let a = match one.find_or_vacant(hash, |id| one_keys[id as usize] == k) {
                Ok(id) => id,
                Err(vacant) => {
                    let id = one_keys.len() as u32;
                    one_keys.push(k);
                    one.insert_vacant(vacant, hash, id);
                    id
                }
            };
            let b = match two.find(hash, |id| two_keys[id as usize] == k) {
                Some(id) => id,
                None => {
                    let id = two_keys.len() as u32;
                    two_keys.push(k);
                    two.insert_new(hash, id);
                    id
                }
            };
            assert_eq!(a, b, "key {k}");
            assert_eq!((one.len, &one.tags), (two.len, &two.tags), "key {k}");
            assert_eq!(one.slots, two.slots, "key {k}");
        }
        for k in 0..=keys.iter().copied().max().unwrap_or(0) + 1 {
            let hash = hash_words(k, []);
            let a = one.find(hash, |id| one_keys[id as usize] == k);
            assert_eq!(a, two.find(hash, |id| two_keys[id as usize] == k));
            assert_eq!(
                a,
                one.find_or_vacant(hash, |id| one_keys[id as usize] == k)
                    .ok()
            );
        }
    }

    #[test]
    fn one_walk_interning_keeps_the_table_layout() {
        // The first insert meets an empty table; 300 distinct keys cross
        // the load bound six times; every key comes back once as a hit.
        let keys: Vec<u32> = (0..300).chain((0..300).rev()).collect();
        one_walk_matches_two(&keys);
        // Every hash folded to two bits: long runs of equal stored hashes,
        // where the keys decide.
        let few: Vec<u32> = (0..60).chain((0..60).rev()).collect();
        COLLIDE.with(|c| c.set(true));
        one_walk_matches_two(&few);
        COLLIDE.with(|c| c.set(false));
    }

    #[test]
    fn presized_table_does_not_grow() {
        let mut t = Flat::with_capacity(1000);
        let slots = t.tags.len();
        for id in 0..1000u32 {
            t.insert_new(hash_words(id, []), id);
        }
        assert_eq!(t.tags.len(), slots);
    }

    /// One fork of a two-level table, beside its `HashMap` model: the key
    /// of every id it handed out, and the id of every key.
    #[derive(Clone)]
    struct Side {
        table: IdTable,
        keys: Vec<u32>,
        model: HashMap<u32, u32>,
    }

    /// How often each kind of step took the path it names.
    #[derive(Default)]
    struct Seen {
        moves: usize,
        merges: usize,
        shared_merges: usize,
        no_ops: usize,
        misses_on_both_levels: usize,
    }

    impl Side {
        fn find(&self, k: u32) -> Option<u32> {
            self.table
                .find(hash_words(k, []), |id| self.keys[id as usize] == k)
        }

        fn intern(&mut self, k: u32, seen: &mut Seen) -> Result<(), TestCaseError> {
            let hash = hash_words(k, []);
            let keys = &self.keys;
            match self.table.find_or_vacant(hash, |id| keys[id as usize] == k) {
                Ok(id) => prop_assert_eq!(Some(&id), self.model.get(&k), "key {}", k),
                Err(vacant) => {
                    prop_assert!(!self.model.contains_key(&k), "key {} missed", k);
                    if self.table.base.is_some() && self.table.own.len > 0 {
                        seen.misses_on_both_levels += 1;
                    }
                    let id = self.keys.len() as u32;
                    self.keys.push(k);
                    self.model.insert(k, id);
                    self.table.insert_vacant(vacant, hash, id);
                }
            }
            Ok(())
        }

        fn freeze(&mut self, seen: &mut Seen) -> Result<(), TestCaseError> {
            let (own, base) = (self.table.own.len, self.table.base.as_ref().map(|b| b.len));
            let shared = self
                .table
                .base
                .as_ref()
                .is_some_and(|b| Arc::strong_count(b) > 1);
            self.table.freeze();
            let after = (self.table.own.len, self.table.base.as_ref().map(|b| b.len));
            match base {
                _ if own == 0 => prop_assert_eq!(after, (0, base)),
                None => {
                    seen.moves += 1;
                    prop_assert_eq!(after, (0, Some(own)));
                }
                Some(b) if own * 8 > b => {
                    seen.merges += 1;
                    seen.shared_merges += usize::from(shared);
                    prop_assert_eq!(after, (0, Some(b + own)));
                }
                Some(_) => {
                    seen.no_ops += 1;
                    prop_assert_eq!(after, (own, base));
                }
            }
            Ok(())
        }

        /// Every key of `0..keys` finds what the model says.
        fn check(&self, keys: u32) -> Result<(), TestCaseError> {
            for k in 0..keys {
                prop_assert_eq!(self.find(k), self.model.get(&k).copied(), "key {}", k);
            }
            Ok(())
        }
    }

    /// Interns, clones, freezes and finds on up to four forks of one table.
    fn run_two_levels(steps: &[(u8, usize, u32)], keys: u32) -> Result<Seen, TestCaseError> {
        let mut sides = vec![Side {
            table: IdTable::default(),
            keys: Vec::new(),
            model: HashMap::new(),
        }];
        let mut seen = Seen::default();
        for &(op, at, k) in steps {
            let at = at % sides.len();
            match op {
                0..=9 => sides[at].intern(k % keys, &mut seen)?,
                10 if sides.len() < 4 => sides.push(sides[at].clone()),
                10 => sides[at] = sides[(at + 1) % 4].clone(),
                11 | 12 => sides[at].freeze(&mut seen)?,
                _ => {
                    let side = &sides[at];
                    prop_assert_eq!(side.find(k % keys), side.model.get(&(k % keys)).copied());
                }
            }
        }
        // A fork's inserts show on its side only: each side's own model
        // (forked with it) has every key it holds and nothing else.
        for side in &sides {
            side.check(keys)?;
        }
        Ok(seen)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The two-level table agrees with a `HashMap` per fork through
        /// interleaved interning, clones and the three kinds of freeze.
        #[test]
        fn two_levels_match_a_hashmap_model(
            steps in proptest::collection::vec((0u8..16, 0usize..4, 0u32..4096), 400..800),
        ) {
            for collide in [false, true] {
                COLLIDE.with(|c| c.set(collide));
                let seen = run_two_levels(&steps, if collide { 300 } else { 600 });
                COLLIDE.with(|c| c.set(false));
                let seen = seen?;
                prop_assert!(seen.moves > 0 && seen.merges > 0 && seen.no_ops > 0);
                prop_assert!(seen.shared_merges > 0 && seen.misses_on_both_levels > 0);
            }
        }
    }
}
