//! The open-addressing id table behind every interning store.
//!
//! A store keeps its keys in pools of its own (argument pools, a byte pool,
//! all copy-on-write chunked arrays) and assigns dense ids in allocation
//! order; this table only maps a
//! key's *hash* to candidate ids. A slot is a tag byte and `(hash, id)` —
//! no pointer — so cloning a table is two `memcpy`s, dropping it two
//! `free`s, and growing it re-places entries from the stored hashes without
//! ever looking at a key. Nothing iterates a table, so its layout cannot
//! leak into ids, interning order or results.

use crate::fxhash::mix64;

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

/// Maps hashes to dense `u32` ids: power-of-two capacity, linear probing,
/// load at most 7/8. Keys live with the caller, who supplies the equality
/// test on a candidate id.
///
/// Probing walks a one-byte-per-slot tag array (a miss usually never
/// leaves it, and it is small enough to stay cached beside a large
/// store); the eight-byte `(hash, id)` slot is read only on a tag match.
#[derive(Clone, Debug, Default)]
pub struct IdTable {
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
        let slots = (entries.saturating_mul(8) / 7 + 1).next_power_of_two();
        Self::with_slots(slots.max(8))
    }

    fn with_slots(slots: usize) -> Self {
        IdTable {
            tags: vec![0; slots],
            slots: vec![(0, 0); slots],
            len: 0,
        }
    }

    /// The id stored under `hash` for which `eq` holds, if any.
    #[inline]
    pub fn find(&self, hash: u32, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.find_or_vacant(hash, eq).ok()
    }

    /// The id stored under `hash` for which `eq` holds, or the empty slot
    /// that ended the probe — where [`IdTable::insert_new`] would place the key,
    /// so [`IdTable::insert_vacant`] need not walk the probe again.
    #[inline]
    pub fn find_or_vacant(
        &self,
        hash: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> Result<u32, Vacant> {
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
    /// [`IdTable::find_or_vacant`] returned; the table must not have
    /// changed since. An insert that crosses the load bound (or into an
    /// empty table) grows and places as [`IdTable::insert_new`] does, so
    /// the layout is the same either way.
    #[inline]
    pub fn insert_vacant(&mut self, vacant: Vacant, hash: u32, id: u32) {
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

    /// Records `id` under `hash`. The caller has established (with
    /// [`IdTable::find`]) that no equal key is present.
    pub fn insert_new(&mut self, hash: u32, id: u32) {
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

    /// Heap bytes held by the table.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.tags.capacity() + self.slots.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut t = IdTable::default();
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
        let mut t = IdTable::with_capacity(4);
        for id in 0..10_000u32 {
            t.insert_new(hash_words(id, []), id);
            assert!(t.len * 8 <= t.tags.len() * 7);
        }
        for id in 0..10_000u32 {
            assert_eq!(t.find(hash_words(id, []), |c| c == id), Some(id));
        }
    }

    /// Interns `keys` (with repeats) into two tables, one through
    /// `find_or_vacant` + `insert_vacant` and one through `find` +
    /// `insert_new`, asserting after every step that both hand out the
    /// same ids and hold the same slots.
    fn one_walk_matches_two(keys: &[u32]) {
        let (mut one, mut two) = (IdTable::default(), IdTable::default());
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
        let mut t = IdTable::with_capacity(1000);
        let slots = t.tags.len();
        for id in 0..1000u32 {
            t.insert_new(hash_words(id, []), id);
        }
        assert_eq!(t.tags.len(), slots);
    }
}
