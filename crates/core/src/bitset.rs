//! A growable bitset over dense `u32` ids.
//!
//! The fixpoint engines in `wfdl-wfs` manipulate sets of atoms identified by
//! dense, hash-consed ids; a flat bitset is both the fastest and the smallest
//! representation for the "in the set / not in the set" queries they make in
//! their inner loops.

/// A dynamically sized bitset indexed by `usize`.
///
/// All out-of-range reads answer `false`; writes grow the backing store.
/// Two bitsets are equal iff they hold the same bits, however far either
/// backing store has grown.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of set bits, maintained incrementally.
    len: usize,
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        let shared = self.words.len().min(other.words.len());
        self.len == other.len
            && self.words[..shared] == other.words[..shared]
            && self.words[shared..].iter().all(|&w| w == 0)
            && other.words[shared..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

impl BitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bitset with room for `n` bits without reallocation.
    pub fn with_capacity(n: usize) -> Self {
        BitSet {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// A copy of this set with room for bits below `n` without
    /// reallocation: one allocation, one straight copy.
    pub fn copy_with_capacity(&self, n: usize) -> Self {
        let mut words = Vec::with_capacity(n.div_ceil(64).max(self.words.len()));
        words.extend_from_slice(&self.words);
        BitSet {
            words,
            len: self.len,
        }
    }

    /// Bytes of heap the backing store holds (its capacity), O(1).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        match self.words.get(i / 64) {
            Some(word) => word & (1u64 << (i % 64)) != 0,
            None => false,
        }
    }

    /// Sets bit `i`; returns `true` if it was previously clear.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Clears bit `i`; returns `true` if it was previously set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        self.len -= present as usize;
        present
    }

    /// Removes all bits, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Iterates over set bit indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter { word }.map(move |b| wi * 64 + b))
    }

    /// True iff `self` and `other` share no set bit.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// True iff every bit of `self` is set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words.iter().enumerate().all(|(wi, &w)| {
            let o = other.words.get(wi).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// In-place union; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        let mut len = 0usize;
        for (wi, word) in self.words.iter_mut().enumerate() {
            let o = other.words.get(wi).copied().unwrap_or(0);
            let new = *word | o;
            changed |= new != *word;
            *word = new;
            len += new.count_ones() as usize;
        }
        self.len = len;
        changed
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(!s.contains(100));
        assert!(s.insert(100));
        assert!(!s.insert(100));
        assert!(s.contains(100));
        assert_eq!(s.len(), 1);
        assert!(s.remove(100));
        assert!(!s.remove(100));
        assert!(s.is_empty());
    }

    #[test]
    fn equality_is_over_set_bits_not_capacity() {
        let mut grown = BitSet::new();
        grown.insert(100);
        grown.remove(100);
        assert_eq!(grown, BitSet::new());
        assert_eq!(BitSet::new(), grown);
        grown.insert(3);
        let small: BitSet = [3usize].into_iter().collect();
        assert_eq!(grown, small);
        assert_ne!(grown, BitSet::new());
        // Same count, same leading words, different tail.
        let mut far = small.clone();
        far.remove(3);
        far.insert(100);
        assert_ne!(far, small);
        assert_ne!(small, far);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = BitSet::new();
        for &i in &[5usize, 64, 65, 1000, 0, 63] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 65, 1000]);
    }

    #[test]
    fn union_reports_change() {
        let a: BitSet = [1usize, 2, 3].into_iter().collect();
        let mut b: BitSet = [3usize, 4].into_iter().collect();
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a));
        assert_eq!(b.len(), 4);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn disjoint_across_word_boundaries() {
        let a: BitSet = [63usize].into_iter().collect();
        let b: BitSet = [64usize].into_iter().collect();
        assert!(a.is_disjoint(&b));
        let c: BitSet = [63usize, 64].into_iter().collect();
        assert!(!a.is_disjoint(&c));
    }

    #[test]
    fn out_of_range_reads_are_false() {
        let s = BitSet::new();
        assert!(!s.contains(1 << 20));
        assert!(s.is_subset(&BitSet::new()));
    }
}
