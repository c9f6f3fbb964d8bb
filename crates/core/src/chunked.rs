//! Copy-on-write chunked arrays: the append-only pools that a resumed
//! solve inherits from the model it extends.
//!
//! A [`ChunkVec`] is a prefix of *chunks* of [`CHUNK`] elements each (the
//! last may be shorter) and a flat tail: element `i` below the tail is entry
//! `i % CHUNK` of chunk `i / CHUNK`. Appends and writes to the tail are a
//! `Vec`'s, so a fresh build — all tail — runs at a flat array's speed.
//!
//! `clone()` hands out *frozen* chunks, behind an [`Arc`]: a chunk that is
//! frozen already is shared (a refcount bump), and the rest — the tail, and
//! chunks written since they were cloned — is copied into new frozen chunks
//! of the clone. A write below the tail copies the one chunk it lands in
//! first, which is written in place from then on. So the first resume of a
//! solved model copies what it inherits once, as a flat array would, and a
//! resume of a resumed model shares all of it but the chunks the previous
//! resume wrote and its delta.
//!
//! A [`RowPool`] keeps variable-length rows — CSR data, argument rows —
//! the same way: chunk `k` holds rows `k * CHUNK..(k + 1) * CHUNK`
//! back to back with their `u32` offsets, so a row never straddles two
//! chunks and [`RowPool::row`] is a slice, however long the row. A
//! [`StrPool`] keeps names so, as `str`, and only ever appends.
//!
//! There is no `unsafe` here, and no atomic operation on a read or a write:
//! a frozen chunk is an `Arc<[T]>` whose elements sit right behind the
//! refcounts.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Elements (or, in a [`RowPool`], rows) per chunk — a power of two.
/// Chosen among 1,024, 4,096 and 16,384 by the bytes a resume owns: a
/// 120-fact ingest into 247k atoms owns 443 KB of its segment and ground
/// program at 1,024 (more chunk table to copy), 379 KB at 4,096 and
/// 870 KB at 16,384 (larger chunks to copy where it writes). A solve from
/// scratch builds flat tails and does not depend on it.
pub const CHUNK: usize = 4096;
const SHIFT: u32 = CHUNK.trailing_zeros();
const MASK: usize = CHUNK - 1;
const _: () = assert!(CHUNK.is_power_of_two());

/// One chunk: frozen and possibly shared, or copied to be written.
enum Chunk<T> {
    /// Held by this array alone.
    Own(Vec<T>),
    /// Frozen: `len` elements of `buf` from `start`. A clone freezes the
    /// tail it copies in one buffer, which its chunks then share with
    /// every clone of the array.
    Shared {
        buf: Arc<[T]>,
        start: usize,
        len: usize,
    },
}

impl<T> Chunk<T> {
    #[inline(always)]
    fn as_slice(&self) -> &[T] {
        match self {
            Chunk::Own(v) => v,
            Chunk::Shared { buf, start, len } => &buf[*start..*start + *len],
        }
    }

    /// Element `at` of the chunk, which has one there.
    #[inline(always)]
    fn at(&self, at: usize) -> &T {
        match self {
            Chunk::Own(v) => &v[at],
            Chunk::Shared { buf, start, .. } => &buf[*start + at],
        }
    }

    /// The buffer of a frozen chunk.
    fn buf(&self) -> Option<&Arc<[T]>> {
        match self {
            Chunk::Own(_) => None,
            Chunk::Shared { buf, .. } => Some(buf),
        }
    }

    /// True iff both are the same frozen chunk.
    fn same(&self, other: &Chunk<T>) -> bool {
        match (self, other) {
            (
                Chunk::Shared { buf: a, start, len },
                Chunk::Shared {
                    buf: b,
                    start: s,
                    len: l,
                },
            ) => Arc::ptr_eq(a, b) && (start, len) == (s, l),
            _ => false,
        }
    }
}

impl<T: Clone> Chunk<T> {
    /// The chunk frozen: shared if it is, copied if it is not.
    fn frozen(&self) -> Chunk<T> {
        match self {
            Chunk::Own(v) => Chunk::Shared {
                buf: Arc::from(&v[..]),
                start: 0,
                len: v.len(),
            },
            Chunk::Shared { buf, start, len } => Chunk::Shared {
                buf: Arc::clone(buf),
                start: *start,
                len: *len,
            },
        }
    }

    /// The chunk for writing: a frozen chunk is copied first.
    #[inline]
    fn vec_mut(&mut self) -> &mut Vec<T> {
        if let Chunk::Shared { .. } = self {
            let mut copy = Vec::with_capacity(CHUNK);
            copy.extend_from_slice(self.as_slice());
            *self = Chunk::Own(copy);
        }
        match self {
            Chunk::Own(v) => v,
            Chunk::Shared { .. } => unreachable!("a thawed chunk is owned"),
        }
    }
}

/// The footprint of `chunks`, frozen ones by the buffer they share: a
/// buffer is owned iff no chunk outside `chunks` holds it.
fn chunks_footprint<C, T>(
    chunks: &[C],
    buf: impl Fn(&C) -> Option<&Arc<[T]>>,
    own: impl Fn(&C) -> Footprint,
    held: impl Fn(&C) -> usize,
) -> Footprint {
    // Frozen chunks by buffer: (buffer, chunks of `chunks` holding it, bytes).
    let mut frozen: Vec<(&Arc<[T]>, usize, usize)> = Vec::new();
    let mut sum = Footprint::default();
    for c in chunks {
        match buf(c) {
            None => sum = sum + own(c),
            Some(b) => match frozen.iter_mut().find(|f| Arc::ptr_eq(f.0, b)) {
                Some(f) => (f.1, f.2) = (f.1 + 1, f.2 + held(c)),
                None => frozen.push((b, 1, held(c))),
            },
        }
    }
    for (b, holders, bytes) in frozen {
        let owned = Arc::strong_count(b) == holders;
        sum = sum
            + Footprint {
                held: bytes,
                owned: if owned { bytes } else { 0 },
            };
    }
    sum
}

impl<T> fmt::Debug for Chunk<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self {
            Chunk::Own(_) => "own",
            Chunk::Shared { .. } => "shared",
        };
        write!(f, "{kind} chunk of {}", self.as_slice().len())
    }
}

/// The heap bytes of chunked arrays: everything they hold, and the part no
/// other clone holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Every chunk held, shared or not, the tails and the chunk tables.
    pub held: usize,
    /// The chunks no other clone holds, the tails and the chunk tables.
    pub owned: usize,
}

impl Footprint {
    /// The bytes held in chunks that another clone holds too.
    pub fn shared(self) -> usize {
        self.held - self.owned
    }

    fn of<T>(elements: usize, owned: bool) -> Footprint {
        let held = elements * std::mem::size_of::<T>();
        Footprint {
            held,
            owned: if owned { held } else { 0 },
        }
    }
}

impl std::ops::Add for Footprint {
    type Output = Footprint;

    fn add(self, other: Footprint) -> Footprint {
        Footprint {
            held: self.held + other.held,
            owned: self.owned + other.owned,
        }
    }
}

impl std::iter::Sum for Footprint {
    fn sum<I: Iterator<Item = Footprint>>(iter: I) -> Footprint {
        iter.fold(Footprint::default(), std::ops::Add::add)
    }
}

/// A growable array: copy-on-write chunks and a flat tail (see the module
/// docs).
pub struct ChunkVec<T> {
    /// The elements `0..base`: `ceil(base / CHUNK)` chunks, all full but
    /// the last.
    chunks: Vec<Chunk<T>>,
    base: usize,
    /// The elements `base..`.
    tail: Vec<T>,
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec::new()
    }
}

impl<T> ChunkVec<T> {
    /// An empty array; allocates nothing.
    pub const fn new() -> Self {
        ChunkVec {
            chunks: Vec::new(),
            base: 0,
            tail: Vec::new(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.base + self.tail.len()
    }

    /// True iff the array holds no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element at `i`, if any.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<&T> {
        match i.checked_sub(self.base) {
            Some(t) => self.tail.get(t),
            None => Some(self.chunks[i >> SHIFT].at(i & MASK)),
        }
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// The elements in order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.iter_from(0)
    }

    /// The elements `start..` in order.
    pub fn iter_from(&self, start: usize) -> Iter<'_, T> {
        if let Some(t) = start.checked_sub(self.base) {
            let cur = self.tail.get(t..).unwrap_or(&[]).iter();
            return Iter {
                cur,
                rest: [].iter(),
                tail: &[],
                left: 0,
            };
        }
        let cur = self.chunks[start >> SHIFT].as_slice()[start & MASK..].iter();
        Iter {
            left: self.len() - start - cur.len(),
            cur,
            rest: self.chunks[(start >> SHIFT) + 1..].iter(),
            tail: &self.tail,
        }
    }

    /// The elements as consecutive slices — each chunk, then the tail: what
    /// a hot loop walks.
    pub fn slices(&self) -> impl Iterator<Item = &[T]> + '_ {
        (self.chunks.iter().map(Chunk::as_slice))
            .chain(Some(&self.tail[..]).filter(|t| !t.is_empty()))
    }

    /// Heap bytes held: the chunk table, the tail and every chunk, shared
    /// or not.
    pub fn heap_bytes(&self) -> usize {
        self.footprint().held
    }

    /// Heap bytes of the chunk table, the tail and the chunks no other
    /// clone holds.
    pub fn owned_bytes(&self) -> usize {
        self.footprint().owned
    }

    /// [`ChunkVec::heap_bytes`] and [`ChunkVec::owned_bytes`].
    pub fn footprint(&self) -> Footprint {
        let own = Footprint::of::<Chunk<T>>(self.chunks.capacity(), true)
            + Footprint::of::<T>(self.tail.capacity(), true);
        let chunks = chunks_footprint(
            &self.chunks,
            Chunk::buf,
            |c| Footprint::of::<T>(c.as_slice().len(), true),
            |c| std::mem::size_of_val(c.as_slice()),
        );
        chunks + own
    }
}

impl<T: Clone> ChunkVec<T> {
    /// `n` copies of `value`.
    pub fn from_elem(value: T, n: usize) -> Self {
        ChunkVec {
            tail: vec![value; n],
            ..ChunkVec::new()
        }
    }

    /// Appends `s` as frozen chunks: the elements that complete the last
    /// chunk copied with it, the rest into one buffer that its chunks
    /// share. The array has no tail.
    fn push_frozen(&mut self, mut s: &[T]) {
        if s.is_empty() {
            return;
        }
        if self.base & MASK != 0 {
            if let Some(last) = self.chunks.last_mut() {
                let n = (CHUNK - (self.base & MASK)).min(s.len());
                let old = last.as_slice();
                let buf: Arc<[T]> = old.iter().chain(&s[..n]).cloned().collect();
                let len = buf.len();
                *last = Chunk::Shared { buf, start: 0, len };
                (self.base, s) = (self.base + n, &s[n..]);
            }
        }
        let buf: Arc<[T]> = Arc::from(s);
        self.chunks.reserve((s.len() + MASK) >> SHIFT);
        for start in (0..s.len()).step_by(CHUNK) {
            let len = CHUNK.min(s.len() - start);
            let buf = Arc::clone(&buf);
            self.chunks.push(Chunk::Shared { buf, start, len });
        }
        self.base += s.len();
    }

    /// Reserves room for `n` more elements.
    pub fn reserve(&mut self, n: usize) {
        self.tail.reserve(n);
    }

    /// Appends an element.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
    }

    /// Appends the elements of `s`.
    pub fn extend_from_slice(&mut self, s: &[T]) {
        self.tail.extend_from_slice(s);
    }

    /// Grows the array to `n` elements with copies of `value`, or
    /// truncates it.
    pub fn resize(&mut self, n: usize, value: T) {
        match n.checked_sub(self.base) {
            Some(t) => self.tail.resize(t, value),
            None => self.truncate(n),
        }
    }

    /// Keeps the first `n` elements.
    pub fn truncate(&mut self, n: usize) {
        if let Some(t) = n.checked_sub(self.base) {
            self.tail.truncate(t);
            return;
        }
        self.tail.clear();
        self.chunks.truncate((n + MASK) >> SHIFT);
        if let (Some(last), true) = (self.chunks.last_mut(), n & MASK != 0) {
            last.vec_mut().truncate(n & MASK);
        }
        self.base = n;
    }

    /// The elements as one `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.len());
        for s in self.slices() {
            v.extend_from_slice(s);
        }
        v
    }
}

impl<T: PartialEq> ChunkVec<T> {
    /// True iff some element equals `x`.
    pub fn contains(&self, x: &T) -> bool {
        self.slices().any(|s| s.contains(x))
    }

    /// True iff `prefix` is a prefix of this array. Chunks the two share
    /// are equal without a look.
    pub fn starts_with(&self, prefix: &ChunkVec<T>) -> bool {
        let same = (self.chunks.iter().zip(&prefix.chunks))
            .take_while(|(a, b)| a.same(b))
            .count();
        let skip = (same * CHUNK).min(prefix.len());
        prefix.len() <= self.len()
            && self
                .iter_from(skip)
                .zip(prefix.iter_from(skip))
                .all(|(a, b)| a == b)
    }
}

impl<T: Clone> Clone for ChunkVec<T> {
    /// A clone in frozen chunks: the frozen ones shared, the rest copied.
    fn clone(&self) -> Self {
        let mut copy = ChunkVec {
            chunks: self.chunks.iter().map(Chunk::frozen).collect(),
            base: self.base,
            tail: Vec::new(),
        };
        copy.push_frozen(&self.tail);
        copy
    }
}

impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        match i.checked_sub(self.base) {
            Some(t) => &self.tail[t],
            None => self.chunks[i >> SHIFT].at(i & MASK),
        }
    }
}

impl<T: Clone> IndexMut<usize> for ChunkVec<T> {
    /// A write: below the tail, the element's chunk is copied first if it
    /// is frozen.
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut T {
        match i.checked_sub(self.base) {
            Some(t) => &mut self.tail[t],
            None => &mut self.chunks[i >> SHIFT].vec_mut()[i & MASK],
        }
    }
}

impl<T: Clone> Extend<T> for ChunkVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.tail.extend(iter);
    }
}

impl<T: Clone> FromIterator<T> for ChunkVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        ChunkVec::from(Vec::from_iter(iter))
    }
}

impl<T> From<Vec<T>> for ChunkVec<T> {
    fn from(tail: Vec<T>) -> Self {
        ChunkVec {
            tail,
            ..ChunkVec::new()
        }
    }
}

impl<'a, T> IntoIterator for &'a ChunkVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for ChunkVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for ChunkVec<T> {}

impl<T: PartialEq> PartialEq<[T]> for ChunkVec<T> {
    fn eq(&self, other: &[T]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: PartialEq, const N: usize> PartialEq<[T; N]> for ChunkVec<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        *self == other[..]
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for ChunkVec<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        *self == other[..]
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The elements of a [`ChunkVec`], walked slice by slice.
#[derive(Clone, Debug)]
pub struct Iter<'a, T> {
    cur: std::slice::Iter<'a, T>,
    rest: std::slice::Iter<'a, Chunk<T>>,
    tail: &'a [T],
    /// Elements in `rest` and `tail`.
    left: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(x) = self.cur.next() {
                return Some(x);
            }
            let next = match self.rest.next() {
                Some(chunk) => chunk.as_slice(),
                None if !self.tail.is_empty() => std::mem::take(&mut self.tail),
                None => return None,
            };
            self.left -= next.len();
            self.cur = next.iter();
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.len() + self.left;
        (n, Some(n))
    }

    /// Skips whole chunks: `n` elements cost a step per chunk, not one per
    /// element.
    fn nth(&mut self, mut n: usize) -> Option<&'a T> {
        while n >= self.cur.len() {
            n -= self.cur.len();
            let next = match self.rest.next() {
                Some(chunk) => chunk.as_slice(),
                None if !self.tail.is_empty() => std::mem::take(&mut self.tail),
                None => {
                    self.cur = [].iter();
                    return None;
                }
            };
            self.left -= next.len();
            self.cur = next.iter();
        }
        self.cur.nth(n)
    }

    fn fold<B, F: FnMut(B, &'a T) -> B>(self, init: B, mut f: F) -> B {
        let acc = self.cur.fold(init, &mut f);
        let acc = (self.rest).fold(acc, |acc, chunk| chunk.as_slice().iter().fold(acc, &mut f));
        self.tail.iter().fold(acc, f)
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

/// Variable-length rows: copy-on-write chunks of rows and a flat tail (see
/// the module docs); row `i` is [`RowPool::row`]`(i)`, a slice.
#[derive(Debug)]
pub struct RowPool<T> {
    /// The rows `0..base`: chunk `k` holds rows `k * CHUNK..`, all chunks
    /// full but the last.
    chunks: Vec<Rows<T>>,
    base: usize,
    /// The rows `base..`, CSR: row `base + j` is
    /// `data[off[j]..off[j + 1]]`; `off` is empty while `data` is.
    off: Vec<u32>,
    data: Vec<T>,
    /// Elements over all rows.
    elements: usize,
}

/// One chunk of a [`RowPool`]: a CSR — one more offset than it has rows —
/// and the elements its offsets point into.
enum Rows<T> {
    /// Held by this pool alone; the offsets start at 0.
    Own { off: Vec<u32>, data: Vec<T> },
    /// Frozen: the rows `first..first + rows` of a CSR that a clone froze
    /// in one buffer, which its chunks share with every clone of the pool.
    Shared {
        off: Arc<[u32]>,
        data: Arc<[T]>,
        first: usize,
        rows: usize,
    },
}

impl<T> Rows<T> {
    /// The chunk's offsets and the elements they point into.
    #[inline(always)]
    fn parts(&self) -> (&[u32], &[T]) {
        match self {
            Rows::Own { off, data } => (off, data),
            Rows::Shared {
                off,
                data,
                first,
                rows,
            } => (&off[*first..=*first + *rows], data),
        }
    }

    /// The chunk's rows, as `(offsets from 0, elements)` slices.
    fn csr(&self) -> (Vec<u32>, &[T]) {
        let (off, data) = self.parts();
        let (start, end) = (off[0], off[off.len() - 1]);
        let off = off.iter().map(|&o| o - start).collect();
        (off, &data[start as usize..end as usize])
    }

    fn data_buf(&self) -> Option<&Arc<[T]>> {
        match self {
            Rows::Own { .. } => None,
            Rows::Shared { data, .. } => Some(data),
        }
    }

    /// Bytes of the chunk's offsets and elements.
    fn bytes(&self) -> usize {
        let (off, _) = self.parts();
        let elements = (off[off.len() - 1] - off[0]) as usize;
        std::mem::size_of_val(off) + elements * std::mem::size_of::<T>()
    }
}

impl<T: Clone> Rows<T> {
    /// The chunk frozen: shared if it is, copied if it is not.
    fn frozen(&self) -> Rows<T> {
        match self {
            Rows::Own { off, data } => Rows::Shared {
                off: Arc::from(&off[..]),
                data: Arc::from(&data[..]),
                first: 0,
                rows: off.len() - 1,
            },
            Rows::Shared {
                off,
                data,
                first,
                rows,
            } => Rows::Shared {
                off: Arc::clone(off),
                data: Arc::clone(data),
                first: *first,
                rows: *rows,
            },
        }
    }

    /// The chunk for appending: a frozen chunk is copied first.
    fn parts_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<T>) {
        if let Rows::Shared { .. } = self {
            let (off, data) = self.csr();
            let data = data.to_vec();
            *self = Rows::Own { off, data };
        }
        match self {
            Rows::Own { off, data } => (off, data),
            Rows::Shared { .. } => unreachable!("a thawed chunk is owned"),
        }
    }
}

impl<T: Clone> Clone for RowPool<T> {
    /// A clone in frozen chunks: the frozen ones shared, the rest copied.
    fn clone(&self) -> Self {
        let mut copy = RowPool {
            chunks: self.chunks.iter().map(Rows::frozen).collect(),
            base: self.base,
            off: Vec::new(),
            data: Vec::new(),
            elements: self.elements,
        };
        copy.push_frozen(&self.off, &self.data);
        copy
    }
}

impl<T> fmt::Debug for Rows<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self {
            Rows::Own { .. } => "own",
            Rows::Shared { .. } => "shared",
        };
        let (off, _) = self.parts();
        write!(f, "{kind} chunk of {} rows", off.len() - 1)
    }
}

impl<T> Default for RowPool<T> {
    fn default() -> Self {
        RowPool::new()
    }
}

impl<T> RowPool<T> {
    /// An empty pool; allocates nothing.
    pub const fn new() -> Self {
        RowPool {
            chunks: Vec::new(),
            base: 0,
            off: Vec::new(),
            data: Vec::new(),
            elements: 0,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.base + self.off.len().saturating_sub(1)
    }

    /// True iff the pool holds no row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements over all rows.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.elements
    }

    /// Elements over the rows `first..`: one subtraction for the tail's
    /// rows, a walk over the chunks' rows before.
    pub fn num_elements_from(&self, first: usize) -> usize {
        let tail = |t: usize| self.off.get(t).map_or(0, |&o| self.data.len() - o as usize);
        match first.checked_sub(self.base) {
            Some(t) => tail(t),
            None => (first..self.base).map(|i| self.row(i).len()).sum::<usize>() + tail(0),
        }
    }

    /// Row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        let (off, data, at) = match i.checked_sub(self.base) {
            Some(t) => (&self.off[..], &self.data[..], t),
            None => match &self.chunks[i >> SHIFT] {
                Rows::Own { off, data } => (&off[..], &data[..], i & MASK),
                Rows::Shared {
                    off, data, first, ..
                } => (&off[..], &data[..], *first + (i & MASK)),
            },
        };
        &data[off[at] as usize..off[at + 1] as usize]
    }

    /// Heap bytes held: every chunk, shared or not, and the tail.
    pub fn heap_bytes(&self) -> usize {
        self.footprint().held
    }

    /// Heap bytes of the chunks no other clone holds, and of the tail.
    pub fn owned_bytes(&self) -> usize {
        self.footprint().owned
    }

    /// [`RowPool::heap_bytes`] and [`RowPool::owned_bytes`].
    pub fn footprint(&self) -> Footprint {
        let own = Footprint::of::<Rows<T>>(self.chunks.capacity(), true)
            + Footprint::of::<u32>(self.off.capacity(), true)
            + Footprint::of::<T>(self.data.capacity(), true);
        let own_chunk = |c: &Rows<T>| match c {
            Rows::Own { off, data } => {
                Footprint::of::<u32>(off.capacity(), true)
                    + Footprint::of::<T>(data.capacity(), true)
            }
            Rows::Shared { .. } => Footprint::default(),
        };
        chunks_footprint(&self.chunks, Rows::data_buf, own_chunk, Rows::bytes) + own
    }
}

impl<T: Ord + Clone> RowPool<T> {
    /// Appends the elements of `row` as a row, sorted and without repeats.
    #[inline]
    pub fn push_set(&mut self, row: impl IntoIterator<Item = T>) {
        if self.off.is_empty() {
            self.off.push(0);
        }
        let start = self.data.len();
        self.data.extend(row);
        self.data[start..].sort_unstable();
        let mut kept = start;
        for r in start..self.data.len() {
            if r == start || self.data[r] != self.data[kept - 1] {
                self.data.swap(kept, r);
                kept += 1;
            }
        }
        self.data.truncate(kept);
        self.elements += kept - start;
        self.off.push(crate::dense_u32(kept, "row pool"));
    }
}

impl<T> RowPool<T> {
    /// The rows of a [`Csr`](crate::csr::Csr) as a pool's flat tail: no
    /// copy.
    pub fn from_csr(crate::csr::Csr { off, items: data }: crate::csr::Csr<T>) -> Self {
        debug_assert!(off.first().map_or(data.is_empty(), |&o| o == 0));
        debug_assert_eq!(off.last().map_or(0, |&o| o as usize), data.len());
        RowPool {
            elements: data.len(),
            off: if off.len() > 1 { off } else { Vec::new() },
            data,
            ..RowPool::new()
        }
    }
}

impl<T: Copy + Ord> RowPool<T> {
    /// Adds items to rows where they are: every `(row, item)` of `added` —
    /// ascending by row, each row's items ascending — is merged into its
    /// row by `Ord` (an item greater than every item of its row is
    /// appended). Only the chunks those rows live in are rebuilt, each by
    /// one [`splice`](crate::csr::splice) of its own rows, and the tail if
    /// a row is there; every other chunk stays shared.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range.
    pub fn edit(&mut self, mut added: &[(u32, T)]) {
        let mut local = Vec::new();
        while let Some(&(row, _)) = added.first() {
            let row = row as usize;
            assert!(row < self.len(), "row {row} of {}", self.len());
            // The rows `start..end` of one chunk, or of the tail (`None`).
            let chunk = (row < self.base).then_some(row >> SHIFT);
            let (start, end) = match chunk {
                Some(k) => (k << SHIFT, ((k + 1) << SHIFT).min(self.base)),
                None => (self.base, self.len()),
            };
            let mine = (added.iter())
                .take_while(|&&(r, _)| (r as usize) < end)
                .count();
            local.clear();
            local.extend(added[..mine].iter().map(|&(r, x)| (r - start as u32, x)));
            added = &added[mine..];
            let edits = crate::csr::RowEdits {
                added: &local,
                ..Default::default()
            };
            let (off, data) = match chunk {
                Some(k) => self.chunks[k].parts(),
                None => (&self.off[..], &self.data[..]),
            };
            let crate::csr::Csr { off, items: data } = crate::csr::splice(off, data, &edits);
            self.elements += local.len();
            match chunk {
                Some(k) => self.chunks[k] = Rows::Own { off, data },
                None => (self.off, self.data) = (off, data),
            }
        }
    }
}

impl<T: Clone> RowPool<T> {
    /// Appends the CSR rows `(off, data)` as frozen chunks: the rows that
    /// complete the last chunk copied with it, the rest shared by their
    /// chunks in one offsets and one elements buffer. The pool has no
    /// tail.
    fn push_frozen(&mut self, off: &[u32], data: &[T]) {
        let rows = off.len().saturating_sub(1);
        let mut next = 0;
        if self.base & MASK != 0 && rows > 0 {
            if let Some(last) = self.chunks.last_mut() {
                let n = (CHUNK - (self.base & MASK)).min(rows);
                let (old_off, old_data) = last.parts();
                let (start, shift) = (old_off[0], old_off[old_off.len() - 1] - old_off[0]);
                let old_rows = old_data[start as usize..(start + shift) as usize].iter();
                let new_off = off[1..=n].iter().map(|&o| o + shift);
                *last = Rows::Shared {
                    off: (old_off.iter().map(|&o| o - start))
                        .chain(new_off)
                        .collect(),
                    data: old_rows.chain(&data[..off[n] as usize]).cloned().collect(),
                    first: 0,
                    rows: old_off.len() - 1 + n,
                };
                (self.base, next) = (self.base + n, n);
            }
        }
        if next == rows {
            return;
        }
        let (off, data): (Arc<[u32]>, Arc<[T]>) = (Arc::from(off), Arc::from(data));
        self.chunks.reserve((rows - next + MASK) >> SHIFT);
        for first in (next..rows).step_by(CHUNK) {
            self.chunks.push(Rows::Shared {
                off: Arc::clone(&off),
                data: Arc::clone(&data),
                first,
                rows: CHUNK.min(rows - first),
            });
        }
        self.base += rows - next;
    }

    /// Reserves room for `rows` more rows of `elements` elements in all.
    pub fn reserve(&mut self, rows: usize, elements: usize) {
        self.off.reserve(rows + 1);
        self.data.reserve(elements);
    }

    /// Appends a row.
    #[inline(always)]
    pub fn push<I>(&mut self, row: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let row = row.into_iter();
        if self.off.is_empty() {
            self.off.push(0);
        }
        self.elements += row.len();
        self.data.extend(row);
        self.off.push(crate::dense_u32(self.data.len(), "row pool"));
    }

    /// Keeps the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        self.elements -= (n..self.len()).map(|i| self.row(i).len()).sum::<usize>();
        if let Some(t) = n.checked_sub(self.base) {
            self.off.truncate(t + 1);
            self.data.truncate(self.off[t] as usize);
            return;
        }
        (self.off, self.data) = (Vec::new(), Vec::new());
        self.chunks.truncate((n + MASK) >> SHIFT);
        if let (Some(last), true) = (self.chunks.last_mut(), n & MASK != 0) {
            let (off, data) = last.parts_mut();
            off.truncate((n & MASK) + 1);
            data.truncate(off[n & MASK] as usize);
        }
        self.base = n;
    }
}

/// Strings — names — back to back as `str`: full frozen chunks of [`CHUNK`]
/// rows each, shared by every clone, and a flat tail. Row `i` is
/// [`StrPool::row`]`(i)`, a `&str` slice of one, so reading a name costs a
/// char-boundary check, not a UTF-8 validation. Rows are only appended.
#[derive(Debug, Default)]
pub struct StrPool {
    /// Rows `k * CHUNK..(k + 1) * CHUNK`: their offsets from 0 — one more
    /// than the rows — and their text.
    chunks: Vec<(Arc<[u32]>, Arc<str>)>,
    /// The rows `chunks.len() * CHUNK..`: row `j` of the tail is
    /// `text[off[j]..off[j + 1]]`; `off` is empty while the tail has no row.
    off: Vec<u32>,
    text: String,
}

impl StrPool {
    /// An empty pool; allocates nothing.
    pub const fn new() -> Self {
        StrPool {
            chunks: Vec::new(),
            off: Vec::new(),
            text: String::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        (self.chunks.len() << SHIFT) + self.off.len().saturating_sub(1)
    }

    /// True iff the pool holds no row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &str {
        let (off, text, at) = match self.chunks.get(i >> SHIFT) {
            Some((off, text)) => (&off[..], &text[..], i & MASK),
            None => (
                &self.off[..],
                &self.text[..],
                i - (self.chunks.len() << SHIFT),
            ),
        };
        &text[off[at] as usize..off[at + 1] as usize]
    }

    /// Appends a row.
    #[inline]
    pub fn push(&mut self, row: &str) {
        if self.off.is_empty() {
            self.off.push(0);
        }
        self.text.push_str(row);
        self.off
            .push(crate::dense_u32(self.text.len(), "string pool"));
    }

    /// Heap bytes held: every chunk, shared or not, the tail and the chunk
    /// table.
    pub fn heap_bytes(&self) -> usize {
        self.footprint().held
    }

    /// [`StrPool::heap_bytes`] and the part no other clone holds.
    pub fn footprint(&self) -> Footprint {
        let own = Footprint::of::<(Arc<[u32]>, Arc<str>)>(self.chunks.capacity(), true)
            + Footprint::of::<u32>(self.off.capacity(), true)
            + Footprint::of::<u8>(self.text.capacity(), true);
        let chunks = self.chunks.iter().map(|(off, text)| {
            let bytes = std::mem::size_of_val(&off[..]) + text.len();
            Footprint::of::<u8>(bytes, Arc::strong_count(text) == 1)
        });
        chunks.sum::<Footprint>() + own
    }
}

impl Clone for StrPool {
    /// A clone that shares every frozen chunk, freezes a copy of the tail's
    /// full chunks and copies the rest of the tail — fewer than [`CHUNK`]
    /// rows.
    fn clone(&self) -> Self {
        let mut copy = StrPool {
            chunks: self.chunks.clone(),
            ..StrPool::new()
        };
        let rows = self.off.len().saturating_sub(1);
        let full = rows & !MASK;
        copy.chunks.reserve(full >> SHIFT);
        for first in (0..full).step_by(CHUNK) {
            let off = &self.off[first..=first + CHUNK];
            let start = off[0];
            let text = &self.text[start as usize..off[CHUNK] as usize];
            let off: Arc<[u32]> = off.iter().map(|&o| o - start).collect();
            copy.chunks.push((off, Arc::from(text)));
        }
        if full < rows {
            let start = self.off[full];
            copy.off = self.off[full..].iter().map(|&o| o - start).collect();
            copy.text = self.text[start as usize..].to_owned();
        }
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The chunks of `a` and `b` that are one frozen chunk held by both.
    fn shared_with<T>(a: &[Chunk<T>], b: &[Chunk<T>]) -> usize {
        (a.iter().zip(b)).filter(|(x, y)| x.same(y)).count()
    }

    /// One step applied to both an array and its `Vec` model.
    #[derive(Clone, Debug)]
    enum Op {
        Push(u32),
        Extend(usize),
        Set(usize, u32),
        Resize(usize),
        /// Continue on a clone, all in frozen chunks.
        Refreeze,
        /// Clone twice, write one element of the second clone and keep
        /// going on it; the first is checked after every later step.
        Fork(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        let near_boundary =
            (0usize..3, 0usize..8).prop_map(|(k, d)| (k * CHUNK + d).saturating_sub(4));
        prop_oneof![
            (0u32..1000).prop_map(Op::Push),
            (0usize..CHUNK + 64).prop_map(Op::Extend),
            near_boundary.prop_map(Op::Extend),
            (0usize..4 * CHUNK, 0u32..1000).prop_map(|(i, x)| Op::Set(i, x)),
            (0usize..3 * CHUNK).prop_map(Op::Resize),
            Just(Op::Refreeze),
            (0usize..4 * CHUNK).prop_map(Op::Fork),
        ]
    }

    fn check(got: &ChunkVec<u32>, want: &[u32]) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(got.iter().eq(want.iter()), "elements differ");
        prop_assert_eq!(got.iter().len(), want.len());
        let from = want.len() / 2;
        prop_assert!(got.iter_from(from).eq(want[from..].iter()));
        prop_assert_eq!(got.slices().map(<[u32]>::len).sum::<usize>(), want.len());
        for i in (0..want.len()).step_by(97).chain(want.len().checked_sub(1)) {
            prop_assert_eq!(got[i], want[i]);
        }
        prop_assert_eq!(got.get(want.len()), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random pushes, extends, writes, resizes and forks against `Vec`:
        /// every live copy — forks included, both sides written after the
        /// fork — keeps its own elements.
        #[test]
        fn chunk_vec_behaves_like_a_vec(ops in proptest::collection::vec(op(), 1..24)) {
            let mut live: Vec<(ChunkVec<u32>, Vec<u32>)> = vec![(ChunkVec::new(), Vec::new())];
            let mut next = 0u32;
            for op in ops {
                let (got, want) = match live.last_mut() {
                    Some(pair) => pair,
                    None => unreachable!(),
                };
                let mut fork = None;
                match op {
                    Op::Push(x) => {
                        got.push(x);
                        want.push(x);
                    }
                    Op::Extend(n) => {
                        let s: Vec<u32> = (next..next + n as u32).collect();
                        next += n as u32;
                        got.extend_from_slice(&s);
                        want.extend_from_slice(&s);
                    }
                    Op::Set(i, x) => {
                        if !want.is_empty() {
                            let i = i % want.len();
                            got[i] = x;
                            want[i] = x;
                        }
                    }
                    Op::Resize(n) => {
                        got.resize(n, 7);
                        want.resize(n, 7);
                    }
                    Op::Refreeze => *got = got.clone(),
                    Op::Fork(i) => {
                        let copy = (got.clone(), want.clone());
                        *got = copy.0.clone();
                        prop_assert_eq!(shared_with(&got.chunks, &copy.0.chunks), got.chunks.len());
                        if !want.is_empty() {
                            let i = i % want.len();
                            got[i] ^= 1;
                            want[i] ^= 1;
                            prop_assert_eq!(
                                shared_with(&got.chunks, &copy.0.chunks),
                                got.chunks.len() - 1
                            );
                        }
                        fork = Some(copy);
                    }
                }
                if let Some(fork) = fork {
                    live.push(fork);
                }
                for (got, want) in &live {
                    check(got, want)?;
                }
            }
        }

        /// Rows against a `Vec<Vec<_>>`: empty rows, rows that end exactly
        /// at a chunk boundary, rows that do not fit and start a new chunk,
        /// rows longer than a chunk, truncation, and forks.
        #[test]
        fn row_pool_behaves_like_a_vec_of_rows(
            lens in proptest::collection::vec(
                prop_oneof![0usize..6, 0usize..300, CHUNK - 3..CHUNK + 2, 2 * CHUNK..2 * CHUNK + 9],
                1..40,
            ),
            cut in 0usize..40,
            fork_at in 0usize..40,
        ) {
            let mut pool = RowPool::new();
            let mut want: Vec<Vec<u32>> = Vec::new();
            let mut forked = None;
            let mut next = 0u32;
            for (k, &n) in lens.iter().enumerate() {
                if k == fork_at {
                    pool = pool.clone();
                    forked = Some((pool.clone(), want.clone()));
                }
                let row: Vec<u32> = (next..next + n as u32).collect();
                next += n as u32;
                pool.push(row.iter().copied());
                want.push(row);
            }
            let cut = cut.min(want.len());
            pool.truncate(cut);
            want.truncate(cut);
            pool = pool.clone();
            pool.push([5, 6, 7]);
            want.push(vec![5, 6, 7]);
            let mut pools = vec![(pool, want)];
            pools.extend(forked);
            for (pool, want) in &pools {
                prop_assert_eq!(pool.len(), want.len());
                prop_assert_eq!(pool.num_elements(), want.iter().map(Vec::len).sum::<usize>());
                for (i, row) in want.iter().enumerate() {
                    prop_assert_eq!(pool.row(i), &row[..], "row {}", i);
                    let from: usize = want[i..].iter().map(Vec::len).sum();
                    prop_assert_eq!(pool.num_elements_from(i), from, "rows {}..", i);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Row edits against a `Vec<Vec<_>>` of sorted rows, on a pool with
        /// frozen chunks, a partial last chunk and a tail: items merged
        /// into rows in chunks and in the tail. Only the chunks written
        /// stop being shared, and a clone taken before the edit keeps its
        /// rows.
        #[test]
        fn row_edits_touch_only_their_chunks(
            frozen in 0usize..3 * CHUNK,
            tail in 0usize..300,
            adds in proptest::collection::vec((0usize..4 * CHUNK, 0u32..64), 0..40),
        ) {
            let row = |i: usize| -> Vec<u32> { (0..(i % 4) as u32).map(|k| k * 16 + 1).collect() };
            let mut pool = RowPool::new();
            let mut want: Vec<Vec<u32>> = (0..frozen + tail).map(row).collect();
            for r in &want[..frozen] {
                pool.push(r.iter().copied());
            }
            let mut pool = pool.clone();
            for r in &want[frozen..] {
                pool.push(r.iter().copied());
            }
            let before = pool.clone();
            let rows = want.len();
            if rows == 0 {
                return Ok(());
            }
            let mut added: Vec<(u32, u32)> =
                adds.iter().map(|&(r, x)| ((r % rows) as u32, x)).collect();
            added.sort_unstable();
            for &(r, x) in &added {
                want[r as usize].push(x);
                want[r as usize].sort_unstable();
            }
            pool.edit(&added);
            prop_assert_eq!(pool.len(), want.len());
            prop_assert_eq!(pool.num_elements(), want.iter().map(Vec::len).sum::<usize>());
            for (i, r) in want.iter().enumerate() {
                prop_assert_eq!(pool.row(i), &r[..], "row {}", i);
                prop_assert_eq!(before.row(i), &row(i)[..], "row {} before", i);
            }
            let touched: BTreeSet<usize> = (added.iter())
                .map(|&(r, _)| r as usize)
                .filter(|&r| r < pool.base)
                .map(|r| r >> SHIFT)
                .collect();
            // A clone completes a partial last chunk with the tail, so
            // `before` holds that one as a chunk of its own.
            let full = pool.base >> SHIFT;
            for (k, (a, b)) in pool.chunks.iter().zip(&before.chunks).take(full).enumerate() {
                let shared = (a.data_buf().zip(b.data_buf())).is_some_and(|(x, y)| Arc::ptr_eq(x, y));
                prop_assert_eq!(shared, !touched.contains(&k), "chunk {}", k);
            }
        }
    }

    #[test]
    fn a_fork_and_one_write_differ_in_one_chunk() {
        let a: ChunkVec<u32> = (0..5 * CHUNK as u32 + 17).collect();
        let a = a.clone();
        let mut b = a.clone();
        assert_eq!(shared_with(&a.chunks, &b.chunks), 6);
        assert_eq!(
            b.owned_bytes(),
            b.chunks.capacity() * std::mem::size_of::<Chunk<u32>>()
        );
        b[2 * CHUNK + 5] = 9;
        assert_eq!(shared_with(&a.chunks, &b.chunks), 5);
        assert_eq!(a[2 * CHUNK + 5], 2 * CHUNK as u32 + 5);
        assert_eq!(b[2 * CHUNK + 5], 9);
        // An append goes to the tail and copies nothing.
        b.push(1);
        assert_eq!(shared_with(&a.chunks, &b.chunks), 5);
        assert_eq!(a.len() + 1, b.len());
        // A clone of the clone moves the tail into the last chunk, copying
        // it, and the chunk written above.
        let b = b.clone();
        assert_eq!(shared_with(&a.chunks, &b.chunks), 4);
        assert_eq!(b.iter().copied().last(), Some(1));
    }

    #[test]
    fn nth_and_skip_agree_with_a_vec_across_chunks_and_the_tail() {
        let want: Vec<u32> = (0..3 * CHUNK as u32 + 40).collect();
        let mut got: ChunkVec<u32> = want[..2 * CHUNK + 7].iter().copied().collect();
        got = got.clone();
        got.extend_from_slice(&want[2 * CHUNK + 7..]);
        let edges = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 7];
        let past = [2 * CHUNK + 8, want.len() - 1, want.len(), want.len() + 5];
        for &n in edges.iter().chain(&past) {
            assert_eq!(got.iter().nth(n), want.get(n), "nth({n})");
            assert!(got.iter().skip(n).eq(want.iter().skip(n)), "skip({n})");
            for &from in &edges {
                let (mut g, mut w) = (got.iter_from(from), want[from..].iter());
                assert_eq!(g.nth(n), w.nth(n), "iter_from({from}).nth({n})");
                assert_eq!(g.len(), w.len(), "iter_from({from}).nth({n}) leaves");
                assert_eq!(g.next(), w.next(), "iter_from({from}).nth({n}) then next");
            }
        }
        let mut g = got.iter();
        assert_eq!(g.nth(CHUNK - 1), Some(&(CHUNK as u32 - 1)));
        assert_eq!(g.nth(1), Some(&(CHUNK as u32 + 1)));
        assert_eq!(g.nth(want.len()), None);
        assert_eq!(g.next(), None);
    }

    #[test]
    fn a_string_pool_keeps_its_rows_through_clones() {
        let name = |i: usize| "é".repeat(i % 5) + &i.to_string();
        let mut pool = StrPool::new();
        let mut kept = Vec::new();
        for i in 0..3 * CHUNK + 9 {
            if i % (CHUNK - 1) == 0 {
                kept.push((pool.clone(), i));
                pool = pool.clone();
            }
            pool.push(&name(i));
        }
        kept.push((pool.clone(), pool.len()));
        kept.push((pool, 3 * CHUNK + 9));
        for (pool, len) in &kept {
            assert_eq!(pool.len(), *len);
            assert!((0..*len).all(|i| pool.row(i) == name(i)), "{len} rows");
        }
        // A clone of a clone shares every chunk.
        let (a, _) = &kept[kept.len() - 2];
        let b = a.clone();
        assert_eq!(a.chunks.len(), 3);
        assert_eq!(b.chunks.len(), 3);
        assert!((a.chunks.iter().zip(&b.chunks)).all(|(x, y)| Arc::ptr_eq(&x.1, &y.1)));
        assert!(b.footprint().owned < b.footprint().held);
        assert_eq!(StrPool::new().len(), 0);
    }

    #[test]
    fn a_write_to_a_frozen_chunk_copies_that_chunk_only() {
        let a: ChunkVec<u32> = (0..2 * CHUNK as u32).collect();
        let mut a = a.clone();
        let before = a.heap_bytes();
        a[0] = 5;
        assert!(matches!(a.chunks[0], Chunk::Own(_)));
        assert!(matches!(a.chunks[1], Chunk::Shared { .. }));
        assert_eq!(a.heap_bytes(), before);
        assert_eq!(a.owned_bytes(), a.heap_bytes());
    }

    #[test]
    fn a_row_longer_than_a_chunk_is_one_slice() {
        let mut pool = RowPool::new();
        pool.push([1u8, 2]);
        pool.push(vec![3u8; 2 * CHUNK + 1]);
        pool.push([4u8]);
        pool.push(std::iter::empty());
        for shared in [false, true] {
            assert_eq!(pool.row(0), &[1, 2], "shared: {shared}");
            assert_eq!(pool.row(1), &vec![3u8; 2 * CHUNK + 1][..]);
            assert_eq!(pool.row(2), &[4]);
            assert!(pool.row(3).is_empty());
            assert_eq!(pool.num_elements(), 2 * CHUNK + 4);
            pool = pool.clone();
        }
    }
}
