//! Compressed-sparse-row arrays: counting them once, and patching them
//! instead of recounting.
//!
//! An occurrence index is one `offsets` array (`rows + 1` entries) over
//! one `items` array, a [`Csr`].
//!
//! **Counting.** [`Csr::count`] lays out rows from `(row, item)` entries by
//! a stable counting sort — count each row, turn the counts into row
//! starts, drop every item at its row's cursor — so a row keeps its items
//! in entry order and nothing is hashed or compared. [`Csr::recount`] does
//! the same into buffers that keep their capacity. Every CSR the solve
//! counts goes through it: the ground program's head / positive / negative
//! occurrence rows, the atom index's predicate rows, the engine's rows of a
//! component's own rules, and the chase segment's guard / head / body rows
//! (which no solve reads: a segment counts them when first asked).
//!
//! **Patching.** A resumed solve changes a few rows of each; [`splice`]
//! derives the new pair from the old one by copying the untouched runs
//! between the touched rows and rewriting only the touched rows. A run's
//! items are one `memcpy`; so are its offsets when nothing before it
//! changed size, and one vectorizable add of a constant shift when
//! something did. A touched row is rewritten the same way: the old items
//! between two of its edits are one `memcpy`, and a binary search in the
//! ascending row finds where the next edit lands. No per-row call, no
//! per-item step, no counting pass, no hashing: the cost is one sequential
//! copy plus `O(log row)` per edited item.
//!
//! Who splices, and over what:
//!
//! * [`RowPool::edit`](crate::chunked::RowPool::edit) splices one chunk of
//!   4,096 rows at a time, and only the chunks an edit lands in. That is
//!   how a resume edits the ground program's head / positive / negative
//!   occurrence rows, which are `RowPool`s: its cost follows the chunks the
//!   delta touches, not the program.
//! * The atom index (`AtomIndex::patched` in `wfdl-storage`) splices its
//!   predicate rows and the key tables the delta touches into fresh flat
//!   arrays: one `memcpy` per run, so the copy is in proportion to the
//!   model but no item of it is looked at one by one.

use crate::dense_u32;
use std::ops::Range;

/// Rows of items: row `r` is `items[off[r]..off[r + 1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr<T> {
    /// Where each row starts, then where the last one ends: one more
    /// entry than there are rows, from `0` to `items.len()`.
    pub off: Vec<u32>,
    /// The rows' items, concatenated in row order.
    pub items: Vec<T>,
}

/// No rows (and no allocation).
impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            off: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<T> Csr<T> {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// The items of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.off[r] as usize..self.off[r + 1] as usize]
    }
}

impl<T: Copy> Csr<T> {
    /// The rows, over `rows` rows, of the `(row, item)` entries: each row
    /// holds its items in entry order. Every row an entry names must be
    /// below `rows`; rows no entry names are empty.
    pub fn count(rows: usize, entries: impl Iterator<Item = (u32, T)> + Clone) -> Self {
        let mut csr = Csr::default();
        csr.recount(rows, entries);
        csr
    }

    /// [`Csr::count`] into this CSR's buffers: what they held is dropped,
    /// and they are reallocated only to grow (to exactly the new size).
    ///
    /// Two passes over `entries`, a stable counting sort: the first counts
    /// each row at `off[row + 1]`, a running sum turns the counts into row
    /// starts, and the second pass drops every item at its row's cursor —
    /// which leaves each cursor at its row's end.
    pub fn recount(&mut self, rows: usize, entries: impl Iterator<Item = (u32, T)> + Clone) {
        self.off.clear();
        self.off.reserve_exact(rows + 1);
        self.off.resize(rows + 1, 0);
        for (row, _) in entries.clone() {
            self.off[row as usize + 1] += 1;
        }
        let mut start = 0u32;
        for end in &mut self.off[1..] {
            start += std::mem::replace(end, start);
        }
        self.items.clear();
        if let Some((_, first)) = entries.clone().next() {
            self.items.reserve_exact(start as usize);
            self.items.resize(start as usize, first);
        }
        for (row, item) in entries {
            let cursor = &mut self.off[row as usize + 1];
            self.items[*cursor as usize] = item;
            *cursor += 1;
        }
    }
}

/// What changes between an old CSR and the new one. Rows that are neither
/// dropped nor inserted correspond in order, so the old-row → new-row map
/// is monotone. Every list is ascending.
#[derive(Clone, Copy, Debug)]
pub struct RowEdits<'a, T> {
    /// Old rows that have no counterpart in the new CSR.
    pub dropped: &'a [u32],
    /// New rows that have no counterpart in the old CSR.
    pub inserted: &'a [u32],
    /// `(new row, item)` pairs leaving a surviving row, in the order the
    /// items occur in that row.
    pub removed: &'a [(u32, T)],
    /// `(new row, item)` pairs entering a row, ascending by row and by
    /// item within a row. In a surviving row they are merged into the old
    /// items by `Ord` (both sides ascending; items greater than every old
    /// one are simply appended); an inserted row holds them as given.
    pub added: &'a [(u32, T)],
}

/// The edit that changes nothing.
impl<T> Default for RowEdits<'_, T> {
    fn default() -> Self {
        RowEdits {
            dropped: &[],
            inserted: &[],
            removed: &[],
            added: &[],
        }
    }
}

/// Where the new rows end, as the splice walk finds out.
enum Ends {
    /// Untouched old rows: new row ends are the old ends of `rows` (indexes
    /// into the old offsets) plus `shift`, wrapping.
    Run { rows: Range<usize>, shift: u32 },
    /// One rewritten row ends here.
    Row(u32),
}

/// Applies `edits` to the CSR `(old_off, old_items)`, returning the new
/// one. The old offsets need not start at `0`: rows
/// `old_off[0]..` of a larger items array are a CSR too, and only the items
/// they span are read.
///
/// # Panics
///
/// Panics if the new item count leaves the `u32` offset space or the edit
/// lists name more rows than there are, and (debug builds) if they are not
/// ascending or name an item a row does not hold.
pub fn splice<T: Copy + Ord>(old_off: &[u32], old_items: &[T], edits: &RowEdits<'_, T>) -> Csr<T> {
    let old_rows = old_off.len().saturating_sub(1);
    let mut off = Vec::with_capacity(old_rows - edits.dropped.len() + edits.inserted.len() + 1);
    off.push(0u32);
    let items = walk(
        old_rows,
        |i| old_off[i],
        old_items,
        edits,
        |ends| match ends {
            Ends::Run { rows, shift: 0 } => off.extend_from_slice(&old_off[rows]),
            Ends::Run { rows, shift } => {
                off.extend(old_off[rows].iter().map(|&end| end.wrapping_add(shift)));
            }
            Ends::Row(end) => off.push(end),
        },
    );
    Csr { off, items }
}

/// [`splice`] for offsets that do not sit in a `u32` array of their own:
/// `old_off(i)` is where old row `i` starts (`i` in `0..=old_rows`, so
/// `old_off(old_rows)` is the old item count), and `push_end` receives
/// where each new row ends, in row order (the first row starts at `0`).
/// Returns the new items.
pub fn splice_with<T: Copy + Ord>(
    old_rows: usize,
    old_off: impl Fn(usize) -> u32,
    old_items: &[T],
    edits: &RowEdits<'_, T>,
    mut push_end: impl FnMut(u32),
) -> Vec<T> {
    walk(old_rows, &old_off, old_items, edits, |ends| match ends {
        Ends::Run { rows, shift } => {
            rows.for_each(|i| push_end(old_off(i).wrapping_add(shift)));
        }
        Ends::Row(end) => push_end(end),
    })
}

/// The splice itself: copies the items of every untouched run and rewrites
/// the touched rows, telling `ends` where the new rows end. Returns the new
/// items.
fn walk<T: Copy + Ord>(
    old_rows: usize,
    old_off: impl Fn(usize) -> u32,
    old_items: &[T],
    edits: &RowEdits<'_, T>,
    mut ends: impl FnMut(Ends),
) -> Vec<T> {
    let RowEdits {
        mut dropped,
        mut inserted,
        mut removed,
        mut added,
    } = *edits;
    debug_assert!(dropped.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(inserted.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(removed.windows(2).all(|w| w[0].0 <= w[1].0));
    debug_assert!(added.windows(2).all(|w| w[0].0 <= w[1].0));
    let new_rows = old_rows - dropped.len() + inserted.len();
    let spanned = (old_off(old_rows) - old_off(0)) as usize;
    let _ = dense_u32(spanned + added.len(), "csr items");

    let mut items = Vec::with_capacity(spanned + added.len() - removed.len());
    // Cursors: the next old row and the next new row.
    let (mut o, mut r) = (0usize, 0usize);
    let head = |list: &[(u32, T)]| list.first().map_or(usize::MAX, |&(row, _)| row as usize);
    while r < new_rows || o < old_rows {
        // Rows up to the next edit are untouched: one copy, one shift.
        let next_new = (inserted.first().map_or(usize::MAX, |&i| i as usize))
            .min(head(removed))
            .min(head(added))
            .min(new_rows);
        let next_old = dropped.first().map_or(old_rows, |&d| d as usize);
        let run = (next_new - r).min(next_old - o);
        if run > 0 {
            let base = old_off(o);
            let shift = (items.len() as u32).wrapping_sub(base);
            items.extend_from_slice(&old_items[base as usize..old_off(o + run) as usize]);
            ends(Ends::Run {
                rows: o + 1..o + run + 1,
                shift,
            });
            o += run;
            r += run;
        }
        if dropped.first() == Some(&(o as u32)) {
            dropped = &dropped[1..];
            o += 1;
            continue;
        }
        if r == new_rows {
            break;
        }
        let row = r as u32;
        let is_new = inserted.first() == Some(&row);
        assert!(
            is_new || next_new == r,
            "row edits do not line up with the old rows at new row {row}"
        );
        let (rem, add) = (take_row(&mut removed, row), take_row(&mut added, row));
        if is_new {
            inserted = &inserted[1..];
            debug_assert!(rem.is_empty(), "row {row} is new: nothing to remove");
            items.extend(add.iter().map(|&(_, x)| x));
        } else {
            let old = &old_items[old_off(o) as usize..old_off(o + 1) as usize];
            debug_assert!(
                old.windows(2).all(|w| w[0] <= w[1]),
                "row {row} is not ascending"
            );
            rewrite_row(old, rem, add, &mut items);
            o += 1;
        }
        ends(Ends::Row(items.len() as u32));
        r += 1;
    }
    debug_assert!(inserted.is_empty() && removed.is_empty() && added.is_empty());
    items
}

/// Pushes the ascending row `old` minus `rem` plus `add` onto `items`, run
/// by run: the old items before the next edit are one copy, and where that
/// edit lands is a binary search over what is left of the row. An added
/// item goes after every old item that is `<=` it; a removal takes the
/// first item equal to it.
fn rewrite_row<T: Copy + Ord>(
    mut old: &[T],
    mut rem: &[(u32, T)],
    mut add: &[(u32, T)],
    items: &mut Vec<T>,
) {
    loop {
        let gone_at = rem
            .first()
            .map(|&(_, gone)| old.partition_point(|&x| x < gone));
        let new_at = add
            .first()
            .map(|&(_, new)| old.partition_point(|&x| x <= new));
        match (gone_at, new_at) {
            (Some(at), new_at) if new_at.map_or(true, |n| at <= n) => {
                items.extend_from_slice(&old[..at]);
                let hit = old.get(at) == Some(&rem[0].1);
                debug_assert!(hit, "a row lacks a removed item");
                old = &old[at + usize::from(hit)..];
                rem = &rem[1..];
            }
            (_, Some(at)) => {
                items.extend_from_slice(&old[..at]);
                items.push(add[0].1);
                old = &old[at..];
                add = &add[1..];
            }
            _ => break,
        }
    }
    items.extend_from_slice(old);
}

/// Splits the leading pairs of `row` off `list` (grouped by row).
pub fn take_row<'a, T>(list: &mut &'a [(u32, T)], row: u32) -> &'a [(u32, T)] {
    let n = list.iter().take_while(|&&(at, _)| at == row).count();
    let (mine, rest) = list.split_at(n);
    *list = rest;
    mine
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counting_no_entries_leaves_every_row_empty() {
        let none = std::iter::empty::<(u32, u32)>;
        assert_eq!(Csr::count(0, none()), csr_of(&[]));
        assert_eq!(Csr::count(3, none()), csr_of(&[vec![], vec![], vec![]]));
        assert_eq!(Csr::<u32>::default().num_rows(), 0);
    }

    #[test]
    fn no_edits_is_a_copy() {
        let off = [0u32, 2, 2, 5];
        let items = [7u32, 9, 1, 2, 3];
        let Csr { off: o, items: i } = splice(&off, &items, &RowEdits::default());
        assert_eq!(o, off);
        assert_eq!(i, items);
        let Csr { off: o, items: i } = splice::<u32>(&[0], &[], &RowEdits::default());
        assert_eq!((o, i), (vec![0], vec![]));
    }

    #[test]
    fn rows_are_dropped_inserted_and_merged() {
        // rows: [10,30] [] [5] [8,9]
        let off = [0u32, 2, 2, 3, 5];
        let items = [10u32, 30, 5, 8, 9];
        let edits = RowEdits {
            dropped: &[1],
            inserted: &[0, 4],
            removed: &[(1, 10), (3, 9)],
            added: &[(0, 4), (0, 2), (1, 20), (1, 40), (4, 1)],
        };
        let Csr { off: o, items: i } = splice(&off, &items, &edits);
        // new rows: [4,2] [20,30,40] [5] [8] [1]
        assert_eq!(o, vec![0, 2, 5, 6, 7, 8]);
        assert_eq!(i, vec![4, 2, 20, 30, 40, 5, 8, 1]);
    }

    /// A row of the edited CSR: its final content and what the edit says
    /// about it.
    struct Edited {
        content: Vec<u32>,
        is_new: bool,
        gone: Vec<u32>,
        new: Vec<u32>,
    }

    impl Edited {
        fn kept(content: Vec<u32>) -> Edited {
            let (gone, new) = (Vec::new(), Vec::new());
            Edited {
                content,
                is_new: false,
                gone,
                new,
            }
        }
    }

    /// The row rewrite [`rewrite_row`] replaced: one step per old item.
    fn merge_row(old: &[u32], rem: &[(u32, u32)], add: &[(u32, u32)], items: &mut Vec<u32>) {
        let (mut rem, mut add) = (rem.iter().peekable(), add.iter().peekable());
        for &x in old {
            if rem.next_if(|&&(_, gone)| gone == x).is_some() {
                continue;
            }
            while let Some(&(_, new)) = add.next_if(|&&(_, new)| new < x) {
                items.push(new);
            }
            items.push(x);
        }
        assert!(rem.next().is_none(), "a row lacks a removed item");
        items.extend(add.map(|&(_, x)| x));
    }

    /// [`splice`] as it was before touched rows were copied by runs: every
    /// row is rewritten with [`merge_row`].
    fn splice_by_items(old_off: &[u32], old_items: &[u32], edits: &RowEdits<'_, u32>) -> Csr<u32> {
        let RowEdits {
            dropped,
            inserted,
            mut removed,
            mut added,
        } = *edits;
        let old_rows = old_off.len() - 1;
        let (mut off, mut items, mut o) = (vec![0u32], Vec::new(), 0usize);
        for r in 0..(old_rows - dropped.len() + inserted.len()) as u32 {
            let (rem, add) = (take_row(&mut removed, r), take_row(&mut added, r));
            if inserted.contains(&r) {
                items.extend(add.iter().map(|&(_, x)| x));
            } else {
                while dropped.contains(&(o as u32)) {
                    o += 1;
                }
                let row = &old_items[old_off[o] as usize..old_off[o + 1] as usize];
                merge_row(row, rem, add, &mut items);
                o += 1;
            }
            off.push(items.len() as u32);
        }
        Csr { off, items }
    }

    /// One CSR from explicit rows.
    fn csr_of(rows: &[Vec<u32>]) -> Csr<u32> {
        let mut off = vec![0u32];
        let mut items = Vec::new();
        for row in rows {
            items.extend_from_slice(row);
            off.push(items.len() as u32);
        }
        Csr { off, items }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Counting equals pushing every entry onto its row of a
        /// `Vec<Vec<_>>`: entry order within a row, repeated entries, empty
        /// rows, rows after the last entry and no rows at all. A fresh CSR
        /// holds exactly what it needs; a reused one, whose buffers held a
        /// larger CSR before, holds the same rows.
        #[test]
        fn counting_equals_pushing_onto_rows(
            rows in 0usize..12,
            entries in proptest::collection::vec((0u32..12, 0u32..6), 0..40),
            before in proptest::collection::vec((0u32..40, 0u32..6), 40..80),
        ) {
            let entries: Vec<(u32, u32)> =
                entries.into_iter().filter(|&(row, _)| (row as usize) < rows).collect();
            let mut model = vec![Vec::new(); rows];
            for &(row, item) in &entries {
                model[row as usize].push(item);
            }
            let want = csr_of(&model);
            let fresh = Csr::count(rows, entries.iter().copied());
            prop_assert_eq!(&fresh, &want);
            prop_assert_eq!((fresh.off.capacity(), fresh.items.capacity()), (rows + 1, entries.len()));
            let mut reused = Csr::count(40, before.iter().copied());
            reused.recount(rows, entries.iter().copied());
            prop_assert_eq!(&reused, &want);
            for (r, row) in model.iter().enumerate() {
                prop_assert_eq!(reused.row(r), &row[..]);
            }
        }

        /// Both offset sinks equal a rebuild from the edited rows. Most old
        /// rows are untouched, so runs are long and come both unshifted
        /// (nothing before them changed size) and shifted (a drop, an
        /// insert, a removal or an addition did).
        #[test]
        fn splice_equals_a_naive_rebuild(
            old in proptest::collection::vec(proptest::collection::vec(0u32..64, 0..5), 0..40),
            plan in proptest::collection::vec((0u8..8, 0u8..=255, proptest::collection::vec(0u32..64, 0..3)), 40),
            fresh in proptest::collection::vec((0usize..48, proptest::collection::vec(0u32..64, 0..3)), 0..4),
        ) {
            let old: Vec<Vec<u32>> = old
                .into_iter()
                .map(|mut row| {
                    row.sort_unstable();
                    row.dedup();
                    row
                })
                .collect();
            let mut dropped = Vec::new();
            let mut rows: Vec<Edited> = Vec::new();
            for (i, (row, (kind, mask, extra))) in old.iter().zip(&plan).enumerate() {
                match kind {
                    0 => dropped.push(i as u32),
                    1 => {
                        let gone: Vec<u32> = (row.iter().enumerate())
                            .filter(|(k, _)| mask >> (k % 8) & 1 == 1)
                            .map(|(_, &x)| x)
                            .collect();
                        let mut new: Vec<u32> =
                            extra.iter().copied().filter(|x| !row.contains(x)).collect();
                        new.sort_unstable();
                        new.dedup();
                        let mut content: Vec<u32> =
                            row.iter().copied().filter(|x| !gone.contains(x)).collect();
                        content.extend(&new);
                        content.sort_unstable();
                        rows.push(Edited { content, is_new: false, gone, new });
                    }
                    _ => rows.push(Edited::kept(row.clone())),
                }
            }
            for (at, items) in fresh {
                let at = at.min(rows.len());
                let gone = Vec::new();
                rows.insert(at, Edited { content: items.clone(), is_new: true, gone, new: items });
            }
            let (mut inserted, mut removed, mut added) = (Vec::new(), Vec::new(), Vec::new());
            for (r, row) in rows.iter().enumerate() {
                if row.is_new {
                    inserted.push(r as u32);
                }
                removed.extend(row.gone.iter().map(|&x| (r as u32, x)));
                added.extend(row.new.iter().map(|&x| (r as u32, x)));
            }
            let edits = RowEdits {
                dropped: &dropped,
                inserted: &inserted,
                removed: &removed,
                added: &added,
            };
            let Csr { off: old_off, items: old_items } = csr_of(&old);
            let want = csr_of(&rows.into_iter().map(|row| row.content).collect::<Vec<_>>());
            prop_assert_eq!(&splice(&old_off, &old_items, &edits), &want);
            let mut off = vec![0u32];
            let items = splice_with(old.len(), |i| old_off[i], &old_items, &edits, |end| off.push(end));
            prop_assert_eq!(&Csr { off, items }, &want);
        }

        /// Both offset sinks equal the item-by-item merge they replaced, on
        /// rows with repeated items and additions equal to old items, a
        /// removal and an addition at one position, edits at a row's first
        /// and last item, empty, dropped and inserted rows, and offsets
        /// that start past `0`.
        #[test]
        fn splice_equals_the_item_by_item_merge(
            prefix in proptest::collection::vec(0u32..16, 0..4),
            old in proptest::collection::vec(proptest::collection::vec(0u32..16, 0..7), 0..16),
            plan in proptest::collection::vec((0u8..6, 0u8..=255, proptest::collection::vec(0u32..16, 0..4)), 16),
            fresh in proptest::collection::vec((0usize..20, proptest::collection::vec(0u32..16, 0..3)), 0..3),
        ) {
            let old: Vec<Vec<u32>> = old
                .into_iter()
                .map(|mut row| {
                    row.sort_unstable();
                    row
                })
                .collect();
            // Per new row: whether it is inserted, what leaves it, what enters it.
            let mut dropped = Vec::new();
            let mut rows: Vec<(bool, Vec<u32>, Vec<u32>)> = Vec::new();
            for (i, (row, (kind, mask, extra))) in old.iter().zip(&plan).enumerate() {
                let (first, last) = (row.first().copied(), row.last().copied());
                let (gone, mut new) = match (kind, first, last) {
                    (0, ..) => {
                        dropped.push(i as u32);
                        continue;
                    }
                    // Removals by mask, additions that may equal old items.
                    (1, ..) => {
                        let gone = (row.iter().enumerate())
                            .filter(|(k, _)| mask >> (k % 8) & 1 == 1)
                            .map(|(_, &x)| x)
                            .collect();
                        (gone, extra.clone())
                    }
                    // One item out, another in at its place.
                    (2, Some(_), _) => {
                        let k = *mask as usize % row.len();
                        let (lo, hi) = (row[k], row.get(k + 1).copied().unwrap_or(row[k] + 2));
                        (vec![row[k]], vec![lo + (hi - lo) / 2])
                    }
                    // The first and the last item out, one before and one after.
                    (3, Some(first), Some(last)) => {
                        let gone = if row.len() > 1 { vec![first, last] } else { vec![first] };
                        let before = first.saturating_sub(u32::from(mask & 1));
                        (gone, vec![before, last + u32::from(mask & 2)])
                    }
                    _ => (Vec::new(), Vec::new()),
                };
                new.sort_unstable();
                rows.push((false, gone, new));
            }
            for (at, items) in fresh {
                rows.insert(at.min(rows.len()), (true, Vec::new(), items));
            }
            let (mut inserted, mut removed, mut added) = (Vec::new(), Vec::new(), Vec::new());
            for (r, (is_new, gone, new)) in rows.iter().enumerate() {
                if *is_new {
                    inserted.push(r as u32);
                }
                removed.extend(gone.iter().map(|&x| (r as u32, x)));
                added.extend(new.iter().map(|&x| (r as u32, x)));
            }
            let edits = RowEdits {
                dropped: &dropped,
                inserted: &inserted,
                removed: &removed,
                added: &added,
            };
            // The rows sit after `prefix` in a larger items array.
            let Csr { off, items } = csr_of(&old);
            let old_off: Vec<u32> = off.iter().map(|&end| end + prefix.len() as u32).collect();
            let old_items: Vec<u32> = prefix.iter().chain(&items).copied().collect();
            let want = splice_by_items(&old_off, &old_items, &edits);
            prop_assert_eq!(&splice(&old_off, &old_items, &edits), &want);
            let mut off = vec![0u32];
            let items = splice_with(old.len(), |i| old_off[i], &old_items, &edits, |end| off.push(end));
            prop_assert_eq!(&Csr { off, items }, &want);
        }
    }
}
