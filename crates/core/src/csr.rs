//! Patching compressed-sparse-row arrays instead of recounting them.
//!
//! Every occurrence index a solve reads — the ground program's
//! head/positive/negative rows, the atom index's predicate and key rows,
//! the condensation's component rows — is one `offsets` array (`rows + 1`
//! entries) over one flat `items` array. (So are the chase segment's
//! guard/head/body rows, but no solve reads those: a segment counts them
//! when first asked.) A resumed solve changes a few rows of each; [`splice`]
//! derives the new pair from the old one by copying the untouched runs
//! between the touched rows (`memcpy` for the items, one constant shift per
//! run for the offsets) and rewriting only the touched rows. No per-item
//! scatter, no counting pass, no hashing: the cost is one sequential copy
//! plus work proportional to the edit.

use crate::dense_u32;

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

/// Applies `edits` to the CSR `(old_off, old_items)`, returning the new
/// offsets and items.
///
/// # Panics
///
/// Panics if the new item count leaves the `u32` offset space or the edit
/// lists name more rows than there are, and (debug builds) if they are not
/// ascending or name an item a row does not hold.
pub fn splice<T: Copy + Ord>(
    old_off: &[u32],
    old_items: &[T],
    edits: &RowEdits<'_, T>,
) -> (Vec<u32>, Vec<T>) {
    let old_rows = old_off.len().saturating_sub(1);
    let mut off = Vec::with_capacity(old_rows - edits.dropped.len() + edits.inserted.len() + 1);
    off.push(0u32);
    let items = splice_with(
        old_rows,
        |i| old_off[i],
        old_items,
        edits,
        |end| {
            off.push(end);
        },
    );
    (off, items)
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
    let _ = dense_u32(old_items.len() + added.len(), "csr items");

    let mut items = Vec::with_capacity(old_items.len() + added.len() - removed.len());
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
            for i in o + 1..=o + run {
                push_end(old_off(i).wrapping_add(shift));
            }
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
            debug_assert!(rem.next().is_none(), "row {row} lacks a removed item");
            items.extend(add.map(|&(_, x)| x));
            o += 1;
        }
        push_end(items.len() as u32);
        r += 1;
    }
    debug_assert!(inserted.is_empty() && removed.is_empty() && added.is_empty());
    items
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

    #[test]
    fn no_edits_is_a_copy() {
        let off = [0u32, 2, 2, 5];
        let items = [7u32, 9, 1, 2, 3];
        let (o, i) = splice(&off, &items, &RowEdits::default());
        assert_eq!(o, off);
        assert_eq!(i, items);
        let (o, i) = splice::<u32>(&[0], &[], &RowEdits::default());
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
        let (o, i) = splice(&off, &items, &edits);
        // new rows: [4,2] [20,30,40] [5] [8] [1]
        assert_eq!(o, vec![0, 2, 5, 6, 7, 8]);
        assert_eq!(i, vec![4, 2, 20, 30, 40, 5, 8, 1]);
    }
}
