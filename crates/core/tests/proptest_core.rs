//! Property-based tests for the core data structures: bitsets, interners,
//! bindings and interpretations.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::collections::HashSet;
use wfdl_core::{AtomId, Binding, BitSet, Interp, SymbolTable, Truth, Universe};

#[derive(Clone, Debug)]
enum SetOp {
    Insert(u16),
    Remove(u16),
    Contains(u16),
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..512).prop_map(SetOp::Insert),
            (0u16..512).prop_map(SetOp::Remove),
            (0u16..512).prop_map(SetOp::Contains),
        ],
        0..200,
    )
}

proptest! {
    /// Model-based test: BitSet behaves exactly like HashSet<usize>.
    #[test]
    fn bitset_matches_hashset_model(ops in set_ops()) {
        let mut bs = BitSet::new();
        let mut model: HashSet<usize> = HashSet::new();
        for op in ops {
            match op {
                SetOp::Insert(i) => {
                    let i = i as usize;
                    prop_assert_eq!(bs.insert(i), model.insert(i));
                }
                SetOp::Remove(i) => {
                    let i = i as usize;
                    prop_assert_eq!(bs.remove(i), model.remove(&i));
                }
                SetOp::Contains(i) => {
                    let i = i as usize;
                    prop_assert_eq!(bs.contains(i), model.contains(&i));
                }
            }
            prop_assert_eq!(bs.len(), model.len());
        }
        let mut from_iter: Vec<usize> = bs.iter().collect();
        let mut from_model: Vec<usize> = model.into_iter().collect();
        from_iter.sort_unstable();
        from_model.sort_unstable();
        prop_assert_eq!(from_iter, from_model);
    }

    /// Union agrees with the HashSet model and reports change correctly.
    #[test]
    fn bitset_union_model(a in proptest::collection::hash_set(0usize..256, 0..64),
                          b in proptest::collection::hash_set(0usize..256, 0..64)) {
        let mut x: BitSet = a.iter().copied().collect();
        let y: BitSet = b.iter().copied().collect();
        let changed = x.union_with(&y);
        let expected: HashSet<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(changed, expected.len() != a.len());
        prop_assert_eq!(x.len(), expected.len());
        for &i in &expected {
            prop_assert!(x.contains(i));
        }
        prop_assert!(y.is_subset(&x));
    }

    /// Symbol interning: same string ↔ same symbol; resolve round-trips.
    #[test]
    fn symbol_interning_bijective(names in proptest::collection::vec("[a-z][a-z0-9_]{0,12}", 1..50)) {
        let mut table = SymbolTable::new();
        let mut by_name = std::collections::HashMap::new();
        for name in &names {
            let sym = table.intern(name);
            if let Some(&prev) = by_name.get(name) {
                prop_assert_eq!(prev, sym);
            }
            by_name.insert(name.clone(), sym);
            prop_assert_eq!(table.resolve(sym), name.as_str());
        }
        let distinct: HashSet<&String> = names.iter().collect();
        prop_assert_eq!(table.len(), distinct.len());
    }

    /// Term/atom hash-consing: structurally equal ⇒ same id, and distinct
    /// argument vectors ⇒ distinct ids.
    #[test]
    fn atom_interning_respects_structure(
        tuples in proptest::collection::vec(proptest::collection::vec(0usize..6, 2), 1..40)
    ) {
        let mut u = Universe::new();
        let p = u.pred("p", 2).unwrap();
        let consts: Vec<_> = (0..6).map(|i| u.constant(&format!("c{i}"))).collect();
        let mut ids = std::collections::HashMap::new();
        for args in &tuples {
            let terms: Vec<_> = args.iter().map(|&i| consts[i]).collect();
            let id = u.atom(p, terms).unwrap();
            if let Some(&prev) = ids.get(args) {
                prop_assert_eq!(prev, id);
            }
            ids.insert(args.clone(), id);
        }
        let distinct: HashSet<&Vec<usize>> = tuples.iter().collect();
        let distinct_ids: HashSet<AtomId> = ids.values().copied().collect();
        prop_assert_eq!(distinct.len(), distinct_ids.len());
    }

    /// Bindings: bind is idempotent on equal values, rejects conflicts.
    #[test]
    fn binding_consistency(assignments in proptest::collection::vec((0usize..8, 0u32..4), 0..30)) {
        let mut u = Universe::new();
        let consts: Vec<_> = (0..4).map(|i| u.constant(&format!("k{i}"))).collect();
        let mut binding = Binding::new(8);
        let mut model: std::collections::HashMap<usize, u32> = Default::default();
        for (var, val) in assignments {
            let ok = binding.bind(var, consts[val as usize]);
            match model.get(&var) {
                None => {
                    prop_assert!(ok);
                    model.insert(var, val);
                }
                Some(&prev) => prop_assert_eq!(ok, prev == val),
            }
            prop_assert_eq!(binding.get(var).is_some(), model.contains_key(&var));
        }
    }

    /// Interp counts track assignments; knowledge order is reflexive and
    /// respects extension.
    #[test]
    fn interp_counts_and_order(vals in proptest::collection::vec(0u8..3, 0..60)) {
        let mut interp = Interp::new();
        let mut t = 0usize;
        let mut f = 0usize;
        for (i, &v) in vals.iter().enumerate() {
            let atom = AtomId::from_index(i);
            match v {
                0 => {}
                1 => {
                    interp.set_true(atom);
                    t += 1;
                }
                _ => {
                    interp.set_false(atom);
                    f += 1;
                }
            }
        }
        prop_assert_eq!(interp.num_true(), t);
        prop_assert_eq!(interp.num_false(), f);
        prop_assert!(interp.subsumed_by(&interp));
        // Extending with one more literal preserves the order.
        let mut bigger = interp.clone();
        let fresh = AtomId::from_index(vals.len());
        bigger.set_true(fresh);
        prop_assert!(interp.subsumed_by(&bigger));
        prop_assert_eq!(bigger.value(fresh), Truth::True);
        prop_assert!(!bigger.subsumed_by(&interp));
    }

    /// Skolem-term interning: distinct functions or arguments give
    /// distinct terms (UNA) and depth is 1 + max argument depth.
    #[test]
    fn skolem_terms_una(args1 in proptest::collection::vec(0usize..4, 1..4),
                        args2 in proptest::collection::vec(0usize..4, 1..4)) {
        let mut u = Universe::new();
        let consts: Vec<_> = (0..4).map(|i| u.constant(&format!("c{i}"))).collect();
        let f = u.skolem_fn("f", args1.len()).unwrap();
        let t1 = u
            .skolem_term(f, args1.iter().map(|&i| consts[i]).collect::<Vec<_>>())
            .unwrap();
        prop_assert_eq!(u.terms.depth(t1), 1);
        if args2.len() == args1.len() {
            let t2 = u
                .skolem_term(f, args2.iter().map(|&i| consts[i]).collect::<Vec<_>>())
                .unwrap();
            prop_assert_eq!(t1 == t2, args1 == args2);
        }
        // Nesting increases depth by one.
        let g = u.skolem_fn("g", 1).unwrap();
        let nested = u.skolem_term(g, vec![t1]).unwrap();
        prop_assert_eq!(u.terms.depth(nested), 2);
    }
}

/// One CSR from explicit rows: the recount `csr::splice` must agree with.
fn csr_of(rows: &[Vec<u32>]) -> wfdl_core::csr::Csr<u32> {
    let mut off = vec![0u32];
    let mut items = Vec::new();
    for row in rows {
        items.extend_from_slice(row);
        off.push(items.len() as u32);
    }
    wfdl_core::csr::Csr { off, items }
}

/// A row of the edited CSR: its final content and what the edit says about
/// it.
struct EditedRow {
    is_new: bool,
    content: Vec<u32>,
    gone: Vec<u32>,
    new: Vec<u32>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `csr::splice` equals rebuilding the CSR from the edited rows, over
    /// random rows, dropped rows, inserted rows (items kept as given),
    /// removals and merged additions — rows that empty out included.
    #[test]
    fn csr_splice_equals_recount(
        old in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..6), 0..10),
        plan in proptest::collection::vec(
            (0u8..5, 0u8..=255, proptest::collection::vec(0u32..40, 0..4)),
            10,
        ),
        fresh in proptest::collection::vec(
            (0usize..16, proptest::collection::vec(0u32..40, 0..4)),
            0..5,
        ),
    ) {
        use wfdl_core::csr::{splice, RowEdits};
        let old: Vec<Vec<u32>> = old
            .into_iter()
            .map(|mut row| {
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        // Surviving rows with what leaves and enters them.
        let mut dropped = Vec::new();
        let mut rows: Vec<EditedRow> = Vec::new();
        for (i, (row, (kind, mask, extra))) in old.iter().zip(&plan).enumerate() {
            if *kind == 0 {
                dropped.push(i as u32);
                continue;
            }
            let gone: Vec<u32> = (row.iter().enumerate())
                .filter(|(k, _)| mask >> (k % 8) & 1 == 1)
                .map(|(_, &x)| x)
                .collect();
            let mut new: Vec<u32> = extra.iter().copied().filter(|x| !row.contains(x)).collect();
            new.sort_unstable();
            new.dedup();
            let mut content: Vec<u32> =
                row.iter().copied().filter(|x| !gone.contains(x)).chain(new.iter().copied()).collect();
            content.sort_unstable();
            rows.push(EditedRow { is_new: false, content, gone, new });
        }
        for (at, items) in fresh {
            let at = at.min(rows.len());
            rows.insert(at, EditedRow { is_new: true, content: items.clone(), gone: Vec::new(), new: items });
        }
        let (mut inserted, mut removed, mut added) = (Vec::new(), Vec::new(), Vec::new());
        for (r, row) in rows.iter().enumerate() {
            if row.is_new {
                inserted.push(r as u32);
            }
            removed.extend(row.gone.iter().map(|&x| (r as u32, x)));
            added.extend(row.new.iter().map(|&x| (r as u32, x)));
        }
        let wfdl_core::csr::Csr {
            off: old_off,
            items: old_items,
        } = csr_of(&old);
        let edits = RowEdits {
            dropped: &dropped,
            inserted: &inserted,
            removed: &removed,
            added: &added,
        };
        let want: Vec<Vec<u32>> = rows.into_iter().map(|row| row.content).collect();
        prop_assert_eq!(splice(&old_off, &old_items, &edits), csr_of(&want));
    }
}
