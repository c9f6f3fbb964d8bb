//! The one piece of shared mutable state on the read path: an
//! [`AtomIndex`] builds a predicate's key table on the first bound lookup
//! of that predicate, through `&self`, from whichever thread asks first.
//! Readers that race for that first lookup must all see the one table.
//! (An integration test: `tests/crate_graph.rs` keeps thread spawns out of
//! the solve-path crates' `src/`.)

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Barrier;
use wfdl_core::{AtomId, TermId, Universe};
use wfdl_storage::AtomIndex;

const THREADS: usize = 8;

#[test]
fn first_lookup_is_race_free() {
    let mut u = Universe::new();
    let edge = u.pred("edge", 2).unwrap();
    let other = u.pred("other", 1).unwrap();
    let nodes: Vec<TermId> = (0..64).map(|i| u.constant(&format!("n{i}"))).collect();
    let mut atoms: Vec<AtomId> = Vec::new();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i % 7..] {
            atoms.push(u.atom(edge, [a, b]).unwrap());
        }
        atoms.push(u.atom(other, [a]).unwrap());
    }
    let keys: Vec<(u32, TermId)> = (0..2)
        .flat_map(|pos| nodes.iter().map(move |&n| (pos, n)))
        .collect();

    // One build, one thread: the slices and the size to agree with.
    let reference = AtomIndex::build(&u, atoms.iter().copied());
    let rows_only = reference.heap_bytes();
    let lookups = |index: &AtomIndex| -> Vec<Vec<AtomId>> {
        let row = |&(pos, term)| index.with_pred_pos_term(&u, edge, pos, term).to_vec();
        keys.iter().map(row).collect()
    };
    let expected = lookups(&reference);
    assert!(expected.iter().all(|row| !row.is_empty()));
    assert!(reference.heap_bytes() > rows_only);

    for _ in 0..16 {
        let index = AtomIndex::build(&u, atoms.iter().copied());
        assert_eq!(index.heap_bytes(), rows_only);
        let barrier = Barrier::new(THREADS);
        // Every thread's first act is the first bound lookup of `edge`;
        // each reports where its first slice lives besides what it holds.
        let seen: Vec<(usize, Vec<Vec<AtomId>>)> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (pos, term) = keys[0];
                        let first = index.with_pred_pos_term(&u, edge, pos, term);
                        (first.as_ptr() as usize, lookups(&index))
                    })
                })
                .collect();
            let join = |reader: std::thread::ScopedJoinHandle<'_, _>| reader.join().unwrap();
            readers.into_iter().map(join).collect()
        });
        for (at, rows) in &seen {
            assert_eq!(rows, &expected, "identical slices");
            assert_eq!(*at, seen[0].0, "out of one table");
        }
        assert_eq!(index.heap_bytes(), reference.heap_bytes(), "one build");
        assert_eq!(index.stats().key_tables_built, 1, "`other` was not read");
    }
}
