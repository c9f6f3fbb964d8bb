//! Draws in generated win–move games. Above a mean out-degree of e ≈ 2.72
//! a random game draws at scale (Holroyd–Martin): a 2,000-position game at
//! out-degree 3.0 with no forward bias must have undefined `win` atoms,
//! and on it the modular engine must agree with the alternating fixpoint
//! of `wfdl-reference`.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use wfdatalog::wfs::{solve, WfsOptions};
use wfdatalog::Universe;
use wfdl_gen::{winmove_database, winmove_sigma, WinMoveConfig};
use wfdl_reference::AlternatingEngine;

#[test]
fn a_game_above_the_threshold_draws_and_the_engines_agree() {
    // Undefined `win` atoms per seed, as the generator makes them today:
    // about half of the 2,000 positions.
    let expected = [(1, 1_136), (2, 1_005), (3, 1_180), (4, 1_208)];
    for (seed, undefined) in expected {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let cfg = WinMoveConfig {
            nodes: 2_000,
            out_degree: 3.0,
            forward_bias: 0.0,
            seed,
        };
        let db = winmove_database(&mut u, &cfg);
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
        let reference = AlternatingEngine::new(&model.ground).solve();
        for &atom in model.ground.atoms() {
            assert_eq!(
                model.value(atom),
                reference.value(atom),
                "seed {seed}: {}",
                u.display_atom(atom)
            );
        }
        let win = u.lookup_pred("win").unwrap();
        let drawn = (model.unknown_atoms())
            .filter(|&a| u.atoms.pred(a) == win)
            .count();
        assert!(drawn > 0, "seed {seed}: no draw");
        assert_eq!(drawn, undefined, "seed {seed}");
    }
}
