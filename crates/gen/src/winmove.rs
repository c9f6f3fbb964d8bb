//! The win–move game: the classic workload whose well-founded models can be
//! three-valued.
//!
//! `win(X) ← move(X,Y), ¬win(Y)` — a position is won iff some move leads
//! to a lost position; positions on draw cycles come out **undefined**.
//! The rule is guarded (`move(X,Y)` contains both variables) and has no
//! existentials, so the chase terminates and the WFS is exact: ideal for
//! engine cross-validation and the data-complexity experiment E9.
//!
//! Whether [`winmove_database`] makes draws depends on its mean out-degree.
//! Small games can draw at any setting. At scale, draws need a mean
//! out-degree above e ≈ 2.72, the threshold known for random games
//! (Holroyd–Martin, "Galton–Watson games"). At 50,000 positions and
//! out-degree 2.0 a game has at most a few dozen undefined positions; at
//! 3.0 with no forward bias, 2,000-position games leave about half of
//! their positions undefined (`tests/winmove_draws.rs`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wfdl_core::{Program, RTerm, RuleAtom, SkolemProgram, Tgd, Universe, Var};
use wfdl_storage::Database;

/// Parameters for random game-graph generation.
#[derive(Clone, Copy, Debug)]
pub struct WinMoveConfig {
    /// Number of positions.
    pub nodes: usize,
    /// Expected out-degree of each position (see the module docs for
    /// what it takes to draw).
    pub out_degree: f64,
    /// Fraction of edges forced forward (`u < v`), keeping alternation
    /// depth bounded; the remainder may create cycles (draws).
    pub forward_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WinMoveConfig {
    fn default() -> Self {
        WinMoveConfig {
            nodes: 64,
            out_degree: 2.0,
            forward_bias: 0.8,
            seed: 0xBADC0FFE,
        }
    }
}

/// Builds the single-rule win–move program on `universe`.
pub fn winmove_sigma(universe: &mut Universe) -> SkolemProgram {
    let mv = universe.pred("move", 2).expect("arity");
    let win = universe.pred("win", 1).expect("arity");
    let x = RTerm::Var(Var::new(0));
    let y = RTerm::Var(Var::new(1));
    let mut prog = Program::new();
    prog.push(
        Tgd::new(
            universe,
            vec![RuleAtom::new(mv, vec![x, y])],
            vec![RuleAtom::new(win, vec![y])],
            vec![RuleAtom::new(win, vec![x])],
        )
        .expect("guarded")
        .with_label("win"),
    );
    prog.skolemize(universe).expect("skolemizable")
}

/// Generates a random game graph as `move/2` facts.
pub fn winmove_database(universe: &mut Universe, cfg: &WinMoveConfig) -> Database {
    let mv = universe.pred("move", 2).expect("arity");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let nodes: Vec<_> = (0..cfg.nodes)
        .map(|i| universe.constant(&format!("n{i}")))
        .collect();
    let mut db = Database::new();
    let num_edges = (cfg.nodes as f64 * cfg.out_degree) as usize;
    for _ in 0..num_edges {
        let u_ix = rng.random_range(0..cfg.nodes);
        let v_ix = if rng.random_bool(cfg.forward_bias.clamp(0.0, 1.0)) && u_ix + 1 < cfg.nodes {
            rng.random_range(u_ix + 1..cfg.nodes)
        } else {
            rng.random_range(0..cfg.nodes)
        };
        if u_ix == v_ix {
            continue; // no trivial self-draw edges
        }
        let atom = universe
            .atom(mv, vec![nodes[u_ix], nodes[v_ix]])
            .expect("arity");
        db.insert(universe, atom).expect("ground");
    }
    db
}

/// Builds a deterministic path game `n0 → n1 → … → n(k-1)`: positions
/// alternate won/lost from the end, no draws. Useful for exact assertions.
pub fn winmove_path(universe: &mut Universe, length: usize) -> Database {
    let mv = universe.pred("move", 2).expect("arity");
    let mut db = Database::new();
    let nodes: Vec<_> = (0..length)
        .map(|i| universe.constant(&format!("n{i}")))
        .collect();
    for w in nodes.windows(2) {
        let atom = universe.atom(mv, vec![w[0], w[1]]).expect("arity");
        db.insert(universe, atom).expect("ground");
    }
    db
}

/// Builds a cycle of `length` positions: with odd length, every position is
/// drawn (undefined); the classic total-undefinedness case.
pub fn winmove_cycle(universe: &mut Universe, length: usize) -> Database {
    let mv = universe.pred("move", 2).expect("arity");
    let mut db = Database::new();
    let nodes: Vec<_> = (0..length)
        .map(|i| universe.constant(&format!("n{i}")))
        .collect();
    for i in 0..length {
        let atom = universe
            .atom(mv, vec![nodes[i], nodes[(i + 1) % length]])
            .expect("arity");
        db.insert(universe, atom).expect("ground");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_core::Truth;
    use wfdl_reference::{AlternatingEngine, ForwardEngine};
    use wfdl_wfs::{solve, WfsOptions};

    fn win_value(u: &Universe, model: &wfdl_wfs::WellFoundedModel, i: usize) -> Truth {
        let win = u.lookup_pred("win").unwrap();
        let n = u.lookup_constant(&format!("n{i}")).unwrap();
        match u.atoms.lookup(win, &[n]) {
            Some(a) => model.value(a),
            None => Truth::False,
        }
    }

    #[test]
    fn path_alternates() {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = winmove_path(&mut u, 5);
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
        assert!(model.exact);
        // n4 has no move: lost. n3: won. n2: lost. n1: won. n0: lost.
        assert_eq!(win_value(&u, &model, 4), Truth::False);
        assert_eq!(win_value(&u, &model, 3), Truth::True);
        assert_eq!(win_value(&u, &model, 2), Truth::False);
        assert_eq!(win_value(&u, &model, 1), Truth::True);
        assert_eq!(win_value(&u, &model, 0), Truth::False);
    }

    #[test]
    fn odd_cycle_is_all_drawn() {
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = winmove_cycle(&mut u, 5);
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
        for i in 0..5 {
            assert_eq!(win_value(&u, &model, i), Truth::Unknown, "n{i}");
        }
    }

    #[test]
    fn even_cycle_is_all_drawn_too() {
        // In win–move, any cycle without an escape to a lost position is a
        // draw regardless of parity (both players can avoid losing).
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = winmove_cycle(&mut u, 4);
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
        for i in 0..4 {
            assert_eq!(win_value(&u, &model, i), Truth::Unknown, "n{i}");
        }
    }

    #[test]
    fn random_graph_engines_agree() {
        let cfg = WinMoveConfig {
            nodes: 48,
            out_degree: 1.8,
            forward_bias: 0.7,
            seed: 7,
        };
        let mut u = Universe::new();
        let sigma = winmove_sigma(&mut u);
        let db = winmove_database(&mut u, &cfg);
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
        let alt = AlternatingEngine::new(&model.ground).solve();
        let fwd = ForwardEngine::new(&model.segment).solve();
        for sa in model.segment.atoms() {
            assert_eq!(model.value(sa.atom), alt.value(sa.atom));
            assert_eq!(model.value(sa.atom), fwd.value(sa.atom));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mk = || {
            let mut u = Universe::new();
            let _ = winmove_sigma(&mut u);
            let db = winmove_database(&mut u, &WinMoveConfig::default());
            db.len()
        };
        assert_eq!(mk(), mk());
    }
}
