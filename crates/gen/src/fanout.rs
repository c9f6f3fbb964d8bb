//! Wide-fanout workload: thousands of shallow, mutually independent
//! dependency components.
//!
//! Every group `i` contributes its own private cone of ground atoms —
//! `src(cᵢ)` (fact) feeding `mid(cᵢ)` through a stratified negation on the
//! never-derivable `excl(cᵢ)`, then `out(cᵢ)` — and a configurable
//! fraction of groups additionally carries a genuine two-atom negative
//! cycle `flip(cᵢ) ⇄ flop(cᵢ)` seeded by a `pick(cᵢ)` fact (both come out
//! undefined). No rule connects two groups, so the condensation is
//! thousands of singleton (plus some two-atom recursive) components spread
//! over just a handful of topological levels.
//!
//! The per-component work is tiny, so any per-component overhead in the
//! engine shows up directly; and since no rule connects two groups, a
//! goal's slice is a small part of the program (`benches/sliced_query.rs`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wfdl_core::{Program, RTerm, RuleAtom, SkolemProgram, Universe, Var};
use wfdl_storage::Database;

/// Parameters for the wide-fanout generator.
#[derive(Clone, Copy, Debug)]
pub struct FanoutConfig {
    /// Number of independent groups.
    pub groups: usize,
    /// Fraction of groups that also get the `flip ⇄ flop` draw cycle.
    pub recursive_fraction: f64,
    /// RNG seed (selects which groups are recursive).
    pub seed: u64,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig {
            groups: 2048,
            recursive_fraction: 0.25,
            seed: 2013,
        }
    }
}

/// Builds the fanout rule set on `universe`:
///
/// ```text
/// src(X), not excl(X) -> mid(X).
/// mid(X)              -> out(X).
/// pick(X), not flop(X) -> flip(X).
/// pick(X), not flip(X) -> flop(X).
/// ```
pub fn fanout_sigma(universe: &mut Universe) -> SkolemProgram {
    let src = universe.pred("src", 1).expect("arity");
    let excl = universe.pred("excl", 1).expect("arity");
    let mid = universe.pred("mid", 1).expect("arity");
    let out = universe.pred("out", 1).expect("arity");
    let pick = universe.pred("pick", 1).expect("arity");
    let flip = universe.pred("flip", 1).expect("arity");
    let flop = universe.pred("flop", 1).expect("arity");
    let x = RTerm::Var(Var::new(0));
    let mut prog = Program::new();
    let tgd = |u: &mut Universe, pos: Vec<RuleAtom>, neg: Vec<RuleAtom>, head: RuleAtom| {
        wfdl_core::Tgd::new(u, pos, neg, vec![head]).expect("guarded")
    };
    let atom = |p, t: &RTerm| RuleAtom::new(p, vec![*t]);
    prog.push(tgd(
        universe,
        vec![atom(src, &x)],
        vec![atom(excl, &x)],
        atom(mid, &x),
    ));
    prog.push(tgd(universe, vec![atom(mid, &x)], vec![], atom(out, &x)));
    prog.push(tgd(
        universe,
        vec![atom(pick, &x)],
        vec![atom(flop, &x)],
        atom(flip, &x),
    ));
    prog.push(tgd(
        universe,
        vec![atom(pick, &x)],
        vec![atom(flip, &x)],
        atom(flop, &x),
    ));
    prog.skolemize(universe).expect("skolemizable")
}

/// Generates the `src(cᵢ)` facts for every group and `pick(cᵢ)` for the
/// randomly chosen recursive fraction. Must be used with [`fanout_sigma`]
/// built on the same universe.
pub fn fanout_database(universe: &mut Universe, cfg: &FanoutConfig) -> Database {
    let src = universe.pred("src", 1).expect("arity");
    let pick = universe.pred("pick", 1).expect("arity");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new();
    for i in 0..cfg.groups {
        let c = universe.constant(&format!("c{i}"));
        let f = universe.atom(src, vec![c]).expect("arity");
        db.insert(universe, f).expect("ground");
        if rng.random_bool(cfg.recursive_fraction.clamp(0.0, 1.0)) {
            let p = universe.atom(pick, vec![c]).expect("arity");
            db.insert(universe, p).expect("ground");
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_core::Truth;
    use wfdl_wfs::{solve, WfsOptions};

    #[test]
    fn groups_are_independent_and_shallow() {
        let mut u = Universe::new();
        let sigma = fanout_sigma(&mut u);
        let cfg = FanoutConfig {
            groups: 64,
            recursive_fraction: 0.5,
            seed: 7,
        };
        let db = fanout_database(&mut u, &cfg);
        let model = solve(&mut u, &db, &sigma, WfsOptions::unbounded());
        assert!(model.exact, "no existentials: the chase terminates");
        let stats = model.component_stats().unwrap();
        // Every group contributes ≥4 singleton components; no component
        // ever exceeds the 2-atom draw cycle.
        assert!(stats.components >= cfg.groups * 4, "{stats:?}");
        assert!(stats.largest_component <= 2, "{stats:?}");
        assert!(stats.recursive_components > 0, "{stats:?}");

        let out = u.lookup_pred("out").unwrap();
        let flip = u.lookup_pred("flip").unwrap();
        let c0 = u.lookup_constant("c0").unwrap();
        let o0 = u.atoms.lookup(out, &[c0]).unwrap();
        assert_eq!(model.value(o0), Truth::True, "out(c0) derives");
        // Each picked group's flip/flop pair is genuinely undefined.
        let picked = u.lookup_pred("pick").unwrap();
        let mut drawn = 0;
        for i in 0..cfg.groups {
            let c = u.lookup_constant(&format!("c{i}")).unwrap();
            if u.atoms.lookup(picked, &[c]).is_some() {
                let f = u.atoms.lookup(flip, &[c]).unwrap();
                assert_eq!(model.value(f), Truth::Unknown, "flip(c{i})");
                drawn += 1;
            }
        }
        assert!(drawn > 0, "seed must pick some recursive groups");
        assert_eq!(stats.unknown_atoms, 2 * drawn);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut u = Universe::new();
            let _ = fanout_sigma(&mut u);
            fanout_database(
                &mut u,
                &FanoutConfig {
                    groups: 128,
                    seed,
                    ..Default::default()
                },
            )
            .len()
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2), "different seeds pick different groups");
    }
}
