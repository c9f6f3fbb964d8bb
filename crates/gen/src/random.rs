//! Random guarded normal Datalog± programs and databases.
//!
//! Rules are guarded **by construction**: a guard atom over distinct fresh
//! variables is drawn first, and every other body atom, negated atom and
//! head argument draws from the guard's variables (heads may additionally
//! introduce existentials). A stratified variant assigns predicates to
//! strata and only negates strictly lower predicates, for experiment E8.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wfdl_core::{Program, RTerm, RuleAtom, SkolemProgram, Tgd, Universe, Var};
use wfdl_storage::Database;

/// Parameters for random program generation.
#[derive(Clone, Copy, Debug)]
pub struct RandomConfig {
    /// Number of predicates (`|R|`).
    pub num_preds: usize,
    /// Maximum predicate arity (`w`), ≥ 1.
    pub max_arity: usize,
    /// Number of TGDs.
    pub num_rules: usize,
    /// Extra positive body atoms per rule (beyond the guard), expected.
    pub extra_pos: f64,
    /// Probability that a rule gets a negated body atom.
    pub negation_prob: f64,
    /// Probability that a head argument position is existential.
    pub existential_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            num_preds: 6,
            max_arity: 2,
            num_rules: 10,
            extra_pos: 1.0,
            negation_prob: 0.5,
            existential_prob: 0.2,
            seed: 42,
        }
    }
}

/// A generated workload.
#[derive(Debug)]
pub struct RandomWorkload {
    /// The skolemized program.
    pub sigma: SkolemProgram,
    /// Predicate ids, index `i` = predicate `p{i}`.
    pub preds: Vec<wfdl_core::PredId>,
    /// Arity per predicate.
    pub arities: Vec<usize>,
}

/// Generates a random guarded normal program. Predicates are named
/// `p0 … p{n-1}` with arities cycling `1..=max_arity`.
pub fn random_program(universe: &mut Universe, cfg: &RandomConfig) -> RandomWorkload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    build(universe, cfg, &mut rng, None)
}

/// Generates a random **stratified** guarded normal program: predicate
/// `p{i}` is on stratum `i % num_strata`, and negated body atoms only use
/// strictly lower strata (head strata are maximal in their rules).
pub fn random_stratified_program(
    universe: &mut Universe,
    cfg: &RandomConfig,
    num_strata: usize,
) -> RandomWorkload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    build(universe, cfg, &mut rng, Some(num_strata.max(1)))
}

fn build(
    universe: &mut Universe,
    cfg: &RandomConfig,
    rng: &mut StdRng,
    strata: Option<usize>,
) -> RandomWorkload {
    assert!(cfg.max_arity >= 1, "guards need at least one variable");
    assert!(cfg.num_preds >= 2);
    let mut preds = Vec::with_capacity(cfg.num_preds);
    let mut arities = Vec::with_capacity(cfg.num_preds);
    for i in 0..cfg.num_preds {
        let arity = 1 + i % cfg.max_arity;
        preds.push(universe.pred(&format!("p{i}"), arity).expect("fresh"));
        arities.push(arity);
    }
    let stratum = |i: usize| strata.map(|s| i % s).unwrap_or(0);

    let mut prog = Program::new();
    let mut attempts = 0usize;
    while prog.tgds.len() < cfg.num_rules && attempts < cfg.num_rules * 20 {
        attempts += 1;
        // Guard: random predicate, distinct variables 0..arity.
        let g = rng.random_range(0..cfg.num_preds);
        let g_arity = arities[g];
        let guard = RuleAtom::new(
            preds[g],
            (0..g_arity as u32)
                .map(|i| RTerm::Var(Var::new(i)))
                .collect::<Vec<_>>(),
        );
        let mut body_pos = vec![guard];
        // Head predicate: under stratification, at least the guard's stratum.
        let head_cands: Vec<usize> = (0..cfg.num_preds)
            .filter(|&h| strata.is_none() || stratum(h) >= stratum(g))
            .collect();
        if head_cands.is_empty() {
            continue;
        }
        let h = head_cands[rng.random_range(0..head_cands.len())];

        // Extra positive atoms over guard variables; under stratification
        // they must not exceed the head's stratum.
        let n_extra = if rng.random_bool((cfg.extra_pos / (1.0 + cfg.extra_pos)).clamp(0.0, 1.0)) {
            1
        } else {
            0
        };
        for _ in 0..n_extra {
            let cands: Vec<usize> = (0..cfg.num_preds)
                .filter(|&p| arities[p] <= g_arity)
                .filter(|&p| strata.is_none() || stratum(p) <= stratum(h))
                .collect();
            if cands.is_empty() {
                continue;
            }
            let p = cands[rng.random_range(0..cands.len())];
            let args: Vec<RTerm> = (0..arities[p])
                .map(|_| RTerm::Var(Var::new(rng.random_range(0..g_arity) as u32)))
                .collect();
            body_pos.push(RuleAtom::new(preds[p], args));
        }

        // Negated atom: under stratification, strictly below the head.
        let mut body_neg = Vec::new();
        if rng.random_bool(cfg.negation_prob.clamp(0.0, 1.0)) {
            let cands: Vec<usize> = (0..cfg.num_preds)
                .filter(|&p| arities[p] <= g_arity)
                .filter(|&p| strata.is_none() || stratum(p) < stratum(h))
                .collect();
            if !cands.is_empty() {
                let p = cands[rng.random_range(0..cands.len())];
                let args: Vec<RTerm> = (0..arities[p])
                    .map(|_| RTerm::Var(Var::new(rng.random_range(0..g_arity) as u32)))
                    .collect();
                body_neg.push(RuleAtom::new(preds[p], args));
            }
        }

        // Head: arguments from guard vars, possibly existential.
        let mut next_exist = g_arity as u32;
        let args: Vec<RTerm> = (0..arities[h])
            .map(|_| {
                if rng.random_bool(cfg.existential_prob.clamp(0.0, 1.0)) {
                    let v = Var::new(next_exist);
                    next_exist += 1;
                    RTerm::Var(v)
                } else {
                    RTerm::Var(Var::new(rng.random_range(0..g_arity) as u32))
                }
            })
            .collect();
        let head = RuleAtom::new(preds[h], args);

        if let Ok(tgd) = Tgd::new(universe, body_pos, body_neg, vec![head]) {
            prog.push(tgd);
        }
    }
    let sigma = prog.skolemize(universe).expect("generated rules are valid");
    RandomWorkload {
        sigma,
        preds,
        arities,
    }
}

/// A seeded Fisher–Yates permutation of `0..n` (shared by generators that
/// need a random subset).
pub fn shuffle_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// Parameters for random databases.
#[derive(Clone, Copy, Debug)]
pub struct RandomDbConfig {
    /// Number of constants.
    pub num_constants: usize,
    /// Number of facts to draw (duplicates collapse).
    pub num_facts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomDbConfig {
    fn default() -> Self {
        RandomDbConfig {
            num_constants: 8,
            num_facts: 16,
            seed: 43,
        }
    }
}

/// Generates a random database over a workload's predicates.
pub fn random_database(
    universe: &mut Universe,
    workload: &RandomWorkload,
    cfg: &RandomDbConfig,
) -> Database {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let consts: Vec<_> = (0..cfg.num_constants)
        .map(|i| universe.constant(&format!("k{i}")))
        .collect();
    let mut db = Database::new();
    for _ in 0..cfg.num_facts {
        let p = rng.random_range(0..workload.preds.len());
        let args: Vec<_> = (0..workload.arities[p])
            .map(|_| consts[rng.random_range(0..consts.len())])
            .collect();
        let atom = universe.atom(workload.preds[p], args).expect("arity");
        db.insert(universe, atom).expect("ground");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_reference::stratify;

    #[test]
    fn generated_programs_are_well_formed() {
        for seed in 0..20 {
            let mut u = Universe::new();
            let cfg = RandomConfig {
                seed,
                ..Default::default()
            };
            let w = random_program(&mut u, &cfg);
            assert!(!w.sigma.rules.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn stratified_generator_yields_stratifiable_programs() {
        for seed in 0..20 {
            let mut u = Universe::new();
            let cfg = RandomConfig {
                seed,
                negation_prob: 0.8,
                ..Default::default()
            };
            let w = random_stratified_program(&mut u, &cfg, 3);
            assert!(
                stratify(&w.sigma).is_some(),
                "seed {seed} produced an unstratifiable program"
            );
        }
    }

    #[test]
    fn database_generation_respects_arities() {
        let mut u = Universe::new();
        let w = random_program(&mut u, &RandomConfig::default());
        let db = random_database(&mut u, &w, &RandomDbConfig::default());
        assert!(!db.is_empty());
        for &f in db.facts() {
            let pred = u.atoms.pred(f);
            assert_eq!(u.atoms.args(f).len(), u.pred_arity(pred));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let mut u = Universe::new();
            let w = random_program(
                &mut u,
                &RandomConfig {
                    seed,
                    ..Default::default()
                },
            );
            w.sigma.rules.len()
        };
        assert_eq!(gen(5), gen(5));
    }
}
