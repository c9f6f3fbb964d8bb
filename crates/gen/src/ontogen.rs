//! Random DL-Lite_{R,⊓,not} ontologies, for fuzzing the translation path.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wfdl_ontology::{
    Abox, Basic, ConceptInclusion, ConceptLiteral, Ontology, Rhs, Role, RoleInclusion, Tbox,
};

/// Parameters for random ontology generation.
#[derive(Clone, Copy, Debug)]
pub struct OntologyConfig {
    /// Number of atomic concept names.
    pub num_concepts: usize,
    /// Number of role names.
    pub num_roles: usize,
    /// Number of concept inclusions.
    pub num_axioms: usize,
    /// Number of role inclusions.
    pub num_role_axioms: usize,
    /// Probability that an LHS conjunct is negated (at least one stays
    /// positive).
    pub negation_prob: f64,
    /// Probability that a basic concept is an existential `∃R`.
    pub exists_prob: f64,
    /// Probability that an axiom is a disjointness (`⊑ ⊥`).
    pub bottom_prob: f64,
    /// Number of individuals in the ABox.
    pub num_individuals: usize,
    /// Number of ABox assertions.
    pub num_assertions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OntologyConfig {
    fn default() -> Self {
        OntologyConfig {
            num_concepts: 5,
            num_roles: 3,
            num_axioms: 8,
            num_role_axioms: 2,
            negation_prob: 0.4,
            exists_prob: 0.4,
            bottom_prob: 0.1,
            num_individuals: 5,
            num_assertions: 10,
            seed: 77,
        }
    }
}

fn random_role(rng: &mut StdRng, cfg: &OntologyConfig) -> Role {
    let name = format!("r{}", rng.random_range(0..cfg.num_roles));
    if rng.random_bool(0.3) {
        Role::Inverse(name)
    } else {
        Role::Direct(name)
    }
}

fn random_basic(rng: &mut StdRng, cfg: &OntologyConfig) -> Basic {
    if rng.random_bool(cfg.exists_prob.clamp(0.0, 1.0)) {
        Basic::Exists(random_role(rng, cfg))
    } else {
        Basic::Atomic(format!("C{}", rng.random_range(0..cfg.num_concepts)))
    }
}

/// Generates a random ontology (deterministic per seed). Every concept
/// inclusion has at least one positive LHS conjunct, so translation always
/// succeeds.
pub fn random_ontology(cfg: &OntologyConfig) -> Ontology {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tbox = Tbox::default();
    for _ in 0..cfg.num_axioms {
        let n_conjuncts = 1 + rng.random_range(0..3);
        let mut lhs = Vec::with_capacity(n_conjuncts);
        // First conjunct always positive (translation requires a guard).
        lhs.push(ConceptLiteral::pos(random_basic(&mut rng, cfg)));
        for _ in 1..n_conjuncts {
            let basic = random_basic(&mut rng, cfg);
            if rng.random_bool(cfg.negation_prob.clamp(0.0, 1.0)) {
                lhs.push(ConceptLiteral::not(basic));
            } else {
                lhs.push(ConceptLiteral::pos(basic));
            }
        }
        let rhs = if rng.random_bool(cfg.bottom_prob.clamp(0.0, 1.0)) {
            Rhs::Bottom
        } else {
            Rhs::Basic(random_basic(&mut rng, cfg))
        };
        tbox.concepts.push(ConceptInclusion { lhs, rhs });
    }
    for _ in 0..cfg.num_role_axioms {
        tbox.roles.push(RoleInclusion {
            sub: random_role(&mut rng, cfg),
            sup: random_role(&mut rng, cfg),
        });
    }
    let mut abox = Abox::default();
    for _ in 0..cfg.num_assertions {
        if rng.random_bool(0.6) {
            let c = format!("C{}", rng.random_range(0..cfg.num_concepts));
            let i = format!("i{}", rng.random_range(0..cfg.num_individuals));
            abox.concept(&c, &i);
        } else {
            let r = format!("r{}", rng.random_range(0..cfg.num_roles));
            let i = format!("i{}", rng.random_range(0..cfg.num_individuals));
            let j = format!("i{}", rng.random_range(0..cfg.num_individuals));
            abox.role(&r, &i, &j);
        }
    }
    Ontology { tbox, abox }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_core::Universe;

    #[test]
    fn random_ontologies_translate_and_solve() {
        for seed in 0..25u64 {
            let cfg = OntologyConfig {
                seed,
                ..Default::default()
            };
            let onto = random_ontology(&cfg);
            let mut u = Universe::new();
            let translated =
                wfdl_ontology::translate(&mut u, &onto).expect("translation never fails");
            let (sigma, _viols) =
                wfdl_wfs::lower_with_constraints(&mut u, &translated.program).unwrap();
            let model = wfdl_wfs::solve(
                &mut u,
                &translated.database,
                &sigma,
                wfdl_wfs::WfsOptions::depth(3),
            );
            // The model must be consistent (no atom both true and false is
            // structurally impossible; spot-check counts instead).
            let (t, f, unk) = model.counts();
            assert_eq!(t + f + unk, model.segment.atoms().len(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = OntologyConfig::default();
        assert_eq!(random_ontology(&cfg), random_ontology(&cfg));
    }

    #[test]
    fn engines_agree_on_random_ontologies() {
        for seed in 0..10u64 {
            let onto = random_ontology(&OntologyConfig {
                seed: seed + 500,
                ..Default::default()
            });
            let mut u = Universe::new();
            let translated = wfdl_ontology::translate(&mut u, &onto).unwrap();
            let sigma = translated.program.clone().skolemize(&mut u).unwrap();
            let a = wfdl_wfs::solve(
                &mut u,
                &translated.database,
                &sigma,
                wfdl_wfs::WfsOptions::depth(3),
            );
            let b = wfdl_reference::AlternatingEngine::new(&a.ground).solve();
            for sa in a.segment.atoms() {
                assert_eq!(a.value(sa.atom), b.value(sa.atom), "seed {seed}");
            }
        }
    }
}
