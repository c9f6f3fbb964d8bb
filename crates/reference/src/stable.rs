//! Stable models (answer sets) for small ground programs, by exhaustive
//! search — an extension used to validate the classical relationship the
//! paper invokes: *the WFS approximates the answer set semantics*.
//!
//! For every stable model `M`: every well-founded-true atom is in `M` and
//! every well-founded-false atom is absent from `M`. Moreover a total
//! well-founded model **is** the unique stable model. These facts become
//! property tests over random programs (`tests/stable_approximation.rs`).
//!
//! The enumeration is exponential in the atom count and exists for
//! validation only; it refuses programs with more than
//! [`MAX_ATOMS_FOR_ENUMERATION`] atoms.

use wfdl_core::AtomId;
use wfdl_storage::GroundProgram;

/// Upper bound on the atom count for exhaustive enumeration.
pub const MAX_ATOMS_FOR_ENUMERATION: usize = 20;

/// Enumerates all stable models as sorted vectors of true atoms. Returns
/// `None` if the program is too large to enumerate.
pub fn stable_models(prog: &GroundProgram) -> Option<Vec<Vec<AtomId>>> {
    let n = prog.num_atoms();
    if n > MAX_ATOMS_FOR_ENUMERATION {
        return None;
    }
    let mut models = Vec::new();
    for mask in 0u32..(1u32 << n) {
        if is_stable(prog, mask) {
            let atoms: Vec<AtomId> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| prog.atom_of_local(i as u32))
                .collect();
            models.push(atoms);
        }
    }
    Some(models)
}

/// Gelfond–Lifschitz check: `M` is stable iff the least model of the
/// reduct `P^M` equals `M` (atoms as local ids in the bitmask).
fn is_stable(prog: &GroundProgram, mask: u32) -> bool {
    let in_m = |a: u32| mask & (1 << a) != 0;
    // Least model of the reduct by naive iteration (n ≤ 20).
    let mut derived: u32 = 0;
    for &f in prog.facts_local() {
        derived |= 1 << f;
    }
    let mut changed = true;
    while changed {
        changed = false;
        'rules: for r in 0..prog.num_rules() {
            let h = prog.head_local(r);
            if derived & (1 << h) != 0 {
                continue;
            }
            for &b in prog.neg_local(r) {
                if in_m(b) {
                    continue 'rules; // rule deleted by the reduct
                }
            }
            for &b in prog.pos_local(r) {
                if derived & (1 << b) == 0 {
                    continue 'rules;
                }
            }
            derived |= 1 << h;
            changed = true;
        }
    }
    derived == mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wp::{StepMode, WpEngine};
    use wfdl_core::Truth;
    use wfdl_storage::{GroundProgramBuilder, GroundRule};

    fn a(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    #[test]
    fn positive_program_has_unique_stable_model() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        let p = b.finish();
        let models = stable_models(&p).unwrap();
        assert_eq!(models, vec![vec![a(0), a(1)]]);
    }

    #[test]
    fn even_negation_cycle_has_two_stable_models() {
        // p ← ¬q; q ← ¬p: two stable models {p}, {q}; WFS: both unknown.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        let p = b.finish();
        let models = stable_models(&p).unwrap();
        assert_eq!(models.len(), 2);
        let wfs = WpEngine::new(&p).solve(StepMode::Accelerated);
        assert_eq!(wfs.value(a(0)), Truth::Unknown);
        assert_eq!(wfs.value(a(1)), Truth::Unknown);
    }

    #[test]
    fn odd_negation_cycle_has_no_stable_model() {
        // p ← ¬p: no stable model; WFS: p unknown.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(0)]));
        let p = b.finish();
        assert!(stable_models(&p).unwrap().is_empty());
    }

    #[test]
    fn total_wfs_is_the_unique_stable_model() {
        // fact g; p ← g, ¬q. WFS: g,p true, q false (total).
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        let p = b.finish();
        let models = stable_models(&p).unwrap();
        assert_eq!(models, vec![vec![a(0), a(1)]]);
        let wfs = WpEngine::new(&p).solve(StepMode::Accelerated);
        assert_eq!(wfs.value(a(1)), Truth::True);
        assert_eq!(wfs.value(a(2)), Truth::False);
    }

    #[test]
    fn refuses_large_programs() {
        let mut b = GroundProgramBuilder::new();
        for i in 0..MAX_ATOMS_FOR_ENUMERATION + 1 {
            b.add_fact(a(i));
        }
        assert!(stable_models(&b.finish()).is_none());
    }
}
