//! WCHECK (Section 4): deciding membership of a single ground atom in
//! `WFS(D, Σ)`, with extractable certificates.
//!
//! The paper's WCHECK is an *alternating* algorithm: it guesses a root-to-
//! atom path through `F⁺(D ∪ Σf)` and verifies that the side literals of
//! the rules along the path belong to the well-founded model, launching
//! subcomputations per side literal. A deterministic machine realizes the
//! same decision by (1) restricting attention to the atom's *dependency
//! cone* — the instances reachable from it through bodies, which is exactly
//! the part of the program WCHECK's subcomputations may touch — and
//! (2) running the modular engine on that cone (the cone is
//! relevance-closed, so by the splitting property of the WFS its model
//! agrees with the global one — whichever correct engine evaluates it).
//! The existential path-guessing reappears here as *certificate
//! extraction*: for a true atom we return the guard path `a₀ → a₁ → … → a`
//! plus per-rule side-literal justifications, which is precisely the
//! witness WCHECK guesses; `verify` re-checks a certificate independently
//! of any fixpoint engine.

use wfdl_chase::{ChaseSegment, InstanceId};
use wfdl_core::{AtomId, BitSet, FxHashMap, FxHashSet, Interp, Truth};
use wfdl_storage::{GroundProgram, GroundProgramBuilder, GroundRule};

/// Sentinel for the dense per-segment-atom arrays used during certificate
/// extraction.
const NONE: u32 = u32::MAX;

/// Extracts the dependency cone of `targets` from a segment-extracted
/// ground program: all atoms and rules that can influence the targets'
/// truth values (transitively through positive and negative bodies).
pub fn dependency_cone(ground: &GroundProgram, targets: &[AtomId]) -> GroundProgram {
    let mut relevant: FxHashSet<AtomId> = FxHashSet::default();
    let mut queue: Vec<AtomId> = Vec::new();
    for &t in targets {
        if relevant.insert(t) {
            queue.push(t);
        }
    }
    let mut rules: Vec<GroundRule> = Vec::new();
    let mut included: FxHashSet<usize> = FxHashSet::default();
    let fact_set: FxHashSet<AtomId> = ground.facts().copied().collect();
    let mut facts: Vec<AtomId> = Vec::new();
    while let Some(a) = queue.pop() {
        if fact_set.contains(&a) {
            facts.push(a);
        }
        for &rid in ground.rules_with_head(a) {
            if !included.insert(rid.index()) {
                continue;
            }
            let rule = ground.rule(rid);
            rules.push(rule.clone());
            for &b in rule.pos.iter().chain(rule.neg.iter()) {
                if relevant.insert(b) {
                    queue.push(b);
                }
            }
        }
    }
    let mut b = GroundProgramBuilder::new();
    for f in facts {
        b.add_fact(f);
    }
    for r in rules {
        b.add_rule(r);
    }
    b.finish()
}

/// Decides `atom ∈ WFS(D,Σ)` demand-drivenly: cone extraction plus a
/// fixpoint on the cone only. Returns the atom's truth value.
pub fn decide(ground: &GroundProgram, atom: AtomId) -> Truth {
    if !ground.mentions(atom) {
        return Truth::False; // no forward proof at all
    }
    let cone = dependency_cone(ground, &[atom]);
    crate::scc::ModularEngine::new(&cone).solve().value(atom)
}

/// A derivation certificate for a **true** atom: the witness structure
/// WCHECK guesses. `path` is the guard chain from a database fact to the
/// atom; `steps` justifies each edge: all non-guard positive side atoms are
/// recursively true (indices into `supports`), and all negative side atoms
/// are false in the model.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Guard chain `a₀ (fact), a₁, …, a_k = atom`.
    pub path: Vec<AtomId>,
    /// The rule instance deriving each non-root path element.
    pub steps: Vec<InstanceId>,
    /// Recursive certificates for the positive side literals used anywhere
    /// along the path (atom → certificate), shared across steps.
    pub supports: FxHashMap<AtomId, Certificate>,
    /// Negative side literals relied upon (must be false in the model).
    pub hypotheses: Vec<AtomId>,
}

/// Extracts a certificate for a true atom from a solved segment.
///
/// Returns `None` if the atom is not true in `interp`. The extraction
/// replays the strict-mode aliveness closure, so the produced supports are
/// acyclic by construction.
pub fn certify(seg: &ChaseSegment, interp: &Interp, atom: AtomId) -> Option<Certificate> {
    if !interp.is_true(atom) {
        return None;
    }
    // Replay a T-closure over instances whose hypotheses are false in the
    // final model, recording one justifying instance per derived atom in
    // derivation order. Everything runs on dense segment ids: flat arrays,
    // no hashing.
    let n = seg.atoms().len();
    let mut just: Vec<u32> = vec![NONE; n];
    let mut order: Vec<u32> = vec![NONE; n];
    let mut derived = BitSet::with_capacity(n);
    let mut tick = 0u32;
    for &fs in seg.fact_segs() {
        derived.insert(fs.index());
        order[fs.index()] = tick;
        tick += 1;
    }
    // Fixpoint: fire instances whose positive bodies are derived and whose
    // negative bodies are false in the model.
    let mut progress = true;
    while progress {
        progress = false;
        for iid in seg.instance_ids() {
            let h = seg.head_seg(iid).index();
            if derived.contains(h) {
                continue;
            }
            if !seg
                .neg_atoms(iid)
                .iter()
                .all(|&b| interp.is_false(b) || !seg.contains(b))
            {
                continue;
            }
            if !seg.pos_seg(iid).iter().all(|s| derived.contains(s.index())) {
                continue;
            }
            derived.insert(h);
            just[h] = iid.index() as u32;
            order[h] = tick;
            tick += 1;
            progress = true;
        }
    }
    build_certificate(seg, &just, &order, atom)
}

fn build_certificate(
    seg: &ChaseSegment,
    just: &[u32],
    order: &[u32],
    atom: AtomId,
) -> Option<Certificate> {
    // Guard chain.
    let mut path = vec![atom];
    let mut steps = Vec::new();
    let mut supports: FxHashMap<AtomId, Certificate> = FxHashMap::default();
    let mut hypotheses: Vec<AtomId> = Vec::new();
    let mut cur = atom;
    loop {
        let cur_seg = seg.seg_id(cur)?;
        let j = just[cur_seg.index()];
        if j == NONE {
            // The chain must terminate at a fact (no justification entry,
            // but an `order` tick from the fact seeding).
            if order[cur_seg.index()] == NONE {
                return None;
            }
            break;
        }
        let iid = InstanceId::from_index(j as usize);
        steps.push(iid);
        for &b in seg.neg_atoms(iid) {
            hypotheses.push(b);
        }
        let guard_atom = seg.guard_atom(iid);
        for &s in seg.pos_seg(iid) {
            let b = seg.atom_of(s);
            if b == guard_atom || b == cur {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = supports.entry(b) {
                // Support atoms were derived strictly earlier in the replay.
                debug_assert!(order[s.index()] < order[cur_seg.index()]);
                let sub = build_certificate(seg, just, order, b)?;
                e.insert(sub);
            }
        }
        cur = guard_atom;
        path.push(cur);
    }
    path.reverse();
    steps.reverse();
    hypotheses.sort_unstable();
    hypotheses.dedup();
    Some(Certificate {
        path,
        steps,
        supports,
        hypotheses,
    })
}

/// Independently verifies a certificate against a model: checks the path
/// structure, the rule instances, the recursive supports, and that every
/// hypothesis is false in `interp`. Does **not** re-run any fixpoint.
pub fn verify(seg: &ChaseSegment, interp: &Interp, cert: &Certificate) -> bool {
    verify_inner(seg, interp, cert, &mut FxHashSet::default())
}

fn verify_inner(
    seg: &ChaseSegment,
    interp: &Interp,
    cert: &Certificate,
    in_progress: &mut FxHashSet<AtomId>,
) -> bool {
    if cert.path.is_empty() || cert.steps.len() + 1 != cert.path.len() {
        return false;
    }
    // Root must be a database fact.
    let root = cert.path[0];
    if !seg.fact_segs().iter().any(|&fs| seg.atom_of(fs) == root) {
        return false;
    }
    for (k, &iid) in cert.steps.iter().enumerate() {
        if iid.index() >= seg.num_instances() {
            return false; // forged instance id
        }
        let guard_atom = seg.guard_atom(iid);
        if guard_atom != cert.path[k] || seg.head_atom(iid) != cert.path[k + 1] {
            return false;
        }
        for &b in seg.neg_atoms(iid) {
            if !interp.is_false(b) && seg.contains(b) {
                return false;
            }
        }
        for &s in seg.pos_seg(iid) {
            let b = seg.atom_of(s);
            if b == guard_atom {
                continue;
            }
            // Side atom: either it appears earlier on the path, or a
            // support certificate vouches for it.
            if cert.path[..=k].contains(&b) {
                continue;
            }
            match cert.supports.get(&b) {
                Some(sub) => {
                    if !in_progress.insert(b) {
                        return false; // cyclic support
                    }
                    let ok =
                        verify_inner(seg, interp, sub, in_progress) && sub.path.last() == Some(&b);
                    in_progress.remove(&b);
                    if !ok {
                        return false;
                    }
                }
                None => return false,
            }
        }
    }
    true
}

/// One-level explanation of why an atom is **false**: for every instance
/// that could derive it, the blocking side literal.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// The refuted atom.
    pub atom: AtomId,
    /// Per deriving instance: the blocker.
    pub blocked: Vec<(InstanceId, Blocker)>,
    /// True when no instance in the segment derives the atom at all.
    pub no_derivation: bool,
}

/// Why one instance cannot fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Blocker {
    /// A positive body atom that is false in the model.
    PositiveFalse(AtomId),
    /// A negative body atom that is true in the model.
    NegativeTrue(AtomId),
}

/// Explains a false atom. Returns `None` if the atom is not false in the
/// model restricted to the segment.
pub fn refute(seg: &ChaseSegment, interp: &Interp, atom: AtomId) -> Option<Refutation> {
    if !seg.contains(atom) {
        return Some(Refutation {
            atom,
            blocked: Vec::new(),
            no_derivation: true,
        });
    }
    if !interp.is_false(atom) {
        return None;
    }
    let mut blocked = Vec::new();
    for &iid in seg.instances_with_head(atom) {
        let blocker = seg
            .pos_seg(iid)
            .iter()
            .map(|&s| seg.atom_of(s))
            .find(|&b| interp.is_false(b))
            .map(Blocker::PositiveFalse)
            .or_else(|| {
                seg.neg_atoms(iid)
                    .iter()
                    .find(|&&b| interp.is_true(b))
                    .map(|&b| Blocker::NegativeTrue(b))
            });
        // For atoms false in the WFS every deriving instance has a blocker
        // *in the limit*; within an unfounded set the blocker may be a
        // same-stage positive atom, which is still false in the final
        // model, so `find` above succeeds.
        blocked.push((iid, blocker?));
    }
    Some(Refutation {
        atom,
        blocked,
        no_derivation: seg.instances_with_head(atom).is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, WfsOptions};
    use wfdl_chase::paper::example4;
    use wfdl_core::Universe;

    #[test]
    fn decide_agrees_with_full_solve_on_example4() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(&mut u, &db, &prog, WfsOptions::depth(5));
        for sa in model.segment.atoms() {
            assert_eq!(
                decide(&model.ground, sa.atom),
                model.value(sa.atom),
                "atom {}",
                u.display_atom(sa.atom)
            );
        }
    }

    #[test]
    fn cone_is_smaller_than_program() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(&mut u, &db, &prog, WfsOptions::depth(8));
        // The cone of R(0,0,1) (a fact) is tiny.
        let r = u.lookup_pred("R").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let one = u.lookup_constant("1").unwrap();
        let r001 = u.atom(r, vec![zero, zero, one]).unwrap();
        let cone = dependency_cone(&model.ground, &[r001]);
        assert!(cone.num_rules() < model.ground.num_rules());
        assert!(cone.facts().eq(&[r001]));
    }

    #[test]
    fn certificate_for_t0_verifies() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(&mut u, &db, &prog, WfsOptions::depth(6));
        let t = u.lookup_pred("T").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let t0 = u.atom(t, vec![zero]).unwrap();
        assert!(model.is_true(t0));
        let cert = certify(&model.segment, &model.result.interp, t0)
            .expect("true atom must have a certificate");
        assert_eq!(*cert.path.last().unwrap(), t0);
        // T(0) is derived from a P-atom by the rule with hypothesis ¬S(0);
        // S(0) must be among the hypotheses.
        let s = u.lookup_pred("S").unwrap();
        let s0 = u.atom(s, vec![zero]).unwrap();
        assert!(cert.hypotheses.contains(&s0));
        assert!(verify(&model.segment, &model.result.interp, &cert));
    }

    #[test]
    fn tampered_certificate_fails_verification() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(&mut u, &db, &prog, WfsOptions::depth(6));
        let t = u.lookup_pred("T").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let t0 = u.atom(t, vec![zero]).unwrap();
        let mut cert = certify(&model.segment, &model.result.interp, t0).unwrap();
        // Corrupt the path root.
        let s = u.lookup_pred("S").unwrap();
        let s0 = u.atom(s, vec![zero]).unwrap();
        cert.path[0] = s0;
        assert!(!verify(&model.segment, &model.result.interp, &cert));
    }

    #[test]
    fn refutation_explains_s0() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(&mut u, &db, &prog, WfsOptions::depth(6));
        let s = u.lookup_pred("S").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let s0 = u.atom(s, vec![zero]).unwrap();
        assert!(model.is_false(s0));
        let r = refute(&model.segment, &model.result.interp, s0).unwrap();
        assert!(!r.no_derivation);
        assert!(!r.blocked.is_empty());
        // Every S(0) derivation is blocked by a true P-atom (its negative
        // side literal ¬P(0,Z) fails).
        for (_, blocker) in &r.blocked {
            assert!(matches!(blocker, Blocker::NegativeTrue(_)));
        }
    }

    #[test]
    fn refutation_of_absent_atom_is_no_derivation() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let model = solve(&mut u, &db, &prog, WfsOptions::depth(4));
        let q = u.lookup_pred("Q").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let q0 = u.atom(q, vec![zero]).unwrap();
        let r = refute(&model.segment, &model.result.interp, q0).unwrap();
        assert!(r.no_derivation);
    }
}
