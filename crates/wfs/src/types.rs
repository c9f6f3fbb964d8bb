//! Atom types and the locality property (Section 3, Lemmas 10/11).
//!
//! The `P`-type of an atom `a` is the pair `(a, S)` where `S` collects all
//! literals `ℓ ∈ WFS(P)` with `dom(ℓ) ⊆ dom(a)`. The paper's locality
//! lemmas say that the truth of everything in the subtree below a node
//! depends only on the (isomorphism class of the) type of its label — and
//! since there are finitely many non-isomorphic types over a schema, query
//! answering only needs a bounded-depth part of the chase (Proposition 12,
//! the `δ` bound).
//!
//! This module makes that machinery executable:
//!
//! * [`atom_type`] — the type of an atom in a solved segment;
//! * [`CanonicalType`] — an `X`-isomorphism-invariant canonical form
//!   (`X` = the data constants, which every isomorphism must fix);
//! * [`subtree_signature`] — a canonical digest of the truth values in
//!   the `k`-step derivation cone below an atom;
//! * [`TypeCensus`] — counts distinct canonical types across a segment:
//!   the count plateaus as segments deepen while the atom count grows,
//!   which is the finite-type argument behind decidability (experiment
//!   E11).

use wfdl_chase::ChaseSegment;
use wfdl_core::{AtomId, FxHashMap, FxHashSet, Interp, PredId, TermId, TermNode, Truth, Universe};

/// The type `(a, S)` of an atom: all decided literals over `dom(a)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomType {
    /// The atom itself.
    pub atom: AtomId,
    /// Literals `ℓ` with `dom(ℓ) ⊆ dom(a)`: `(ground atom, truth)` pairs
    /// for every atom formable over the argument terms, in a fixed
    /// enumeration order.
    pub literals: Vec<(AtomId, Truth)>,
}

/// Truth of `atom` in a segment-solved model (absent atoms are false).
fn value_in(seg: &ChaseSegment, interp: &Interp, atom: AtomId) -> Truth {
    if seg.contains(atom) {
        interp.value(atom)
    } else {
        Truth::False
    }
}

/// Computes the type of `atom`: enumerates every atom formable from the
/// predicates of the schema over `dom(atom)` and records its truth value.
///
/// The enumeration is `Σ_P |dom(a)|^arity(P)` atoms — the `(2w)^w`-ish
/// factor inside the paper's `δ`.
pub fn atom_type(
    universe: &mut Universe,
    seg: &ChaseSegment,
    interp: &Interp,
    atom: AtomId,
) -> AtomType {
    let mut dom: Vec<TermId> = universe.atoms.args(atom).to_vec();
    dom.sort_unstable();
    dom.dedup();
    let preds: Vec<PredId> = universe.pred_ids().collect();
    let mut literals = Vec::new();
    for pred in preds {
        let arity = universe.pred_arity(pred);
        // Enumerate dom^arity tuples in lexicographic order.
        let mut idx = vec![0usize; arity];
        loop {
            let args: Vec<TermId> = idx.iter().map(|&i| dom[i]).collect();
            // The odometer emits exactly `arity` terms per tuple.
            #[allow(clippy::expect_used)]
            let ground = universe.atom(pred, args).expect("arity respected");
            literals.push((ground, value_in(seg, interp, ground)));
            // Advance the odometer.
            let mut pos = arity;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < dom.len() {
                    break;
                }
                idx[pos] = 0;
            }
            if idx.iter().all(|&i| i == 0) {
                break;
            }
        }
        if arity == 0 {
            // The odometer above handles arity 0 by emitting one tuple and
            // terminating (idx is empty → all-zero immediately).
        }
    }
    AtomType { atom, literals }
}

/// A canonical, `X`-isomorphism-invariant rendering of a type: labelled
/// nulls are renamed to their first-occurrence position in the atom's
/// argument list, while data constants (the set `X` every isomorphism
/// fixes) stay themselves.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalType {
    /// Predicate of the typed atom.
    pub pred: PredId,
    /// Canonicalized argument pattern of the atom.
    pub args: Vec<CanonTerm>,
    /// Sorted canonical literals.
    pub literals: Vec<(PredId, Vec<CanonTerm>, Truth)>,
}

/// A term in canonical form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CanonTerm {
    /// A data constant (fixed by every X-isomorphism).
    Const(TermId),
    /// The `i`-th distinct labelled null in the atom's argument order.
    Null(u32),
}

/// Canonicalizes a type. Two atoms have X-isomorphic types (X = constants)
/// iff their canonical types are equal.
pub fn canonicalize(universe: &Universe, ty: &AtomType) -> CanonicalType {
    let mut renaming: FxHashMap<TermId, u32> = FxHashMap::default();
    let canon = |t: TermId, renaming: &mut FxHashMap<TermId, u32>| -> CanonTerm {
        if matches!(universe.terms.node(t), TermNode::Const(_)) {
            CanonTerm::Const(t)
        } else {
            let next = renaming.len() as u32;
            CanonTerm::Null(*renaming.entry(t).or_insert(next))
        }
    };
    let node = universe.atoms.node(ty.atom);
    let args: Vec<CanonTerm> = node.args.iter().map(|&t| canon(t, &mut renaming)).collect();
    let mut literals: Vec<(PredId, Vec<CanonTerm>, Truth)> = ty
        .literals
        .iter()
        .map(|&(atom, truth)| {
            let n = universe.atoms.node(atom);
            let cargs = n.args.iter().map(|&t| canon(t, &mut renaming)).collect();
            (n.pred, cargs, truth)
        })
        .collect();
    literals.sort();
    CanonicalType {
        pred: node.pred,
        args,
        literals,
    }
}

/// A canonical digest of the truth values in the derivation cone up
/// to `k` instance-steps below `atom` (the subtree `T` of Lemma 10,
/// condensed). New terms encountered below are canonicalized in discovery
/// order, so digests of isomorphic subtrees coincide.
pub fn subtree_signature(
    universe: &Universe,
    seg: &ChaseSegment,
    interp: &Interp,
    atom: AtomId,
    k: u32,
) -> Vec<(u32, PredId, Vec<CanonTerm>, Truth)> {
    let mut renaming: FxHashMap<TermId, u32> = FxHashMap::default();
    let canon = |t: TermId, renaming: &mut FxHashMap<TermId, u32>| -> CanonTerm {
        if matches!(universe.terms.node(t), TermNode::Const(_)) {
            CanonTerm::Const(t)
        } else {
            let next = renaming.len() as u32;
            CanonTerm::Null(*renaming.entry(t).or_insert(next))
        }
    };
    // Seed the renaming with the root atom's arguments (in order).
    for &t in universe.atoms.args(atom).iter() {
        let _ = canon(t, &mut renaming);
    }

    let mut signature = Vec::new();
    let mut frontier: Vec<AtomId> = vec![atom];
    let mut seen: FxHashSet<AtomId> = FxHashSet::default();
    seen.insert(atom);
    for depth in 0..=k {
        // Record this layer, sorted canonically for determinism.
        let mut layer: Vec<(PredId, Vec<CanonTerm>, Truth)> = frontier
            .iter()
            .map(|&a| {
                let n = universe.atoms.node(a);
                let cargs: Vec<CanonTerm> =
                    n.args.iter().map(|&t| canon(t, &mut renaming)).collect();
                (n.pred, cargs, value_in(seg, interp, a))
            })
            .collect();
        layer.sort();
        for (pred, args, truth) in layer {
            signature.push((depth, pred, args, truth));
        }
        if depth == k {
            break;
        }
        // Children: heads of instances guarded by frontier atoms.
        let mut next: Vec<AtomId> = Vec::new();
        for &a in &frontier {
            for &iid in seg.instances_with_guard(a) {
                let head = seg.head_atom(iid);
                if seen.insert(head) {
                    next.push(head);
                }
            }
        }
        // Deterministic order before canonical renaming extends: sort by
        // the *parent-relative* rendering. AtomId order is stable per
        // construction order, which for equal-depth guards mirrors rule
        // order — adequate for signature comparison.
        next.sort_unstable();
        frontier = next;
    }
    signature
}

/// Convenience: computes and canonicalizes an atom's type in one call.
pub fn canonical_type_of(
    universe: &mut Universe,
    seg: &ChaseSegment,
    interp: &Interp,
    atom: AtomId,
) -> CanonicalType {
    let ty = atom_type(universe, seg, interp, atom);
    canonicalize(universe, &ty)
}

/// Census of distinct canonical types across a solved segment.
#[derive(Clone, Debug, Default)]
pub struct TypeCensus {
    /// Number of atoms inspected.
    pub atoms: usize,
    /// Number of distinct canonical types.
    pub distinct_types: usize,
}

/// Counts distinct canonical types over all segment atoms.
pub fn type_census(universe: &mut Universe, seg: &ChaseSegment, interp: &Interp) -> TypeCensus {
    let mut set: FxHashSet<CanonicalType> = FxHashSet::default();
    let atoms: Vec<AtomId> = seg.atoms().iter().map(|sa| sa.atom).collect();
    for atom in &atoms {
        let ty = atom_type(universe, seg, interp, *atom);
        set.insert(canonicalize(universe, &ty));
    }
    TypeCensus {
        atoms: atoms.len(),
        distinct_types: set.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdl_chase::{paper::example4, ChaseBudget, ChaseSegment};
    use wfdl_reference::ForwardEngine;

    fn solved(depth: u32) -> (Universe, ChaseSegment, Interp) {
        let mut u = Universe::new();
        let (db, sigma) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(depth));
        let interp = ForwardEngine::new(&seg).solve().interp;
        (u, seg, interp)
    }

    fn r_chain_atoms(u: &Universe, seg: &ChaseSegment) -> Vec<AtomId> {
        let r = u.lookup_pred("R").unwrap();
        let mut atoms: Vec<_> = seg
            .atoms()
            .iter()
            .filter(|sa| u.atoms.pred(sa.atom) == r)
            .map(|sa| (sa.depth, sa.atom))
            .collect();
        atoms.sort();
        atoms.into_iter().map(|(_, a)| a).collect()
    }

    #[test]
    fn deep_r_atoms_share_a_canonical_type() {
        let (mut u, seg, interp) = solved(8);
        let chain = r_chain_atoms(&u, &seg);
        // From depth 2 on, every R(0, t_i, t_{i+1}) has both inner terms
        // null with the same surrounding literal pattern: equal canonical
        // types. (Depth ≤ 1 atoms mention the constants 0/1 and differ.)
        let t2 = canonical_type_of(&mut u, &seg, &interp, chain[2]);
        let t3 = canonical_type_of(&mut u, &seg, &interp, chain[3]);
        let t4 = canonical_type_of(&mut u, &seg, &interp, chain[4]);
        assert_eq!(t2, t3);
        assert_eq!(t3, t4);
        let t0 = canonical_type_of(&mut u, &seg, &interp, chain[0]);
        assert_ne!(t0, t2, "the root mentions constants 0 and 1");
    }

    #[test]
    fn locality_equal_types_give_equal_subtree_signatures() {
        // Lemma 11, executable: atoms with X-isomorphic types generate
        // isomorphic truth assignments below them.
        let (mut u, seg, interp) = solved(10);
        let chain = r_chain_atoms(&u, &seg);
        let pairs = [(2usize, 3usize), (3, 5), (2, 6)];
        for (i, j) in pairs {
            let ti = canonical_type_of(&mut u, &seg, &interp, chain[i]);
            let tj = canonical_type_of(&mut u, &seg, &interp, chain[j]);
            assert_eq!(ti, tj, "chain atoms {i} and {j} should be type-isomorphic");
            let si = subtree_signature(&u, &seg, &interp, chain[i], 2);
            let sj = subtree_signature(&u, &seg, &interp, chain[j], 2);
            assert_eq!(
                si, sj,
                "locality: equal types must give equal depth-2 signatures ({i} vs {j})"
            );
        }
    }

    #[test]
    fn type_census_plateaus_while_atoms_grow() {
        // The finite-type argument behind the δ bound: atom counts grow
        // linearly with depth, distinct type counts stop growing.
        let mut census = Vec::new();
        for depth in [4u32, 6, 8, 10] {
            let (mut u, seg, interp) = solved(depth);
            census.push(type_census(&mut u, &seg, &interp));
        }
        assert!(census.windows(2).all(|w| w[1].atoms > w[0].atoms));
        let types: Vec<usize> = census.iter().map(|c| c.distinct_types).collect();
        assert_eq!(
            types[types.len() - 2],
            types[types.len() - 1],
            "distinct canonical types must plateau: {types:?}"
        );
    }

    #[test]
    fn canonical_type_distinguishes_truth_patterns() {
        let (mut u, seg, interp) = solved(6);
        // S(0) (false) and T(0) (true) have the same domain {0} but
        // different literal truth values → different canonical types.
        let s = u.lookup_pred("S").unwrap();
        let t = u.lookup_pred("T").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let s0 = u.atoms.lookup(s, &[zero]).unwrap();
        let t0 = u.atoms.lookup(t, &[zero]).unwrap();
        let ts0 = canonical_type_of(&mut u, &seg, &interp, s0);
        let tt0 = canonical_type_of(&mut u, &seg, &interp, t0);
        assert_ne!(ts0, tt0);
    }

    #[test]
    fn nullary_predicates_enumerate_once() {
        let mut u = Universe::new();
        let (db, sigma) = example4(&mut u);
        let _flag = u.pred("flag", 0).unwrap();
        let seg = ChaseSegment::build(&mut u, &db, &sigma, ChaseBudget::depth(3));
        let interp = ForwardEngine::new(&seg).solve().interp;
        let p = u.lookup_pred("P").unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let p00 = u.atoms.lookup(p, &[zero, zero]).unwrap();
        let ty = atom_type(&mut u, &seg, &interp, p00);
        let flag_lits = ty
            .literals
            .iter()
            .filter(|(a, _)| u.pred_name(u.atoms.pred(*a)) == "flag")
            .count();
        assert_eq!(flag_lits, 1);
    }
}
