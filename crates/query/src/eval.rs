//! NBCQ evaluation: homomorphism search with certain-answer semantics.
//!
//! An NBCQ `Q` is satisfied in an interpretation `I` if a homomorphism `µ`
//! maps every positive atom to a **true** atom and every negated atom to an
//! atom whose negation is in `I` — i.e. a **false** atom, not merely a
//! non-true one (Section 2.3). Answers to non-Boolean queries are tuples
//! over the constants `∆` (never nulls), per Section 2.1.

use crate::nbcq::{Nbcq, QTerm, QueryAtom};
use crate::source::TruthSource;
use wfdl_core::{AtomId, TermId, Truth, Universe};
use wfdl_storage::AtomIndex;

/// The set of answers to a query: deduplicated, sorted tuples of constants
/// (one entry, the empty tuple, for a satisfied Boolean query).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnswerSet {
    tuples: Vec<Box<[TermId]>>,
}

impl AnswerSet {
    /// The answer tuples.
    pub fn tuples(&self) -> &[Box<[TermId]>] {
        &self.tuples
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff there are no answers.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[TermId]) -> bool {
        self.tuples.iter().any(|t| t.as_ref() == tuple)
    }

    fn insert(&mut self, tuple: Box<[TermId]>) {
        self.tuples.push(tuple);
    }

    fn normalize(&mut self) {
        self.tuples.sort();
        self.tuples.dedup();
    }
}

/// Evaluates the query over a model under certain-answer semantics.
///
/// Builds a fresh index over the model's certainly-true atoms on every
/// call; when the same model answers many queries, build the index once
/// and use [`answers_indexed`] (this is what prepared queries do).
pub fn answers<S: TruthSource>(universe: &Universe, model: &S, query: &Nbcq) -> AnswerSet {
    let index = AtomIndex::build(universe, model.certain_atoms());
    answers_indexed(universe, model, &index, query)
}

/// [`answers`] over a prebuilt index.
///
/// The index contract: `index` covers **at least** the model's
/// certainly-true atoms, and every candidate — one it yields, or the one
/// atom a fully bound query atom names, found through the universe's atom
/// table without reading the index — is filtered by the model's verdict
/// (one [`TruthSource::value`] read). So the one index a model keeps —
/// over its not-false atoms, which [`holds3_indexed`] needs — serves
/// certain answers too, and an index over the true atoms alone stays a
/// valid argument (the filter is then a no-op).
pub fn answers_indexed<S: TruthSource>(
    universe: &Universe,
    model: &S,
    index: &AtomIndex,
    query: &Nbcq,
) -> AnswerSet {
    let mut out = run_search(universe, model, index, query, Mode::Certain);
    out.normalize();
    out
}

/// Every homomorphism `mode` admits, as (unnormalized) answer tuples.
fn run_search<S: TruthSource>(
    universe: &Universe,
    model: &S,
    index: &AtomIndex,
    query: &Nbcq,
    mode: Mode,
) -> AnswerSet {
    let mut out = AnswerSet::default();
    search(
        universe,
        model,
        index,
        query,
        &mut vec![None; query.num_vars() as usize],
        &mut vec![false; query.pos.len()],
        &mut out,
        mode,
    );
    out
}

/// Boolean satisfaction: `WFS(D,Σ) |= Q`.
pub fn holds<S: TruthSource>(universe: &Universe, model: &S, query: &Nbcq) -> bool {
    !answers(universe, model, query).is_empty()
}

/// Three-valued satisfaction: `True` if certainly satisfied, `Unknown` if a
/// homomorphism exists using undefined atoms (positives not false,
/// negatives not true) but no certain one, `False` otherwise.
pub fn holds3<S: TruthSource>(universe: &Universe, model: &S, query: &Nbcq) -> Truth {
    let index = AtomIndex::build(universe, model.possible_atoms());
    holds3_indexed(universe, model, &index, query)
}

/// [`holds3`] over a prebuilt index of the model's not-certainly-false
/// atoms (see [`answers_indexed`] for the contract).
///
/// On a source whose absent atoms are undecided
/// ([`TruthSource::unseen`] is `Unknown`) no index can refute a query — a
/// witness may consist of atoms the source never saw — so the verdict is
/// `True` or `Unknown`, never `False`.
pub fn holds3_indexed<S: TruthSource>(
    universe: &Universe,
    model: &S,
    index: &AtomIndex,
    query: &Nbcq,
) -> Truth {
    if !answers_indexed(universe, model, index, query).is_empty() {
        return Truth::True;
    }
    let refutable = model.unseen().is_false();
    if refutable && !possible_witness_indexed(universe, model, index, query) {
        Truth::False
    } else {
        Truth::Unknown
    }
}

/// True iff a satisfying homomorphism exists in "possible" mode (positives
/// not false, negatives not true), over a prebuilt index covering at least
/// the model's not-certainly-false atoms. The `Unknown` leg of
/// [`holds3_indexed`].
pub fn possible_witness_indexed<S: TruthSource>(
    universe: &Universe,
    model: &S,
    index: &AtomIndex,
    query: &Nbcq,
) -> bool {
    !run_search(universe, model, index, query, Mode::Possible).is_empty()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Positives true, negatives false.
    Certain,
    /// Positives not false, negatives not true.
    Possible,
}

impl Mode {
    /// May a positive query atom map to an atom of this verdict?
    fn admits(self, value: Truth) -> bool {
        match self {
            Mode::Certain => value.is_true(),
            Mode::Possible => !value.is_false(),
        }
    }

    /// Is a negated query atom satisfied by an atom of this verdict?
    fn admits_negated(self, value: Truth) -> bool {
        match self {
            Mode::Certain => value.is_false(),
            Mode::Possible => !value.is_true(),
        }
    }
}

/// The atoms a positive query atom may map to under the current binding.
enum Candidates<'a> {
    /// Every argument is bound: the one ground atom the query atom names,
    /// if the universe has it. Found by the hash the atom table already
    /// keeps; no index is read.
    Ground(Option<AtomId>),
    /// The shortest row the index has for what is bound.
    Row(&'a [AtomId]),
}

impl Candidates<'_> {
    fn as_slice(&self) -> &[AtomId] {
        match self {
            Candidates::Ground(atom) => atom.as_slice(),
            Candidates::Row(row) => row,
        }
    }
}

/// The value of a query term under the binding, if it has one yet.
#[inline]
fn bound(term: &QTerm, binding: &[Option<TermId>]) -> Option<TermId> {
    match term {
        QTerm::Const(c) => Some(*c),
        QTerm::Var(v) => binding[v.index()],
    }
}

/// The ground atom `atom` names under the binding, looked up in the
/// universe's atom table (the inner `Option`: it may never have been
/// interned); `None` if an argument is still unbound. The arguments are
/// read off the binding as they are hashed and compared, so no buffer —
/// and no allocation — stands between a ground ask and its answer.
#[allow(clippy::expect_used)] // every argument is checked first
fn ground_atom(
    universe: &Universe,
    atom: &QueryAtom,
    binding: &[Option<TermId>],
) -> Option<Option<AtomId>> {
    if atom.args.iter().any(|t| bound(t, binding).is_none()) {
        return None;
    }
    let args = atom.args.iter();
    let args = args.map(|t| bound(t, binding).expect("checked above"));
    Some(universe.atoms.lookup_iter(atom.pred, args))
}

/// Chooses the next unmatched positive atom with the smallest candidate
/// list under the current binding; returns `(atom index, candidates)`.
fn pick_next<'a>(
    universe: &Universe,
    index: &'a AtomIndex,
    query: &Nbcq,
    binding: &[Option<TermId>],
    used: &[bool],
) -> Option<(usize, Candidates<'a>)> {
    let mut best: Option<(usize, Candidates<'a>)> = None;
    for (i, atom) in query.pos.iter().enumerate() {
        if used[i] {
            continue;
        }
        let cands = match ground_atom(universe, atom, binding) {
            Some(ground) => Candidates::Ground(ground),
            None => {
                let known = atom.args.iter().enumerate();
                let known = known.filter_map(|(pos, t)| Some((pos as u32, bound(t, binding)?)));
                Candidates::Row(index.candidates(universe, atom.pred, known))
            }
        };
        match &best {
            Some((_, b)) if b.as_slice().len() <= cands.as_slice().len() => {}
            _ => best = Some((i, cands)),
        }
    }
    best
}

fn match_query_atom(
    universe: &Universe,
    atom: &QueryAtom,
    ground: AtomId,
    binding: &mut [Option<TermId>],
    trail: &mut Vec<usize>,
) -> bool {
    let node = universe.atoms.node(ground);
    if node.pred != atom.pred {
        return false;
    }
    for (t, &val) in atom.args.iter().zip(node.args.iter()) {
        match t {
            QTerm::Const(c) => {
                if *c != val {
                    return false;
                }
            }
            QTerm::Var(v) => match binding[v.index()] {
                None => {
                    binding[v.index()] = Some(val);
                    trail.push(v.index());
                }
                Some(b) => {
                    if b != val {
                        return false;
                    }
                }
            },
        }
    }
    true
}

// The two `expect`s below hold by query safety, validated at
// construction: every variable of a negated atom and every answer
// variable occurs in some positive atom, and all positive atoms are
// matched before this leaf runs.
#[allow(clippy::too_many_arguments, clippy::expect_used)]
fn search<S: TruthSource>(
    universe: &Universe,
    model: &S,
    index: &AtomIndex,
    query: &Nbcq,
    binding: &mut Vec<Option<TermId>>,
    used: &mut Vec<bool>,
    out: &mut AnswerSet,
    mode: Mode,
) {
    let Some((qi, cands)) = pick_next(universe, index, query, binding, used) else {
        // All positive atoms matched; check the negated atoms.
        for n in &query.neg {
            let ground = ground_atom(universe, n, binding).expect("safe query binds all vars");
            let value = match ground {
                Some(a) => model.value(a),
                None => model.unseen(), // atom never materialized
            };
            if !mode.admits_negated(value) {
                return;
            }
        }
        // Record the answer tuple; answers range over constants only.
        let tuple: Option<Box<[TermId]>> = query
            .answer_vars
            .iter()
            .map(|v| {
                let t = binding[v.index()].expect("answer vars bound by positive atoms");
                universe.terms.is_constant(t).then_some(t)
            })
            .collect();
        if let Some(tuple) = tuple {
            out.insert(tuple);
        }
        return;
    };

    used[qi] = true;
    for &ground in cands.as_slice() {
        // The candidates may cover more than this mode may match (see
        // `answers_indexed`): the verdict decides.
        if !mode.admits(model.value(ground)) {
            continue;
        }
        let mut trail = Vec::new();
        if match_query_atom(universe, &query.pos[qi], ground, binding, &mut trail) {
            search(universe, model, index, query, binding, used, out, mode);
        }
        for v in trail {
            binding[v] = None;
        }
    }
    used[qi] = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbcq::QVar;
    use crate::source::InterpSource;
    use wfdl_core::Interp;

    fn v(i: u32) -> QTerm {
        QTerm::Var(QVar::new(i))
    }

    /// Small handcrafted model:
    /// edge(a,b) true, edge(b,c) true, edge(c,a) unknown,
    /// mark(a) true, mark(b) false, mark(c) false.
    fn setup() -> (Universe, Interp, Vec<AtomId>) {
        let mut u = Universe::new();
        let e = u.pred("edge", 2).unwrap();
        let m = u.pred("mark", 1).unwrap();
        let a = u.constant("a");
        let b = u.constant("b");
        let c = u.constant("c");
        let eab = u.atom(e, vec![a, b]).unwrap();
        let ebc = u.atom(e, vec![b, c]).unwrap();
        let eca = u.atom(e, vec![c, a]).unwrap();
        let ma = u.atom(m, vec![a]).unwrap();
        let mb = u.atom(m, vec![b]).unwrap();
        let mc = u.atom(m, vec![c]).unwrap();
        let mut i = Interp::new();
        i.set_true(eab);
        i.set_true(ebc);
        // eca stays unknown.
        i.set_true(ma);
        i.set_false(mb);
        i.set_false(mc);
        (u, i, vec![eab, ebc, eca, ma, mb, mc])
    }

    #[test]
    fn positive_query_over_true_atoms() {
        let (u, i, atoms) = setup();
        let src = InterpSource::new(&i, &atoms);
        let e = u.lookup_pred("edge").unwrap();
        let q = Nbcq::boolean(&u, vec![QueryAtom::new(e, vec![v(0), v(1)])], vec![]).unwrap();
        assert!(holds(&u, &src, &q));
    }

    #[test]
    fn join_respects_bindings() {
        let (u, i, atoms) = setup();
        let src = InterpSource::new(&i, &atoms);
        let e = u.lookup_pred("edge").unwrap();
        // ∃X,Y,Z edge(X,Y) ∧ edge(Y,Z): a→b→c. True.
        let q = Nbcq::boolean(
            &u,
            vec![
                QueryAtom::new(e, vec![v(0), v(1)]),
                QueryAtom::new(e, vec![v(1), v(2)]),
            ],
            vec![],
        )
        .unwrap();
        assert!(holds(&u, &src, &q));
        // Cycle edge(X,Y) ∧ edge(Y,X): none among certainly-true. False…
        let q2 = Nbcq::boolean(
            &u,
            vec![
                QueryAtom::new(e, vec![v(0), v(1)]),
                QueryAtom::new(e, vec![v(1), v(0)]),
            ],
            vec![],
        )
        .unwrap();
        assert!(!holds(&u, &src, &q2));
    }

    #[test]
    fn negation_requires_false_not_unknown() {
        let (u, i, atoms) = setup();
        let src = InterpSource::new(&i, &atoms);
        let e = u.lookup_pred("edge").unwrap();
        let m = u.lookup_pred("mark").unwrap();
        // ∃X,Y edge(X,Y) ∧ ¬mark(Y): Y=b has mark(b) false → true.
        let q = Nbcq::boolean(
            &u,
            vec![QueryAtom::new(e, vec![v(0), v(1)])],
            vec![QueryAtom::new(m, vec![v(1)])],
        )
        .unwrap();
        assert!(holds(&u, &src, &q));
        // ∃X,Y edge(X,Y) ∧ ¬edge(Y,X): for (a,b): edge(b,a) unmaterialized
        // → false → satisfied.
        let q2 = Nbcq::boolean(
            &u,
            vec![QueryAtom::new(e, vec![v(0), v(1)])],
            vec![QueryAtom::new(e, vec![v(1), v(0)])],
        )
        .unwrap();
        assert!(holds(&u, &src, &q2));
        // But for the pair (b,c) with ¬edge(c, ·)… check unknown blocking:
        // ∃X edge(b,X) ∧ ¬edge(X,a): X=c, edge(c,a) unknown → not certain.
        let b = u.lookup_constant("b").unwrap();
        let a = u.lookup_constant("a").unwrap();
        let q3 = Nbcq::boolean(
            &u,
            vec![QueryAtom::new(e, vec![QTerm::Const(b), v(0)])],
            vec![QueryAtom::new(e, vec![v(0), QTerm::Const(a)])],
        )
        .unwrap();
        assert!(!holds(&u, &src, &q3));
        // …though it is *possibly* satisfied.
        assert_eq!(holds3(&u, &src, &q3), Truth::Unknown);
    }

    #[test]
    fn answer_tuples() {
        let (u, i, atoms) = setup();
        let src = InterpSource::new(&i, &atoms);
        let e = u.lookup_pred("edge").unwrap();
        let m = u.lookup_pred("mark").unwrap();
        // ?(X) edge(X,Y), not mark(X): a is marked-true, b is the only
        // certain edge source that is false-marked.
        let q = Nbcq::new(
            &u,
            vec![QueryAtom::new(e, vec![v(0), v(1)])],
            vec![QueryAtom::new(m, vec![v(0)])],
            vec![QVar::new(0)],
        )
        .unwrap();
        let ans = answers(&u, &src, &q);
        let b = u.lookup_constant("b").unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[b]));
    }

    #[test]
    fn constants_in_query() {
        let (u, i, atoms) = setup();
        let src = InterpSource::new(&i, &atoms);
        let e = u.lookup_pred("edge").unwrap();
        let a = u.lookup_constant("a").unwrap();
        let q = Nbcq::boolean(
            &u,
            vec![QueryAtom::new(e, vec![QTerm::Const(a), v(0)])],
            vec![],
        )
        .unwrap();
        assert!(holds(&u, &src, &q));
        let c = u.lookup_constant("c").unwrap();
        let q2 = Nbcq::boolean(
            &u,
            vec![QueryAtom::new(e, vec![QTerm::Const(c), v(0)])],
            vec![],
        )
        .unwrap();
        assert!(!holds(&u, &src, &q2), "edge(c,a) is only unknown");
        assert_eq!(holds3(&u, &src, &q2), Truth::Unknown);
    }
}
