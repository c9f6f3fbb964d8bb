//! NBCQ evaluation: homomorphism search with certain-answer semantics.
//!
//! An NBCQ `Q` is satisfied in an interpretation `I` if a homomorphism `µ`
//! maps every positive atom to a **true** atom and every negated atom to an
//! atom whose negation is in `I` — i.e. a **false** atom, not merely a
//! non-true one (Section 2.3). Answers to non-Boolean queries are tuples
//! over the constants `∆` (never nulls), per Section 2.1.

use crate::nbcq::{Nbcq, QTerm, QueryAtom};
use crate::source::TruthSource;
use std::fmt;
use wfdl_core::{AtomId, TermId, Truth, Universe};
use wfdl_storage::AtomIndex;

/// The set of answers to a query: deduplicated tuples of constants, sorted
/// lexicographically by [`TermId`] (one entry, the empty tuple, for a
/// satisfied Boolean query).
///
/// The tuples are the rows of one flat array, `arity` terms each, so a set
/// of any size is one allocation and a row is read without following a
/// pointer.
#[derive(Clone, Default)]
pub struct AnswerSet {
    arity: usize,
    len: usize,
    terms: Vec<TermId>,
}

impl AnswerSet {
    /// The answer tuples, in sorted order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = &[TermId]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no answers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[TermId]) -> bool {
        self.tuples().any(|t| t == tuple)
    }

    fn row(&self, i: usize) -> &[TermId] {
        &self.terms[i * self.arity..(i + 1) * self.arity]
    }

    /// Sorts the rows and drops repeats. One column sorts in place; wider
    /// rows are sorted through a permutation and copied out once.
    fn normalize(&mut self) {
        match self.arity {
            0 => self.len = self.len.min(1),
            1 => {
                self.terms.sort_unstable();
                self.terms.dedup();
                self.len = self.terms.len();
            }
            arity => {
                let mut order: Vec<usize> = (0..self.len).collect();
                order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
                order.dedup_by(|a, b| self.row(*a) == self.row(*b));
                let mut terms = Vec::with_capacity(order.len() * arity);
                for &i in &order {
                    terms.extend_from_slice(self.row(i));
                }
                self.len = order.len();
                self.terms = terms;
            }
        }
    }
}

/// Two sets are equal when their rows are: an empty set equals every other
/// empty set, whatever the arity it was evaluated at.
impl PartialEq for AnswerSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.tuples().eq(other.tuples())
    }
}

impl Eq for AnswerSet {}

impl fmt::Debug for AnswerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.tuples()).finish()
    }
}

/// Evaluates the query over a model under certain-answer semantics.
///
/// Builds a fresh index over the model's certainly-true atoms on every
/// call; when the same model answers many queries, build the index once
/// and use [`answers_indexed`] (this is what prepared queries do).
pub fn answers<S: TruthSource>(universe: &Universe, model: &S, query: &Nbcq) -> AnswerSet {
    let index = AtomIndex::build(universe, model.certain_atoms().iter().copied());
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
    // A Boolean query has one answer at most: its first witness.
    let first_only = query.is_boolean();
    let mut out = Search::new(universe, model, index, query, Mode::Certain, first_only).run();
    out.normalize();
    out
}

/// Boolean satisfaction: `WFS(D,Σ) |= Q`.
pub fn holds<S: TruthSource>(universe: &Universe, model: &S, query: &Nbcq) -> bool {
    let index = AtomIndex::build(universe, model.certain_atoms().iter().copied());
    holds_indexed(universe, model, &index, query)
}

/// [`holds`] over a prebuilt index (see [`answers_indexed`] for the
/// contract): true iff the query has a certain answer. Stops at the first.
pub(crate) fn holds_indexed<S: TruthSource>(
    universe: &Universe,
    model: &S,
    index: &AtomIndex,
    query: &Nbcq,
) -> bool {
    Search::new(universe, model, index, query, Mode::Certain, true).witnessed()
}

/// Three-valued satisfaction: `True` if certainly satisfied, `Unknown` if a
/// homomorphism exists using undefined atoms (positives not false,
/// negatives not true) but no certain one, `False` otherwise.
pub fn holds3<S: TruthSource>(universe: &Universe, model: &S, query: &Nbcq) -> Truth {
    let index = AtomIndex::build(universe, model.possible_atoms().iter().copied());
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
    if holds_indexed(universe, model, index, query) {
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
/// [`holds3_indexed`]. Stops at the first witness.
pub fn possible_witness_indexed<S: TruthSource>(
    universe: &Universe,
    model: &S,
    index: &AtomIndex,
    query: &Nbcq,
) -> bool {
    Search::new(universe, model, index, query, Mode::Possible, true).witnessed()
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

/// Extends the binding so that `atom` maps to `ground`, pushing every
/// variable it binds onto `trail`; false if they cannot agree.
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

/// One backtracking homomorphism search. Its scratch — the binding, the
/// matched atoms and one trail of the variables bound since each open
/// candidate was taken — is sized once, so the search allocates nothing
/// per candidate; answers are pushed onto one flat array, so nothing per
/// answer either.
struct Search<'a, S> {
    universe: &'a Universe,
    model: &'a S,
    index: &'a AtomIndex,
    query: &'a Nbcq,
    mode: Mode,
    /// Stop at the first recorded row: the caller asks only whether one
    /// exists.
    first_only: bool,
    binding: Vec<Option<TermId>>,
    used: Vec<bool>,
    trail: Vec<usize>,
    out: AnswerSet,
}

impl<'a, S: TruthSource> Search<'a, S> {
    fn new(
        universe: &'a Universe,
        model: &'a S,
        index: &'a AtomIndex,
        query: &'a Nbcq,
        mode: Mode,
        first_only: bool,
    ) -> Self {
        let vars = query.num_vars() as usize;
        Search {
            universe,
            model,
            index,
            query,
            mode,
            first_only,
            binding: vec![None; vars],
            used: vec![false; query.pos.len()],
            trail: Vec::with_capacity(vars),
            out: AnswerSet {
                arity: query.answer_vars.len(),
                ..AnswerSet::default()
            },
        }
    }

    /// Every answer row `mode` admits, unsorted and with repeats.
    fn run(mut self) -> AnswerSet {
        self.search();
        self.out
    }

    /// Whether `mode` admits an answer row at all.
    fn witnessed(self) -> bool {
        !self.run().is_empty()
    }

    /// Extends the binding over the unmatched positive atoms; true once the
    /// search is to stop.
    fn search(&mut self) -> bool {
        let Some((qi, cands)) = pick_next(
            self.universe,
            self.index,
            self.query,
            &self.binding,
            &self.used,
        ) else {
            return self.leaf();
        };
        self.used[qi] = true;
        let mut stop = false;
        for &ground in cands.as_slice() {
            // The candidates may cover more than this mode may match (see
            // `answers_indexed`): the verdict decides.
            if !self.mode.admits(self.model.value(ground)) {
                continue;
            }
            let mark = self.trail.len();
            let atom = &self.query.pos[qi];
            if match_query_atom(
                self.universe,
                atom,
                ground,
                &mut self.binding,
                &mut self.trail,
            ) {
                stop = self.search();
            }
            for v in self.trail.drain(mark..) {
                self.binding[v] = None;
            }
            if stop {
                break;
            }
        }
        self.used[qi] = false;
        stop
    }

    /// Every positive atom is matched: checks the negated atoms and records
    /// the answer row. True once the search is to stop.
    // The two `expect`s hold by query safety, validated at construction:
    // every variable of a negated atom and every answer variable occurs in
    // some positive atom, and all positive atoms are matched before this
    // leaf runs.
    #[allow(clippy::expect_used)]
    fn leaf(&mut self) -> bool {
        for n in &self.query.neg {
            let ground = ground_atom(self.universe, n, &self.binding);
            let value = match ground.expect("safe query binds all vars") {
                Some(a) => self.model.value(a),
                None => self.model.unseen(), // atom never materialized
            };
            if !self.mode.admits_negated(value) {
                return false;
            }
        }
        // Answers range over constants only: a row with a null is dropped.
        let row = self.out.terms.len();
        for v in &self.query.answer_vars {
            let t = self.binding[v.index()].expect("answer vars bound by positive atoms");
            if !self.universe.terms.is_constant(t) {
                self.out.terms.truncate(row);
                return false;
            }
            self.out.terms.push(t);
        }
        self.out.len += 1;
        self.first_only
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbcq::QVar;
    use crate::source::InterpSource;
    use std::cell::Cell;
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

    /// A source that counts its verdict reads.
    struct Counting<'a> {
        inner: InterpSource<'a>,
        reads: Cell<usize>,
    }

    impl TruthSource for Counting<'_> {
        fn value(&self, atom: AtomId) -> Truth {
            self.reads.set(self.reads.get() + 1);
            self.inner.value(atom)
        }
        fn certain_atoms(&self) -> Vec<AtomId> {
            self.inner.certain_atoms()
        }
        fn possible_atoms(&self) -> Vec<AtomId> {
            self.inner.possible_atoms()
        }
    }

    /// A source cut off before its fixpoint: an atom it never saw is
    /// undecided, not false.
    struct CutOff<'a>(InterpSource<'a>);

    impl TruthSource for CutOff<'_> {
        fn value(&self, atom: AtomId) -> Truth {
            self.0.value(atom)
        }
        fn unseen(&self) -> Truth {
            Truth::Unknown
        }
        fn certain_atoms(&self) -> Vec<AtomId> {
            self.0.certain_atoms()
        }
        fn possible_atoms(&self) -> Vec<AtomId> {
            self.0.possible_atoms()
        }
    }

    /// `?(X) p(X), not r(X).` where `r` is declared but has no atom: the
    /// negated leaf finds no atom of `r` to read — `r` has no id table, or
    /// an empty one — so it reads the source's verdict of an unseen atom.
    /// A complete model answers every `p` atom; a cut-off one answers none
    /// certainly and every one possibly.
    #[test]
    fn a_negated_predicate_without_atoms_reads_the_unseen_verdict() {
        let mut u = Universe::new();
        // `before` precedes `p`, so it has an empty table; `r` follows the
        // last predicate with an atom, so it has none.
        let before = u.pred("before", 1).unwrap();
        let p = u.pred("p", 1).unwrap();
        let r = u.pred("r", 1).unwrap();
        let mut i = Interp::new();
        let mut atoms = Vec::new();
        let mut names = Vec::new();
        for k in 0..5 {
            let c = u.constant(&format!("c{k}"));
            let atom = u.atom(p, vec![c]).unwrap();
            i.set_true(atom);
            atoms.push(atom);
            names.push([c]);
        }
        let complete = InterpSource::new(&i, &atoms);
        let cut_off = CutOff(complete.clone());
        let index = AtomIndex::build(&u, atoms.iter().copied());
        for negated in [r, before] {
            let q = Nbcq::new(
                &u,
                vec![QueryAtom::new(p, vec![v(0)])],
                vec![QueryAtom::new(negated, vec![v(0)])],
                vec![QVar::new(0)],
            )
            .unwrap();
            let rows = |set: &AnswerSet| set.tuples().map(<[TermId]>::to_vec).collect::<Vec<_>>();
            let every: Vec<Vec<TermId>> = names.iter().map(|n| n.to_vec()).collect();
            assert_eq!(rows(&answers_indexed(&u, &complete, &index, &q)), every);
            assert!(answers_indexed(&u, &cut_off, &index, &q).is_empty());
            let mut possible = Search::new(&u, &cut_off, &index, &q, Mode::Possible, false).run();
            possible.normalize();
            assert_eq!(rows(&possible), every);
            assert_eq!(holds3_indexed(&u, &cut_off, &index, &q), Truth::Unknown);
            assert_eq!(holds3_indexed(&u, &complete, &index, &q), Truth::True);
        }
        assert!(u.atoms.lookup(r, &names[0]).is_none());
    }

    #[test]
    fn existence_reads_stop_at_the_first_witness() {
        // p(c0..c99) and q(c0..c99), all true: `?- p(X), q(Y).` has 10,000
        // witnesses, and each existence read needs one.
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let mut i = Interp::new();
        let mut atoms = Vec::new();
        for k in 0..100 {
            let c = u.constant(&format!("c{k}"));
            for pred in [p, q] {
                let atom = u.atom(pred, vec![c]).unwrap();
                i.set_true(atom);
                atoms.push(atom);
            }
        }
        let src = Counting {
            inner: InterpSource::new(&i, &atoms),
            reads: Cell::new(0),
        };
        let index = AtomIndex::build(&u, src.possible_atoms());
        let pos = vec![QueryAtom::new(p, vec![v(0)]), QueryAtom::new(q, vec![v(1)])];
        let boolean = Nbcq::boolean(&u, pos.clone(), vec![]).unwrap();
        let reads = |read: &dyn Fn() -> bool| {
            src.reads.set(0);
            assert!(read());
            src.reads.get()
        };
        assert!(reads(&|| holds(&u, &src, &boolean)) <= 2);
        assert!(reads(&|| holds3_indexed(&u, &src, &index, &boolean) == Truth::True) <= 2);
        assert!(reads(&|| possible_witness_indexed(&u, &src, &index, &boolean)) <= 2);
        assert!(reads(&|| answers_indexed(&u, &src, &index, &boolean).len() == 1) <= 2);
        // A read that asks for every answer still reads every candidate.
        let pairs = Nbcq::new(&u, pos, vec![], vec![QVar::new(0), QVar::new(1)]).unwrap();
        let every = || answers_indexed(&u, &src, &index, &pairs).len() == 10_000;
        assert_eq!(reads(&every), 10_100);
    }

    #[test]
    fn answer_sets_are_sorted_deduplicated_rows() {
        let (u, i, atoms) = setup();
        let src = InterpSource::new(&i, &atoms);
        let e = u.lookup_pred("edge").unwrap();
        let m = u.lookup_pred("mark").unwrap();
        let [a, b, c] = ["a", "b", "c"].map(|n| u.lookup_constant(n).unwrap());
        let query = |pos, answer_vars| Nbcq::new(&u, pos, vec![], answer_vars).unwrap();
        // ?(Y, X) edge(X, Y): two rows, sorted by their first column.
        let swapped = query(
            vec![QueryAtom::new(e, vec![v(0), v(1)])],
            vec![QVar::new(1), QVar::new(0)],
        );
        let rows = answers(&u, &src, &swapped);
        let got: Vec<&[TermId]> = rows.tuples().collect();
        assert_eq!(got, [&[b, a][..], &[c, b][..]]);
        assert!(rows.contains(&[c, b]) && !rows.contains(&[a, b]) && !rows.contains(&[c]));
        // ?(X) edge(X, Y), mark(Z): four homomorphisms project onto two
        // rows, one per certain edge source.
        let projected = query(
            vec![
                QueryAtom::new(e, vec![v(0), v(1)]),
                QueryAtom::new(m, vec![v(2)]),
            ],
            vec![QVar::new(0)],
        );
        let rows = answers(&u, &src, &projected);
        assert_eq!(rows.tuples().collect::<Vec<_>>(), [[a], [b]]);
        assert_eq!(format!("{rows:?}"), format!("{:?}", [[a], [b]]));
        // No answers: the same set as the definitely-empty short-circuit's.
        let none = query(
            vec![
                QueryAtom::new(e, vec![v(0), v(1)]),
                QueryAtom::new(e, vec![v(1), v(0)]),
            ],
            vec![QVar::new(0)],
        );
        assert_eq!(answers(&u, &src, &none), AnswerSet::default());
        assert!(!AnswerSet::default().contains(&[]));
        // A satisfied Boolean query: one empty row, however many witnesses.
        let boolean = query(vec![QueryAtom::new(e, vec![v(0), v(1)])], vec![]);
        let rows = answers(&u, &src, &boolean);
        assert_eq!(rows.len(), 1);
        assert!(rows.contains(&[]));
        assert_eq!(rows.tuples().next(), Some(&[][..]));
    }
}
