//! Differential testing of the query evaluator: the indexed backtracking
//! search must agree with a naive brute-force evaluator that enumerates
//! every assignment over the active domain, and evaluating over the one
//! index a model keeps (its not-false atoms, candidates filtered by
//! verdict) must agree with evaluating over one index per mode. A fully
//! bound positive atom never reaches the index — it is looked up in the
//! universe's atom table — and must read the same verdict brute force
//! does, whatever the atom is to the model and however complete the model.
//! An answer set of any arity holds exactly the projections brute force
//! finds, sorted, once each, without the rows that bind a null.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use std::collections::BTreeSet;
use wfdl_core::{AtomId, Interp, TermId, Truth, Universe};
use wfdl_query::{
    answers, answers_indexed, holds, holds3_indexed, possible_witness_indexed, InterpSource, Nbcq,
    PreparedQuery, QTerm, QVar, QueryAtom, TruthSource,
};
use wfdl_storage::AtomIndex;

/// A random model over p0/1, p1/2, p2/2, constants k0..k4 and — where
/// [`model_spec_over`] draws them — the nulls f(k0), f(k1).
#[derive(Clone, Debug)]
struct ModelSpec {
    /// (pred index, args, verdict) triples; see [`VERDICTS`]. A verdict
    /// index past the end interns the atom and leaves it outside the
    /// model.
    atoms: Vec<(usize, Vec<usize>, usize)>,
}

const VERDICTS: [Truth; 3] = [Truth::True, Truth::False, Truth::Unknown];

/// The verdict index of an atom the universe has and the model has not.
const OUTSIDE: usize = VERDICTS.len();

/// How many constants a model has (k0..k4), and how many terms with its
/// two nulls.
const CONSTANTS: usize = 5;
const TERMS: usize = CONSTANTS + 2;

fn model_spec() -> impl Strategy<Value = ModelSpec> {
    model_spec_with(VERDICTS.len())
}

/// Models over the constants whose atoms draw their verdict index from
/// `0..verdicts`.
fn model_spec_with(verdicts: usize) -> impl Strategy<Value = ModelSpec> {
    model_spec_over(CONSTANTS, verdicts, 0..25)
}

/// Models of `atoms` atoms, whose arguments are among the first `terms`
/// terms.
fn model_spec_over(
    terms: usize,
    verdicts: usize,
    atoms: std::ops::Range<usize>,
) -> impl Strategy<Value = ModelSpec> {
    proptest::collection::vec(
        (
            0usize..3,
            proptest::collection::vec(0..terms, 2),
            0..verdicts,
        ),
        atoms,
    )
    .prop_map(|atoms| ModelSpec { atoms })
}

/// A random safe query: positive atoms drawn freely over vars 0..3 and
/// constants; negated atoms reuse only variables that occur positively.
#[derive(Clone, Debug)]
struct QuerySpec {
    pos: Vec<(usize, Vec<i8>)>, // arg ≥ 0: var id; arg < 0: constant -(a+1)
    neg: Vec<(usize, Vec<i8>)>,
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    let atom = (0usize..3, proptest::collection::vec(-3i8..4, 2));
    (
        proptest::collection::vec(atom.clone(), 1..3),
        proptest::collection::vec(atom, 0..2),
    )
        .prop_map(|(pos, mut neg)| {
            // Force safety: remap each negated variable to some positive var.
            let pos_vars: Vec<i8> = pos
                .iter()
                .flat_map(|(_, args)| args.iter().copied().filter(|&a| a >= 0))
                .collect();
            for (_, args) in &mut neg {
                for a in args.iter_mut() {
                    if *a >= 0 {
                        *a = if pos_vars.is_empty() {
                            -1 // no positive vars: use a constant
                        } else {
                            pos_vars[*a as usize % pos_vars.len()]
                        };
                    }
                }
            }
            QuerySpec { pos, neg }
        })
}

struct Built {
    universe: Universe,
    interp: Interp,
    atoms: Vec<AtomId>,
    query: Nbcq,
    consts: Vec<TermId>,
    /// The constants, then the nulls.
    terms: Vec<TermId>,
}

fn build(spec: &ModelSpec, qspec: &QuerySpec) -> Option<Built> {
    let mut u = Universe::new();
    let preds = [
        u.pred("p0", 1).unwrap(),
        u.pred("p1", 2).unwrap(),
        u.pred("p2", 2).unwrap(),
    ];
    let arities = [1usize, 2, 2];
    let consts: Vec<TermId> = (0..CONSTANTS)
        .map(|i| u.constant(&format!("k{i}")))
        .collect();
    let f = u.skolem_fn("f", 1).unwrap();
    let nulls = consts[..TERMS - CONSTANTS].iter();
    let nulls: Vec<TermId> = nulls.map(|&k| u.skolem_term(f, [k]).unwrap()).collect();
    let terms = [&consts[..], &nulls[..]].concat();
    let mut interp = Interp::new();
    let mut atoms = Vec::new();
    for (p, args, truth) in &spec.atoms {
        let args: Vec<TermId> = args.iter().take(arities[*p]).map(|&i| terms[i]).collect();
        let atom = u.atom(preds[*p], args).unwrap();
        if *truth != OUTSIDE && !atoms.contains(&atom) {
            atoms.push(atom);
            let _changed = match VERDICTS[*truth] {
                Truth::True => interp.set_true(atom),
                Truth::False => interp.set_false(atom),
                Truth::Unknown => false,
            };
        }
    }
    let mk_atom = |(p, args): &(usize, Vec<i8>)| {
        let qargs: Vec<QTerm> = args
            .iter()
            .take(arities[*p])
            .map(|&a| {
                if a >= 0 {
                    QTerm::Var(QVar::new(a as u32))
                } else {
                    QTerm::Const(consts[(-a - 1) as usize])
                }
            })
            .collect();
        QueryAtom::new(preds[*p], qargs)
    };
    let pos: Vec<QueryAtom> = qspec.pos.iter().map(mk_atom).collect();
    let neg: Vec<QueryAtom> = qspec.neg.iter().map(mk_atom).collect();
    let query = Nbcq::boolean(&u, pos, neg).ok()?;
    Some(Built {
        universe: u,
        interp,
        atoms,
        query,
        consts,
        terms,
    })
}

/// Naive certain satisfaction: positives true, negatives false.
fn brute_force_holds(b: &Built) -> bool {
    let src = InterpSource::new(&b.interp, &b.atoms);
    brute_force(b, &src, Truth::is_true, Truth::is_false)
}

/// Naive evaluation: enumerate every assignment of the query's variables
/// over the constant domain, until one maps every positive atom to a
/// verdict `pos_ok` admits and every negated atom to one `neg_ok` admits.
fn brute_force<S: TruthSource>(
    b: &Built,
    src: &S,
    pos_ok: fn(Truth) -> bool,
    neg_ok: fn(Truth) -> bool,
) -> bool {
    each_witness(b, src, &b.consts, pos_ok, neg_ok, |_| true)
}

/// Naive certain answers: the projection onto the answer variables of
/// every assignment over constants and nulls that satisfies the query,
/// without the rows holding a null.
fn brute_force_answers<S: TruthSource>(b: &Built, src: &S) -> BTreeSet<Vec<TermId>> {
    let mut rows = BTreeSet::new();
    each_witness(b, src, &b.terms, Truth::is_true, Truth::is_false, |terms| {
        let row: Vec<TermId> = b
            .query
            .answer_vars
            .iter()
            .map(|v| terms[v.index()])
            .collect();
        if row.iter().all(|t| b.consts.contains(t)) {
            rows.insert(row);
        }
        false
    });
    rows
}

/// Calls `visit` with each assignment of the query's variables over
/// `domain` — as the terms it assigns — that maps every positive atom to a
/// verdict `pos_ok` admits and every negated atom to one `neg_ok` admits,
/// until `visit` returns true; returns whether it did.
fn each_witness<S: TruthSource>(
    b: &Built,
    src: &S,
    domain: &[TermId],
    pos_ok: fn(Truth) -> bool,
    neg_ok: fn(Truth) -> bool,
    mut visit: impl FnMut(&[TermId]) -> bool,
) -> bool {
    let nvars = b.query.num_vars() as usize;
    let mut assignment = vec![0usize; nvars];
    loop {
        // Check this assignment.
        let lookup = |atom: &QueryAtom| -> Truth {
            let args: Vec<TermId> = atom
                .args
                .iter()
                .map(|t| match t {
                    QTerm::Const(c) => *c,
                    QTerm::Var(v) => domain[assignment[v.index()]],
                })
                .collect();
            match b.universe.atoms.lookup(atom.pred, &args) {
                Some(a) => src.value(a),
                None => src.unseen(),
            }
        };
        let ok = b.query.pos.iter().all(|a| pos_ok(lookup(a)))
            && b.query.neg.iter().all(|a| neg_ok(lookup(a)));
        if ok {
            let terms: Vec<TermId> = assignment.iter().map(|&i| domain[i]).collect();
            if visit(&terms) {
                return true;
            }
        }
        // Next assignment.
        let mut i = 0;
        loop {
            if i == nvars {
                return false;
            }
            assignment[i] += 1;
            if assignment[i] < domain.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// The query with its first positive variable (if any) as the answer
/// variable.
fn with_first_var_as_answer(b: &Built) -> Option<(QVar, Nbcq)> {
    let mut terms = b.query.pos.iter().flat_map(|a| a.args.iter());
    let var = terms.find_map(|t| match t {
        QTerm::Var(v) => Some(*v),
        QTerm::Const(_) => None,
    })?;
    let (pos, neg) = (b.query.pos.clone(), b.query.neg.clone());
    Some((var, Nbcq::new(&b.universe, pos, neg, vec![var]).unwrap()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One index over the not-false atoms, candidates filtered by verdict,
    /// answers what one index per mode answers — a true-atoms index for
    /// certain answers, a not-false index for the possible witness — and
    /// what brute force does.
    #[test]
    fn one_index_serves_certain_and_three_valued_reads(
        spec in model_spec(),
        qspec in query_spec(),
    ) {
        let Some(built) = build(&spec, &qspec) else { return Ok(()); };
        let u = &built.universe;
        let src = InterpSource::new(&built.interp, &built.atoms);
        let certain = AtomIndex::build(u, src.certain_atoms());
        let one = AtomIndex::build(u, src.possible_atoms());

        let query = with_first_var_as_answer(&built).map_or(built.query.clone(), |(_, q)| q);
        let per_mode = answers_indexed(u, &src, &certain, &query);
        prop_assert_eq!(&answers_indexed(u, &src, &one, &query), &per_mode, "{:?}", query);

        let expected = if !per_mode.is_empty() {
            Truth::True
        } else if possible_witness_indexed(u, &src, &one, &query) {
            Truth::Unknown
        } else {
            Truth::False
        };
        let prepared = PreparedQuery::from_query(query.clone());
        prop_assert_eq!(prepared.answers_with(u, &src, &one), per_mode);
        prop_assert_eq!(prepared.holds3_with(u, &src, &one), expected, "{:?}", query);
        let brute = if brute_force_holds(&built) {
            Truth::True
        } else if brute_force(&built, &src, |v| !v.is_false(), |v| !v.is_true()) {
            Truth::Unknown
        } else {
            Truth::False
        };
        prop_assert_eq!(expected, brute, "{:?}", query);
    }
}

/// A model cut off before its fixpoint: what it has not seen — an atom
/// interned by someone else, or never interned — is undecided.
struct CutOff<'a> {
    seen: InterpSource<'a>,
    atoms: &'a [AtomId],
}

impl TruthSource for CutOff<'_> {
    fn value(&self, atom: AtomId) -> Truth {
        if self.atoms.contains(&atom) {
            self.seen.value(atom)
        } else {
            self.unseen()
        }
    }

    fn unseen(&self) -> Truth {
        Truth::Unknown
    }

    fn certain_atoms(&self) -> Vec<AtomId> {
        self.seen.certain_atoms()
    }

    fn possible_atoms(&self) -> Vec<AtomId> {
        self.seen.possible_atoms()
    }
}

/// What a ground atom can be to a model, and to the universe under it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    InModel(Truth),
    InternedOutsideTheModel,
    NeverInterned,
}

/// Every ground atom over the test schema as a query atom, with its kind.
fn ground_atoms(b: &Built) -> Vec<(Kind, QueryAtom)> {
    let src = InterpSource::new(&b.interp, &b.atoms);
    let mut out = Vec::new();
    for pred in b.universe.pred_ids() {
        let arity = b.universe.pred_arity(pred);
        for digits in 0..b.consts.len().pow(arity as u32) {
            let args: Vec<TermId> = (0..arity)
                .map(|pos| b.consts[digits / b.consts.len().pow(pos as u32) % b.consts.len()])
                .collect();
            let kind = match b.universe.atoms.lookup(pred, &args) {
                Some(a) if b.atoms.contains(&a) => Kind::InModel(src.value(a)),
                Some(_) => Kind::InternedOutsideTheModel,
                None => Kind::NeverInterned,
            };
            let args: Vec<QTerm> = args.into_iter().map(QTerm::Const).collect();
            out.push((kind, QueryAtom::new(pred, args)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A fully bound positive atom is answered from the atom table, not
    /// from the index: alone and in front of the random query, in both
    /// modes, over a complete model and over a cut-off one, for an atom
    /// of every kind the case has — and reading it builds no key table.
    #[test]
    fn ground_atoms_read_the_verdict_brute_force_reads(
        spec in model_spec_with(OUTSIDE + 1),
        qspec in query_spec(),
        picks in proptest::collection::vec(0usize..1000, 5),
    ) {
        let Some(mut built) = build(&spec, &qspec) else { return Ok(()); };
        let u = built.universe.clone();
        let complete = InterpSource::new(&built.interp, &built.atoms);
        let cut_off = CutOff { seen: complete.clone(), atoms: &built.atoms };
        let index = AtomIndex::build(&u, complete.possible_atoms());
        let all = ground_atoms(&built);
        let kinds = [
            Kind::InModel(Truth::True),
            Kind::InModel(Truth::Unknown),
            Kind::InModel(Truth::False),
            Kind::InternedOutsideTheModel,
            Kind::NeverInterned,
        ];
        let (random_pos, random_neg) = (built.query.pos.clone(), built.query.neg.clone());
        for (kind, pick) in kinds.into_iter().zip(picks) {
            let of_kind: Vec<&QueryAtom> =
                all.iter().filter(|(k, _)| *k == kind).map(|(_, a)| a).collect();
            if of_kind.is_empty() {
                continue;
            }
            let ground = of_kind[pick % of_kind.len()].clone();
            let alone = Nbcq::boolean(&u, vec![ground.clone()], vec![]).unwrap();
            let mut pos = vec![ground];
            pos.extend(random_pos.iter().cloned());
            let joined = Nbcq::boolean(&u, pos, random_neg.clone()).unwrap();
            for query in [alone, joined] {
                built.query = query.clone();

                // Complete model: certain, then possible, against brute force.
                let certain = brute_force(&built, &complete, Truth::is_true, Truth::is_false);
                let possible =
                    brute_force(&built, &complete, |v| !v.is_false(), |v| !v.is_true());
                prop_assert_eq!(
                    !answers_indexed(&u, &complete, &index, &query).is_empty(),
                    certain,
                    "{:?} {:?}", kind, query
                );
                prop_assert_eq!(
                    possible_witness_indexed(&u, &complete, &index, &query),
                    possible,
                    "{:?} {:?}", kind, query
                );
                let expected = match (certain, possible) {
                    (true, _) => Truth::True,
                    (false, true) => Truth::Unknown,
                    (false, false) => Truth::False,
                };
                prop_assert_eq!(holds3_indexed(&u, &complete, &index, &query), expected);

                // Cut-off model: certain answers against brute force
                // (absent atoms undecided, so they satisfy no literal);
                // the three-valued read never refutes.
                let certain = brute_force(&built, &cut_off, Truth::is_true, Truth::is_false);
                prop_assert_eq!(
                    !answers_indexed(&u, &cut_off, &index, &query).is_empty(),
                    certain,
                    "cut off: {:?} {:?}", kind, query
                );
                let expected = if certain { Truth::True } else { Truth::Unknown };
                prop_assert_eq!(holds3_indexed(&u, &cut_off, &index, &query), expected);
                let prepared = PreparedQuery::from_query(query.clone());
                prop_assert_eq!(prepared.holds3_with(&u, &cut_off, &index), expected);
            }
        }
        // Every ground atom alone, once more, on a fresh index: none of
        // them reads (or builds) a key table.
        let fresh = AtomIndex::build(&u, complete.possible_atoms());
        for (_, ground) in &all {
            let alone = Nbcq::boolean(&u, vec![ground.clone()], vec![]).unwrap();
            let _ = holds3_indexed(&u, &complete, &fresh, &alone);
        }
        prop_assert_eq!(fresh.stats().key_tables_built, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn indexed_search_matches_brute_force(spec in model_spec(), qspec in query_spec()) {
        let Some(built) = build(&spec, &qspec) else {
            // Unsafe query after remapping (no positive vars at all) — skip.
            return Ok(());
        };
        let src = InterpSource::new(&built.interp, &built.atoms);
        let fast = holds(&built.universe, &src, &built.query);
        let slow = brute_force_holds(&built);
        prop_assert_eq!(fast, slow, "query {:?}", built.query);
    }

    /// Every reported answer tuple re-verifies under direct substitution.
    #[test]
    fn answers_are_sound(spec in model_spec(), qspec in query_spec()) {
        let Some(mut built) = build(&spec, &qspec) else { return Ok(()); };
        // Turn the first positive var (if any) into an answer variable.
        let Some((var, query)) = with_first_var_as_answer(&built) else { return Ok(()); };
        built.query = query;
        let src = InterpSource::new(&built.interp, &built.atoms);
        let ans = answers(&built.universe, &src, &built.query);
        for tuple in ans.tuples() {
            // Substitute the answer back as a constant and re-check.
            let subst: Vec<QueryAtom> = built
                .query
                .pos
                .iter()
                .map(|a| {
                    let args: Vec<QTerm> = a
                        .args
                        .iter()
                        .map(|t| match t {
                            QTerm::Var(v) if *v == var => QTerm::Const(tuple[0]),
                            other => *other,
                        })
                        .collect();
                    QueryAtom::new(a.pred, args)
                })
                .collect();
            let neg_subst: Vec<QueryAtom> = built
                .query
                .neg
                .iter()
                .map(|a| {
                    let args: Vec<QTerm> = a
                        .args
                        .iter()
                        .map(|t| match t {
                            QTerm::Var(v) if *v == var => QTerm::Const(tuple[0]),
                            other => *other,
                        })
                        .collect();
                    QueryAtom::new(a.pred, args)
                })
                .collect();
            let grounded = Nbcq::boolean(&built.universe, subst, neg_subst).unwrap();
            prop_assert!(
                holds(&built.universe, &src, &grounded),
                "answer {:?} does not re-verify",
                tuple
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Answer sets of arity 0 to 3 — answer variables drawn, repeats
    /// allowed, from the query's positive variables — over models whose
    /// atoms hold nulls: each is the sorted, duplicate-free set of brute
    /// force's projections without their null rows, through either index,
    /// and `contains` finds exactly its rows.
    #[test]
    fn answer_sets_of_every_arity_match_brute_force(
        spec in model_spec_over(TERMS, VERDICTS.len(), 20..80),
        qspec in query_spec(),
        picks in proptest::collection::vec(0usize..8, 0..4),
        probes in proptest::collection::vec(proptest::collection::vec(0..TERMS, 3), 6),
    ) {
        let Some(mut built) = build(&spec, &qspec) else { return Ok(()); };
        let u = &built.universe;
        let mut vars: Vec<QVar> = built.query.pos.iter().flat_map(|a| a.args.iter()).filter_map(|t| match t {
            QTerm::Var(v) => Some(*v),
            QTerm::Const(_) => None,
        }).collect();
        vars.sort();
        vars.dedup();
        let answer_vars: Vec<QVar> = match vars.len() {
            0 => Vec::new(),
            n => picks.iter().map(|&p| vars[p % n]).collect(),
        };
        let arity = answer_vars.len();
        let (pos, neg) = (built.query.pos.clone(), built.query.neg.clone());
        built.query = Nbcq::new(u, pos, neg, answer_vars).unwrap();
        let query = &built.query;
        let src = InterpSource::new(&built.interp, &built.atoms);

        let expected = brute_force_answers(&built, &src);
        let got = answers(u, &src, query);
        let rows: Vec<Vec<TermId>> = got.tuples().map(<[TermId]>::to_vec).collect();
        prop_assert_eq!(&rows, &expected.iter().cloned().collect::<Vec<_>>(), "{:?}", query);
        prop_assert_eq!(got.len(), expected.len());
        let one = AtomIndex::build(u, src.possible_atoms());
        prop_assert_eq!(&answers_indexed(u, &src, &one, query), &got);
        prop_assert_eq!(&PreparedQuery::from_query(query.clone()).answers_with(u, &src, &one), &got);

        for row in &expected {
            prop_assert!(got.contains(row), "{:?} misses {:?}", got, row);
        }
        for probe in &probes {
            let row: Vec<TermId> = probe[..arity].iter().map(|&i| built.terms[i]).collect();
            prop_assert_eq!(got.contains(&row), expected.contains(&row), "{:?}", row);
            let longer = probe.iter().chain(&[0]).take(arity + 1);
            let longer: Vec<TermId> = longer.map(|&i| built.terms[i]).collect();
            prop_assert!(!got.contains(&longer), "{:?} holds a row of arity {}", got, arity + 1);
        }
    }
}
