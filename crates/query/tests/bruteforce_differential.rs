//! Differential testing of the query evaluator: the indexed backtracking
//! search must agree with a naive brute-force evaluator that enumerates
//! every assignment over the active domain, and evaluating over the one
//! index a model keeps (its not-false atoms, candidates filtered by
//! verdict) must agree with evaluating over one index per mode.

// Test/example code: panicking on a broken invariant IS the failure
// signal (see clippy.toml; helper fns here are outside #[test] scope).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use wfdl_core::{AtomId, Interp, TermId, Truth, Universe};
use wfdl_query::{
    answers, answers_indexed, holds, possible_witness_indexed, InterpSource, Nbcq, PreparedQuery,
    QTerm, QVar, QueryAtom, TruthSource,
};
use wfdl_storage::AtomIndex;

/// A random model over p0/1, p1/2, p2/2 and constants k0..k4.
#[derive(Clone, Debug)]
struct ModelSpec {
    /// (pred index, args, verdict) triples; see [`VERDICTS`].
    atoms: Vec<(usize, Vec<usize>, usize)>,
}

const VERDICTS: [Truth; 3] = [Truth::True, Truth::False, Truth::Unknown];

fn model_spec() -> impl Strategy<Value = ModelSpec> {
    proptest::collection::vec(
        (
            0usize..3,
            proptest::collection::vec(0usize..5, 2),
            0..VERDICTS.len(),
        ),
        0..25,
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
}

fn build(spec: &ModelSpec, qspec: &QuerySpec) -> Option<Built> {
    let mut u = Universe::new();
    let preds = [
        u.pred("p0", 1).unwrap(),
        u.pred("p1", 2).unwrap(),
        u.pred("p2", 2).unwrap(),
    ];
    let arities = [1usize, 2, 2];
    let consts: Vec<TermId> = (0..5).map(|i| u.constant(&format!("k{i}"))).collect();
    let mut interp = Interp::new();
    let mut atoms = Vec::new();
    for (p, args, truth) in &spec.atoms {
        let terms: Vec<TermId> = args.iter().take(arities[*p]).map(|&i| consts[i]).collect();
        let atom = u.atom(preds[*p], terms).unwrap();
        if !atoms.contains(&atom) {
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
    })
}

/// Naive certain satisfaction: positives true, negatives false.
fn brute_force_holds(b: &Built) -> bool {
    brute_force(b, Truth::is_true, Truth::is_false)
}

/// Naive evaluation: enumerate every assignment of the query's variables
/// over the constant domain, until one maps every positive atom to a
/// verdict `pos_ok` admits and every negated atom to one `neg_ok` admits.
fn brute_force(b: &Built, pos_ok: fn(Truth) -> bool, neg_ok: fn(Truth) -> bool) -> bool {
    let src = InterpSource::new(&b.interp, &b.atoms);
    let nvars = b.query.num_vars() as usize;
    let domain = &b.consts;
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
                None => Truth::False,
            }
        };
        let ok = b.query.pos.iter().all(|a| pos_ok(lookup(a)))
            && b.query.neg.iter().all(|a| neg_ok(lookup(a)));
        if ok {
            return true;
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
        } else if brute_force(&built, |v| !v.is_false(), |v| !v.is_true()) {
            Truth::Unknown
        } else {
            Truth::False
        };
        prop_assert_eq!(expected, brute, "{:?}", query);
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
