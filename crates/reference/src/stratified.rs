//! Stratified negation: the baseline semantics of Calì–Gottlob–Lukasiewicz
//! \[1\] that the paper generalizes.
//!
//! A program is *stratified* when its predicate dependency graph has no
//! negative edge inside a strongly connected component. Stratified programs
//! have a canonical (perfect) model computed by an iterated least fixpoint
//! along the strata — and the WFS coincides with it (every atom decided).
//! That coincidence is one of the workspace's main cross-validation
//! properties (experiment E8).

use wfdl_core::{FxHashMap, Interp, PredId, SkolemProgram, Universe};
use wfdl_storage::GroundProgram;

/// A stratification: a stratum index per predicate, with
/// `stratum(head) ≥ stratum(positive dep)` and
/// `stratum(head) > stratum(negative dep)`.
#[derive(Clone, Debug)]
pub struct Stratification {
    stratum_of: FxHashMap<PredId, u32>,
    /// Number of strata.
    pub num_strata: u32,
}

impl Stratification {
    /// The stratum of a predicate (predicates never mentioned get 0).
    pub fn stratum(&self, pred: PredId) -> u32 {
        self.stratum_of.get(&pred).copied().unwrap_or(0)
    }
}

/// Computes a stratification of the (non-ground) program, or `None` if the
/// program is not stratifiable (a negative edge occurs within an SCC of the
/// predicate dependency graph).
pub fn stratify(program: &SkolemProgram) -> Option<Stratification> {
    // Collect predicates and edges head -> body (polarity flagged).
    let mut preds: Vec<PredId> = Vec::new();
    let mut index: FxHashMap<PredId, usize> = FxHashMap::default();
    let touch = |p: PredId, preds: &mut Vec<PredId>, index: &mut FxHashMap<PredId, usize>| {
        *index.entry(p).or_insert_with(|| {
            preds.push(p);
            preds.len() - 1
        })
    };
    let mut edges: Vec<(usize, usize, bool)> = Vec::new(); // (head, dep, negative?)
    for rule in &program.rules {
        let h = touch(rule.head_pred, &mut preds, &mut index);
        for a in &rule.body_pos {
            let b = touch(a.pred, &mut preds, &mut index);
            edges.push((h, b, false));
        }
        for a in &rule.body_neg {
            let b = touch(a.pred, &mut preds, &mut index);
            edges.push((h, b, true));
        }
    }
    let n = preds.len();
    let mut fwd = vec![Vec::new(); n]; // head -> dep
    for &(h, b, neg) in &edges {
        fwd[h].push((b, neg));
    }

    let comp = scc(n, &fwd);
    // Reject negative edges within a component.
    for &(h, b, neg) in &edges {
        if neg && comp[h] == comp[b] {
            return None;
        }
    }

    // Strata via longest negative-edge path over the condensation. The
    // dependency condensation is a DAG; iterate to fixpoint (at most
    // n rounds; tiny in practice since predicates are few).
    let num_comps = comp.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut stratum = vec![0u32; num_comps];
    let mut changed = true;
    while changed {
        changed = false;
        for &(h, b, neg) in &edges {
            let need = stratum[comp[b]] + u32::from(neg);
            if stratum[comp[h]] < need {
                stratum[comp[h]] = need;
                changed = true;
            }
        }
    }

    let mut stratum_of = FxHashMap::default();
    for (i, &p) in preds.iter().enumerate() {
        stratum_of.insert(p, stratum[comp[i]]);
    }
    let num_strata = stratum.iter().copied().max().unwrap_or(0) + 1;
    Some(Stratification {
        stratum_of,
        num_strata,
    })
}

/// Kosaraju SCC over adjacency `fwd` (edges annotated, polarity ignored).
fn scc(n: usize, fwd: &[Vec<(usize, bool)>]) -> Vec<usize> {
    let mut rev = vec![Vec::new(); n];
    for (u, outs) in fwd.iter().enumerate() {
        for &(v, _) in outs {
            rev[v].push(u);
        }
    }
    // First pass: finish order on fwd.
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for s in 0..n {
        if visited[s] {
            continue;
        }
        // Iterative DFS with explicit post-order.
        let mut stack = vec![(s, 0usize)];
        visited[s] = true;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next < fwd[u].len() {
                let (v, _) = fwd[u][*next];
                *next += 1;
                if !visited[v] {
                    visited[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
    }
    // Second pass: reverse graph in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut c = 0usize;
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        comp[s] = c;
        while let Some(u) = stack.pop() {
            for &v in &rev[u] {
                if comp[v] == usize::MAX {
                    comp[v] = c;
                    stack.push(v);
                }
            }
        }
        c += 1;
    }
    comp
}

/// Evaluates the perfect (iterated least fixpoint) model of a ground
/// program under a stratification. The result is total on the program's
/// atoms: derived atoms are true, everything else false.
pub fn perfect_model(
    universe: &Universe,
    ground: &GroundProgram,
    strat: &Stratification,
) -> Interp {
    let mut interp = Interp::new();
    let mut derived: Vec<bool> = Vec::new(); // by dense order of ground.atoms()
    let mut index: FxHashMap<wfdl_core::AtomId, usize> = FxHashMap::default();
    for (i, &a) in ground.atoms().iter().enumerate() {
        index.insert(a, i);
        derived.push(false);
    }
    let mark = |a: wfdl_core::AtomId, derived: &mut Vec<bool>, index: &FxHashMap<_, usize>| {
        derived[index[&a]] = true;
    };
    for &f in ground.facts() {
        mark(f, &mut derived, &index);
    }

    // Materialize the rules once (cold path: the WFS engines carry the
    // optimized machinery; this baseline favours clarity).
    let all_rules: Vec<_> = ground.rules().collect();
    for s in 0..strat.num_strata {
        // Rules of this stratum.
        let rules: Vec<usize> = all_rules
            .iter()
            .enumerate()
            .filter(|(_, r)| strat.stratum(universe.atoms.pred(r.head)) == s)
            .map(|(i, _)| i)
            .collect();
        // Naive per-stratum closure (rule sets per stratum are small in the
        // workloads).
        let mut changed = true;
        while changed {
            changed = false;
            for &ri in &rules {
                let rule = &all_rules[ri];
                if derived[index[&rule.head]] {
                    continue;
                }
                let pos_ok = rule.pos.iter().all(|b| derived[index[b]]);
                // Negative deps are in strictly lower strata: final.
                let neg_ok = rule.neg.iter().all(|b| !derived[index[b]]);
                if pos_ok && neg_ok {
                    mark(rule.head, &mut derived, &index);
                    changed = true;
                }
            }
        }
    }

    for (i, &a) in ground.atoms().iter().enumerate() {
        if derived[i] {
            interp.set_true(a);
        } else {
            interp.set_false(a);
        }
    }
    interp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wp::{StepMode, WpEngine};
    use wfdl_core::{Program, RTerm, RuleAtom, Tgd, Truth, Var};
    use wfdl_storage::Database;

    fn v(i: u32) -> RTerm {
        RTerm::Var(Var::new(i))
    }

    fn build_stratified() -> (Universe, Database, SkolemProgram) {
        let mut u = Universe::new();
        let e = u.pred("e", 1).unwrap();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let mut prog = Program::new();
        // e(X) -> p(X);  e(X), not p(X) -> q(X)  — wait, p depends on e
        // only, q negatively on p: stratified with p at 0, q at 1.
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(e, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(p, vec![v(0)])],
            )
            .unwrap(),
        );
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(e, vec![v(0)])],
                vec![RuleAtom::new(p, vec![v(0)])],
                vec![RuleAtom::new(q, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let mut db = Database::new();
        let c = u.constant("c");
        let ec = u.atom(e, vec![c]).unwrap();
        db.insert(&u, ec).unwrap();
        (u, db, sk)
    }

    #[test]
    fn stratification_found() {
        let (u, _db, sk) = build_stratified();
        let strat = stratify(&sk).expect("stratified");
        let p = u.lookup_pred("p").unwrap();
        let q = u.lookup_pred("q").unwrap();
        assert!(strat.stratum(q) > strat.stratum(p));
    }

    #[test]
    fn unstratifiable_detected() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let g = u.pred("g", 1).unwrap();
        let mut prog = Program::new();
        // g(X), not q(X) -> p(X);  g(X), not p(X) -> q(X): odd loop.
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(g, vec![v(0)])],
                vec![RuleAtom::new(q, vec![v(0)])],
                vec![RuleAtom::new(p, vec![v(0)])],
            )
            .unwrap(),
        );
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(g, vec![v(0)])],
                vec![RuleAtom::new(p, vec![v(0)])],
                vec![RuleAtom::new(q, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        assert!(stratify(&sk).is_none());
    }

    #[test]
    fn perfect_model_matches_wfs_on_stratified_program() {
        let (mut u, db, sk) = build_stratified();
        let seg =
            wfdl_chase::ChaseSegment::build(&mut u, &db, &sk, wfdl_chase::ChaseBudget::unbounded());
        assert!(seg.complete);
        let ground = seg.to_ground_program();
        let strat = stratify(&sk).unwrap();
        let perfect = perfect_model(&u, &ground, &strat);
        let wfs = WpEngine::new(&ground).solve(StepMode::Accelerated);
        for &a in ground.atoms() {
            assert_eq!(perfect.value(a), wfs.value(a), "{:?}", a);
            assert!(!perfect.value(a).is_unknown(), "perfect model is total");
        }
        // q(c) is false: p(c) derived, blocking q's rule.
        let q = u.lookup_pred("q").unwrap();
        let c = u.lookup_constant("c").unwrap();
        let qc = u.atoms.lookup(q, &[c]).unwrap();
        assert_eq!(perfect.value(qc), Truth::False);
    }

    #[test]
    fn positive_program_is_stratum_zero() {
        let mut u = Universe::new();
        let p = u.pred("p", 1).unwrap();
        let q = u.pred("q", 1).unwrap();
        let mut prog = Program::new();
        prog.push(
            Tgd::new(
                &u,
                vec![RuleAtom::new(p, vec![v(0)])],
                vec![],
                vec![RuleAtom::new(q, vec![v(0)])],
            )
            .unwrap(),
        );
        let sk = prog.skolemize(&mut u).unwrap();
        let strat = stratify(&sk).unwrap();
        assert_eq!(strat.num_strata, 1);
    }
}
