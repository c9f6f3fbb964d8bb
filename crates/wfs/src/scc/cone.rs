//! The carry-and-patch solve of a program that extends a solved one:
//! seeds, their forward cone, and the cone's components.

use super::component::{classify_rules, decide_component, Scratch};
use super::condensation::tarjan;
use super::engine::{mem_estimate, merge_outcome, trip_at_component, CompOutcome};
use super::{ModularEngine, ModularMemo, ModularStats, NONE};
use crate::result::EngineResult;
use std::collections::hash_map::Entry;
use wfdl_core::chunked::CHUNK;
use wfdl_core::{AtomId, BitSet, FxHashMap, Interp, Truth};
use wfdl_storage::GroundProgram;

impl ModularEngine<'_> {
    /// The carry-and-patch solve ([`ModularEngine::solve_incremental`]);
    /// `None` when `prev` cannot be carried over.
    pub(super) fn solve_cone(
        &self,
        prev_prog: &GroundProgram,
        prev: &EngineResult,
    ) -> Option<EngineResult> {
        let prog = self.prog;
        let (memo, prev_stats) = (prev.memo.as_ref()?, prev.stats?);
        let old = &memo.condensation;
        let old_n = extended_atoms(prev_prog, prog)?;
        let n = prog.num_atoms();
        // Dissolved components leave their ordinals and rows behind. Once
        // those outnumber the live components by more than a chunk, the
        // program is condensed afresh, with dense ordinals: a chain of
        // resumes keeps at most twice as many ordinals as components.
        if old.num_ordinals() > 2 * old.num_components() + CHUNK {
            return None;
        }

        // 1. Seeds and their forward cone. `slot` maps a cone atom to its
        // position in `cone`.
        let mut cone: Vec<u32> = Vec::new();
        let mut slot: FxHashMap<u32, u32> = FxHashMap::default();
        let mut enter = |a: u32, cone: &mut Vec<u32>| {
            if let Entry::Vacant(free) = slot.entry(a) {
                free.insert(cone.len() as u32);
                cone.push(a);
            }
        };
        for r in prev_prog.num_rules()..prog.num_rules() {
            enter(prog.head_local(r), &mut cone);
        }
        for &f in prog.facts_local().iter_from(prev_prog.facts().len()) {
            enter(f, &mut cone);
        }
        for a in old_n as u32..n as u32 {
            enter(a, &mut cone);
        }
        let seeds = cone.len() as u32;
        let mut next = 0;
        while let Some(&a) = cone.get(next) {
            next += 1;
            for &rid in (prog.rules_with_pos_local(a).iter()).chain(prog.rules_with_neg_local(a)) {
                enter(prog.head_local(rid.index()), &mut cone);
            }
        }
        let slot_of = |a: u32| slot.get(&a).copied().unwrap_or(NONE);

        // 2. Components of the cone, the previous components it dissolves,
        // and the condensation with the dissolved ones uncounted and the
        // cone's components appended. Every atom of a dissolved component
        // depends on the cone atom in it, so it is a cone atom too: all of
        // them move to the cone's components.
        let found = tarjan(prog, cone.len(), |node| cone[node as usize], slot_of);
        let mut dissolved: Vec<u32> = (cone.iter())
            .filter(|&&a| (a as usize) < old_n)
            .map(|&a| old.comp_of[a as usize])
            .collect();
        dissolved.sort_unstable();
        dissolved.dedup();
        let mut cond = old.clone();
        cond.dissolve(&dissolved);
        cond.comp_of.resize(n, NONE);
        let first_new = wfdl_core::dense_u32(cond.num_ordinals(), "component ordinal");
        for comp in found.iter() {
            cond.push(comp.iter().map(|&node| cone[node as usize]));
        }

        // 3. Carried verdicts and facts. The cone starts out undecided; a
        // cone atom's previous verdict stays readable in the memo.
        let before = |a: u32| ((a as usize) < old_n).then(|| memo.truth[a as usize]);
        let mut truth = Vec::with_capacity(n);
        truth.extend_from_slice(&memo.truth);
        truth.resize(n, Truth::Unknown);
        for &a in &cone {
            truth[a as usize] = Truth::Unknown;
        }
        let mut is_fact = memo.is_fact.copy_with_capacity(n);
        for &f in prog.facts_local().iter_from(prev_prog.facts().len()) {
            is_fact.insert(f as usize);
        }
        // By position in the cone.
        let mut changed = BitSet::with_capacity(cone.len());
        let mut recursive = memo.recursive.clone();

        // Counters: the previous run's, less what the dissolved components
        // contributed; the cone's components are added as they are visited.
        let mut stats = ModularStats {
            components: cond.num_components(),
            cone_atoms: cone.len(),
            threads: 1,
            recursive_rounds: 0,
            components_reused: 0,
            components_evaluated: 0,
            ..prev_stats
        };
        for &c in &dissolved {
            let comp = old.component(c as usize);
            if memo.recursive[c as usize] {
                stats.recursive_components -= 1;
                stats.atoms_in_recursive -= comp.len();
                stats.rules_in_recursive -= (comp.iter())
                    .map(|&a| prev_prog.rules_with_head_local(a).len())
                    .sum::<usize>();
            } else {
                stats.definite_components -= 1;
            }
        }
        for &a in &cone {
            stats.unknown_atoms -= (before(a) == Some(Truth::Unknown)) as usize;
        }

        // 4. Visit the cone's components, dependencies first.
        let mem_estimate = mem_estimate(n, cond.num_ordinals());
        let budgeted = !self.budget.is_unlimited();
        let mut scratch = Scratch::new(FxHashMap::default());
        let mut truncation = None;
        for ord in first_new..first_new + found.num_components() as u32 {
            if budgeted {
                if let Some(r) = trip_at_component(&self.budget, mem_estimate, ord) {
                    truncation = Some(r);
                    break;
                }
            }
            let comp = cond.component(ord as usize);
            let class = classify_rules(prog, comp, ord, &cond.comp_of, &truth, &mut scratch);
            let touched = comp.iter().any(|&a| slot_of(a) < seeds)
                || scratch.rules.iter().any(|&r| {
                    let body = prog
                        .pos_local(r as usize)
                        .iter()
                        .chain(prog.neg_local(r as usize));
                    body.into_iter()
                        .any(|&b| changed.contains(slot_of(b) as usize))
                });
            let mut out = CompOutcome {
                definite: class.definite,
                rules: scratch.rules.len(),
                rounds: 0,
            };
            if touched {
                out.rounds = decide_component(
                    prog,
                    comp,
                    ord,
                    &cond.comp_of,
                    &is_fact,
                    &mut truth,
                    class,
                    &mut scratch,
                );
                stats.components_evaluated += 1;
                for &a in comp {
                    if before(a) != Some(truth[a as usize]) {
                        changed.insert(slot_of(a) as usize);
                    }
                }
            } else {
                // No seed inside: every atom of it was an atom before.
                for &a in comp {
                    truth[a as usize] = before(a).unwrap_or(Truth::Unknown);
                }
            }
            merge_outcome(&mut stats, &out, comp.len());
            recursive.push(!class.definite);
        }
        stats.components_reused = stats.components - stats.components_evaluated;
        stats.largest_component = cond.largest();

        // 5. The previous result, patched over the cone: the interpretation
        // copied with room for every atom id of this program.
        let mut interp = prev.interp.copy_with_capacity(prog.atom_id_bound());
        let mut reevaluated: Vec<AtomId> = Vec::with_capacity(cone.len());
        for &a in &cone {
            let atom = prog.atom_of_local(a);
            let value = truth[a as usize];
            interp.revise(atom, value);
            stats.unknown_atoms += (value == Truth::Unknown) as usize;
            reevaluated.push(atom);
        }
        let stages = cond.num_ordinals() as u32;
        debug_assert!(truncation.is_some() || memo_agrees(prog, &interp, &truth, &is_fact));
        let memo = truncation.is_none().then_some(ModularMemo {
            condensation: cond,
            recursive,
            truth,
            is_fact,
        });
        Some(EngineResult {
            interp,
            stages,
            stats: Some(stats),
            memo,
            truncation,
            cone: Some(reevaluated),
        })
    }
}

/// The previous program's atom count, if `prog` extends `prev`: `prev`'s
/// atoms are a prefix of its atoms (local ids never move) and `prev` has
/// no more rules and facts than it.
fn extended_atoms(prev: &GroundProgram, prog: &GroundProgram) -> Option<usize> {
    let old_n = prev.num_atoms();
    (old_n <= prog.num_atoms()
        && prev.num_rules() <= prog.num_rules()
        && prev.facts().len() <= prog.facts().len()
        && prog.atoms().starts_with(prev.atoms()))
    .then_some(old_n)
}

/// True iff the carried `truth` reads what `interp` holds over the program's
/// atoms and `is_fact` holds the program's facts (they are distinct) — what
/// a memo built from scratch would hold.
fn memo_agrees(prog: &GroundProgram, interp: &Interp, truth: &[Truth], is_fact: &BitSet) -> bool {
    let facts = prog.facts_local();
    truth.len() == prog.num_atoms()
        && (prog.atoms().iter().zip(truth)).all(|(&atom, &t)| interp.value(atom) == t)
        && is_fact.len() == facts.len()
        && facts.iter().all(|&f| is_fact.contains(f as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::tests::a;
    use wfdl_storage::{GroundProgramBuilder, GroundRule};

    #[test]
    fn incremental_reuse_copies_unchanged_component_verdicts() {
        // Base: a fact chain plus a draw cycle (genuinely unknown). Grow
        // the program with an independent chain; every untouched component
        // must be reused verbatim and the model must agree with a fresh
        // solve — including the reused Unknowns.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![], vec![a(3)]));
        b.add_rule(GroundRule::new(a(3), vec![], vec![a(2)]));
        let base = b.clone().finish();
        let base_res = ModularEngine::new(&base).solve();
        assert!(base_res.memo.is_some(), "modular solves carry a memo");

        b.add_fact(a(4));
        b.add_rule(GroundRule::new(a(5), vec![a(4)], vec![a(1)]));
        let grown = b.finish();
        let inc = ModularEngine::new(&grown).solve_incremental(Some((&base, &base_res)));
        let fresh = ModularEngine::new(&grown).solve();
        for &atom in grown.atoms() {
            assert_eq!(inc.value(atom), fresh.value(atom), "on {atom:?}");
        }
        // {a0}, {a1} and the {a2,a3} cycle are untouched: all reused.
        let stats = inc.stats.unwrap();
        assert_eq!(stats.components_reused, 3, "{stats:?}");
        assert_eq!(inc.value(a(2)), Truth::Unknown, "reused unknown survives");
        assert_eq!(inc.value(a(5)), Truth::False, "new rule evaluated fresh");

        // What describes the model equals what a full solve reports, and
        // stages stay monotone along every rule.
        let (is, fs) = (stats, fresh.stats.unwrap());
        assert_eq!(
            ModularStats {
                recursive_rounds: fs.recursive_rounds,
                components_reused: 0,
                components_evaluated: fs.components,
                cone_atoms: fs.cone_atoms,
                ..is
            },
            fs
        );
        assert_eq!(is.cone_atoms, 2, "a4 and a5");
        assert_eq!(is.components_evaluated, 2);
        for r in 0..grown.num_rules() {
            let stage = |l: u32| inc.memo.as_ref().unwrap().stage(l);
            for &b in grown.pos_local(r).iter().chain(grown.neg_local(r)) {
                if let (Some(head), Some(body)) = (stage(grown.head_local(r)), stage(b)) {
                    assert!(body <= head, "rule {r}");
                }
            }
        }
    }

    #[test]
    fn incremental_reuse_rejects_components_with_changed_inputs() {
        // Base (no facts): a(1) ← a(0) ← a(2), everything false. Growing
        // the program with the fact a(0) makes a(0) a seed and changes
        // a(1)'s external input — neither may keep its verdict.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(0), vec![a(2)], vec![]));
        let base = b.clone().finish();
        let base_res = ModularEngine::new(&base).solve();
        assert_eq!(base_res.value(a(1)), Truth::False);

        b.add_fact(a(0));
        let grown = b.finish();
        let inc = ModularEngine::new(&grown).solve_incremental(Some((&base, &base_res)));
        assert_eq!(inc.value(a(0)), Truth::True);
        assert_eq!(inc.value(a(1)), Truth::True, "stale False must not leak");
        // Only {a2} (no rules, no facts, outside the cone) is carried.
        assert_eq!(inc.stats.unwrap().components_reused, 1);
    }

    #[test]
    fn incremental_keeps_cone_components_whose_inputs_did_not_move() {
        // a1 ← a0(fact); a2 ← a1; a3 ← ¬a2. Adding a second rule for a1
        // puts a1, a2, a3 in the cone, but a1 stays true: only a1 is
        // evaluated again, a2 and a3 keep their verdicts.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(3), vec![], vec![a(2)]));
        let base = b.clone().finish();
        let base_res = ModularEngine::new(&base).solve();
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(4)]));
        let grown = b.finish();
        let inc = ModularEngine::new(&grown).solve_incremental(Some((&base, &base_res)));
        let fresh = ModularEngine::new(&grown).solve();
        for &atom in grown.atoms() {
            assert_eq!(inc.value(atom), fresh.value(atom), "on {atom:?}");
        }
        let stats = inc.stats.unwrap();
        assert_eq!(stats.cone_atoms, 4, "a4 (new), a1, a2, a3: {stats:?}");
        assert_eq!(stats.components_evaluated, 2, "a4 and a1: {stats:?}");
        assert_eq!(stats.components_reused, 3, "{stats:?}");
    }

    #[test]
    fn dissolved_ordinals_that_outnumber_the_components_are_condensed_afresh() {
        // A win–move chain a(i + 1) ← ¬a(i) of `LEN` positions. Each step
        // gives a(0) a move to a new dead end: the whole chain flips, its
        // components dissolve and come back with fresh ordinals, until the
        // dissolved ones outnumber the live ones by more than a chunk and
        // the resume condenses the whole program afresh.
        const LEN: usize = 1_000;
        let mut b = GroundProgramBuilder::new();
        for i in 0..LEN {
            b.add_rule(GroundRule::new(a(i + 1), vec![], vec![a(i)]));
        }
        let mut prev = b.clone().finish();
        let mut res = ModularEngine::new(&prev).solve();
        let mut afresh = None;
        for k in 0..12 {
            b.add_rule(GroundRule::new(a(0), vec![], vec![a(LEN + 1 + k)]));
            let grown = b.clone().finish();
            let inc = ModularEngine::new(&grown).solve_incremental(Some((&prev, &res)));
            let fresh = ModularEngine::new(&grown).solve();
            for &atom in grown.atoms() {
                assert_eq!(inc.value(atom), fresh.value(atom), "step {k}: {atom:?}");
            }
            let (is, fs) = (inc.stats.unwrap(), fresh.stats.unwrap());
            assert_eq!(is.components, fs.components, "step {k}");
            let cond = &inc.memo.as_ref().unwrap().condensation;
            assert!(cond.num_ordinals() <= 2 * cond.num_components() + 2 * CHUNK);
            if inc.cone.is_none() {
                // Condensed afresh: dense ordinals again.
                assert_eq!(cond.num_ordinals(), cond.num_components(), "step {k}");
                assert_eq!(inc.stages as usize, fs.components, "step {k}");
                afresh.get_or_insert(k);
            } else {
                // Resumed: the chain's old ordinals stay, read as empty.
                assert!(
                    cond.num_ordinals() > cond.num_components() + LEN,
                    "step {k}"
                );
            }
            (prev, res) = (grown, inc);
        }
        assert!(matches!(afresh, Some(k) if k > 2), "{afresh:?}");
    }

    #[test]
    fn incremental_merges_old_components_into_a_new_cycle() {
        // Two old singletons, a0 ← ¬a1 and a1 (no rule): closing the cycle
        // with a1 ← ¬a0 merges them into one recursive component, away
        // from any new atom; a2 ← a0 above follows.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![]));
        b.add_fact(a(3));
        let base = b.clone().finish();
        let base_res = ModularEngine::new(&base).solve();
        assert_eq!(base_res.value(a(2)), Truth::True);
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        let grown = b.finish();
        let inc = ModularEngine::new(&grown).solve_incremental(Some((&base, &base_res)));
        let fresh = ModularEngine::new(&grown).solve();
        for &atom in grown.atoms() {
            assert_eq!(inc.value(atom), fresh.value(atom), "on {atom:?}");
        }
        assert_eq!(inc.value(a(2)), Truth::Unknown);
        let stage = inc
            .memo
            .as_ref()
            .unwrap()
            .stage(grown.local_id(a(2)).unwrap());
        assert_eq!(stage, None, "an undecided atom has no stage");
        let (is, fs) = (inc.stats.unwrap(), fresh.stats.unwrap());
        assert_eq!(is.components, fs.components);
        assert_eq!(is.largest_component, 2);
        assert_eq!(is.recursive_components, fs.recursive_components);
        assert_eq!(is.atoms_in_recursive, fs.atoms_in_recursive);
        assert_eq!(is.rules_in_recursive, fs.rules_in_recursive);
        assert_eq!(is.unknown_atoms, fs.unknown_atoms);
        assert_eq!(is.components_reused, 1, "the fact a3");
        // The patched condensation is a condensation of the grown program.
        // Its ordinals are the old ones — {a0}, {a1} and {a2} dissolved, read
        // as empty — and the new ones after them: walk them all.
        let cond = &inc.memo.as_ref().unwrap().condensation;
        assert_eq!(cond.num_components(), fs.components);
        assert_eq!(cond.num_ordinals(), fs.components + 3);
        assert_eq!(inc.stages, 6);
        assert_eq!(cond.iter().filter(|c| !c.is_empty()).count(), fs.components);
        for c in 0..cond.num_ordinals() {
            for &atom in cond.component(c) {
                assert_eq!(cond.comp_of[atom as usize] as usize, c);
            }
        }
        // And it carries on: a second delta on top of the patched result.
        let mut b2 = GroundProgramBuilder::new();
        for r in grown.rules() {
            b2.add_rule(r);
        }
        b2.add_fact(a(3));
        b2.add_fact(a(1));
        let again = b2.finish();
        let inc2 = ModularEngine::new(&again).solve_incremental(Some((&grown, &inc)));
        let fresh2 = ModularEngine::new(&again).solve();
        for &atom in again.atoms() {
            assert_eq!(inc2.value(atom), fresh2.value(atom), "on {atom:?}");
        }
        assert_eq!(inc2.value(a(0)), Truth::False);
    }
}
