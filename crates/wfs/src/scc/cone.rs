//! The one sweep over a program's components: its delta over a solved base,
//! evaluated over the delta's forward cone. A cold solve's base is the
//! empty model, whose cone is the whole program.

use super::component::{classify_rules, decide_component, Dense, Positions, Scratch};
use super::condensation::{condense, Condensation};
use super::{ModularEngine, ModularMemo, ModularStats, NONE};
use crate::result::EngineResult;
use std::collections::hash_map::Entry;
use std::ops::{Index, Range};
use wfdl_core::budget::FaultSite;
use wfdl_core::chunked::CHUNK;
use wfdl_core::scc::{tarjan, Nodes, Sccs};
use wfdl_core::{BitSet, ChunkVec, FxHashMap, Interp, TruncationReason, Truth};
use wfdl_storage::GroundProgram;

impl ModularEngine<'_> {
    /// The sweep ([`ModularEngine::solve_incremental`]) of this engine's
    /// program, which extends `prev_prog`: `interp`, `memo` and
    /// `prev_stats` are what the solve of `prev_prog` left behind.
    pub(super) fn solve_cone(
        &self,
        prev_prog: &GroundProgram,
        interp: &Interp,
        memo: &ModularMemo,
        prev_stats: ModularStats,
    ) -> EngineResult {
        let prog = self.prog;
        let (n, old_n) = (prog.num_atoms(), prev_prog.num_atoms());
        let old = &memo.condensation;
        // Against the empty model the cone is every atom, in local-id
        // order: nothing is listed, and Tarjan runs over the whole program.
        let whole = old_n == 0;
        let (cone, found) = match whole {
            true => (Cone::default(), condense(prog)),
            false => Cone::walk(prog, prev_prog),
        };

        // Counters: the previous run's, less what the cone and the dissolved
        // components contributed; the cone's components are added as they
        // are visited.
        let mut stats = ModularStats {
            cone_atoms: if whole { n } else { cone.atoms.len() },
            threads: 1,
            recursive_rounds: 0,
            components_reused: 0,
            components_evaluated: 0,
            ..prev_stats
        };
        // Carried verdicts and facts. The cone starts out undecided; a cone
        // atom's previous verdict stays readable in the memo.
        let mut truth = Vec::with_capacity(n);
        truth.extend_from_slice(&memo.truth);
        truth.resize(n, Truth::Unknown);
        for &a in &cone.atoms {
            stats.unknown_atoms -= (memo.truth.get(a as usize) == Some(&Truth::Unknown)) as usize;
            truth[a as usize] = Truth::Unknown;
        }
        let mut is_fact = memo.is_fact.copy_with_capacity(n);
        for &f in prog.facts_local().iter_from(prev_prog.facts_local().len()) {
            is_fact.insert(f as usize);
        }
        let mut s = Sweep {
            truth,
            is_fact,
            memo,
            marked: BitSet::with_capacity(cone.atoms.len()),
            recursive: memo.recursive.clone(),
            stats,
            cone: &cone,
        };

        let (cond, truncation) = if whole {
            // Tarjan's flat arrays, swept, then handed to the memo.
            let (ords, rows) = (0..found.num_components() as u32, |c| found.component(c));
            let dense = Dense {
                at: Vec::new(),
                atoms: n,
            };
            let trip = self.sweep(&mut s, ords, rows, &found.comp_of[..], dense, |_, _| true);
            (Condensation::from(found), trip)
        } else {
            // The previous components the cone dissolves go uncounted, and
            // the cone's components are appended. Every atom of a dissolved
            // component depends on the cone atom in it, so it is a cone atom
            // too: all of them move to the cone's components.
            let mut dissolved: Vec<u32> = (cone.atoms.iter())
                .filter(|&&a| (a as usize) < old_n)
                .map(|&a| old.comp_of[a as usize])
                .collect();
            dissolved.sort_unstable();
            dissolved.dedup();
            for &c in &dissolved {
                let comp = old.component(c as usize);
                if memo.recursive[c as usize] {
                    s.stats.recursive_components -= 1;
                    s.stats.atoms_in_recursive -= comp.len();
                    s.stats.rules_in_recursive -= (comp.iter())
                        .map(|&a| prev_prog.rules_with_head_local(a).len())
                        .sum::<usize>();
                } else {
                    s.stats.definite_components -= 1;
                }
            }
            let mut cond = old.clone();
            cond.dissolve(&dissolved);
            // What lies outside the cone is carried.
            s.stats.components_reused = cond.num_components();
            cond.comp_of.resize(n, NONE);
            // The walk emitted dependents first: its last component takes
            // the first fresh ordinal.
            let first_new = wfdl_core::dense_u32(cond.num_ordinals(), "component ordinal");
            let count = found.num_components() as u32;
            let nodes = |ord: u32| found.component((first_new + count - 1 - ord) as usize);
            for ord in first_new..first_new + count {
                cond.push(nodes(ord).iter().map(|&v| cone.atoms[v as usize]));
            }
            // A component is touched if it holds a seed or an atom marked
            // because a rule for it reads a verdict that moved.
            let touched = |ord: u32, marked: &BitSet| {
                (nodes(ord).iter()).any(|&v| v < cone.seeds || marked.contains(v as usize))
            };
            let (ords, rows) = (first_new..cond.num_ordinals() as u32, |c| cond.component(c));
            let trip = self.sweep(
                &mut s,
                ords,
                rows,
                &cond.comp_of,
                FxHashMap::default(),
                touched,
            );
            (cond, trip)
        };
        let (truth, mut stats) = (s.truth, s.stats);
        stats.components = cond.num_components();
        stats.largest_component = cond.largest();

        // The previous result, patched over the cone: the interpretation
        // copied with room for every atom id of this program.
        let mut interp = interp.copy_with_capacity(prog.atom_id_bound());
        let mut patch = |a: u32| {
            let atom = prog.atom_of_local(a);
            interp.revise(atom, truth[a as usize]);
            stats.unknown_atoms += (truth[a as usize] == Truth::Unknown) as usize;
            atom
        };
        let reevaluated = if whole {
            // Highest id first (a cold program lists its atoms sorted), so
            // that the first write sizes `interp`.
            (0..n as u32).rev().for_each(|a| _ = patch(a));
            None
        } else {
            Some(cone.atoms.iter().map(|&a| patch(a)).collect())
        };
        let stages = cond.num_ordinals() as u32;
        debug_assert!(truncation.is_some() || memo_agrees(prog, &interp, &truth, &s.is_fact));
        // A truncated run publishes no memo: letting a later solve carry
        // verdicts over from a partial sweep would be unsound.
        let memo = truncation.is_none().then_some(ModularMemo {
            condensation: cond,
            recursive: s.recursive,
            truth,
            is_fact: s.is_fact,
        });
        EngineResult {
            interp,
            stages,
            stats: Some(stats),
            memo,
            truncation,
            cone: reevaluated,
        }
    }

    /// Visits the components `ords` in emission order, each read off
    /// `component` and `comp_of`. One that is `touched` — holds a seed, or
    /// an atom `marked` because a rule of it reads a verdict of the base
    /// that changed — is classified and evaluated in place; any other is a
    /// component of the base with its rules and inputs, and is carried
    /// unclassified. Returns the budget trip that stopped the sweep.
    fn sweep<'c, C: Index<usize, Output = u32> + ?Sized, P: Positions>(
        &self,
        s: &mut Sweep<'_>,
        ords: Range<u32>,
        component: impl Fn(usize) -> &'c [u32],
        comp_of: &C,
        positions: P,
        touched: impl Fn(u32, &BitSet) -> bool,
    ) -> Option<TruncationReason> {
        let (prog, n) = (self.prog, s.truth.len());
        // The working set for the memory budget, fixed for the whole run: a
        // verdict byte per atom and the condensation's `u32`s — a component
        // per atom, the atoms of the rows and an offset per row.
        let mem_estimate = n + (2 * n + ords.end as usize + 1) * std::mem::size_of::<u32>();
        let budgeted = !self.budget.is_unlimited();
        let mut scratch = Scratch::new(positions);
        s.recursive.reserve(ords.len());
        for ord in ords {
            // Fault sites fire at every ordinal — injection points must be
            // exact — and the budget is polled every `BUDGET_POLL_STRIDE`.
            if budgeted {
                let fault = self.budget.fire_fault(FaultSite::WfsComponent(ord));
                let poll =
                    || (ord % BUDGET_POLL_STRIDE == 0).then(|| self.budget.check(mem_estimate));
                if let Some(r) = fault.or_else(|| poll().flatten()) {
                    return Some(r);
                }
            }
            let comp = component(ord as usize);
            if !touched(ord, &s.marked) {
                s.carry(prog, comp, ord, comp_of, &mut scratch);
                continue;
            }
            let class = classify_rules(prog, comp, ord, comp_of, &s.truth, &mut scratch);
            let rounds = decide_component(
                prog,
                comp,
                ord,
                comp_of,
                &s.is_fact,
                &mut s.truth,
                class,
                &mut scratch,
            );
            s.stats.components_evaluated += 1;
            // Only an old atom's change is marked: a rule that mentions a
            // new atom is new, and its head a seed. The heads it marks are
            // cone atoms, as the cone is closed under the occurrence rows.
            for &a in comp {
                if s.memo
                    .truth
                    .get(a as usize)
                    .is_some_and(|&t| t != s.truth[a as usize])
                {
                    let rows = prog.rules_with_pos_local(a).iter();
                    for &rid in rows.chain(prog.rules_with_neg_local(a)) {
                        let head = prog.head_local(rid.index());
                        s.marked.insert(s.cone.slot[&head] as usize);
                    }
                }
            }
            s.count(!class.definite, comp.len(), scratch.rules.len());
            if !class.definite {
                s.stats.recursive_rounds += rounds as usize;
            }
        }
        None
    }
}

/// The atoms a resumed sweep visits, by position: the **seeds** — the heads
/// of the new rules, the new facts and the new atoms — then their forward
/// closure over the occurrence rows (every head of a rule whose body
/// mentions a cone atom), each listed when the walk discovers it. Against
/// the empty model every atom is a seed and nothing is listed.
#[derive(Default)]
struct Cone {
    /// The atoms of the cone, and the position of each.
    atoms: Vec<u32>,
    slot: FxHashMap<u32, u32>,
    /// The seeds are the positions below `seeds`.
    seeds: u32,
}

impl Cone {
    /// The cone of `prog`'s delta over `prev`, which it extends, and its
    /// components: one iterative Tarjan over the forward occurrence rows
    /// (`atom → head of every rule whose body mentions it`), rooted at the
    /// seeds in order. The components are in positions, dependents first.
    fn walk(prog: &GroundProgram, prev: &GroundProgram) -> (Cone, Sccs) {
        let mut cone = Cone::default();
        for r in prev.num_rules()..prog.num_rules() {
            cone.node(prog.head_local(r));
        }
        for &f in prog.facts_local().iter_from(prev.facts_local().len()) {
            cone.node(f);
        }
        (prev.num_atoms() as u32..prog.num_atoms() as u32).for_each(|a| _ = cone.node(a));
        cone.seeds = cone.atoms.len() as u32;
        let found = tarjan(cone.seeds, &mut cone, |a| {
            let rows = prog.rules_with_pos_local(a).iter();
            let rows = rows.chain(prog.rules_with_neg_local(a));
            rows.map(|rid| prog.head_local(rid.index()))
        });
        (cone, found)
    }
}

/// The forward walk numbers the cone's atoms by their positions.
impl Nodes for Cone {
    /// The position of `a`, listed at the next one unless it is listed.
    fn node(&mut self, a: u32) -> u32 {
        match self.slot.entry(a) {
            Entry::Occupied(at) => *at.get(),
            Entry::Vacant(free) => {
                let at = *free.insert(self.atoms.len() as u32);
                self.atoms.push(a);
                at
            }
        }
    }

    #[inline]
    fn item(&self, v: u32) -> u32 {
        self.atoms[v as usize]
    }
}

/// What a sweep carries from component to component, by local id.
struct Sweep<'a> {
    /// Carried outside the cone; `Unknown` in it until decided.
    truth: Vec<Truth>,
    is_fact: BitSet,
    /// What the base's solve left: its verdicts, components and classes.
    memo: &'a ModularMemo,
    /// By position in the cone: the heads of the rules that read a verdict
    /// the sweep changed.
    marked: BitSet,
    recursive: ChunkVec<bool>,
    stats: ModularStats,
    cone: &'a Cone,
}

impl Sweep<'_> {
    /// Carries the untouched cone component `comp`, ordinal `ord`. It holds
    /// no seed, so it is a component of the base — rules only grow, so
    /// components only merge, and a merged one runs through a new rule and
    /// holds its head — with the base's rules, and none of its inputs
    /// moved: it keeps the base's verdicts, and its class is the one the
    /// memo recorded at its old ordinal.
    fn carry<C: Index<usize, Output = u32> + ?Sized, P: Positions>(
        &mut self,
        prog: &GroundProgram,
        comp: &[u32],
        ord: u32,
        comp_of: &C,
        scratch: &mut Scratch<P>,
    ) {
        for &a in comp {
            self.truth[a as usize] = self.memo.truth[a as usize];
        }
        let old = self.memo.condensation.comp_of[comp[0] as usize];
        let recursive = self.memo.recursive[old as usize];
        if cfg!(debug_assertions) {
            // What classifying it, and the body walk that carrying
            // unclassified replaces, would have found.
            let class = classify_rules(prog, comp, ord, comp_of, &self.truth, scratch);
            debug_assert_eq!(
                class.definite, !recursive,
                "class of carried component {ord}"
            );
            let moved = |&b: &u32| {
                comp_of[b as usize] != ord
                    && (self.memo.truth.get(b as usize))
                        .is_some_and(|&t| t != self.truth[b as usize])
            };
            let reads_a_move = scratch.rules.iter().any(|&r| {
                let r = r as usize;
                prog.pos_local(r).iter().chain(prog.neg_local(r)).any(moved)
            });
            debug_assert!(
                !reads_a_move,
                "carried component {ord} reads a verdict that moved"
            );
        }
        self.stats.components_reused += 1;
        let rules = match recursive {
            true => comp
                .iter()
                .map(|&a| prog.rules_with_head_local(a).len())
                .sum(),
            false => 0,
        };
        self.count(recursive, comp.len(), rules);
    }

    /// Records the class of the component just visited, of `atoms` atoms
    /// and `rules` rules, in the flags and the counters.
    fn count(&mut self, recursive: bool, atoms: usize, rules: usize) {
        self.recursive.push(recursive);
        let stats = &mut self.stats;
        if recursive {
            stats.recursive_components += 1;
            stats.atoms_in_recursive += atoms;
            stats.rules_in_recursive += rules;
        } else {
            stats.definite_components += 1;
        }
    }
}

/// How often the sweep polls the wall clock and memory budget, in
/// components. Fault sites still fire on every ordinal — injection points
/// must be exact — but `Instant::now` per singleton component would cost
/// more than evaluating the component.
const BUDGET_POLL_STRIDE: u32 = 64;

/// Whether the solve of `prev` left a memo that the solve of `prog` can
/// carry: `prev`'s atoms are a prefix of `prog`'s (local ids never move),
/// it has no more rules and facts, and the ordinals its resumes dissolved
/// do not outnumber its components by more than a chunk. Past that the
/// program is condensed afresh, with dense ordinals: a chain of resumes
/// keeps at most twice as many ordinals as components.
pub(super) fn carries(prev: &GroundProgram, memo: &ModularMemo, prog: &GroundProgram) -> bool {
    let old = &memo.condensation;
    prev.num_atoms() <= prog.num_atoms()
        && prev.num_rules() <= prog.num_rules()
        && prev.facts_local().len() <= prog.facts_local().len()
        && prog.atoms().starts_with(prev.atoms())
        && old.num_ordinals() <= 2 * old.num_components() + CHUNK
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
    fn a_trip_inside_the_cone_reuses_only_what_it_carried() {
        // The base's three components lie outside the cone of the delta
        // {a4, a5}; a trip at the cone's first ordinal visits none of the
        // cone's two components, which read `Unknown` and are not reused.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![], vec![a(3)]));
        b.add_rule(GroundRule::new(a(3), vec![], vec![a(2)]));
        let base = b.clone().finish();
        let base_res = ModularEngine::new(&base).solve();
        b.add_fact(a(4));
        b.add_rule(GroundRule::new(a(5), vec![a(4)], vec![a(1)]));
        let grown = b.finish();
        let plan = wfdl_core::budget::FaultPlan {
            site: wfdl_core::budget::FaultSite::WfsComponent(3),
            kind: wfdl_core::budget::FaultKind::TripCancel,
        };
        let inc = ModularEngine::new(&grown)
            .with_budget(wfdl_core::SolveBudget::unlimited().with_fault(plan))
            .solve_incremental(Some((&base, &base_res)));
        assert!(inc.truncation.is_some() && inc.memo.is_none());
        let stats = inc.stats.unwrap();
        assert_eq!((stats.components, stats.components_evaluated), (5, 0));
        assert_eq!(stats.components_reused, 3, "{stats:?}");
        assert_eq!(inc.value(a(1)), Truth::True);
        assert_eq!(inc.value(a(5)), Truth::Unknown);
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
