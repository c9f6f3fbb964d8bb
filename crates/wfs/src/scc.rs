//! SCC-modular well-founded evaluation.
//!
//! The global fixpoint engines (the `W_P` and alternating-fixpoint oracles
//! of `wfdl-reference`) re-solve the entire ground program every stage,
//! even when negation is confined to a tiny subcomponent. This module
//! exploits the classical modularity (splitting) property of the
//! well-founded semantics instead:
//!
//! 1. build the **atom dependency graph** (an edge `head → body atom` for
//!    every rule, positive and negative alike) over the program's dense
//!    local atom ids;
//! 2. run Tarjan's algorithm; its emission order visits every strongly
//!    connected component **after** all components it depends on;
//! 3. evaluate components bottom-up, substituting the verdicts of lower
//!    components into each rule as it is considered:
//!    * a component with no internal negative edge and no undefined lower
//!      verdict in reach is **definite**: one flat semi-naive pass derives
//!      its true atoms and everything else in it is false — no unfounded-set
//!      computation at all;
//!    * otherwise the component is **recursive**: the alternating
//!      `T_P`-closure / greatest-unfounded-set rounds of `W_P` run until
//!      nothing changes, with undefined lower atoms carried as
//!      *assumed-unknown* inputs (a rule that mentions one can keep its
//!      head possibly-founded but can never fire).
//!
//! Both kinds go through **one in-place evaluator** (`eval_component`): it
//! reads the parent program's rule arrays restricted to the component's own
//! rules, closes over positive occurrence rows of the component's own
//! (recorded while its rules are classified — the program-wide body rows
//! are never read), keeps every verdict in one per-atom array and every
//! countdown in reused scratch buffers, and allocates nothing. A definite
//! component is round one of the same loop with an early exit. So a
//! component costs `rounds × its own rules` — never anything proportional
//! to the program or the atom universe around it.
//!
//! A **trivial** component — a singleton that no rule of its own mentions,
//! which is every component of a positive chain and nearly every one of a
//! stratified program — skips the evaluator: its verdict is one look at how
//! its rules were classified.
//!
//! On stratified-heavy workloads almost every component is definite, so the
//! whole model is computed in a single linear sweep.
//!
//! The sweep is single-threaded and visits components in emission order, so
//! a component's verdicts and its decision stage (emission ordinal + 1) are
//! a function of the ground program alone.
//!
//! ## Incremental solves: carry, cone, change-driven evaluation
//!
//! A program that **extends** a solved one (old atoms, rules and facts a
//! prefix of its own — what [`GroundProgram::extension`] produces after a
//! resumed chase) is not solved again: [`ModularEngine::solve_incremental`] carries
//! the previous result over and re-does only the delta's **forward cone**
//! — the seeds (heads of new rules, new facts, new atoms) closed under
//! "heads a rule whose body mentions". Two facts make that sound:
//!
//! * *the complement of the cone is relevance-closed* — a rule heading one
//!   of its atoms mentions no cone atom (its head would be in the cone) and
//!   is not new (its head would be a seed), so the complement is, rule for
//!   rule, a relevance-closed part of the previous program, and splitting
//!   gives it the previous verdicts, stages and components;
//! * *a new cycle passes through a seed* — it uses a new rule, whose head
//!   is a seed and whose dependants are all in the cone, so every component
//!   that changed lies inside the cone and Tarjan runs on the subgraph the
//!   cone induces.
//!
//! Inside the cone, components are visited dependencies-first and evaluated
//! only if they contain a seed or an external body atom whose verdict
//! changed in this run; the others keep their carried verdicts.
//!
//! What is carried is the previous run's [`ModularMemo`] — verdicts and
//! facts by local id, the component of every atom, the component rows and
//! which components were recursive — plus its interpretation and stages.
//! Local ids never move in an extension. The condensation, the recursive
//! flags and the stage map are copy-on-write chunked arrays
//! (`wfdl_core::chunked`): a resume's clones share the previous run's
//! chunks, append the new atoms and components to flat tails, and copy
//! only the chunks the cone writes. The verdicts and the fact set — a byte
//! and a bit per atom, read on every rule the sweep classifies — and the
//! interpretation are copied flat.
//!
//! Ordinals never move. A component the cone dissolves keeps its ordinal
//! and its row, which read as dissolved from then on (its atoms belong to
//! cone components), and the cone's components take fresh ordinals above
//! every old one. Emission order stays dependencies-first: the cone is
//! closed under "depends on", so a carried component depends on carried
//! ones only, and a cone component on carried ones and on cone components
//! Tarjan emitted before it. So no carried ordinal or stage is rewritten,
//! and nothing is walked per atom or per component outside the cone; the
//! per-atom scratch of a resume is keyed by the cone's atoms.
//!
//! The per-atom decision *stage* reported by this engine is the 1-based
//! ordinal of the component that decided it, which preserves the invariant
//! that stages are monotone along derivations but is **not** comparable to
//! the `W_P` stage arithmetic of Example 9 — run `wfdl-reference`'s
//! `WpEngine` with `StepMode::Literal` on the same ground program for
//! stage-faithful traces.

use crate::result::EngineResult;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::ops::Index;
use wfdl_core::budget::FaultSite;
use wfdl_core::chunked::CHUNK;
use wfdl_core::{
    AtomId, BitSet, ChunkVec, FxHashMap, Interp, RowPool, SolveBudget, TruncationReason, Truth,
};
use wfdl_storage::GroundProgram;

/// Per-run statistics of the modular evaluation, exposed through
/// [`EngineResult::stats`] and the `wfdl` CLI's `--stats` flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModularStats {
    /// Number of strongly connected components of the dependency graph
    /// (for a resumed solve too: the components its resumes dissolved are
    /// not counted).
    pub components: usize,
    /// Components evaluated by the flat semi-naive pass.
    pub definite_components: usize,
    /// Components that ran the full alternating `W_P` rounds (internal
    /// negation, or an undefined lower input).
    pub recursive_components: usize,
    /// Atoms in the largest component.
    pub largest_component: usize,
    /// Atoms evaluated inside recursive components.
    pub atoms_in_recursive: usize,
    /// Rules heading an atom of a recursive component.
    pub rules_in_recursive: usize,
    /// Alternating `T_P`-closure / unfounded-set rounds, summed over the
    /// recursive components this run evaluated (carried ones run none).
    /// A recursive component costs `rounds × its rules`, which is why one
    /// large component is dearer than many small ones.
    pub recursive_rounds: usize,
    /// Atoms left undefined by the run.
    pub unknown_atoms: usize,
    /// Components this run did not evaluate: their verdicts were carried
    /// over from the previous solve
    /// ([`ModularEngine::solve_incremental`]). `0` for a full solve.
    pub components_reused: usize,
    /// Components this run evaluated: `components - components_reused`.
    pub components_evaluated: usize,
    /// Atoms Tarjan's algorithm ran over: every atom for a full solve, the
    /// delta's forward cone for an incremental one.
    pub cone_atoms: usize,
    /// Always `1`. Accepted and ignored for the frozen benchmark; removed
    /// by the benchmark issue that drops `cold_solve_auto_s`.
    #[doc(hidden)]
    pub threads: usize,
}

/// What one complete modular solve leaves behind for the **next** solve
/// over the program extended by a delta
/// ([`ModularEngine::solve_incremental`]): the condensation it ran over,
/// how each component was evaluated, and the two per-atom arrays every
/// sweep builds — the verdicts and the fact set, by local id. Together with
/// the interpretation, the stages and the statistics of the same
/// [`EngineResult`] that is everything the carry-and-patch path carries; it
/// rebuilds none of it, and a clone shares the chunks of its chunked
/// arrays.
#[derive(Clone, Debug)]
pub struct ModularMemo {
    /// The condensation the solve ran over.
    pub condensation: Condensation,
    /// Per component, by emission ordinal: was it recursive (internal
    /// negation or an undefined lower input) rather than definite.
    recursive: ChunkVec<bool>,
    /// The verdict of every atom, by local id: what the result's `interp`
    /// holds by universe id.
    truth: Vec<Truth>,
    /// The program's facts, by local id.
    is_fact: BitSet,
}

/// How a rule of the component under evaluation stands against the
/// already-decided verdicts of lower components. Ordered so that the
/// verdict over a whole body is the minimum over its external literals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum RuleKind {
    /// An external positive literal is false or an external negative one
    /// is true: the rule is out for good.
    Dead,
    /// Some external literal is undefined: the rule can keep its head
    /// possibly-founded but can never fire.
    Maybe,
    /// Every external literal is satisfied.
    Live,
}

/// Countdown value of a rule that takes no part in the current closure.
const BLOCKED: u32 = u32::MAX;

/// Scratch buffers, reused across components (most components are
/// singletons, so per-component allocation would dominate). Nothing here
/// is sized by the program's rules, and nothing but the positions `P` by
/// its atoms: evaluating a component allocates nothing beyond what the
/// largest one before it held.
struct Scratch<P> {
    /// The rules heading an atom of the component, collected by
    /// `classify_rules`.
    rules: Vec<u32>,
    /// `kind[i]` classifies `rules[i]` (fixed for the whole component).
    kind: Vec<RuleKind>,
    /// `missing[i]` = Dowling–Gallier countdown of `rules[i]` for the
    /// closure in progress, or [`BLOCKED`].
    missing: Vec<u32>,
    /// The component's own positive occurrence rows.
    rows: LocalRows<P>,
    queue: Vec<u32>,
    /// Possibly-founded marks by position in the component:
    /// `founded[p] == epoch` means "marked in the current unfounded-set
    /// pass". Bumping `epoch` clears every mark at once, so the array is
    /// never reset, only grown to the largest component that runs a pass.
    founded: Vec<u32>,
    epoch: u32,
}

impl<P: Positions> Scratch<P> {
    fn new(at: P) -> Self {
        Scratch {
            rules: Vec::new(),
            kind: Vec::new(),
            missing: Vec::new(),
            rows: LocalRows {
                at,
                singleton: false,
                entries: Vec::new(),
                off: Vec::new(),
                rules: Vec::new(),
            },
            queue: Vec::new(),
            founded: Vec::new(),
            epoch: 0,
        }
    }
}

/// Where each atom of a multi-atom component sits in it, by local atom id.
trait Positions {
    /// Atom `a` sits at position `p` of the component under evaluation.
    fn set(&mut self, a: u32, p: u32);
    /// The position of atom `a`, set since the component started.
    fn get(&self, a: u32) -> u32;
}

/// A full solve's positions: an array over the program's atoms, allocated
/// by the first multi-atom component.
struct Dense {
    at: Vec<u32>,
    atoms: usize,
}

impl Positions for Dense {
    #[inline]
    fn set(&mut self, a: u32, p: u32) {
        if self.at.is_empty() {
            self.at.resize(self.atoms, 0);
        }
        self.at[a as usize] = p;
    }

    #[inline]
    fn get(&self, a: u32) -> u32 {
        self.at[a as usize]
    }
}

/// A resume's positions: a map over the atoms of the cone's multi-atom
/// components, so that nothing is sized by the program.
impl Positions for FxHashMap<u32, u32> {
    #[inline]
    fn set(&mut self, a: u32, p: u32) {
        self.insert(a, p);
    }

    #[inline]
    fn get(&self, a: u32) -> u32 {
        self[&a]
    }
}

/// The positive occurrence rows of the component under evaluation, over
/// its own rules: `row(a)` lists the positions in `Scratch::rules` of the
/// rules with the component's atom `a` in their positive body, in rule
/// order. `classify_rules` records one entry per internal positive literal
/// as it classifies, and `count` sorts them into rows keyed by the atom's
/// position in the component — so a closure never looks at a rule of
/// another component.
struct LocalRows<P> {
    /// The position of each atom of the component under evaluation,
    /// written for multi-atom components only (a singleton's atom is at 0).
    at: P,
    /// The component under evaluation is a singleton.
    singleton: bool,
    /// `(position of the atom, position of the rule)` per internal
    /// positive literal, in rule order.
    entries: Vec<(u32, u32)>,
    /// Row `p` is `rules[off[p]..off[p + 1]]` (one spare entry at the end:
    /// the counting sort's cursors run one place ahead).
    off: Vec<u32>,
    rules: Vec<u32>,
}

impl<P: Positions> LocalRows<P> {
    /// Starts recording the rows of `comp`.
    fn start(&mut self, comp: &[u32]) {
        self.entries.clear();
        self.singleton = comp.len() == 1;
        if !self.singleton {
            for (p, &a) in comp.iter().enumerate() {
                self.at.set(a, p as u32);
            }
        }
    }

    /// The position of the component's atom `a` in the component.
    #[inline]
    fn position(&self, a: u32) -> usize {
        if self.singleton {
            0
        } else {
            self.at.get(a) as usize
        }
    }

    /// Records that the rule at position `rule` has the component's atom
    /// `b` in its positive body.
    #[inline]
    fn record(&mut self, b: u32, rule: usize) {
        self.entries.push((self.position(b) as u32, rule as u32));
    }

    /// Sorts the recorded entries into rows over the component's `len`
    /// positions (counting sort; each row keeps rule order).
    fn count(&mut self, len: usize) {
        // Count row `p` at `off[p + 2]`; after the prefix sum `off[p + 1]`
        // is where row `p` starts, and filling advances it to where row `p`
        // ends, which is where row `p + 1` starts.
        self.off.clear();
        self.off.resize(len + 2, 0);
        for &(p, _) in &self.entries {
            self.off[p as usize + 2] += 1;
        }
        for k in 1..self.off.len() {
            self.off[k] += self.off[k - 1];
        }
        self.rules.clear();
        self.rules.resize(self.entries.len(), 0);
        for &(p, rule) in &self.entries {
            let cursor = &mut self.off[p as usize + 1];
            self.rules[*cursor as usize] = rule;
            *cursor += 1;
        }
    }

    /// The positions of the component's rules with the component's atom
    /// `a` in their positive body.
    #[inline]
    fn row(&self, a: u32) -> &[u32] {
        let p = self.position(a);
        &self.rules[self.off[p] as usize..self.off[p + 1] as usize]
    }
}

/// What one component's evaluation contributed, merged into
/// [`ModularStats`] by the caller.
struct CompOutcome {
    definite: bool,
    /// Rules heading an atom of the component.
    rules: usize,
    /// Alternating rounds the evaluator ran (`0` when its verdicts were
    /// carried over).
    rounds: u32,
}

/// The SCC-modular WFS engine.
pub struct ModularEngine<'a> {
    prog: &'a GroundProgram,
    /// Deadline / cancellation / memory budget, checked at component
    /// boundaries.
    budget: SolveBudget,
}

impl<'a> ModularEngine<'a> {
    /// Prepares the engine for a ground program.
    pub fn new(prog: &'a GroundProgram) -> Self {
        ModularEngine {
            prog,
            budget: SolveBudget::unlimited(),
        }
    }

    /// Attaches a resource budget. On a trip the sweep stops at a component
    /// boundary: verdicts already published stay, every unevaluated atom
    /// reads [`Truth::Unknown`], and [`EngineResult::truncation`] records
    /// the reason. A truncated result
    /// carries no memo — its partial verdicts must never seed an
    /// incremental reuse.
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Accepted and ignored for the frozen benchmark; removed by the
    /// benchmark issue that drops `cold_solve_auto_s`.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Computes the well-founded model component by component.
    pub fn solve(&self) -> EngineResult {
        self.solve_incremental(None)
    }

    /// Computes the well-founded model of a program that **extends** a
    /// previously solved one, by carry-and-patch.
    ///
    /// `prev` is the ground program and engine result of the previous
    /// solve; this engine's program must be that program plus a delta —
    /// the previous atoms, rules and facts a prefix of its atoms, rules and
    /// facts, which is what [`GroundProgram::extension`] produces. Then:
    ///
    /// 1. the **seeds** are the heads of the new rules, the new facts and
    ///    the new atoms, and the **cone** is their forward closure over
    ///    the occurrence rows (every head of a rule whose body mentions a
    ///    cone atom). The complement of the cone is relevance-closed — no
    ///    rule heading one of its atoms mentions a cone atom — and rule for
    ///    rule the previous program's, so by the modularity (splitting)
    ///    property of the well-founded semantics its verdicts, stages and
    ///    components are the previous solve's: they are *carried*;
    /// 2. a dependency cycle that did not exist before runs through a new
    ///    rule, hence through that rule's head — a seed, whose dependants
    ///    are all in the cone. So the cone is a union of previous
    ///    components and new atoms, and Tarjan's algorithm runs on the
    ///    subgraph it induces only; the components found there get fresh
    ///    ordinals above every old one, the components the cone dissolves
    ///    keep theirs (read as empty), and no carried ordinal moves — which
    ///    keeps emission order dependencies-first and stages monotone
    ///    along derivations;
    /// 3. cone components are visited in that order, and **evaluated only
    ///    where something changed**: a component containing no seed, none
    ///    of whose external body atoms changed verdict in this run, is a
    ///    previous component with its previous rules and inputs, and keeps
    ///    its previous verdicts. Every other one is evaluated by the same
    ///    in-place evaluator a full solve uses.
    ///
    /// Every cone atom reads `Unknown` until its component has been
    /// visited, so a budget trip mid-cone degrades exactly like a full
    /// solve's: decided atoms carry their final values, the rest are
    /// `Unknown`, and no memo is published. The model-describing counters
    /// of [`ModularStats`] are the previous run's, adjusted by the
    /// dissolved and the new components — equal to a full solve's.
    ///
    /// Without a usable `prev` — none given, a truncated run (no memo), a
    /// program this one does not extend, a condensation whose dissolved
    /// ordinals outnumber its components by more than a chunk — the
    /// program is solved in full.
    pub fn solve_incremental(&self, prev: Option<(&GroundProgram, &EngineResult)>) -> EngineResult {
        prev.and_then(|(prev_prog, prev)| self.solve_cone(prev_prog, prev))
            .unwrap_or_else(|| self.solve_all())
    }

    /// The full solve: condense the whole program, sweep every component
    /// over Tarjan's flat arrays, and hand them to the memo.
    fn solve_all(&self) -> EngineResult {
        let prog = self.prog;
        let n = prog.num_atoms();
        let flat = tarjan(prog, n, |node| node, |atom| atom);
        let num_components = flat.num_components();

        // `Unknown` doubles as "not yet decided" — sound because components
        // are decided strictly bottom-up.
        let mut truth = vec![Truth::Unknown; n];
        let mut is_fact = BitSet::with_capacity(n);
        for &f in prog.facts_local() {
            is_fact.insert(f as usize);
        }
        let mut recursive = vec![false; num_components];
        let mem_estimate = mem_estimate(n, num_components);

        let mut stats = ModularStats {
            components: num_components,
            cone_atoms: n,
            threads: 1,
            ..Default::default()
        };

        // Emission order visits dependencies first, so a plain sweep needs
        // no scheduling state at all. An unbudgeted run pays one branch per
        // component; a budgeted one polls the clock every
        // `BUDGET_POLL_STRIDE` components.
        let mut truncation: Option<TruncationReason> = None;
        let mut scratch = Scratch::new(Dense {
            at: Vec::new(),
            atoms: n,
        });
        let budgeted = !self.budget.is_unlimited();
        let comp_of = &flat.comp_of[..];
        for ord in 0..num_components as u32 {
            if budgeted {
                if let Some(r) = trip_at_component(&self.budget, mem_estimate, ord) {
                    truncation = Some(r);
                    break;
                }
            }
            let comp = flat.component(ord as usize);
            let class = classify_rules(prog, comp, ord, comp_of, &truth, &mut scratch);
            recursive[ord as usize] = !class.definite;
            let out = CompOutcome {
                definite: class.definite,
                rules: scratch.rules.len(),
                rounds: decide_component(
                    prog,
                    comp,
                    ord,
                    comp_of,
                    &is_fact,
                    &mut truth,
                    class,
                    &mut scratch,
                ),
            };
            merge_outcome(&mut stats, &out, comp.len());
        }
        stats.components_evaluated = stats.definite_components + stats.recursive_components;

        // Assemble the EngineResult over original atom ids. The decision
        // stage of a decided atom is its component's 1-based emission
        // ordinal.
        let mut interp = Interp::with_capacity(n);
        let cap = prog.atom_id_bound();
        let mut decided_stage = crate::result::StageMap::with_capacity(cap);
        for (a, &value) in truth.iter().enumerate() {
            let atom = prog.atom_of_local(a as u32);
            match value {
                Truth::True => {
                    interp.set_true(atom);
                    decided_stage.insert(atom, comp_of[a] + 1);
                }
                Truth::False => {
                    interp.set_false(atom);
                    decided_stage.insert(atom, comp_of[a] + 1);
                }
                Truth::Unknown => stats.unknown_atoms += 1,
            }
        }
        let condensation = Condensation::from(flat);
        stats.largest_component = condensation.largest();
        // A truncated run publishes no memo: letting a later incremental
        // solve carry verdicts over from a partial sweep would be unsound.
        let memo = truncation.is_none().then(|| ModularMemo {
            condensation,
            recursive: recursive.into(),
            truth,
            is_fact,
        });
        EngineResult {
            interp,
            decided_stage,
            stages: num_components as u32,
            stats: Some(stats),
            memo,
            truncation,
            cone: None,
        }
    }

    /// The carry-and-patch solve ([`ModularEngine::solve_incremental`]);
    /// `None` when `prev` cannot be carried over.
    fn solve_cone(&self, prev_prog: &GroundProgram, prev: &EngineResult) -> Option<EngineResult> {
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
        // copied with room for every atom id of this program, the stage
        // map shared but for the chunks the cone writes (stages are
        // ordinals + 1).
        let ids = prog.atom_id_bound();
        let mut interp = prev.interp.copy_with_capacity(ids);
        let mut decided_stage = prev.decided_stage.clone();
        decided_stage.grow(ids);
        let mut reevaluated: Vec<AtomId> = Vec::with_capacity(cone.len());
        for &a in &cone {
            let atom = prog.atom_of_local(a);
            let value = truth[a as usize];
            interp.revise(atom, value);
            match value {
                Truth::Unknown => {
                    decided_stage.clear(atom);
                    stats.unknown_atoms += 1;
                }
                _ => decided_stage.insert(atom, cond.comp_of[a as usize] + 1),
            }
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
            decided_stage,
            stages,
            stats: Some(stats),
            memo,
            truncation,
            cone: Some(reevaluated),
        })
    }
}

/// Sentinel for "no entry" in the flat index arrays.
const NONE: u32 = u32::MAX;

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

/// Working-set estimate for the memory budget over `atoms` atoms and
/// `ordinals` component ordinals: one verdict byte per atom and the
/// condensation's `u32`s — a component per atom, the atoms of the rows and
/// an offset per row. Fixed for the whole run.
fn mem_estimate(atoms: usize, ordinals: usize) -> usize {
    atoms + (2 * atoms + ordinals + 1) * std::mem::size_of::<u32>()
}

/// How often the sweep polls the wall clock and memory budget, in
/// components. Fault sites still fire on every ordinal — injection points
/// must be exact — but `Instant::now` per singleton component would cost
/// more than evaluating the component.
const BUDGET_POLL_STRIDE: u32 = 64;

/// Budget check at the boundary before component `ord`:
/// fault-injection sites fire first (every ordinal), then the real budget
/// is polled every [`BUDGET_POLL_STRIDE`] components.
fn trip_at_component(
    budget: &SolveBudget,
    mem_estimate: usize,
    ord: u32,
) -> Option<TruncationReason> {
    if let Some(r) = budget.fire_fault(FaultSite::WfsComponent(ord)) {
        return Some(r);
    }
    if ord % BUDGET_POLL_STRIDE == 0 {
        return budget.check(mem_estimate);
    }
    None
}

fn merge_outcome(stats: &mut ModularStats, out: &CompOutcome, comp_len: usize) {
    if out.definite {
        stats.definite_components += 1;
    } else {
        stats.recursive_components += 1;
        stats.atoms_in_recursive += comp_len;
        stats.rules_in_recursive += out.rules;
        stats.recursive_rounds += out.rounds as usize;
    }
}

/// What `classify_rules` found out about a component.
#[derive(Clone, Copy)]
struct Class {
    /// No internal negation and no undefined lower input anywhere, dead
    /// rules included.
    definite: bool,
    /// No rule of the component mentions an atom of it: a singleton whose
    /// verdict follows from its rules' kinds alone.
    trivial: bool,
}

/// Collects the rules heading an atom of the component into
/// `scratch.rules` and classifies each **once** against the decided lower
/// verdicts: `scratch.kind[i]` (fixed for the component's whole
/// evaluation — external literals are never looked at again) and
/// `scratch.missing[i]`, the countdown of the first `T_P` closure. Every
/// internal positive literal is recorded in `scratch.rows`. Returns whether
/// the component is definite and whether it is trivial ([`Class`]).
///
/// Tarjan assigned component ordinals in emission order, so
/// `comp_of[b] == ordinal` tests membership in this component. `comp_of`
/// is Tarjan's flat array in a full solve and the memo's chunked one in a
/// resume.
fn classify_rules<C: Index<usize, Output = u32> + ?Sized, P: Positions>(
    prog: &GroundProgram,
    comp: &[u32],
    ordinal: u32,
    comp_of: &C,
    truth: &[Truth],
    scratch: &mut Scratch<P>,
) -> Class {
    let Scratch {
        rules,
        kind,
        missing,
        rows,
        ..
    } = scratch;
    rules.clear();
    kind.clear();
    missing.clear();
    rows.start(comp);
    let mut internal_negation = false;
    let mut undefined_input = false;
    // What an external literal makes of its rule; `satisfied` is the
    // verdict of its atom that satisfies it.
    let mut external = |b: u32, satisfied: Truth| match truth[b as usize] {
        t if t == satisfied => RuleKind::Live,
        Truth::Unknown => {
            undefined_input = true;
            RuleKind::Maybe
        }
        _ => RuleKind::Dead,
    };
    for &a in comp {
        for &rid in prog.rules_with_head_local(a) {
            let r = rid.index();
            let mut k = RuleKind::Live;
            let mut internal_pos = 0u32;
            let mut internal_neg = false;
            for &b in prog.pos_local(r) {
                if comp_of[b as usize] == ordinal {
                    internal_pos += 1;
                    rows.record(b, rules.len());
                } else {
                    k = k.min(external(b, Truth::True));
                }
            }
            for &b in prog.neg_local(r) {
                if comp_of[b as usize] == ordinal {
                    internal_neg = true;
                } else {
                    k = k.min(external(b, Truth::False));
                }
            }
            internal_negation |= internal_neg;
            rules.push(r as u32);
            kind.push(k);
            // Every internal atom is still undecided: all internal positive
            // literals are missing, and an internal negative literal cannot
            // be false yet.
            missing.push(if k == RuleKind::Live && !internal_neg {
                internal_pos
            } else {
                BLOCKED
            });
        }
    }
    Class {
        definite: !internal_negation && !undefined_input,
        trivial: !internal_negation && rows.entries.is_empty(),
    }
}

/// Decides one classified component and returns the rounds it took.
///
/// A **trivial** component — a singleton `a` none of whose rules mention
/// `a` — is decided by one look at its rules' kinds: true if `a` is a fact
/// or some rule is [`RuleKind::Live`] (its countdown is zero), otherwise
/// unknown if some rule is [`RuleKind::Maybe`] (it keeps `a` founded),
/// otherwise false. Those are the verdicts `eval_component` reaches, in the
/// rounds it would report: one, or two when a component that is not
/// definite ends false (the second round confirms that falsifying `a`
/// fired nothing). Every other component goes through `eval_component`.
#[allow(clippy::too_many_arguments)]
fn decide_component<C: Index<usize, Output = u32> + ?Sized, P: Positions>(
    prog: &GroundProgram,
    comp: &[u32],
    ordinal: u32,
    comp_of: &C,
    is_fact: &BitSet,
    truth: &mut [Truth],
    class: Class,
    scratch: &mut Scratch<P>,
) -> u32 {
    if class.trivial {
        let a = comp[0] as usize;
        let best = scratch.kind.iter().max();
        truth[a] = match best {
            _ if is_fact.contains(a) => Truth::True,
            Some(RuleKind::Live) => Truth::True,
            Some(RuleKind::Maybe) => Truth::Unknown,
            _ => Truth::False,
        };
        return 1 + (!class.definite && truth[a] == Truth::False) as u32;
    }
    scratch.rows.count(comp.len());
    eval_component(
        prog,
        comp,
        ordinal,
        comp_of,
        is_fact,
        truth,
        class.definite,
        scratch,
    )
}

/// Evaluates one component **in place**: the alternating `T_P`-closure /
/// greatest-unfounded-set rounds of `W_P`, restricted to the component's
/// rules (`scratch.rules`), reading the parent program's CSR arrays and
/// writing verdicts straight into `truth`. Returns the number of rounds.
///
/// `classify_rules` has judged every rule against the decided lower
/// verdicts ([`RuleKind`]) and taken the first countdowns; external
/// literals are never looked at again. Then, until a round falsifies
/// nothing:
///
/// 1. **`T_P` closure** — a [`RuleKind::Live`] rule whose internal negative
///    literals are all false fires once its internal positive literals are
///    all true (Dowling–Gallier countdowns); facts of the component are
///    true.
/// 2. **Unfounded set** — a non-dead rule with no internal positive literal
///    false and no internal negative literal true supports its head once
///    its internal positive literals are founded (true atoms are: each was
///    derived by such a rule); every component atom that is neither founded
///    nor decided becomes false.
///
/// Atoms still undecided at the fixpoint stay [`Truth::Unknown`]. A
/// `definite` component (no internal negation, no undefined input) stops
/// after its first closure: there the derivable atoms are exactly the
/// founded ones, so everything not derived is false.
///
/// Relies on the [`wfdl_storage::GroundRule`] normal form — an atom occurs
/// at most once per body — so one decrement per newly marked atom keeps a
/// countdown exact.
#[allow(clippy::too_many_arguments)]
fn eval_component<C: Index<usize, Output = u32> + ?Sized, P: Positions>(
    prog: &GroundProgram,
    comp: &[u32],
    ordinal: u32,
    comp_of: &C,
    is_fact: &BitSet,
    truth: &mut [Truth],
    definite: bool,
    scratch: &mut Scratch<P>,
) -> u32 {
    let Scratch {
        rules,
        kind,
        missing,
        rows,
        queue,
        founded,
        epoch,
    } = scratch;
    let rows = &*rows;
    queue.clear();
    debug_assert!(!definite || !kind.contains(&RuleKind::Maybe));

    let derive = |truth: &mut [Truth], a: u32, queue: &mut Vec<u32>| {
        if truth[a as usize] != Truth::True {
            debug_assert!(truth[a as usize] != Truth::False, "atom {a} flips");
            truth[a as usize] = Truth::True;
            queue.push(a);
        }
    };
    // Countdowns are always taken before a closure derives anything (the
    // first ones by `classify_rules`, from the undecided state), so a fact
    // counted as missing is credited exactly once, when it leaves the queue.
    for &a in comp {
        if is_fact.contains(a as usize) {
            derive(truth, a, queue);
        }
    }

    // The countdown of rule `r` for one closure: its internal positive
    // literals that are not yet true, or `BLOCKED` if an internal literal
    // rules it out. To fire (`firing`), an internal negative literal must
    // be false; to support a possibly-founded head, it must not be true.
    let countdown = |truth: &[Truth], r: u32, firing: bool| -> u32 {
        let r = r as usize;
        let mut m = 0u32;
        for &b in prog.pos_local(r) {
            if comp_of[b as usize] == ordinal {
                match truth[b as usize] {
                    Truth::True => {}
                    Truth::Unknown => m += 1,
                    Truth::False => return BLOCKED,
                }
            }
        }
        for &b in prog.neg_local(r) {
            if comp_of[b as usize] == ordinal {
                let t = truth[b as usize];
                if t == Truth::True || (firing && t == Truth::Unknown) {
                    return BLOCKED;
                }
            }
        }
        m
    };

    let mut rounds = 0u32;
    loop {
        rounds += 1;
        close(prog, rules, rows, missing, queue, |a, queue| {
            derive(truth, a, queue)
        });
        if definite {
            for &a in comp {
                if truth[a as usize] != Truth::True {
                    truth[a as usize] = Truth::False;
                }
            }
            break;
        }

        if founded.len() < comp.len() {
            founded.resize(comp.len(), 0);
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            founded.fill(0);
            *epoch = 1;
        }
        let stamp = *epoch;
        for (i, &r) in rules.iter().enumerate() {
            missing[i] = match kind[i] {
                RuleKind::Dead => BLOCKED,
                _ => countdown(truth, r, false),
            };
        }
        close(prog, rules, rows, missing, queue, |a, queue| {
            let p = rows.position(a);
            if truth[a as usize] != Truth::True && founded[p] != stamp {
                founded[p] = stamp;
                queue.push(a);
            }
        });
        let mut falsified = false;
        for (p, &a) in comp.iter().enumerate() {
            if truth[a as usize] == Truth::Unknown && founded[p] != stamp {
                truth[a as usize] = Truth::False;
                falsified = true;
            }
        }
        // `T_P` is saturated for the current false set; only a new false
        // atom can let another rule fire.
        if !falsified {
            break;
        }
        for (i, &r) in rules.iter().enumerate() {
            missing[i] = match kind[i] {
                RuleKind::Live => countdown(truth, r, true),
                _ => BLOCKED,
            };
        }
    }
    rounds
}

/// One Dowling–Gallier closure over the component's rules: marks the head
/// of every rule whose countdown is already zero, then propagates — each
/// atom leaving the queue credits the rules it occurs positively in (its
/// row in the component's own `rows`), and a countdown reaching zero marks
/// that rule's head. `mark` records an atom and queues it unless it is
/// marked already.
fn close<P: Positions>(
    prog: &GroundProgram,
    rules: &[u32],
    rows: &LocalRows<P>,
    missing: &mut [u32],
    queue: &mut Vec<u32>,
    mut mark: impl FnMut(u32, &mut Vec<u32>),
) {
    for (i, &r) in rules.iter().enumerate() {
        if missing[i] == 0 {
            mark(prog.head_local(r as usize), queue);
        }
    }
    while let Some(a) = queue.pop() {
        for &i in rows.row(a) {
            let m = &mut missing[i as usize];
            // A zero countdown already marked its head, and none of its
            // literals was unmarked when it was taken.
            if *m == BLOCKED || *m == 0 {
                continue;
            }
            *m -= 1;
            if *m == 0 {
                mark(prog.head_local(rules[i as usize] as usize), queue);
            }
        }
    }
}

/// The strongly connected components of a program's atom dependency graph
/// (`head → body atom`), by **ordinal**, in emission order: Tarjan's
/// algorithm emits each component after everything it depends on (reverse
/// topological order of the condensation).
///
/// A solve from scratch hands Tarjan's flat arrays over as the tails of
/// chunked ones — no per-component allocation even when every component is
/// a singleton. A resumed solve's clone shares their chunks and appends
/// the cone's components with fresh ordinals (see the module docs for why
/// that keeps emission order). A component the cone dissolves keeps its
/// ordinal, which is never handed out again, and its row, which nothing
/// rewrites: every atom of it is a cone atom and now belongs to a cone
/// component, so the row reads as dissolved once its first atom's
/// component is another one.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Local atom id → component ordinal.
    pub comp_of: ChunkVec<u32>,
    /// Row `c`: the atoms of component `c`, in emission order (for a
    /// dissolved component, the atoms it had).
    comps: RowPool<u32>,
    /// Live components by size: how many have each size.
    sizes: BTreeMap<usize, usize>,
    /// Live components.
    live: usize,
}

impl Condensation {
    /// Number of strongly connected components: the live ones.
    pub fn num_components(&self) -> usize {
        self.live
    }

    /// Number of ordinals handed out: the components, and for a resumed
    /// solve the components its resumes dissolved.
    pub fn num_ordinals(&self) -> usize {
        self.comps.len()
    }

    /// The atoms of component `c` (emission order within the component);
    /// empty for a dissolved one.
    pub fn component(&self, c: usize) -> &[u32] {
        let row = self.comps.row(c);
        match row.first() {
            Some(&a) if self.comp_of[a as usize] as usize != c => &[],
            _ => row,
        }
    }

    /// Iterates [`Condensation::component`] of every ordinal in emission
    /// (dependencies-first) order: the components, and an empty slice for
    /// each dissolved one.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_ordinals()).map(|c| self.component(c))
    }

    /// Atoms in the largest component.
    fn largest(&self) -> usize {
        self.sizes.keys().next_back().copied().unwrap_or(0)
    }

    /// Stops counting the components `dissolved`, whose atoms are all
    /// about to join new components.
    fn dissolve(&mut self, dissolved: &[u32]) {
        for &c in dissolved {
            let size = self.comps.row(c as usize).len();
            self.live -= 1;
            if let Some(n) = self.sizes.get_mut(&size) {
                *n -= 1;
                if *n == 0 {
                    self.sizes.remove(&size);
                }
            }
        }
    }

    /// Appends a component of the atoms `atoms`, with the next ordinal.
    fn push(&mut self, atoms: impl ExactSizeIterator<Item = u32> + Clone) {
        let ordinal = wfdl_core::dense_u32(self.comps.len(), "component ordinal");
        for a in atoms.clone() {
            self.comp_of[a as usize] = ordinal;
        }
        self.live += 1;
        *self.sizes.entry(atoms.len()).or_insert(0) += 1;
        self.comps.push(atoms);
    }
}

impl From<Flat> for Condensation {
    /// Tarjan's arrays, handed over as they are.
    fn from(flat: Flat) -> Condensation {
        let mut sizes = BTreeMap::new();
        let mut singletons = 0;
        for w in flat.comp_off.windows(2) {
            match (w[1] - w[0]) as usize {
                1 => singletons += 1,
                size => *sizes.entry(size).or_insert(0) += 1,
            }
        }
        if singletons > 0 {
            sizes.insert(1, singletons);
        }
        Condensation {
            live: flat.num_components(),
            comp_of: flat.comp_of.into(),
            comps: RowPool::from_csr(flat.comp_off, flat.comp_atoms),
            sizes,
        }
    }
}

/// Tarjan's output over node ids, in one flat CSR: what a full solve
/// sweeps before handing it to its [`Condensation`], and what a resume
/// appends to the one it carries.
struct Flat {
    /// Node → component ordinal (emission order).
    comp_of: Vec<u32>,
    /// Component nodes, concatenated in emission order.
    comp_atoms: Vec<u32>,
    /// Offsets into `comp_atoms`, `num_components() + 1` entries.
    comp_off: Vec<u32>,
}

impl Flat {
    fn num_components(&self) -> usize {
        self.comp_off.len() - 1
    }

    fn component(&self, c: usize) -> &[u32] {
        &self.comp_atoms[self.comp_off[c] as usize..self.comp_off[c + 1] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_components()).map(|c| self.component(c))
    }
}

/// Computes the [`Condensation`] of a ground program's dependency graph.
pub fn condensation(prog: &GroundProgram) -> Condensation {
    tarjan(prog, prog.num_atoms(), |node| node, |atom| atom).into()
}

/// Tarjan's algorithm over the subgraph of the dependency graph induced by
/// `nodes` atoms: node `v` is the atom `atom_of(v)`, and `node_of` is the
/// inverse, [`NONE`] for an atom outside the subgraph. The result is in
/// node ids.
fn tarjan(
    prog: &GroundProgram,
    nodes: usize,
    atom_of: impl Fn(u32) -> u32,
    node_of: impl Fn(u32) -> u32,
) -> Flat {
    let n = nodes;
    // Flat adjacency CSR, filled in one pass: the successors of a node are
    // the body atoms, inside the subgraph, of the rules its atom heads. The
    // whole program's graph has one edge per body literal.
    let whole = n == prog.num_atoms();
    let mut adj_off = Vec::with_capacity(n + 1);
    let mut adj: Vec<u32> = Vec::with_capacity(if whole { prog.num_body_literals() } else { 0 });
    adj_off.push(0);
    for v in 0..n as u32 {
        for rid in prog.rules_with_head_local(atom_of(v)) {
            let r = rid.index();
            let body = prog.pos_local(r).iter().chain(prog.neg_local(r));
            adj.extend(body.map(|&b| node_of(b)).filter(|&w| w != NONE));
        }
        adj_off.push(wfdl_core::dense_u32(adj.len(), "dependency edges"));
    }

    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = BitSet::with_capacity(n);
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![UNVISITED; n];
    let mut comp_atoms: Vec<u32> = Vec::with_capacity(n);
    let mut comp_off: Vec<u32> = vec![0];
    let mut next_index = 0u32;
    // Explicit DFS frames: (node, cursor into adj).
    let mut frames: Vec<(u32, u32)> = Vec::new();

    for v0 in 0..n as u32 {
        if index[v0 as usize] != UNVISITED {
            continue;
        }
        index[v0 as usize] = next_index;
        low[v0 as usize] = next_index;
        next_index += 1;
        stack.push(v0);
        on_stack.insert(v0 as usize);
        frames.push((v0, adj_off[v0 as usize]));

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < adj_off[v as usize + 1] {
                let w = adj[*cursor as usize];
                *cursor += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack.insert(w as usize);
                    frames.push((w, adj_off[w as usize]));
                } else if on_stack.contains(w as usize) {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let ordinal = (comp_off.len() - 1) as u32;
                    loop {
                        // Tarjan invariant: `v` stays on the stack
                        // until its own SCC is emitted right here.
                        #[allow(clippy::expect_used)]
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack.remove(w as usize);
                        comp_of[w as usize] = ordinal;
                        comp_atoms.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp_off.push(comp_atoms.len() as u32);
                }
            }
        }
    }

    Flat {
        comp_of,
        comp_atoms,
        comp_off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Oracles from the dev-dependency: they link a second, non-test build
    // of this crate, so results are compared through `wfdl-core` types
    // (`Truth`, `AtomId`) only.
    use wfdl_core::AtomId;
    use wfdl_reference::{AlternatingEngine, StepMode, WpEngine};
    use wfdl_storage::{GroundProgramBuilder, GroundRule};

    fn a(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    fn agree_with_global(b: &GroundProgramBuilder) {
        let p = b.clone().finish();
        let modular = ModularEngine::new(&p).solve();
        let wp = WpEngine::new(&p).solve(StepMode::Accelerated);
        let alt = AlternatingEngine::new(&p).solve();
        for &atom in p.atoms() {
            assert_eq!(modular.value(atom), wp.value(atom), "vs Wp on {atom:?}");
            assert_eq!(modular.value(atom), alt.value(atom), "vs Alt on {atom:?}");
        }
    }

    #[test]
    fn condensation_orders_dependencies_first() {
        // a2 ← a1 ← a0(fact); a3 ↔ a4 cycle above a2.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(3), vec![a(4), a(2)], vec![]));
        b.add_rule(GroundRule::new(a(4), vec![a(3)], vec![]));
        let p = b.finish();
        let cond = condensation(&p);
        // The 3/4 cycle is one component; every dependency is emitted
        // before its dependents.
        assert_eq!(cond.comp_of[3], cond.comp_of[4]);
        let pos = |l: u32| cond.iter().position(|c| c.contains(&l)).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
        assert_eq!(cond.iter().map(<[u32]>::len).sum::<usize>(), p.num_atoms());
        // comp_of ordinals match the CSR component rows.
        for c in 0..cond.num_components() {
            for &atom in cond.component(c) {
                assert_eq!(cond.comp_of[atom as usize] as usize, c);
            }
        }
    }

    #[test]
    fn stratified_chain_is_all_definite() {
        // Pure positive chain plus stratified negation: every component is
        // definite, nothing is unknown.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![a(1)]));
        b.add_rule(GroundRule::new(a(3), vec![a(0)], vec![a(2)]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        let stats = res.stats.unwrap();
        assert_eq!(stats.recursive_components, 0);
        assert_eq!(stats.unknown_atoms, 0);
        agree_with_global(&b);
    }

    #[test]
    fn negative_cycle_goes_recursive_and_stays_unknown() {
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        b.add_rule(GroundRule::new(a(2), vec![], vec![a(0)]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        let stats = res.stats.unwrap();
        assert!(stats.recursive_components >= 1);
        assert_eq!(stats.unknown_atoms, 3);
        agree_with_global(&b);
    }

    #[test]
    fn unknown_inputs_propagate_through_higher_components() {
        // a0/a1 draw cycle (unknown); a2 ← a0 positively; a3 ← ¬a2;
        // a4 ← a3, and a5 ← ¬a4: everything above the cycle is unknown,
        // and none of it may collapse to false.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![]));
        b.add_rule(GroundRule::new(a(3), vec![], vec![a(2)]));
        b.add_rule(GroundRule::new(a(4), vec![a(3)], vec![]));
        b.add_rule(GroundRule::new(a(5), vec![], vec![a(4)]));
        agree_with_global(&b);
    }

    #[test]
    fn win_move_path_and_cycle() {
        // win chain 0→1→2 plus a 3⇄4 draw; mirrors the wp.rs tests.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(2)]));
        b.add_rule(GroundRule::new(a(3), vec![], vec![a(4)]));
        b.add_rule(GroundRule::new(a(4), vec![], vec![a(3)]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.value(a(2)), Truth::False);
        assert_eq!(res.value(a(1)), Truth::True);
        assert_eq!(res.value(a(0)), Truth::False);
        assert_eq!(res.value(a(3)), Truth::Unknown);
        assert_eq!(res.value(a(4)), Truth::Unknown);
        agree_with_global(&b);
    }

    #[test]
    fn zero_missing_rule_does_not_double_credit_later_rules() {
        // Regression: `h ← ∅` fires during setup; the rule `y ← h, x`
        // (initialized afterwards) must not see h as already satisfied AND
        // receive a propagation decrement for it — that double credit let
        // the unfounded y/x positive cycle come out true. All of y, x must
        // be false; h is true.
        let (y, h, x) = (a(0), a(1), a(2));
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(y, vec![h, x], vec![]));
        b.add_rule(GroundRule::new(h, vec![], vec![]));
        b.add_rule(GroundRule::new(x, vec![y], vec![]));
        b.add_rule(GroundRule::new(h, vec![y], vec![]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.value(h), Truth::True);
        assert_eq!(res.value(y), Truth::False);
        assert_eq!(res.value(x), Truth::False);
        agree_with_global(&b);
    }

    #[test]
    fn positive_loops_are_unfounded_in_definite_components() {
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![a(1)], vec![]));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        b.add_fact(a(2));
        b.add_rule(GroundRule::new(a(3), vec![a(2), a(0)], vec![]));
        agree_with_global(&b);
    }

    #[test]
    fn facts_inside_recursive_components_are_true() {
        // a0 is a fact and also on a negative cycle with a1.
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.value(a(0)), Truth::True);
        assert_eq!(res.value(a(1)), Truth::False);
        agree_with_global(&b);
    }

    #[test]
    fn recursive_counters_sum_rules_and_rounds() {
        // A draw (two rules, settled in one round) next to a component that
        // needs two: the positive loop a2/a3 is falsified in round one,
        // which lets `a4 ← ¬a2` fire in round two (the dead rule through
        // the underivable a5 ties a4 into the component). The definite
        // chain a6 ← a7 counts nowhere.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(1)]));
        b.add_rule(GroundRule::new(a(1), vec![], vec![a(0)]));
        b.add_rule(GroundRule::new(a(2), vec![a(3)], vec![]));
        b.add_rule(GroundRule::new(a(3), vec![a(2)], vec![]));
        b.add_rule(GroundRule::new(a(4), vec![], vec![a(2)]));
        b.add_rule(GroundRule::new(a(2), vec![a(4), a(5)], vec![]));
        b.add_fact(a(7));
        b.add_rule(GroundRule::new(a(6), vec![a(7)], vec![]));
        let p = b.clone().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.value(a(2)), Truth::False);
        assert_eq!(res.value(a(4)), Truth::True);
        let stats = res.stats.unwrap();
        assert_eq!(stats.recursive_components, 2, "{stats:?}");
        assert_eq!(stats.atoms_in_recursive, 5, "{stats:?}");
        assert_eq!(stats.rules_in_recursive, 6, "{stats:?}");
        assert_eq!(stats.recursive_rounds, 1 + 2, "{stats:?}");
        agree_with_global(&b);

        // A carried component is counted by what it is, but runs no round.
        let again = ModularEngine::new(&p).solve_incremental(Some((&p, &res)));
        let reused = again.stats.unwrap();
        assert_eq!(reused.components_reused, reused.components);
        assert_eq!(reused.cone_atoms, 0);
        assert_eq!(
            ModularStats {
                recursive_rounds: 0,
                components_reused: stats.components,
                components_evaluated: 0,
                cone_atoms: 0,
                ..stats
            },
            reused
        );
    }

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
            let stage = |l: u32| inc.stage_of(grown.atom_of_local(l));
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
        assert_eq!(inc.stage_of(a(2)), None, "an undecided atom has no stage");
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

    /// Verdicts against the global engines, and the counters a wrong
    /// "trivial" test would move: `(definite_components,
    /// recursive_components, recursive_rounds, rules_in_recursive,
    /// unknown_atoms)`.
    fn counters(b: &GroundProgramBuilder) -> (usize, usize, usize, usize, usize) {
        agree_with_global(b);
        let s = ModularEngine::new(&b.clone().finish())
            .solve()
            .stats
            .unwrap();
        (
            s.definite_components,
            s.recursive_components,
            s.recursive_rounds,
            s.rules_in_recursive,
            s.unknown_atoms,
        )
    }

    /// `q ⇄ r`, a draw: both unknown.
    fn draw(b: &mut GroundProgramBuilder, q: AtomId, r: AtomId) {
        b.add_rule(GroundRule::new(q, vec![], vec![r]));
        b.add_rule(GroundRule::new(r, vec![], vec![q]));
    }

    #[test]
    fn a_positive_self_loop_is_not_trivial() {
        // p ← p: definite, and its one atom unfounded.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![a(0)], vec![]));
        assert_eq!(counters(&b), (1, 0, 0, 0, 0));
    }

    #[test]
    fn a_negative_self_loop_is_not_trivial() {
        // p ← not p: undefined.
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(0), vec![], vec![a(0)]));
        assert_eq!(counters(&b), (0, 1, 1, 1, 1));
        // ... unless p is a fact.
        b.add_fact(a(0));
        assert_eq!(counters(&b), (0, 1, 1, 1, 0));
    }

    #[test]
    fn a_negative_self_loop_under_an_unknown_input_is_not_trivial() {
        // p ← q, not p with q in a draw.
        let (p, q, r) = (a(0), a(1), a(2));
        let mut b = GroundProgramBuilder::new();
        draw(&mut b, q, r);
        b.add_rule(GroundRule::new(p, vec![q], vec![p]));
        assert_eq!(counters(&b), (0, 2, 2, 3, 3));
        assert_eq!(
            ModularEngine::new(&b.finish()).solve().value(p),
            Truth::Unknown
        );
    }

    #[test]
    fn trivial_singletons_above_a_draw() {
        // Over the draw q ⇄ r and the fact t, three singletons none of whose
        // rules mention them, none definite: s ← q, not t is dead but read
        // an unknown input (false, in two rounds); u ← q can only keep u
        // founded (unknown); w ← t fires beside w ← q (true).
        let (q, r, t, s, u, w) = (a(0), a(1), a(2), a(3), a(4), a(5));
        let mut b = GroundProgramBuilder::new();
        draw(&mut b, q, r);
        b.add_fact(t);
        b.add_rule(GroundRule::new(s, vec![q], vec![t]));
        b.add_rule(GroundRule::new(u, vec![q], vec![]));
        b.add_rule(GroundRule::new(w, vec![t], vec![]));
        b.add_rule(GroundRule::new(w, vec![q], vec![]));
        assert_eq!(counters(&b), (1, 4, 1 + 2 + 1 + 1, 6, 3));
        let res = ModularEngine::new(&b.finish()).solve();
        assert_eq!(
            [s, u, w].map(|x| res.value(x)),
            [Truth::False, Truth::Unknown, Truth::True]
        );
    }

    #[test]
    fn budget_trip_truncates_to_a_sound_under_approximation() {
        // A trip fault at a mid-sweep component stops evaluation at a
        // component boundary: the result reports the reason, carries
        // no memo, and every decided atom agrees with the complete model
        // (nothing flips — undecided atoms only degrade to Unknown).
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        for i in 1..64 {
            b.add_rule(GroundRule::new(a(i), vec![a(0)], vec![]));
            b.add_rule(GroundRule::new(a(64 + i), vec![a(i)], vec![]));
        }
        let p = b.finish();
        let full = ModularEngine::new(&p).solve();
        assert_eq!(full.truncation, None);
        assert!(full.memo.is_some());
        let victim = condensation(&p).num_components() as u32 / 2;
        let plan = wfdl_core::budget::FaultPlan {
            site: FaultSite::WfsComponent(victim),
            kind: wfdl_core::budget::FaultKind::TripCancel,
        };
        let res = ModularEngine::new(&p)
            .with_budget(SolveBudget::unlimited().with_fault(plan))
            .solve();
        assert_eq!(res.truncation, Some(TruncationReason::Cancelled));
        assert!(res.memo.is_none(), "truncated result must drop its memo");
        let mut undecided = 0usize;
        for &atom in p.atoms() {
            match res.value(atom) {
                Truth::Unknown => {
                    undecided += 1;
                    // Sound under-approximation: only degrades.
                }
                v => assert_eq!(v, full.value(atom), "decided atom flipped"),
            }
        }
        assert!(
            undecided > 0,
            "trip at {victim} should leave atoms undecided"
        );
    }

    #[test]
    fn pre_cancelled_budget_yields_fully_unknown_model() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![]));
        let p = b.finish();
        let token = wfdl_core::CancelToken::new();
        token.cancel();
        let res = ModularEngine::new(&p)
            .with_budget(SolveBudget::unlimited().with_cancel(token))
            .solve();
        assert_eq!(res.truncation, Some(TruncationReason::Cancelled));
        for &atom in p.atoms() {
            assert_eq!(res.value(atom), Truth::Unknown);
        }
    }

    #[test]
    fn empty_program() {
        let p = GroundProgramBuilder::new().finish();
        let res = ModularEngine::new(&p).solve();
        assert_eq!(res.stages, 0);
        assert_eq!(res.stats.unwrap().components, 0);
    }
}
