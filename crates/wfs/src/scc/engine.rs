//! The engine: the full solve's sweep over the components, and what a
//! solve leaves behind for the next one.

use super::component::{classify_rules, decide_component, Dense, Scratch};
use super::condensation::{tarjan, Condensation};
use crate::result::EngineResult;
use wfdl_core::budget::FaultSite;
use wfdl_core::{BitSet, ChunkVec, Interp, SolveBudget, TruncationReason, Truth};
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
/// the interpretation and the statistics of the same [`EngineResult`] that
/// is everything the carry-and-patch path carries; it rebuilds none of it,
/// and a clone shares the chunks of its chunked arrays. The decision stage
/// of an atom is read off it ([`ModularMemo::stage`]).
#[derive(Clone, Debug)]
pub struct ModularMemo {
    /// The condensation the solve ran over.
    pub condensation: Condensation,
    /// Per component, by emission ordinal: was it recursive (internal
    /// negation or an undefined lower input) rather than definite.
    pub(super) recursive: ChunkVec<bool>,
    /// The verdict of every atom, by local id: what the result's `interp`
    /// holds by universe id.
    pub(super) truth: Vec<Truth>,
    /// The program's facts, by local id.
    pub(super) is_fact: BitSet,
}

impl ModularMemo {
    /// The decision stage of the atom with local id `local`: its
    /// component's emission ordinal + 1, or `None` if it is undecided.
    pub fn stage(&self, local: u32) -> Option<u32> {
        let l = local as usize;
        (self.truth[l] != Truth::Unknown).then(|| self.condensation.comp_of[l] + 1)
    }
}

/// What one component's evaluation contributed, merged into
/// [`ModularStats`] by the caller.
pub(super) struct CompOutcome {
    pub(super) definite: bool,
    /// Rules heading an atom of the component.
    pub(super) rules: usize,
    /// Alternating rounds the evaluator ran (`0` when its verdicts were
    /// carried over).
    pub(super) rounds: u32,
}

/// The SCC-modular WFS engine.
pub struct ModularEngine<'a> {
    pub(super) prog: &'a GroundProgram,
    /// Deadline / cancellation / memory budget, checked at component
    /// boundaries.
    pub(super) budget: SolveBudget,
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
    ///    property of the well-founded semantics its verdicts and
    ///    components are the previous solve's: they are *carried*;
    /// 2. a dependency cycle that did not exist before runs through a new
    ///    rule, hence through that rule's head — a seed, whose dependants
    ///    are all in the cone. So the cone is a union of previous
    ///    components and new atoms, and Tarjan's algorithm runs on the
    ///    subgraph it induces only; the components found there get fresh
    ///    ordinals above every old one, the components the cone dissolves
    ///    keep theirs (read as empty), and no carried ordinal moves — which
    ///    keeps emission order dependencies-first and ordinals monotone
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

        // Assemble the EngineResult over original atom ids.
        let mut interp = Interp::with_capacity(n);
        for (a, &value) in truth.iter().enumerate() {
            let atom = prog.atom_of_local(a as u32);
            match value {
                Truth::True => {
                    interp.set_true(atom);
                }
                Truth::False => {
                    interp.set_false(atom);
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
            stages: num_components as u32,
            stats: Some(stats),
            memo,
            truncation,
            cone: None,
        }
    }
}

/// Working-set estimate for the memory budget over `atoms` atoms and
/// `ordinals` component ordinals: one verdict byte per atom and the
/// condensation's `u32`s — a component per atom, the atoms of the rows and
/// an offset per row. Fixed for the whole run.
pub(super) fn mem_estimate(atoms: usize, ordinals: usize) -> usize {
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
pub(super) fn trip_at_component(
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

pub(super) fn merge_outcome(stats: &mut ModularStats, out: &CompOutcome, comp_len: usize) {
    if out.definite {
        stats.definite_components += 1;
    } else {
        stats.recursive_components += 1;
        stats.atoms_in_recursive += comp_len;
        stats.rules_in_recursive += out.rules;
        stats.recursive_rounds += out.rounds as usize;
    }
}
