//! Evaluating one component in place: classifying its rules against the
//! decided lower verdicts, and the alternating closure / unfounded-set
//! rounds over its own rules.

use std::ops::Index;
use wfdl_core::csr::Csr;
use wfdl_core::{BitSet, FxHashMap, Truth};
use wfdl_storage::GroundProgram;

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
pub(super) struct Scratch<P> {
    /// The rules heading an atom of the component, collected by
    /// `classify_rules`.
    pub(super) rules: Vec<u32>,
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
    pub(super) fn new(at: P) -> Self {
        Scratch {
            rules: Vec::new(),
            kind: Vec::new(),
            missing: Vec::new(),
            rows: LocalRows {
                at,
                singleton: false,
                entries: Vec::new(),
                rows: Csr::default(),
            },
            queue: Vec::new(),
            founded: Vec::new(),
            epoch: 0,
        }
    }
}

/// Where each atom of a multi-atom component sits in it, by local atom id.
pub(super) trait Positions {
    /// Atom `a` sits at position `p` of the component under evaluation.
    fn set(&mut self, a: u32, p: u32);
    /// The position of atom `a`, set since the component started.
    fn get(&self, a: u32) -> u32;
}

/// A cold sweep's positions: an array over the program's atoms, allocated
/// by the first multi-atom component.
pub(super) struct Dense {
    pub(super) at: Vec<u32>,
    pub(super) atoms: usize,
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
    /// Row `p`: the rules of the atom at position `p`.
    rows: Csr<u32>,
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
    /// positions (each row keeps rule order), in the buffers of the last
    /// component.
    fn count(&mut self, len: usize) {
        self.rows.recount(len, self.entries.iter().copied());
    }

    /// The positions of the component's rules with the component's atom
    /// `a` in their positive body.
    #[inline]
    fn row(&self, a: u32) -> &[u32] {
        self.rows.row(self.position(a))
    }
}

/// What `classify_rules` found out about a component.
#[derive(Clone, Copy)]
pub(super) struct Class {
    /// No internal negation and no undefined lower input anywhere, dead
    /// rules included.
    pub(super) definite: bool,
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
/// is Tarjan's flat array in a sweep against the empty model and the
/// memo's chunked one in a resume.
pub(super) fn classify_rules<C: Index<usize, Output = u32> + ?Sized, P: Positions>(
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
pub(super) fn decide_component<C: Index<usize, Output = u32> + ?Sized, P: Positions>(
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

#[cfg(test)]
mod tests {
    use crate::scc::tests::{a, agree_with_global};
    use crate::scc::{ModularEngine, ModularStats};
    use wfdl_core::{AtomId, Truth};
    use wfdl_storage::{GroundProgramBuilder, GroundRule};

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
}
