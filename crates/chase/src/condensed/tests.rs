use super::saturate::Builder;
use super::*;
use crate::instance::SegAtomId;
use crate::paper::example4;
use crate::ChaseBudget;
use std::time::Instant;
use wfdl_core::{AtomId, Universe, Var};
use wfdl_core::{Program, RTerm, RuleAtom, SkolemProgram, SolveBudget, Tgd, TruncationReason};
use wfdl_storage::Database;
use wfdl_storage::GroundProgram;

pub(super) fn v(i: u32) -> RTerm {
    RTerm::Var(Var::new(i))
}

#[test]
fn example4_segment_depth3_matches_figure() {
    let mut u = Universe::new();
    let (db, prog) = example4(&mut u);
    let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
    // The figure shows, up to depth 3: R-chain R(0,0,1), R(0,1,a),
    // R(0,a,b), R(0,b,c); P(0,0), P(0,1), P(0,a), P(0,b);
    // Q(1), Q(a), Q(b); S(0); T(0).
    let labels: Vec<String> = seg
        .atoms()
        .iter()
        .map(|sa| u.display_atom(sa.atom).to_string())
        .collect();
    for expected in ["R(0,0,1)", "P(0,0)", "P(0,1)", "Q(1)", "S(0)", "T(0)"] {
        assert!(
            labels.iter().any(|l| l == expected),
            "missing {expected}; got {labels:?}"
        );
    }
    // The R-chain reaches depth 3.
    assert_eq!(seg.max_depth_reached(), 3);
    // Depth was capped, so the segment must report truncation.
    assert!(!seg.complete);
    // Counts: R: 4 atoms (depths 0..3); P: 4 (0 and children of R-chain
    // at depths 1..3); Q: 3 (depths 1..3); S: 1; T: 1.
    assert_eq!(seg.atoms().len(), 13, "{labels:?}");
}

#[test]
fn example4_levels_and_depths() {
    let mut u = Universe::new();
    let (db, prog) = example4(&mut u);
    let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(2));
    let r = u.lookup_pred("R").unwrap();
    let p = u.lookup_pred("P").unwrap();
    let zero = u.constant("0");
    let one = u.constant("1");
    let r001 = u.atom(r, vec![zero, zero, one]).unwrap();
    let m = seg.meta(r001).unwrap();
    assert_eq!((m.depth, m.level), (0, 0));
    // P(0,1) is derived from R(0,0,1) and P(0,0): depth 1, level 1.
    let p01 = u.atom(p, vec![zero, one]).unwrap();
    let m = seg.meta(p01).unwrap();
    assert_eq!((m.depth, m.level), (1, 1));
    // a = f(0,0,1); P(0,a) needs P(0,1) (level 1) and R(0,1,a) (level 1)
    // so its level is 2, depth 2.
    let f = u
        .lookup_skolem("sk_r1_0")
        .expect("skolem fn named after rule label");
    let a_term = u.skolem_term(f, vec![zero, zero, one]).unwrap();
    let p0a = u.atom(p, vec![zero, a_term]).unwrap();
    let m = seg.meta(p0a).unwrap();
    assert_eq!((m.depth, m.level), (2, 2));
}

#[test]
fn nonexistential_program_completes_unbounded() {
    let mut u = Universe::new();
    let e = u.pred("edge", 2).unwrap();
    let rch = u.pred("reach", 2).unwrap();
    // edge(X,Y) -> reach(X,Y)
    let mut prog = Program::new();
    prog.push(
        Tgd::new(
            &u,
            vec![RuleAtom::new(e, vec![v(0), v(1)])],
            vec![],
            vec![RuleAtom::new(rch, vec![v(0), v(1)])],
        )
        .unwrap(),
    );
    let sk = prog.skolemize(&mut u).unwrap();
    let mut db = Database::new();
    let a = u.constant("a");
    let b = u.constant("b");
    let eab = u.atom(e, vec![a, b]).unwrap();
    db.insert(&u, eab).unwrap();
    let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
    assert!(seg.complete);
    assert_eq!(seg.atoms().len(), 2);
    assert_eq!(seg.num_instances(), 1);
    let gp = seg.to_ground_program();
    assert_eq!(gp.num_rules(), 1);
    assert_eq!(gp.facts().len(), 1);
}

#[test]
fn side_conditions_fire_late() {
    // p(X) -> q(X); q(X), r(X) ... r arrives only via another rule.
    // s(X) -> r(X); q(X) with side condition r(X): use a rule
    // q2(X) guard q(X) with side r(X).
    let mut u = Universe::new();
    let p = u.pred("p", 1).unwrap();
    let q = u.pred("q", 1).unwrap();
    let rr = u.pred("r", 1).unwrap();
    let s = u.pred("s", 1).unwrap();
    let done = u.pred("done", 1).unwrap();
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
    prog.push(
        Tgd::new(
            &u,
            vec![RuleAtom::new(s, vec![v(0)])],
            vec![],
            vec![RuleAtom::new(rr, vec![v(0)])],
        )
        .unwrap(),
    );
    // guard q(X), side r(X) -> done(X)
    prog.push(
        Tgd::new(
            &u,
            vec![RuleAtom::new(q, vec![v(0)]), RuleAtom::new(rr, vec![v(0)])],
            vec![],
            vec![RuleAtom::new(done, vec![v(0)])],
        )
        .unwrap(),
    );
    let sk = prog.skolemize(&mut u).unwrap();
    let mut db = Database::new();
    let c = u.constant("c");
    let pc = u.atom(p, vec![c]).unwrap();
    let sc = u.atom(s, vec![c]).unwrap();
    db.insert(&u, pc).unwrap();
    db.insert(&u, sc).unwrap();
    let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
    let donec = u.atom(done, vec![c]).unwrap();
    assert!(seg.contains(donec), "pending side condition must fire");
    assert!(seg.complete);
    assert_eq!(seg.pending_at_end, 0);
}

#[test]
fn pending_that_never_fires_keeps_segment_complete() {
    let mut u = Universe::new();
    let q = u.pred("q", 1).unwrap();
    let rr = u.pred("r", 1).unwrap();
    let done = u.pred("done", 1).unwrap();
    let mut prog = Program::new();
    prog.push(
        Tgd::new(
            &u,
            vec![RuleAtom::new(q, vec![v(0)]), RuleAtom::new(rr, vec![v(0)])],
            vec![],
            vec![RuleAtom::new(done, vec![v(0)])],
        )
        .unwrap(),
    );
    let sk = prog.skolemize(&mut u).unwrap();
    let mut db = Database::new();
    let c = u.constant("c");
    let qc = u.atom(q, vec![c]).unwrap();
    db.insert(&u, qc).unwrap();
    let seg = ChaseSegment::build(&mut u, &db, &sk, ChaseBudget::unbounded());
    // r(c) never exists, so the instance never fires — but the chase is
    // still complete (nothing was cut off by a budget).
    assert!(seg.complete);
    assert_eq!(seg.pending_at_end, 1);
    assert_eq!(seg.num_instances(), 0);
}

/// A discovery-order-sensitive digest: segment atoms in `SegAtomId`
/// order with metadata, instances in `InstanceId` order with raw body
/// spans. Any divergence in interning or merge order shows up here.
pub(super) fn ordered_digest(u: &Universe, seg: &ChaseSegment) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for sa in seg.atoms() {
        writeln!(
            out,
            "{} d{} l{}",
            u.display_atom(sa.atom),
            sa.depth,
            sa.level
        )
        .unwrap();
    }
    for iid in seg.instance_ids() {
        let pos: Vec<String> = seg
            .pos_seg(iid)
            .iter()
            .map(|&s| s.index().to_string())
            .collect();
        let neg: Vec<String> = seg
            .neg_atoms(iid)
            .iter()
            .map(|&a| u.display_atom(a).to_string())
            .collect();
        writeln!(
            out,
            "r{} g{} h{} [{}] [{}]",
            seg.src_rule(iid),
            seg.guard_seg(iid).index(),
            seg.head_seg(iid).index(),
            pos.join(","),
            neg.join(",")
        )
        .unwrap();
    }
    writeln!(
        out,
        "complete={} pending={}",
        seg.complete, seg.pending_at_end
    )
    .unwrap();
    out
}

#[test]
fn stats_count_rounds_and_frontier() {
    let mut u = Universe::new();
    let (db, prog) = example4(&mut u);
    let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
    let s = seg.stats();
    assert!(s.rounds > 0);
    // Every expanded atom crossed the frontier exactly once.
    assert!(s.frontier_atoms as usize <= seg.atoms().len());
    assert!(s.frontier_atoms > 0);
}

#[test]
fn atom_cap_marks_incomplete() {
    let mut u = Universe::new();
    let (db, prog) = example4(&mut u);
    let seg = ChaseSegment::build(
        &mut u,
        &db,
        &prog,
        ChaseBudget::depth(64).with_max_atoms(10),
    );
    assert!(!seg.complete);
    assert!(seg.atoms().len() <= 10);
    // The dense invariant: every recorded instance's head is a segment
    // atom even when the atom cap truncated the chase.
    for iid in seg.instance_ids() {
        assert!(seg.head_seg(iid).index() < seg.atoms().len());
    }
}

/// Asserts two segments are equal up to discovery order: same atom set
/// with identical depth/level minima, same fact set, same instance
/// multiset, same completeness.
type InstKey = (u32, AtomId, Vec<AtomId>, Vec<AtomId>, AtomId);

pub(super) fn assert_segments_equivalent(u: &Universe, a: &ChaseSegment, b: &ChaseSegment) {
    let key = |seg: &ChaseSegment| {
        let mut atoms: Vec<(AtomId, u32, u32)> = seg
            .atoms()
            .iter()
            .map(|sa| (sa.atom, sa.depth, sa.level))
            .collect();
        atoms.sort_unstable();
        let mut facts: Vec<AtomId> = seg.fact_segs().iter().map(|&f| seg.atom_of(f)).collect();
        facts.sort_unstable();
        let mut insts: Vec<InstKey> = seg
            .instance_ids()
            .map(|i| {
                let inst = seg.instance(i);
                let mut pos: Vec<AtomId> = inst.pos.to_vec();
                pos.sort_unstable();
                let mut neg: Vec<AtomId> = inst.neg.to_vec();
                neg.sort_unstable();
                (inst.src_rule, inst.guard_atom, pos, neg, inst.head)
            })
            .collect();
        insts.sort();
        (atoms, facts, insts, seg.complete)
    };
    let (ka, kb) = (key(a), key(b));
    assert_eq!(ka.0, kb.0, "atom depth/level minima differ");
    assert_eq!(ka.1, kb.1, "fact sets differ");
    assert_eq!(ka.2.len(), kb.2.len(), "instance counts differ");
    assert_eq!(ka.2, kb.2, "instance multisets differ");
    assert_eq!(ka.3, kb.3, "completeness differs");
    let _ = u;
    assert_occurrences_recount(a);
    assert_occurrences_recount(b);
}

/// The occurrence rows a segment answers with — counted on this first
/// read, whether the segment was built fresh or resumed — against a
/// naive recount from its instance arrays: per segment atom, the
/// instances it guards, heads and occurs in (once per instance),
/// ascending.
pub(super) fn assert_occurrences_recount(seg: &ChaseSegment) {
    let n = seg.atoms().len();
    let mut rows = vec![(Vec::new(), Vec::new(), Vec::new()); n];
    for i in seg.instance_ids() {
        rows[seg.guard_seg(i).index()].0.push(i);
        rows[seg.head_seg(i).index()].1.push(i);
        let mut body = seg.pos_seg(i).to_vec();
        body.sort_unstable();
        body.dedup();
        assert_eq!(seg.num_distinct_pos(i) as usize, body.len(), "{i:?}");
        for s in body {
            rows[s.index()].2.push(i);
        }
    }
    for (a, (guard, head, body)) in rows.into_iter().enumerate() {
        let s = SegAtomId::from_index(a);
        assert_eq!(seg.instances_with_guard_seg(s), guard, "guard row {a}");
        assert_eq!(seg.instances_with_head_seg(s), head, "head row {a}");
        assert_eq!(seg.instances_with_body_seg(s), body, "body row {a}");
    }
}

/// Every array two ground programs expose, occurrence rows included.
pub(super) fn assert_ground_programs_identical(scratch: &GroundProgram, extended: &GroundProgram) {
    assert_eq!(scratch.atoms(), extended.atoms());
    assert!(scratch.facts().eq(extended.facts()));
    assert_eq!(scratch.facts_local(), extended.facts_local());
    assert_eq!(scratch.num_rules(), extended.num_rules());
    for r in 0..scratch.num_rules() {
        assert_eq!(scratch.head_local(r), extended.head_local(r), "rule {r}");
        assert_eq!(scratch.pos_local(r), extended.pos_local(r), "rule {r}");
        assert_eq!(scratch.neg_local(r), extended.neg_local(r), "rule {r}");
    }
    for l in 0..scratch.num_atoms() as u32 {
        assert_eq!(
            scratch.rules_with_head_local(l),
            extended.rules_with_head_local(l)
        );
        assert_eq!(
            scratch.rules_with_pos_local(l),
            extended.rules_with_pos_local(l)
        );
        assert_eq!(
            scratch.rules_with_neg_local(l),
            extended.rules_with_neg_local(l)
        );
    }
}

#[test]
fn depth_truncation_reports_depth_cap() {
    let mut u = Universe::new();
    let (db, prog) = example4(&mut u);
    let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
    assert!(!seg.complete);
    assert_eq!(seg.truncation(), Some(TruncationReason::DepthCap));
    assert!(seg.can_resume(), "depth truncation stays resumable");
}

#[test]
fn expired_deadline_trips_before_first_round() {
    let mut u = Universe::new();
    let (db, prog) = example4(&mut u);
    let solve =
        SolveBudget::unlimited().with_deadline(Instant::now() - std::time::Duration::from_secs(1));
    let seg = ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
    assert!(!seg.complete);
    assert_eq!(seg.truncation(), Some(TruncationReason::Deadline));
    assert_eq!(seg.stats().rounds, 0, "tripped before any round ran");
    // Facts are registered even when the deadline trips immediately.
    assert_eq!(seg.num_facts(), db.facts().len());
    assert!(seg.can_resume(), "deadline trips stop at a clean boundary");
}

#[test]
fn mem_budget_trips_on_tiny_limit() {
    let mut u = Universe::new();
    let (db, prog) = example4(&mut u);
    let solve = SolveBudget::unlimited().with_mem_limit(1);
    let seg = ChaseSegment::build_budgeted(&mut u, &db, &prog, ChaseBudget::depth(4), &solve);
    assert!(!seg.complete);
    assert_eq!(seg.truncation(), Some(TruncationReason::MemBudget));
    assert!(seg.can_resume());
}

/// Rules `b1(X), …, bn(X) -> h(X)` over unary predicates, in order; the
/// first body atom is the guard.
pub(super) fn unary_program(u: &mut Universe, rules: &[(&[&str], &str)]) -> SkolemProgram {
    let mut prog = Program::new();
    for (body, head) in rules {
        let atom = |u: &mut Universe, p: &str| RuleAtom::new(u.pred(p, 1).unwrap(), vec![v(0)]);
        let body = body.iter().map(|p| atom(u, p)).collect();
        let head = vec![atom(u, head)];
        prog.push(Tgd::new(u, body, vec![], head).unwrap());
    }
    prog.skolemize(u).unwrap()
}

pub(super) fn unary_atom(u: &mut Universe, pred: &str, constant: &str) -> AtomId {
    let (p, c) = (u.pred(pred, 1).unwrap(), u.constant(constant));
    u.atom(p, vec![c]).unwrap()
}

/// A parked instance that fires late lowers its head's level, and an
/// instance already fired with that head in its body follows.
pub(super) const LATE_FIRE_LOWERS_A_LEVEL: &[(&[&str], &str)] = &[
    (&["a"], "b"),      // b(c): level 1
    (&["a", "b"], "c"), // c(c): level 2
    (&["a", "c"], "h"), // h(c): level 3 …
    (&["a", "h"], "k"), // … and k(c): level 4, all while a(c) expands
    (&["g", "r"], "h"), // parked on r(c); fires at level 2
    (&["s"], "r"),      // r(c): level 1, once s(c) expands
    (&["n", "h"], "k2"),
];

#[test]
fn mem_bytes_counts_every_growable_pool() {
    use std::mem::size_of;
    // Parked instances and a relaxation (so the index exists): every
    // pool below is in use.
    let mut u = Universe::new();
    let sk = unary_program(&mut u, LATE_FIRE_LOWERS_A_LEVEL);
    let facts: Vec<AtomId> = (0..200)
        .flat_map(|i| ["a", "g", "s"].map(|p| (p, i)))
        .map(|(p, i)| unary_atom(&mut u, p, &format!("c{i}")))
        .collect();
    let empty = ChaseSegment::empty(ChaseBudget::unbounded());
    let mut b = Builder::new(&mut u, &sk, &empty, SolveBudget::unlimited());
    let before = b.mem_bytes();
    for &f in &facts {
        b.add_fact(f);
    }
    b.drain();
    assert!(b.stats.relaxations > 0);
    assert!(!b.resume.pending.is_empty());
    let lists = b.body_lists.as_ref().expect("seeded by the relaxation");
    let by_hand = b.forest.atoms.heap_bytes()
        + b.forest.seg_of.heap_bytes()
        + b.forest.fact_seg.heap_bytes()
        + b.resume.fact_set.heap_bytes()
        + b.forest.inst_src_rule.heap_bytes()
        + b.forest.inst_guard.heap_bytes()
        + b.forest.inst_head.heap_bytes()
        + b.forest.pos.heap_bytes()
        + b.forest.neg.heap_bytes()
        + b.resume.expanded.heap_bytes()
        + (lists.head.capacity() + lists.tail.capacity()) * 4
        + (lists.next.capacity() + lists.inst.capacity()) * 4
        + b.resume.watch_head.heap_bytes()
        + b.resume.watch_tail.heap_bytes()
        + b.resume.watch_next.heap_bytes()
        + b.resume.watch_pend.heap_bytes()
        + b.resume.pending.heap_bytes()
        + b.resume.pend_pos.heap_bytes()
        + b.resume.pend_neg.heap_bytes()
        + (b.resume.expand_queue.capacity() + b.relax_queue.capacity()) * 4
        + b.relaxed.capacity() * 4
        + b.frontier.capacity() * 4;
    assert_eq!(b.mem_bytes(), by_hand);
    assert!(by_hand > before + facts.len() * size_of::<SegmentAtom>());
}
