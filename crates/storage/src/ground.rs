//! Finite ground normal programs — the input to the WFS fixpoint engines.
//!
//! A [`GroundProgram`] is a list of ground rule instances plus facts, with
//! occurrence indexes (which rules have a given atom in their head /
//! positive body / negative body). The chase extracts exactly this
//! structure from a depth-bounded segment of the guarded chase forest, one
//! rule per instance in instance order; the fixpoint engines in `wfdl-wfs`
//! never look at anything else. No constructor searches for repeated
//! rules: `W_P` asks of each atom only whether *some* rule for it fires or
//! stays unblocked, so a rule written twice decides nothing its twin does
//! not.
//!
//! ## Dense local ids and CSR indexes
//!
//! Atoms mentioned by a program are numbered with a contiguous
//! `0..num_atoms()` range of **local ids** (positions in
//! [`GroundProgram::atoms`]), and every index the engines touch in their
//! inner loops is stored in **compressed-sparse-row** form: offsets (`n + 1`
//! entries) over the data they point into, a chunk of rows at a time
//! (`wfdl_core::chunked::RowPool`), so a lookup is two array reads and a
//! slice — no hashing, no per-atom allocation. The
//! `AtomId`-keyed accessors ([`GroundProgram::rules_with_head`] & co.)
//! remain for callers that work with universe ids; the `*_local` twins are
//! the hot-path API used by `wfdl-wfs`.
//!
//! Local ids are **append-only**. Every program is an [`Extension`]: of
//! the program its segment was resumed from, or of the empty program for a
//! cold solve and for [`GroundProgramBuilder::finish`]. The previous atoms
//! keep their local ids and the new ones take the next ids, in `AtomId`
//! order. So a cold program lists its atoms sorted, and a resumed one lists
//! them sorted within each extension. The `AtomId → local id` map is kept
//! on the program ([`GroundProgram::local_id`] is one array read), and an
//! extension clones it like every other inherited array.
//!
//! Facts are held once, as local ids; [`GroundProgram::facts`] maps them
//! back through the atom list.
//!
//! Every array an extension inherits — facts, atoms, the `AtomId → local
//! id` map, the rule arrays and the occurrence rows — is a copy-on-write
//! chunked array (`wfdl_core::chunked`): an extension's clones share the
//! frozen chunks of the program it extends (the first extension of a
//! program built from scratch freezes a copy of it), append to flat tails
//! and rebuild only the chunks they write: those of the map its new atoms
//! land in, and those of the occurrence rows of the atoms its new rules
//! mention ([`RowPool::edit`]). A new rule's id is larger than every old
//! one, so the new entries go at the end of their rows, which keep rule
//! order.
//!
//! ## Which rows exist when
//!
//! Every extension builds the rule arrays (heads, positive and negative
//! bodies, CSR over rules) and the **head rows** (`rules_with_head*`):
//! condensation and rule classification read those on every solve. The
//! **body rows** (`rules_with_pos*` / `rules_with_neg*`) are counted by the
//! first call that reads one, both kinds at once behind a `OnceLock`.
//! A cold solve never asks: the modular engine closes each
//! component over rows of its own. Their readers are
//! [`Extension::finish`] over a program with rules — the first resume
//! after a cold solve counts the previous program's rows once and hands the
//! extension its edited copy already set, so later resumes edit and never
//! count — the resume's forward cone in `wfdl-wfs`, the positive closure
//! of a budget-tripped chase, and the reference engines of
//! `wfdl-reference`.

use std::sync::OnceLock;
use wfdl_core::csr::Csr;
use wfdl_core::{AtomId, BitSet, ChunkVec, Footprint, RowPool};

/// Sentinel for "not mentioned" in [`GroundProgram`]'s `AtomId → local id`
/// map.
const NONE: u32 = u32::MAX;

/// Index of a rule within a [`GroundProgram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundRuleId(u32);

impl GroundRuleId {
    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        GroundRuleId(wfdl_core::dense_u32(i, "ground rule id"))
    }
}

/// A ground normal rule `β1,…,βn, ¬βn+1,…,¬βn+m → α`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroundRule {
    /// Head atom `α = H(r)`.
    pub head: AtomId,
    /// Positive body `B⁺(r)`, deduplicated and sorted.
    pub pos: Box<[AtomId]>,
    /// Negative body `B⁻(r)` (stored un-negated), deduplicated and sorted.
    pub neg: Box<[AtomId]>,
}

impl GroundRule {
    /// Creates a rule, bodies sorted and deduplicated.
    pub fn new(head: AtomId, mut pos: Vec<AtomId>, mut neg: Vec<AtomId>) -> Self {
        pos.sort_unstable();
        pos.dedup();
        neg.sort_unstable();
        neg.dedup();
        GroundRule {
            head,
            pos: pos.into_boxed_slice(),
            neg: neg.into_boxed_slice(),
        }
    }
}

/// Builder of a program from rules and facts in universe ids: it collects
/// the atom set as it goes, and [`GroundProgramBuilder::finish`] hands it
/// all to the [extension](GroundProgram::extension) of the empty program.
/// Every rule it is given is a rule of the program, a repeat included.
#[derive(Clone, Debug, Default)]
pub struct GroundProgramBuilder {
    rules: Vec<GroundRule>,
    facts: Vec<AtomId>,
    fact_set: BitSet,
    atoms: Vec<AtomId>,
    atom_set: BitSet,
}

impl GroundProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an atom to the program's atom set, if it is not there yet. An
    /// atom that no rule heads is unsupported, so the engines make it false
    /// unless it is a fact.
    #[inline]
    pub fn add_atom(&mut self, atom: AtomId) {
        if self.atom_set.insert(atom.index()) {
            self.atoms.push(atom);
        }
    }

    /// Adds a fact (a rule with empty body, kept separately); a repeated
    /// fact is ignored.
    pub fn add_fact(&mut self, atom: AtomId) {
        if self.fact_set.insert(atom.index()) {
            self.facts.push(atom);
            self.add_atom(atom);
        }
    }

    /// Adds a rule. Returns its id.
    pub fn add_rule(&mut self, rule: GroundRule) -> GroundRuleId {
        let id = GroundRuleId::from_index(self.rules.len());
        self.add_atom(rule.head);
        for &b in rule.pos.iter().chain(rule.neg.iter()) {
            self.add_atom(b);
        }
        self.rules.push(rule);
        id
    }

    /// The extension of the empty program by the atoms in id order, then
    /// the facts and then the rules, each in the order they were added.
    pub fn finish(mut self) -> GroundProgram {
        self.atoms.sort_unstable();
        let empty = GroundProgram::default();
        let mut next = empty.extension(self.atoms, Room::default());
        for f in self.facts {
            next.push_fact(f);
        }
        for r in self.rules {
            next.push_rule(r.head, r.pos.iter().copied(), r.neg.iter().copied());
        }
        next.finish()
    }
}

/// An indexed finite ground normal program with dense local atom ids and
/// CSR occurrence indexes.
///
/// Rule structure lives **only** in the flat local-id arrays the fixpoint
/// engines read; the boxed [`GroundRule`] view is materialized on demand
/// by [`GroundProgram::rule`] / [`GroundProgram::rules`] for cold paths
/// (stratified baseline, wcheck cones, tests).
#[derive(Clone, Debug, Default)]
pub struct GroundProgram {
    /// All atoms appearing anywhere (facts, heads, bodies). The **local
    /// id** of an atom is its position here (see the module docs for the
    /// order).
    atoms: ChunkVec<AtomId>,
    /// `local_of[AtomId::index()]` = the atom's local id, or `NONE`; as
    /// long as the largest mentioned id + 1.
    local_of: ChunkVec<u32>,
    /// Facts as local ids.
    facts_local: ChunkVec<u32>,
    /// Rule heads as local ids, one per rule.
    head_local: ChunkVec<u32>,
    /// Positive bodies as local ids, one row per rule.
    pos_local: RowPool<u32>,
    /// Negative bodies as local ids, one row per rule.
    neg_local: RowPool<u32>,
    /// Row `a`: the rules with head `a`, one row per local atom id, in rule
    /// order.
    head_occ: RowPool<GroundRuleId>,
    /// The body occurrence rows, counted by the first reader.
    body_rows: OnceLock<BodyRows>,
}

/// Which rules mention an atom in their body, one row per local atom id,
/// each in rule order. Counted from the rule arrays on first read (see the
/// module docs for who reads them).
#[derive(Clone, Debug)]
struct BodyRows {
    /// Row `a`: the rules with `a` in the positive body.
    pos: RowPool<GroundRuleId>,
    /// Row `a`: the rules with `a` in the negative body.
    neg: RowPool<GroundRuleId>,
}

impl GroundProgram {
    /// Starts the **extension** of this program by `new_atoms`, the one
    /// production construction: the chase grounds a cold segment onto
    /// `GroundProgram::default()` and a resumed one onto the program of the
    /// segment it resumed.
    ///
    /// The previous atoms keep their local ids and `new_atoms` take the
    /// next ones; `new_atoms` must be sorted and none of them mentioned
    /// here, and they become the tail of the extension's atom list. Every
    /// inherited array — the `AtomId → local id` map included — is a clone
    /// that shares this program's frozen chunks: the extension copies only
    /// the chunks it writes, and appends to tails with `room` for the
    /// delta.
    pub fn extension(
        &self,
        new_atoms: impl IntoIterator<Item = AtomId>,
        room: Room,
    ) -> Extension<'_> {
        let (mut atoms, mut local_of) = (self.atoms.clone(), self.local_of.clone());
        atoms.reserve(room.atoms);
        local_of.reserve(room.atom_ids.saturating_sub(local_of.len()));
        let mut last = None;
        for a in new_atoms {
            debug_assert!(
                !self.mentions(a) && last < Some(a),
                "new, in ascending order"
            );
            last = Some(a);
            let local = wfdl_core::dense_u32(atoms.len(), "local atom id");
            if a.index() > local_of.len() {
                local_of.resize(a.index(), NONE);
            }
            if a.index() == local_of.len() {
                local_of.push(local);
            } else {
                local_of[a.index()] = local;
            }
            atoms.push(a);
        }
        let mut next = GroundProgram {
            atoms,
            local_of,
            facts_local: self.facts_local.clone(),
            head_local: self.head_local.clone(),
            pos_local: self.pos_local.clone(),
            neg_local: self.neg_local.clone(),
            ..GroundProgram::default()
        };
        next.facts_local.reserve(room.facts);
        next.head_local.reserve(room.rules);
        next.pos_local.reserve(room.rules, room.pos);
        next.neg_local.reserve(room.rules, room.neg);
        Extension { prev: self, next }
    }

    /// The body occurrence rows, counted on the first call: count,
    /// prefix-sum, fill, each row in rule order.
    fn body_rows(&self) -> &BodyRows {
        self.body_rows.get_or_init(|| {
            let n = self.atoms.len();
            BodyRows {
                pos: occurrence_rows(n, body_entries(&self.pos_local, 0)),
                neg: occurrence_rows(n, body_entries(&self.neg_local, 0)),
            }
        })
    }

    /// The heap bytes of the program's chunked arrays: all it holds, and
    /// the part no other program holds — for an extension, what it copied
    /// or added. The body rows count once counted.
    pub fn footprint(&self) -> Footprint {
        let body = self.body_rows.get();
        [
            self.atoms.footprint(),
            self.local_of.footprint(),
            self.facts_local.footprint(),
            self.head_local.footprint(),
            self.pos_local.footprint(),
            self.neg_local.footprint(),
            self.head_occ.footprint(),
        ]
        .into_iter()
        .chain(body.map(|rows| rows.pos.footprint() + rows.neg.footprint()))
        .sum()
    }

    /// Each rule's head as `(local id, rule)`.
    fn heads(&self) -> impl Iterator<Item = (u32, usize)> + Clone + '_ {
        (self.head_local.iter().copied()).zip(0..)
    }

    /// The rows `old`, one per atom of the program this one extends, as
    /// rows over this program's atoms: shared but for an empty row for
    /// each new atom and the chunks that the new rules' `(atom, rule)`
    /// `entries` (ascending) land in.
    fn extended_rows(
        &self,
        old: &RowPool<GroundRuleId>,
        entries: &[(u32, GroundRuleId)],
    ) -> RowPool<GroundRuleId> {
        let mut rows = old.clone();
        rows.reserve(self.num_atoms() - old.len(), entries.len());
        for _ in old.len()..self.num_atoms() {
            rows.push(std::iter::empty());
        }
        rows.edit(entries);
        rows
    }

    /// The `(head, rule)` entries of the rules from `first` on, by head and
    /// then rule.
    fn head_entries(&self, first: usize) -> Vec<(u32, GroundRuleId)> {
        sorted_entries(self.head_local.iter_from(first).copied().zip(first..))
    }

    /// Iterates the rules as materialized [`GroundRule`]s (allocates two
    /// boxes per rule; cold-path convenience — hot loops read the local-id
    /// CSR arrays directly).
    pub fn rules(&self) -> impl Iterator<Item = GroundRule> + '_ {
        (0..self.num_rules()).map(|r| self.rule(GroundRuleId::from_index(r)))
    }

    /// Materializes a rule by id, bodies in the [`GroundRule`] normal
    /// form (allocates; cold-path convenience).
    pub fn rule(&self, id: GroundRuleId) -> GroundRule {
        let r = id.index();
        let atoms = |locals: &[u32]| locals.iter().map(|&l| self.atom_of_local(l)).collect();
        GroundRule::new(
            self.atom_of_local(self.head_local[r]),
            atoms(self.pos_local(r)),
            atoms(self.neg_local(r)),
        )
    }

    /// The facts, in the order they were added.
    #[inline]
    pub fn facts(&self) -> Facts<'_> {
        Facts {
            locals: self.facts_local.iter(),
            atoms: &self.atoms,
        }
    }

    /// Every atom mentioned by the program. An atom's **local id** is its
    /// position in this slice: the atoms of the program this one extends
    /// come first, then the new ones in id order — so a cold program lists
    /// its atoms sorted.
    #[inline]
    pub fn atoms(&self) -> &ChunkVec<AtomId> {
        &self.atoms
    }

    /// One more than the largest `AtomId` index the program mentions (`0`
    /// for an empty program): the room a per-`AtomId` array over it needs.
    #[inline]
    pub fn atom_id_bound(&self) -> usize {
        self.local_of.len()
    }

    /// True iff `atom` is mentioned by the program.
    #[inline]
    pub fn mentions(&self, atom: AtomId) -> bool {
        self.local_id(atom).is_some()
    }

    /// The dense local id of `atom`, if mentioned (one array read).
    #[inline]
    pub fn local_id(&self, atom: AtomId) -> Option<u32> {
        self.local_of
            .get(atom.index())
            .copied()
            .filter(|&l| l != NONE)
    }

    /// The atom with local id `local`.
    #[inline]
    pub fn atom_of_local(&self, local: u32) -> AtomId {
        self.atoms[local as usize]
    }

    /// Facts as local ids.
    #[inline]
    pub fn facts_local(&self) -> &ChunkVec<u32> {
        &self.facts_local
    }

    /// The head of rule `r` (by dense rule index) as a local id.
    #[inline]
    pub fn head_local(&self, r: usize) -> u32 {
        self.head_local[r]
    }

    /// The positive body of rule `r` as local ids.
    #[inline]
    pub fn pos_local(&self, r: usize) -> &[u32] {
        self.pos_local.row(r)
    }

    /// The negative body of rule `r` as local ids.
    #[inline]
    pub fn neg_local(&self, r: usize) -> &[u32] {
        self.neg_local.row(r)
    }

    /// Rules whose head is `atom`.
    pub fn rules_with_head(&self, atom: AtomId) -> &[GroundRuleId] {
        match self.local_id(atom) {
            Some(l) => self.rules_with_head_local(l),
            None => &[],
        }
    }

    /// Rules with `atom` in their positive body.
    pub fn rules_with_pos(&self, atom: AtomId) -> &[GroundRuleId] {
        match self.local_id(atom) {
            Some(l) => self.rules_with_pos_local(l),
            None => &[],
        }
    }

    /// Rules with `atom` in their negative body.
    pub fn rules_with_neg(&self, atom: AtomId) -> &[GroundRuleId] {
        match self.local_id(atom) {
            Some(l) => self.rules_with_neg_local(l),
            None => &[],
        }
    }

    /// Rules whose head has local id `local`.
    #[inline]
    pub fn rules_with_head_local(&self, local: u32) -> &[GroundRuleId] {
        self.head_occ.row(local as usize)
    }

    /// Rules with local atom `local` in their positive body. The first call
    /// of this or [`GroundProgram::rules_with_neg_local`] counts the body
    /// rows.
    #[inline]
    pub fn rules_with_pos_local(&self, local: u32) -> &[GroundRuleId] {
        self.body_rows().pos.row(local as usize)
    }

    /// Rules with local atom `local` in their negative body (counted on
    /// first read, like the positive rows).
    #[inline]
    pub fn rules_with_neg_local(&self, local: u32) -> &[GroundRuleId] {
        self.body_rows().neg.row(local as usize)
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.head_local.len()
    }

    /// Number of distinct atoms mentioned.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total number of body literals across all rules (a size measure used
    /// in complexity reporting).
    pub fn num_body_literals(&self) -> usize {
        self.pos_local.num_elements() + self.neg_local.num_elements()
    }
}

/// The facts of a [`GroundProgram`], in the order they were added: its
/// local-id facts read through its atom list.
#[derive(Clone, Debug)]
pub struct Facts<'a> {
    locals: wfdl_core::chunked::Iter<'a, u32>,
    atoms: &'a ChunkVec<AtomId>,
}

impl Facts<'_> {
    /// True iff `atom` is one of the facts left (a scan).
    pub fn contains(&self, atom: &AtomId) -> bool {
        self.clone().any(|a| a == atom)
    }
}

impl<'a> Iterator for Facts<'a> {
    type Item = &'a AtomId;

    #[inline]
    fn next(&mut self) -> Option<&'a AtomId> {
        self.locals.next().map(|&l| &self.atoms[l as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.locals.size_hint()
    }
}

impl ExactSizeIterator for Facts<'_> {}

/// Room an [`Extension`] reserves for what is pushed onto it, so that its
/// appends grow each array once.
#[derive(Clone, Copy, Debug, Default)]
pub struct Room {
    /// New atoms, at most.
    pub atoms: usize,
    /// One more than the largest id of a new atom, at most.
    pub atom_ids: usize,
    /// New facts.
    pub facts: usize,
    /// New rules.
    pub rules: usize,
    /// Positive body literals over all new rules.
    pub pos: usize,
    /// Negative body literals over all new rules.
    pub neg: usize,
}

/// A program being extended ([`GroundProgram::extension`]): push the new
/// facts and rules, then [`Extension::finish`].
#[derive(Debug)]
pub struct Extension<'a> {
    prev: &'a GroundProgram,
    /// The inherited arrays with the pushed facts and rules appended; its
    /// occurrence rows are set by `finish`.
    next: GroundProgram,
}

impl Extension<'_> {
    /// Adds a fact. Facts are pushed once each, in insertion order, and
    /// are not facts of the program being extended.
    #[inline]
    pub fn push_fact(&mut self, atom: AtomId) {
        let local = self.next.local_of[atom.index()];
        debug_assert!(local != NONE && !self.prev.facts_local.contains(&local));
        self.next.facts_local.push(local);
    }

    /// Adds a rule, in universe ids; every atom it mentions is mentioned
    /// by the program or is one of the new atoms. Each body is mapped to
    /// local ids, then sorted and deduplicated once. A rule that repeats
    /// another is kept: the engines read each head's rules for whether
    /// *some* rule fires or stays unblocked, which a twin does not change.
    #[inline]
    pub fn push_rule(
        &mut self,
        head: AtomId,
        pos: impl IntoIterator<Item = AtomId>,
        neg: impl IntoIterator<Item = AtomId>,
    ) {
        let next = &mut self.next;
        let local_of = &next.local_of;
        let local = |a: AtomId| {
            debug_assert_ne!(local_of[a.index()], NONE, "rule atom is mentioned");
            local_of[a.index()]
        };
        let (pos, neg) = (pos.into_iter().map(local), neg.into_iter().map(local));
        next.head_local.push(local(head));
        next.pos_local.push_set(pos);
        next.neg_local.push_set(neg);
    }

    /// The extended program: one rule per pushed rule, in push order.
    ///
    /// When the program being extended has no rules (a cold hand-off), the
    /// head rows are counted and the body rows are left to their first
    /// reader. Otherwise all three kinds of row are the old ones
    /// [edited](RowPool::edit) with the new atoms and rules: shared but for
    /// the chunks the new rules land in. The old body rows are counted here
    /// if nothing has read them yet, and the extension receives its rows
    /// already counted.
    pub fn finish(self) -> GroundProgram {
        let Extension { prev, mut next } = self;
        let first = prev.num_rules();
        if first == 0 {
            next.head_occ = occurrence_rows(next.num_atoms(), next.heads());
            return next;
        }
        next.head_occ = next.extended_rows(&prev.head_occ, &next.head_entries(first));
        let old = prev.body_rows();
        let pos = sorted_entries(body_entries(&next.pos_local, first));
        let neg = sorted_entries(body_entries(&next.neg_local, first));
        next.body_rows = OnceLock::from(BodyRows {
            pos: next.extended_rows(&old.pos, &pos),
            neg: next.extended_rows(&old.neg, &neg),
        });
        next
    }
}

/// The occurrence rows over `n` local atoms of the `(atom, rule)` entries,
/// each atom's rules in entry order.
fn occurrence_rows(
    n: usize,
    entries: impl Iterator<Item = (u32, usize)> + Clone,
) -> RowPool<GroundRuleId> {
    let entries = entries.map(|(a, r)| (a, GroundRuleId::from_index(r)));
    RowPool::from_csr(Csr::count(n, entries))
}

/// `(atom, rule)` entries by atom and then rule.
fn sorted_entries(entries: impl Iterator<Item = (u32, usize)>) -> Vec<(u32, GroundRuleId)> {
    let mut sorted: Vec<(u32, GroundRuleId)> = entries
        .map(|(a, r)| (a, GroundRuleId::from_index(r)))
        .collect();
    sorted.sort_unstable();
    sorted
}

/// The `(atom, rule)` entries of the bodies `rows`, from rule `first` on,
/// in rule order.
fn body_entries(
    rows: &RowPool<u32>,
    first: usize,
) -> impl Iterator<Item = (u32, usize)> + Clone + '_ {
    (first..rows.len()).flat_map(move |r| rows.row(r).iter().map(move |&a| (a, r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn a(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    #[test]
    fn builder_keeps_repeated_rules_and_drops_repeated_facts() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_fact(a(0));
        let r1 = b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        let r2 = b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        assert_ne!(r1, r2);
        let p = b.finish();
        assert!(p.facts().eq(&[a(0)]));
        assert_eq!(p.num_rules(), 2);
        assert_eq!(p.rule(r1), p.rule(r2));
        assert_eq!(p.rules_with_head(a(1)), &[r1, r2]);
        assert_eq!(p.rules_with_pos(a(0)), &[r1, r2]);
    }

    #[test]
    fn body_order_is_canonical() {
        let r1 = GroundRule::new(a(9), vec![a(2), a(1), a(2)], vec![]);
        let r2 = GroundRule::new(a(9), vec![a(1), a(2)], vec![]);
        assert_eq!(r1, r2);
    }

    #[test]
    fn occurrence_indexes() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        let r0 = b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(3)]));
        let r1 = b.add_rule(GroundRule::new(a(2), vec![a(0), a(1)], vec![]));
        let p = b.finish();
        assert_eq!(p.rules_with_head(a(1)), &[r0]);
        assert_eq!(p.rules_with_pos(a(0)), &[r0, r1]);
        assert_eq!(p.rules_with_neg(a(3)), &[r0]);
        assert!(p.rules_with_head(a(0)).is_empty());
        assert_eq!(p.num_atoms(), 4);
        assert!(p.mentions(a(3)));
        assert!(!p.mentions(a(7)));
        assert_eq!(p.num_body_literals(), 4);
    }

    #[test]
    fn an_added_atom_takes_its_sorted_local_id_and_heads_nothing() {
        let mut b = GroundProgramBuilder::new();
        b.add_atom(a(7));
        let r0 = b.add_rule(GroundRule::new(a(5), vec![a(3)], vec![a(7)]));
        b.add_atom(a(1));
        b.add_atom(a(3));
        let p = b.finish();
        assert_eq!(p.atoms(), &[a(1), a(3), a(5), a(7)]);
        assert!(p.rules_with_head(a(1)).is_empty());
        assert_eq!(p.rules_with_head(a(5)), &[r0]);
        assert_eq!(p.rules_with_neg(a(7)), &[r0]);
        assert_eq!(p.facts().len(), 0);
    }

    #[test]
    fn local_ids_follow_sorted_atom_order() {
        let mut b = GroundProgramBuilder::new();
        b.add_rule(GroundRule::new(a(20), vec![a(10)], vec![a(30)]));
        b.add_fact(a(40));
        let p = b.finish();
        assert_eq!(p.atoms(), &[a(10), a(20), a(30), a(40)]);
        for (i, &atom) in p.atoms().iter().enumerate() {
            assert_eq!(p.local_id(atom), Some(i as u32));
            assert_eq!(p.atom_of_local(i as u32), atom);
        }
        assert_eq!(p.local_id(a(15)), None);
        assert_eq!(p.local_id(a(1000)), None);
        assert_eq!(p.facts_local(), &[3]);
        assert_eq!(p.head_local(0), 1);
        assert_eq!(p.pos_local(0), &[0]);
        assert_eq!(p.neg_local(0), &[2]);
    }

    #[test]
    fn csr_rows_cover_multi_occurrence_bodies() {
        // a(0) occurs positively in two rules; a(1) negatively in two.
        let mut b = GroundProgramBuilder::new();
        let r0 = b.add_rule(GroundRule::new(a(2), vec![a(0)], vec![a(1)]));
        let r1 = b.add_rule(GroundRule::new(a(3), vec![a(0), a(2)], vec![a(1)]));
        let p = b.finish();
        assert_eq!(p.rules_with_pos(a(0)), &[r0, r1]);
        assert_eq!(p.rules_with_neg(a(1)), &[r0, r1]);
        assert_eq!(p.rules_with_pos(a(2)), &[r1]);
        assert!(p.rules_with_neg(a(3)).is_empty());
    }

    #[test]
    fn body_rows_are_counted_on_first_read_and_edited_after() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        let r0 = b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        let p = b.finish();
        assert!(p.body_rows.get().is_none(), "no constructor counts them");
        assert_eq!(p.rules_with_head(a(1)), &[r0]);
        assert!(p.body_rows.get().is_none(), "head rows are not body rows");

        // The first extension counts its base's rows once and hands its
        // own over already edited.
        let rule = GroundRule::new(a(3), vec![a(1)], vec![a(0)]);
        let q = extend(&p, &[a(3)], &[], &[rule]);
        assert!(p.body_rows.get().is_some());
        assert!(q.body_rows.get().is_some());
        let r1 = GroundRuleId::from_index(1);
        assert_eq!(q.rules_with_pos(a(0)), &[r0]);
        assert_eq!(q.rules_with_pos(a(1)), &[r1]);
        assert_eq!(q.rules_with_neg(a(0)), &[r1]);
        assert_eq!(q.rules_with_neg(a(2)), &[r0]);

        // The extension of the empty program counts its head rows only.
        let cold = extend(&GroundProgram::default(), &[a(0), a(1)], &[a(0)], &[]);
        assert!(cold.body_rows.get().is_none());
    }

    /// `prev` extended by `new_atoms`, the facts `facts` and the rules
    /// `rules`.
    fn extend(
        prev: &GroundProgram,
        new_atoms: &[AtomId],
        facts: &[AtomId],
        rules: &[GroundRule],
    ) -> GroundProgram {
        let mut next = prev.extension(new_atoms.to_vec(), Room::default());
        for &f in facts {
            next.push_fact(f);
        }
        for r in rules {
            next.push_rule(r.head, r.pos.iter().copied(), r.neg.iter().copied());
        }
        next.finish()
    }

    /// The same program through `AtomId`s, whatever the local ids: the atom
    /// set, the facts, every rule and every occurrence row.
    fn assert_same_program(got: &GroundProgram, want: &GroundProgram) -> Result<(), TestCaseError> {
        let mut atoms = got.atoms().to_vec();
        atoms.sort_unstable();
        prop_assert_eq!(want.atoms(), &atoms);
        prop_assert_eq!(got.atom_id_bound(), want.atom_id_bound());
        for (l, &atom) in got.atoms().iter().enumerate() {
            prop_assert_eq!(got.local_id(atom), Some(l as u32));
        }
        prop_assert!(got.facts().eq(want.facts()));
        prop_assert_eq!(got.num_rules(), want.num_rules());
        for r in (0..want.num_rules()).map(GroundRuleId::from_index) {
            prop_assert_eq!(got.rule(r), want.rule(r), "rule {:?}", r);
        }
        for &atom in want.atoms() {
            prop_assert_eq!(got.rules_with_head(atom), want.rules_with_head(atom));
            prop_assert_eq!(got.rules_with_pos(atom), want.rules_with_pos(atom));
            prop_assert_eq!(got.rules_with_neg(atom), want.rules_with_neg(atom));
        }
        Ok(())
    }

    /// One step of a growing program: rules `(head, pos, neg)` and
    /// facts, as atom indices.
    type Step = (Vec<(usize, Vec<usize>, Vec<usize>)>, Vec<usize>);

    fn step(atoms: std::ops::Range<usize>) -> impl Strategy<Value = Step> {
        let body = || proptest::collection::vec(atoms.clone(), 0..3);
        (
            proptest::collection::vec((atoms.clone(), body(), body()), 0..8),
            proptest::collection::vec(atoms.clone(), 0..3),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A chain of extensions equals one from-scratch build of everything
        /// added so far — atoms, facts, rules and every occurrence row,
        /// through `AtomId`s — after each step, and every step keeps the
        /// local ids it extends. Later steps draw atoms from a wider range
        /// and the ids are spread so that new atoms land between, before and
        /// after the old ones; rules repeat old rules and each other, and
        /// every repeat is kept.
        #[test]
        fn extensions_equal_a_from_scratch_build(
            base in step(0..12),
            deltas in proptest::collection::vec(step(0..24), 1..4),
            spread in any::<bool>(),
        ) {
            // Odd-numbered atoms of the wide range get small ids when
            // `spread`, so a delta's new atoms interleave with the old ones.
            let atom = |i: usize| match (spread, i % 2) {
                (true, 1) => a(i / 2),
                (true, _) => a(100 + i),
                (false, _) => a(i),
            };
            let rule = |(h, pos, neg): &(usize, Vec<usize>, Vec<usize>)| {
                let of = |body: &[usize]| body.iter().map(|&i| atom(i)).collect();
                GroundRule::new(atom(*h), of(pos), of(neg))
            };
            let mut scratch = GroundProgramBuilder::new();
            for &f in &base.1 {
                scratch.add_fact(atom(f));
            }
            for r in &base.0 {
                scratch.add_rule(rule(r));
            }
            let mut extended = scratch.clone().finish();
            for (rules, facts) in &deltas {
                let rules: Vec<GroundRule> = rules.iter().map(rule).collect();
                let mut new_facts: Vec<AtomId> = Vec::new();
                for &f in facts {
                    if !extended.facts().any(|&x| x == atom(f)) && !new_facts.contains(&atom(f)) {
                        new_facts.push(atom(f));
                    }
                }
                let mentioned = rules.iter().flat_map(|r| {
                    std::iter::once(r.head).chain(r.pos.iter().copied()).chain(r.neg.iter().copied())
                });
                let mut new_atoms: Vec<AtomId> = (mentioned.chain(new_facts.iter().copied()))
                    .filter(|&x| !extended.mentions(x))
                    .collect();
                new_atoms.sort_unstable();
                new_atoms.dedup();
                let next = extend(&extended, &new_atoms, &new_facts, &rules);
                prop_assert!(next.atoms().iter().take(extended.num_atoms()).eq(extended.atoms()));
                for &f in &new_facts {
                    scratch.add_fact(f);
                }
                for r in rules {
                    scratch.add_rule(r);
                }
                assert_same_program(&next, &scratch.clone().finish())?;
                extended = next;
            }
        }
    }

    #[test]
    fn empty_program_has_empty_indexes() {
        let p = GroundProgramBuilder::new().finish();
        assert_eq!(p.num_atoms(), 0);
        assert_eq!(p.num_rules(), 0);
        assert_eq!(p.facts().len(), 0);
        assert!(p.rules_with_head(a(0)).is_empty());
    }
}
