//! Finite ground normal programs — the input to the WFS fixpoint engines.
//!
//! A [`GroundProgram`] is a deduplicated set of ground rule instances plus
//! facts, with occurrence indexes (which rules have a given atom in their
//! head / positive body / negative body). The chase extracts exactly this
//! structure from a depth-bounded segment of the guarded chase forest; the
//! fixpoint engines in `wfdl-wfs` never look at anything else.
//!
//! ## Dense local ids and CSR indexes
//!
//! Atoms mentioned by a program are renumbered into a contiguous
//! `0..num_atoms()` range of **local ids** (position in the sorted
//! [`GroundProgram::atoms`] list), and every index the engines touch in
//! their inner loops is stored in **compressed-sparse-row** form: one flat
//! offsets array (`n + 1` entries) plus one flat data array, so a lookup is
//! two array reads and a slice — no hashing, no per-atom allocation. The
//! `AtomId`-keyed accessors ([`GroundProgram::rules_with_head`] & co.)
//! remain for callers that work with universe ids; the `*_local` twins are
//! the hot-path API used by `wfdl-wfs`.
//!
//! ## Which rows exist when
//!
//! Every constructor builds the rule arrays (heads, positive and negative
//! bodies, CSR over rules) and the **head rows** (`rules_with_head*`):
//! condensation and rule classification read those on every solve. The
//! **body rows** (`rules_with_pos*` / `rules_with_neg*`) are counted by the
//! first call that reads one, all four arrays at once behind a `OnceLock`.
//! A cold solve never asks: the modular engine closes each
//! component over rows of its own. Their readers are
//! [`GroundProgram::extend_with`] — the first resume after a cold solve
//! counts the previous program's rows once and hands the extension its
//! spliced copy already set, so later resumes splice and never count —
//! the resume's forward cone in `wfdl-wfs`, the positive closure of a
//! budget-tripped chase, and the reference engines of `wfdl-reference`.

use std::sync::OnceLock;
use wfdl_core::csr::{self, RowEdits};
use wfdl_core::{AtomId, BitSet, FxHashMap};

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
    /// Creates a rule, normalizing the body atom order for deduplication.
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

/// Builder that deduplicates rules and facts, accumulating the atom set as
/// it goes so [`GroundProgramBuilder::finish`] indexes in a single pass.
#[derive(Clone, Debug, Default)]
pub struct GroundProgramBuilder {
    rules: Vec<GroundRule>,
    seen: FxHashMap<GroundRule, GroundRuleId>,
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

    #[inline]
    fn register_atom(&mut self, atom: AtomId) {
        if self.atom_set.insert(atom.index()) {
            self.atoms.push(atom);
        }
    }

    /// Adds a fact (a rule with empty body, kept separately).
    pub fn add_fact(&mut self, atom: AtomId) {
        if self.fact_set.insert(atom.index()) {
            self.facts.push(atom);
            self.register_atom(atom);
        }
    }

    /// Adds a rule instance; duplicates are ignored. Returns its id.
    pub fn add_rule(&mut self, rule: GroundRule) -> GroundRuleId {
        if let Some(&id) = self.seen.get(&rule) {
            return id;
        }
        let id = GroundRuleId::from_index(self.rules.len());
        self.register_atom(rule.head);
        for i in 0..rule.pos.len() {
            self.register_atom(rule.pos[i]);
        }
        for i in 0..rule.neg.len() {
            self.register_atom(rule.neg[i]);
        }
        self.seen.insert(rule.clone(), id);
        self.rules.push(rule);
        id
    }

    /// Number of distinct rules so far.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Finalizes into an indexed program. The atom set accumulated during
    /// building is carried forward, so this is one pass over the rules.
    pub fn finish(self) -> GroundProgram {
        GroundProgram::from_parts(self.rules, self.facts, self.atoms)
    }
}

/// An indexed, deduplicated finite ground normal program with dense local
/// atom ids and CSR occurrence indexes.
///
/// Rule structure lives **only** in the flat local-id arrays the fixpoint
/// engines read; the boxed [`GroundRule`] view is materialized on demand
/// by [`GroundProgram::rule`] / [`GroundProgram::rules`] for cold paths
/// (stratified baseline, wcheck cones, tests).
#[derive(Clone, Debug, Default)]
pub struct GroundProgram {
    facts: Vec<AtomId>,
    /// All atoms appearing anywhere (facts, heads, bodies), sorted. The
    /// **local id** of an atom is its position here; `AtomId`-keyed
    /// lookups binary-search this list (hot loops use local ids only).
    atoms: Vec<AtomId>,
    /// Facts as local ids.
    facts_local: Vec<u32>,
    /// Rule heads as local ids, one per rule.
    head_local: Vec<u32>,
    /// Positive bodies as local ids, CSR over rules.
    pos_off: Vec<u32>,
    pos_local: Vec<u32>,
    /// Negative bodies as local ids, CSR over rules.
    neg_off: Vec<u32>,
    neg_local: Vec<u32>,
    /// `head_occ(a)` = rules with head `a`, CSR over local atom ids.
    head_occ_off: Vec<u32>,
    head_occ: Vec<GroundRuleId>,
    /// The body occurrence rows, counted by the first reader.
    body_rows: OnceLock<BodyRows>,
}

/// Which rules mention an atom in their body, CSR over local atom ids,
/// each row in rule order. Counted from the rule arrays on first read (see
/// the module docs for who reads them).
#[derive(Clone, Debug)]
struct BodyRows {
    /// `pos(a)` = rules with `a` in the positive body.
    pos_off: Vec<u32>,
    pos: Vec<GroundRuleId>,
    /// `neg(a)` = rules with `a` in the negative body.
    neg_off: Vec<u32>,
    neg: Vec<GroundRuleId>,
}

impl GroundProgram {
    /// Builds the indexes for a set of rules and facts, collecting the atom
    /// set first. Prefer [`GroundProgramBuilder`], which accumulates the
    /// atom set while deduplicating and skips this extra pass.
    pub fn build(rules: Vec<GroundRule>, facts: Vec<AtomId>) -> Self {
        let mut atoms = Vec::new();
        let mut atom_set = BitSet::new();
        let register = |atom: AtomId, atoms: &mut Vec<AtomId>, set: &mut BitSet| {
            if set.insert(atom.index()) {
                atoms.push(atom);
            }
        };
        for &f in &facts {
            register(f, &mut atoms, &mut atom_set);
        }
        for rule in &rules {
            register(rule.head, &mut atoms, &mut atom_set);
            for &b in rule.pos.iter() {
                register(b, &mut atoms, &mut atom_set);
            }
            for &b in rule.neg.iter() {
                register(b, &mut atoms, &mut atom_set);
            }
        }
        GroundProgram::from_parts(rules, facts, atoms)
    }

    /// Indexes a program over an explicitly-given atom universe. `atoms`
    /// must contain every atom mentioned by `rules` and `facts` (it may
    /// contain more — extra atoms simply head no rules, so the engines
    /// treat them as unsupported). `wfdl-wfs` used to assemble one
    /// sub-program per recursive component this way (the universe then
    /// includes atoms whose rules were all eliminated by substitution); it
    /// evaluates components in place now, and this constructor is kept as
    /// the reference construction of `tests/component_oracle.rs`.
    pub fn build_with_atom_universe(
        rules: Vec<GroundRule>,
        facts: Vec<AtomId>,
        atoms: Vec<AtomId>,
    ) -> Self {
        GroundProgram::from_parts(rules, facts, atoms)
    }

    /// Indexes a program whose atom set is already collected. Cost scales
    /// with the program itself (`O(size · log n)`), never with the size of
    /// the surrounding atom universe. (The modular engine no longer builds
    /// a throw-away sub-program per recursive component; small programs
    /// indexed in bulk are a test-oracle pattern now.)
    fn from_parts(rules: Vec<GroundRule>, facts: Vec<AtomId>, mut atoms: Vec<AtomId>) -> Self {
        atoms.sort_unstable();
        atoms.dedup();
        // Callers pass an atom list collected from these same rules and
        // facts, so the search cannot miss.
        #[allow(clippy::expect_used)]
        let local =
            |a: AtomId| -> u32 { atoms.binary_search(&a).expect("atom in universe") as u32 };

        let facts_local: Vec<u32> = facts.iter().map(|&f| local(f)).collect();

        // Rule structure in local ids (CSR over rules).
        let num_rules = rules.len();
        let mut head_local = Vec::with_capacity(num_rules);
        let mut pos_off = Vec::with_capacity(num_rules + 1);
        let mut neg_off = Vec::with_capacity(num_rules + 1);
        let mut pos_local = Vec::new();
        let mut neg_local = Vec::new();
        pos_off.push(0);
        neg_off.push(0);
        for rule in &rules {
            head_local.push(local(rule.head));
            pos_local.extend(rule.pos.iter().map(|&b| local(b)));
            neg_local.extend(rule.neg.iter().map(|&b| local(b)));
            pos_off.push(pos_local.len() as u32);
            neg_off.push(neg_local.len() as u32);
        }

        let rows = head_rows(atoms.len(), &head_local);
        GroundProgram::finish_with_locals(
            facts,
            atoms,
            facts_local,
            head_local,
            pos_off,
            pos_local,
            neg_off,
            neg_local,
            rows,
        )
    }

    /// Constructs a program **directly from dense local-id arrays**, the
    /// hash-free handoff used by `wfdl-chase` when translating a saturated
    /// segment: the caller already knows every atom's local id, so indexing
    /// is pure counting-sort array work — no hash probe and no binary
    /// search per atom occurrence anywhere on this path.
    ///
    /// The rules are **candidates**: a rule equal to an earlier one is
    /// dropped, so the program keeps first occurrences in the order given
    /// (what [`GroundProgramBuilder`] does with a hash set). Two equal
    /// rules share a head, so the search stays inside the rows of the head
    /// index this constructor builds anyway; heads with one rule — nearly
    /// all of them — cost nothing, and the index is built a second time
    /// only when a duplicate was found.
    ///
    /// Contract (checked by `debug_assert`s): `atoms` is sorted and
    /// deduplicated; every local id is `< atoms.len()`; `pos_off`/`neg_off`
    /// are CSR offset arrays over `head_local.len()` rules; per-rule body
    /// slices are sorted and deduplicated (the [`GroundRule`] normal form).
    #[allow(clippy::too_many_arguments)]
    pub fn from_dense_parts(
        atoms: Vec<AtomId>,
        facts: Vec<AtomId>,
        facts_local: Vec<u32>,
        mut head_local: Vec<u32>,
        mut pos_off: Vec<u32>,
        mut pos_local: Vec<u32>,
        mut neg_off: Vec<u32>,
        mut neg_local: Vec<u32>,
    ) -> Self {
        debug_assert!(atoms.windows(2).all(|w| w[0] < w[1]), "atoms sorted+dedup");
        debug_assert_eq!(pos_off.len(), head_local.len() + 1);
        debug_assert_eq!(neg_off.len(), head_local.len() + 1);
        #[cfg(debug_assertions)]
        for r in 0..head_local.len() {
            debug_assert!((head_local[r] as usize) < atoms.len(), "local id in range");
            let pos_slice = &pos_local[pos_off[r] as usize..pos_off[r + 1] as usize];
            let neg_slice = &neg_local[neg_off[r] as usize..neg_off[r + 1] as usize];
            debug_assert!(pos_slice.iter().all(|&l| (l as usize) < atoms.len()));
            debug_assert!(neg_slice.iter().all(|&l| (l as usize) < atoms.len()));
            debug_assert!(pos_slice.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(neg_slice.windows(2).all(|w| w[0] < w[1]));
        }
        let (mut head_occ_off, mut head_occ) = head_rows(atoms.len(), &head_local);

        let body = |r: GroundRuleId| {
            let r = r.index();
            (
                &pos_local[pos_off[r] as usize..pos_off[r + 1] as usize],
                &neg_local[neg_off[r] as usize..neg_off[r + 1] as usize],
            )
        };
        let mut dropped = BitSet::new();
        let mut row: Vec<GroundRuleId> = Vec::new();
        for a in 0..atoms.len() {
            let (start, end) = (head_occ_off[a] as usize, head_occ_off[a + 1] as usize);
            if end - start < 2 {
                continue;
            }
            // Order the head's rules by body, ties by index: equal rules
            // end up adjacent, the first occurrence in front.
            row.clear();
            row.extend_from_slice(&head_occ[start..end]);
            row.sort_unstable_by(|&x, &y| body(x).cmp(&body(y)).then(x.cmp(&y)));
            for w in row.windows(2) {
                if body(w[0]) == body(w[1]) {
                    dropped.insert(w[1].index());
                }
            }
        }
        if !dropped.is_empty() {
            let kept = head_local.len() - dropped.len();
            let mut h = Vec::with_capacity(kept);
            let mut po = Vec::with_capacity(kept + 1);
            let mut pl = Vec::new();
            let mut no = Vec::with_capacity(kept + 1);
            let mut nl = Vec::new();
            po.push(0u32);
            no.push(0u32);
            for r in (0..head_local.len()).filter(|&r| !dropped.contains(r)) {
                h.push(head_local[r]);
                pl.extend_from_slice(&pos_local[pos_off[r] as usize..pos_off[r + 1] as usize]);
                po.push(pl.len() as u32);
                nl.extend_from_slice(&neg_local[neg_off[r] as usize..neg_off[r + 1] as usize]);
                no.push(nl.len() as u32);
            }
            (head_local, pos_off, pos_local, neg_off, neg_local) = (h, po, pl, no, nl);
            (head_occ_off, head_occ) = head_rows(atoms.len(), &head_local);
        }
        GroundProgram::finish_with_locals(
            facts,
            atoms,
            facts_local,
            head_local,
            pos_off,
            pos_local,
            neg_off,
            neg_local,
            (head_occ_off, head_occ),
        )
    }

    /// Extends this program with newly-discovered atoms, facts and rule
    /// instances — the **incremental grounding** path used after a resumed
    /// chase, where re-translating the untouched bulk of the program would
    /// dominate the whole re-solve.
    ///
    /// Contract (the chase upholds it): `new_atoms` is sorted, deduplicated
    /// and disjoint from [`GroundProgram::atoms`]; `new_facts` are the
    /// facts appended after this program's facts, in insertion order;
    /// `new_rules` are the candidate instances discovered after this
    /// program's rules, in discovery order, mentioning only known atoms.
    /// Duplicate candidates (of existing rules or of each other) are
    /// dropped, preserving the first-occurrence semantics of a from-scratch
    /// build — the result is **identical** to re-grounding the grown
    /// segment from scratch, with this program's atoms a subset of its
    /// atoms and this program's rules and facts a prefix of its rules and
    /// facts.
    ///
    /// Cost: **copy + O(delta)**. Every inherited array is copied once —
    /// a plain `memcpy` when every new atom id exceeds the old maximum (the
    /// common case: a resumed chase interns its atoms after the old ones),
    /// one monotone remap pass otherwise — and the three occurrence CSRs
    /// are [spliced](wfdl_core::csr::splice) from this program's with the
    /// new rules only. Nothing is recounted, sorted or hashed outside the
    /// delta — except this program's body rows, if nothing has read them
    /// yet (a cold solve does not): they are counted here once, and the
    /// extension receives its spliced rows already counted.
    pub fn extend_with(
        &self,
        new_atoms: &[AtomId],
        new_facts: &[AtomId],
        new_rules: &[GroundRule],
    ) -> GroundProgram {
        debug_assert!(new_atoms.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(new_atoms.iter().all(|a| !self.mentions(*a)));
        let old_n = self.atoms.len();

        // Merge the sorted atom lists. `inserted` are the new atoms' local
        // ids; an old local `l` moves up by the number of new atoms before
        // it — by nothing at all when the new atoms all come last.
        let appended = new_atoms.first() > self.atoms.last();
        let mut atoms = Vec::with_capacity(old_n + new_atoms.len());
        let mut inserted: Vec<u32> = Vec::with_capacity(new_atoms.len());
        let mut shift: Vec<u32> = Vec::new();
        if appended || new_atoms.is_empty() {
            atoms.extend_from_slice(&self.atoms);
            atoms.extend_from_slice(new_atoms);
            inserted.extend(old_n as u32..atoms.len() as u32);
        } else {
            shift.reserve(old_n);
            let (mut i, mut j) = (0usize, 0usize);
            while i < old_n || j < new_atoms.len() {
                if j >= new_atoms.len() || (i < old_n && self.atoms[i] < new_atoms[j]) {
                    shift.push(j as u32);
                    atoms.push(self.atoms[i]);
                    i += 1;
                } else {
                    inserted.push(atoms.len() as u32);
                    atoms.push(new_atoms[j]);
                    j += 1;
                }
            }
        }
        let remap = |l: u32| shift.get(l as usize).map_or(l, |s| l + s);
        // An inherited local-id array with room for `extra` more entries.
        let remapped = |locals: &[u32], extra: usize| -> Vec<u32> {
            let mut out = Vec::with_capacity(locals.len() + extra);
            if shift.is_empty() {
                out.extend_from_slice(locals);
            } else {
                out.extend(locals.iter().map(|&l| remap(l)));
            }
            out
        };
        // `atoms` was just rebuilt as the union of old and delta atom
        // sets, so every mentioned atom is present.
        #[allow(clippy::expect_used)]
        let local =
            |a: AtomId| -> u32 { atoms.binary_search(&a).expect("atom is mentioned") as u32 };

        // Existing rule arrays (offsets and rule order unchanged; bodies
        // stay sorted because the remap is monotone).
        let num_old_rules = self.head_local.len();
        let extra = new_rules.len();
        let body_lits = |body: fn(&GroundRule) -> &[AtomId]| -> usize {
            new_rules.iter().map(|r| body(r).len()).sum()
        };
        let mut head_local = remapped(&self.head_local, extra);
        let mut pos_off = Vec::with_capacity(self.pos_off.len() + extra);
        pos_off.extend_from_slice(&self.pos_off);
        let mut neg_off = Vec::with_capacity(self.neg_off.len() + extra);
        neg_off.extend_from_slice(&self.neg_off);
        let mut pos_local = remapped(&self.pos_local, body_lits(|r| &r.pos));
        let mut neg_local = remapped(&self.neg_local, body_lits(|r| &r.neg));

        // Append the new rules, dropping duplicates. A candidate can only
        // duplicate a rule with the same head, so the existing per-head
        // occurrence row (remapped on the fly) plus a scan of the newly
        // kept rules with that head bounds the comparison work.
        let mut scratch_pos: Vec<u32> = Vec::new();
        let mut scratch_neg: Vec<u32> = Vec::new();
        // `(local atom, rule)` per occurrence of a kept rule.
        let mut occurs: [Vec<(u32, GroundRuleId)>; 3] = Default::default();
        'candidates: for rule in new_rules {
            let h = local(rule.head);
            scratch_pos.clear();
            scratch_pos.extend(rule.pos.iter().map(|&a| local(a)));
            scratch_neg.clear();
            scratch_neg.extend(rule.neg.iter().map(|&a| local(a)));
            // vs. existing rules with this head (old ids still valid —
            // old heads keep their rule indexes).
            if let Some(old_h) = self.atoms.binary_search(&rule.head).ok().map(|l| l as u32) {
                for &rid in self.rules_with_head_local(old_h) {
                    let r = rid.index();
                    let (pos, neg) = (self.pos_local(r), self.neg_local(r));
                    if pos.len() == scratch_pos.len()
                        && neg.len() == scratch_neg.len()
                        && pos.iter().zip(&scratch_pos).all(|(&l, &n)| remap(l) == n)
                        && neg.iter().zip(&scratch_neg).all(|(&l, &n)| remap(l) == n)
                    {
                        continue 'candidates;
                    }
                }
            }
            // vs. rules appended earlier in this call.
            for r in num_old_rules..head_local.len() {
                if head_local[r] != h {
                    continue;
                }
                let pos = &pos_local[pos_off[r] as usize..pos_off[r + 1] as usize];
                let neg = &neg_local[neg_off[r] as usize..neg_off[r + 1] as usize];
                if pos == scratch_pos.as_slice() && neg == scratch_neg.as_slice() {
                    continue 'candidates;
                }
            }
            let id = GroundRuleId::from_index(head_local.len());
            occurs[0].push((h, id));
            occurs[1].extend(scratch_pos.iter().map(|&b| (b, id)));
            occurs[2].extend(scratch_neg.iter().map(|&b| (b, id)));
            head_local.push(h);
            pos_local.extend_from_slice(&scratch_pos);
            pos_off.push(pos_local.len() as u32);
            neg_local.extend_from_slice(&scratch_neg);
            neg_off.push(neg_local.len() as u32);
        }

        let mut facts = Vec::with_capacity(self.facts.len() + new_facts.len());
        facts.extend_from_slice(&self.facts);
        facts.extend_from_slice(new_facts);
        let mut facts_local = remapped(&self.facts_local, new_facts.len());
        facts_local.extend(new_facts.iter().map(|&f| local(f)));

        // Occurrence rows: the old ones with the new atoms' rows slotted in
        // and the kept rules appended (their ids exceed every old one).
        let body = self.body_rows();
        let olds = [
            (&self.head_occ_off, &self.head_occ),
            (&body.pos_off, &body.pos),
            (&body.neg_off, &body.neg),
        ];
        let [(head_occ_off, head_occ), (pos_rows_off, pos_rows), (neg_rows_off, neg_rows)] =
            std::array::from_fn(|k| {
                occurs[k].sort_unstable();
                let edits = RowEdits {
                    inserted: &inserted,
                    added: &occurs[k],
                    ..RowEdits::default()
                };
                csr::splice(olds[k].0, olds[k].1, &edits)
            });
        GroundProgram {
            facts,
            atoms,
            facts_local,
            head_local,
            pos_off,
            pos_local,
            neg_off,
            neg_local,
            head_occ_off,
            head_occ,
            body_rows: OnceLock::from(BodyRows {
                pos_off: pos_rows_off,
                pos: pos_rows,
                neg_off: neg_rows_off,
                neg: neg_rows,
            }),
        }
    }

    /// Shared tail of all constructors: given ready-made local-id rule
    /// arrays and their head index ([`head_rows`]), assembles the program.
    /// The body rows are left to their first reader.
    #[allow(clippy::too_many_arguments)]
    fn finish_with_locals(
        facts: Vec<AtomId>,
        atoms: Vec<AtomId>,
        facts_local: Vec<u32>,
        head_local: Vec<u32>,
        pos_off: Vec<u32>,
        pos_local: Vec<u32>,
        neg_off: Vec<u32>,
        neg_local: Vec<u32>,
        (head_occ_off, head_occ): (Vec<u32>, Vec<GroundRuleId>),
    ) -> Self {
        let mut prog = GroundProgram {
            facts,
            atoms,
            facts_local,
            head_local,
            pos_off,
            pos_local,
            neg_off,
            neg_local,
            head_occ_off,
            head_occ,
            body_rows: OnceLock::new(),
        };
        prog.shrink_to_fit();
        prog
    }

    /// The body occurrence rows, counted on the first call: count,
    /// prefix-sum, fill, each row in rule order.
    fn body_rows(&self) -> &BodyRows {
        self.body_rows.get_or_init(|| {
            let n = self.atoms.len();
            let (pos_off, pos) = body_rows(n, &self.pos_off, &self.pos_local);
            let (neg_off, neg) = body_rows(n, &self.neg_off, &self.neg_local);
            BodyRows {
                pos_off,
                pos,
                neg_off,
                neg,
            }
        })
    }

    /// Releases over-allocated capacity on every index array.
    fn shrink_to_fit(&mut self) {
        self.facts.shrink_to_fit();
        self.atoms.shrink_to_fit();
        self.facts_local.shrink_to_fit();
        self.head_local.shrink_to_fit();
        self.pos_off.shrink_to_fit();
        self.pos_local.shrink_to_fit();
        self.neg_off.shrink_to_fit();
        self.neg_local.shrink_to_fit();
        self.head_occ_off.shrink_to_fit();
        self.head_occ.shrink_to_fit();
    }

    /// Iterates the rules as materialized [`GroundRule`]s (allocates two
    /// boxes per rule; cold-path convenience — hot loops read the local-id
    /// CSR arrays directly).
    pub fn rules(&self) -> impl Iterator<Item = GroundRule> + '_ {
        (0..self.num_rules()).map(|r| self.rule(GroundRuleId::from_index(r)))
    }

    /// Materializes a rule by id (allocates; cold-path convenience).
    pub fn rule(&self, id: GroundRuleId) -> GroundRule {
        let r = id.index();
        let atom_of = |l: &u32| self.atoms[*l as usize];
        GroundRule {
            head: atom_of(&self.head_local[r]),
            pos: self.pos_local[self.pos_off[r] as usize..self.pos_off[r + 1] as usize]
                .iter()
                .map(atom_of)
                .collect(),
            neg: self.neg_local[self.neg_off[r] as usize..self.neg_off[r + 1] as usize]
                .iter()
                .map(atom_of)
                .collect(),
        }
    }

    /// The facts.
    #[inline]
    pub fn facts(&self) -> &[AtomId] {
        &self.facts
    }

    /// Every atom mentioned by the program, sorted by id. An atom's
    /// **local id** is its position in this slice.
    #[inline]
    pub fn atoms(&self) -> &[AtomId] {
        &self.atoms
    }

    /// True iff `atom` is mentioned by the program.
    #[inline]
    pub fn mentions(&self, atom: AtomId) -> bool {
        self.atoms.binary_search(&atom).is_ok()
    }

    /// The dense local id of `atom`, if mentioned (binary search; hot
    /// loops work in local ids and never call this).
    #[inline]
    pub fn local_id(&self, atom: AtomId) -> Option<u32> {
        self.atoms.binary_search(&atom).ok().map(|i| i as u32)
    }

    /// The atom with local id `local`.
    #[inline]
    pub fn atom_of_local(&self, local: u32) -> AtomId {
        self.atoms[local as usize]
    }

    /// Facts as local ids.
    #[inline]
    pub fn facts_local(&self) -> &[u32] {
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
        &self.pos_local[self.pos_off[r] as usize..self.pos_off[r + 1] as usize]
    }

    /// The negative body of rule `r` as local ids.
    #[inline]
    pub fn neg_local(&self, r: usize) -> &[u32] {
        &self.neg_local[self.neg_off[r] as usize..self.neg_off[r + 1] as usize]
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
        let a = local as usize;
        &self.head_occ[self.head_occ_off[a] as usize..self.head_occ_off[a + 1] as usize]
    }

    /// Rules with local atom `local` in their positive body. The first call
    /// of this or [`GroundProgram::rules_with_neg_local`] counts the body
    /// rows.
    #[inline]
    pub fn rules_with_pos_local(&self, local: u32) -> &[GroundRuleId] {
        let (rows, a) = (self.body_rows(), local as usize);
        &rows.pos[rows.pos_off[a] as usize..rows.pos_off[a + 1] as usize]
    }

    /// Rules with local atom `local` in their negative body (counted on
    /// first read, like the positive rows).
    #[inline]
    pub fn rules_with_neg_local(&self, local: u32) -> &[GroundRuleId] {
        let (rows, a) = (self.body_rows(), local as usize);
        &rows.neg[rows.neg_off[a] as usize..rows.neg_off[a + 1] as usize]
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
        self.pos_local.len() + self.neg_local.len()
    }
}

/// CSR offsets of rows with the given sizes.
fn prefix_sum(counts: &[u32]) -> Vec<u32> {
    let mut off = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    off.push(0);
    for &c in counts {
        acc += c;
        off.push(acc);
    }
    off
}

/// The head index of rules with heads `head_local` over `n` local atoms —
/// `(offsets, rules)`, each atom's rules in rule order — by counting sort.
fn head_rows(n: usize, head_local: &[u32]) -> (Vec<u32>, Vec<GroundRuleId>) {
    let mut counts = vec![0u32; n];
    for &h in head_local {
        counts[h as usize] += 1;
    }
    let off = prefix_sum(&counts);
    let mut rules = vec![GroundRuleId::from_index(0); head_local.len()];
    // `counts` becomes the fill cursor of each row.
    let mut fill = counts;
    fill.copy_from_slice(&off[..n]);
    for (r, &h) in head_local.iter().enumerate() {
        rules[fill[h as usize] as usize] = GroundRuleId::from_index(r);
        fill[h as usize] += 1;
    }
    (off, rules)
}

/// The body occurrence rows of a body CSR (`off` over rules, `locals` its
/// local atom ids) over `n` local atoms — `(offsets, rules)`, each atom's
/// rules in rule order — by counting sort.
fn body_rows(n: usize, off: &[u32], locals: &[u32]) -> (Vec<u32>, Vec<GroundRuleId>) {
    let mut counts = vec![0u32; n];
    for &b in locals {
        counts[b as usize] += 1;
    }
    let row_off = prefix_sum(&counts);
    let mut rules = vec![GroundRuleId::from_index(0); locals.len()];
    // `counts` becomes the fill cursor of each row.
    let mut fill = counts;
    fill.copy_from_slice(&row_off[..n]);
    for (r, span) in off.windows(2).enumerate() {
        for &b in &locals[span[0] as usize..span[1] as usize] {
            rules[fill[b as usize] as usize] = GroundRuleId::from_index(r);
            fill[b as usize] += 1;
        }
    }
    (row_off, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn a(i: usize) -> AtomId {
        AtomId::from_index(i)
    }

    #[test]
    fn builder_dedups_rules_and_facts() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        b.add_fact(a(0));
        let r1 = b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        let r2 = b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        assert_eq!(r1, r2);
        assert_eq!(b.num_rules(), 1);
        let p = b.finish();
        assert_eq!(p.facts(), &[a(0)]);
        assert_eq!(p.num_rules(), 1);
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
    fn build_and_builder_produce_identical_indexes() {
        let rules = vec![
            GroundRule::new(a(5), vec![a(1), a(3)], vec![a(2)]),
            GroundRule::new(a(3), vec![a(1)], vec![]),
            GroundRule::new(a(5), vec![a(3)], vec![a(5)]),
        ];
        let facts = vec![a(1), a(9)];
        let direct = GroundProgram::build(rules.clone(), facts.clone());
        let mut b = GroundProgramBuilder::new();
        for &f in &facts {
            b.add_fact(f);
        }
        for r in &rules {
            b.add_rule(r.clone());
        }
        let built = b.finish();
        assert_eq!(direct.atoms(), built.atoms());
        for &atom in direct.atoms() {
            assert_eq!(direct.local_id(atom), built.local_id(atom));
            assert_eq!(direct.rules_with_head(atom), built.rules_with_head(atom));
            assert_eq!(direct.rules_with_pos(atom), built.rules_with_pos(atom));
            assert_eq!(direct.rules_with_neg(atom), built.rules_with_neg(atom));
        }
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
    fn body_rows_are_counted_on_first_read_and_spliced_after() {
        let mut b = GroundProgramBuilder::new();
        b.add_fact(a(0));
        let r0 = b.add_rule(GroundRule::new(a(1), vec![a(0)], vec![a(2)]));
        let p = b.finish();
        assert!(p.body_rows.get().is_none(), "no constructor counts them");
        assert_eq!(p.rules_with_head(a(1)), &[r0]);
        assert!(p.body_rows.get().is_none(), "head rows are not body rows");

        // The first extension counts its base's rows once and hands its
        // own over already spliced.
        let rule = GroundRule::new(a(3), vec![a(1)], vec![a(0)]);
        let q = p.extend_with(&[a(3)], &[], &[rule]);
        assert!(p.body_rows.get().is_some());
        assert!(q.body_rows.get().is_some());
        let r1 = GroundRuleId::from_index(1);
        assert_eq!(q.rules_with_pos(a(0)), &[r0]);
        assert_eq!(q.rules_with_pos(a(1)), &[r1]);
        assert_eq!(q.rules_with_neg(a(0)), &[r1]);
        assert_eq!(q.rules_with_neg(a(2)), &[r0]);
    }

    /// Every array two programs expose, row by row.
    fn assert_identical(got: &GroundProgram, want: &GroundProgram) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.atoms(), want.atoms());
        prop_assert_eq!(got.facts(), want.facts());
        prop_assert_eq!(got.facts_local(), want.facts_local());
        prop_assert_eq!(got.num_rules(), want.num_rules());
        for r in 0..want.num_rules() {
            prop_assert_eq!(got.head_local(r), want.head_local(r), "rule {}", r);
            prop_assert_eq!(got.pos_local(r), want.pos_local(r), "rule {}", r);
            prop_assert_eq!(got.neg_local(r), want.neg_local(r), "rule {}", r);
        }
        for l in 0..want.num_atoms() as u32 {
            prop_assert_eq!(got.rules_with_head_local(l), want.rules_with_head_local(l));
            prop_assert_eq!(got.rules_with_pos_local(l), want.rules_with_pos_local(l));
            prop_assert_eq!(got.rules_with_neg_local(l), want.rules_with_neg_local(l));
        }
        Ok(())
    }

    /// One step of a growing program: candidate rules `(head, pos, neg)` and
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

        /// A chain of `extend_with` calls equals one from-scratch build of
        /// everything added so far — atoms, rule arrays and every occurrence
        /// row — after each step. Later steps draw atoms from a wider range
        /// and the ids are spread so that new atoms land between, before and
        /// after the old ones (both the remap and the append-only path);
        /// candidates repeat old rules and each other.
        #[test]
        fn extend_with_equals_a_from_scratch_build(
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
                    if !extended.facts().contains(&atom(f)) && !new_facts.contains(&atom(f)) {
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
                extended = extended.extend_with(&new_atoms, &new_facts, &rules);
                for &f in &new_facts {
                    scratch.add_fact(f);
                }
                for r in rules {
                    scratch.add_rule(r);
                }
                assert_identical(&extended, &scratch.clone().finish())?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `from_dense_parts` over candidate rules that repeat each other —
        /// few atoms, so heads collect many rules and many repeats — keeps
        /// what the hash-deduplicating builder keeps, in its order.
        #[test]
        fn from_dense_parts_drops_repeats_like_the_builder(
            candidates in step(0..6),
            copies in 1usize..4,
        ) {
            let (rules, facts) = candidates;
            let rules: Vec<GroundRule> = std::iter::repeat(&rules)
                .take(copies)
                .flatten()
                .map(|(h, pos, neg)| {
                    let of = |body: &[usize]| body.iter().map(|&i| a(i)).collect();
                    GroundRule::new(a(*h), of(pos), of(neg))
                })
                .collect();
            let mut builder = GroundProgramBuilder::new();
            for &f in &facts {
                builder.add_fact(a(f));
            }
            for r in &rules {
                builder.add_rule(r.clone());
            }
            let want = builder.finish();

            let atoms = want.atoms().to_vec();
            let local = |x: &AtomId| atoms.binary_search(x).unwrap() as u32;
            let (mut pos_off, mut neg_off) = (vec![0u32], vec![0u32]);
            let (mut pos_local, mut neg_local) = (Vec::new(), Vec::new());
            for r in &rules {
                pos_local.extend(r.pos.iter().map(local));
                pos_off.push(pos_local.len() as u32);
                neg_local.extend(r.neg.iter().map(local));
                neg_off.push(neg_local.len() as u32);
            }
            let got = GroundProgram::from_dense_parts(
                atoms.clone(),
                want.facts().to_vec(),
                want.facts_local().to_vec(),
                rules.iter().map(|r| local(&r.head)).collect(),
                pos_off,
                pos_local,
                neg_off,
                neg_local,
            );
            assert_identical(&got, &want)?;
        }
    }

    #[test]
    fn empty_program_has_empty_indexes() {
        let p = GroundProgramBuilder::new().finish();
        assert_eq!(p.num_atoms(), 0);
        assert_eq!(p.num_rules(), 0);
        assert!(p.facts().is_empty());
        assert!(p.rules_with_head(a(0)).is_empty());
    }
}
