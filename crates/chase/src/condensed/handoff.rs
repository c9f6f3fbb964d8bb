//! The hand-off to the engines: a segment as a ground program.

use super::ChaseSegment;
use crate::instance::InstanceId;
use wfdl_core::{AtomId, BitSet};
use wfdl_storage::{GroundProgram, Room};

impl ChaseSegment {
    /// Extracts the finite ground normal program (facts + instances) that
    /// the WFS fixpoint engines evaluate: the extension of the empty
    /// program by the whole segment.
    pub fn to_ground_program(&self) -> GroundProgram {
        self.ground_onto(&GroundProgram::default(), 0, 0)
    }

    /// Extracts the ground program of a **resumed** segment by extending
    /// `prev` — the program extracted from the segment this one was
    /// resumed from — with only the delta's facts, atoms and instances.
    /// Its atoms, facts and rules are [`ChaseSegment::to_ground_program`]'s
    /// in the same order, but `prev`'s atoms keep their local ids.
    pub fn to_ground_program_from(&self, prev: &GroundProgram) -> GroundProgram {
        self.ground_onto(prev, self.inherited_atoms, self.inherited_instances)
    }

    /// Grounds the atoms `first_atom..`, the instances `first_inst..` and
    /// the facts after `prev`'s onto `prev` ([`GroundProgram::extension`]).
    /// This is a **straight array translation**: the new atoms come sorted
    /// out of one bitmap scan and every instance is one rule, fed from the
    /// segment's own arrays in instance order — no hash probe, no binary
    /// search and no per-instance allocation anywhere on this path.
    fn ground_onto(
        &self,
        prev: &GroundProgram,
        first_atom: usize,
        first_inst: usize,
    ) -> GroundProgram {
        let (num_inst, first_fact) = (self.num_instances(), prev.facts_local().len());
        debug_assert!(first_inst <= num_inst && first_fact <= self.forest.fact_seg.len());
        let instances = (first_inst..num_inst).map(InstanceId::from_index);

        // Positive bodies hold segment atoms only: the new segment atoms
        // and the new instances' hypotheses cover every atom `prev` lacks.
        let mut fresh = BitSet::with_capacity(self.forest.seg_of.len());
        for sa in self.forest.atoms.iter_from(first_atom) {
            fresh.insert(sa.atom.index());
        }
        for i in instances.clone() {
            for &a in self.neg_atoms(i) {
                fresh.insert(a.index());
            }
        }
        let new_atoms = (fresh.iter().map(AtomId::from_index)).filter(|&a| !prev.mentions(a));
        let room = Room {
            atoms: fresh.len(),
            atom_ids: self.forest.seg_of.len(),
            facts: self.forest.fact_seg.len() - first_fact,
            rules: num_inst - first_inst,
            pos: self.forest.pos.num_elements_from(first_inst),
            neg: self.forest.neg.num_elements_from(first_inst),
        };
        let mut ground = prev.extension(new_atoms, room);
        for &f in self.forest.fact_seg.iter_from(first_fact) {
            ground.push_fact(self.atom_of(f));
        }
        for i in instances {
            let pos = self.pos_seg(i).iter().map(|&s| self.atom_of(s));
            ground.push_rule(self.head_atom(i), pos, self.neg_atoms(i).iter().copied());
        }
        ground.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condensed::tests::assert_ground_programs_identical;
    use crate::paper::example4;
    use crate::ChaseBudget;
    use wfdl_core::Universe;

    #[test]
    fn incremental_grounding_equals_from_scratch() {
        // `early`: the delta's facts are interned before the base chase, so
        // their ids sit below the base's nulls; otherwise they come last.
        // Either way the extension appends them: the inherited local ids
        // stay, and the early leg differs from the from-scratch program in
        // its local ids only.
        for early in [false, true] {
            let mut u = Universe::new();
            let (db, prog) = example4(&mut u);
            let budget = ChaseBudget::depth(4);
            let r = u.lookup_pred("R").unwrap();
            let p = u.lookup_pred("P").unwrap();
            let delta = |u: &mut Universe, (c, d): (&str, &str)| {
                let (c, d) = (u.constant(c), u.constant(d));
                [
                    u.atom(r, vec![c, c, d]).unwrap(),
                    u.atom(p, vec![c, c]).unwrap(),
                ]
            };
            let seeds = [("c9", "d9"), ("d9", "c9")];
            let interned_early = early.then(|| seeds.map(|seed| delta(&mut u, seed)));
            let base = ChaseSegment::build(&mut u, &db, &prog, budget);

            // Two deltas in a row: the second extends an extended program.
            let (mut seg, mut ground) = (base.clone(), base.to_ground_program());
            for (k, seed) in seeds.into_iter().enumerate() {
                let facts = interned_early.map_or_else(|| delta(&mut u, seed), |all| all[k]);
                seg = seg.resume_with(&mut u, &prog, &facts).expect("resumable");
                let extended = seg.to_ground_program_from(&ground);
                let scratch = seg.to_ground_program();
                if early {
                    assert_ne!(
                        scratch.atoms(),
                        extended.atoms(),
                        "the case this leg is for"
                    );
                    assert_same_ground_program(&scratch, &extended);
                } else {
                    assert_ground_programs_identical(&scratch, &extended);
                }
                assert!(extended.num_rules() > ground.num_rules());
                assert_eq!(
                    extended.atoms().to_vec()[..ground.num_atoms()],
                    ground.atoms().to_vec()
                );
                ground = extended;
            }
        }
    }

    /// The same ground program through `AtomId`s, whatever the local ids:
    /// atoms, facts, rules and occurrence rows.
    fn assert_same_ground_program(scratch: &GroundProgram, extended: &GroundProgram) {
        let mut atoms = extended.atoms().to_vec();
        atoms.sort_unstable();
        assert_eq!(*scratch.atoms(), atoms);
        assert!(scratch.facts().eq(extended.facts()));
        assert_eq!(scratch.num_rules(), extended.num_rules());
        assert!(scratch.rules().eq(extended.rules()));
        for &atom in scratch.atoms() {
            assert_eq!(
                scratch.rules_with_head(atom),
                extended.rules_with_head(atom)
            );
            assert_eq!(scratch.rules_with_pos(atom), extended.rules_with_pos(atom));
            assert_eq!(scratch.rules_with_neg(atom), extended.rules_with_neg(atom));
        }
    }
}
