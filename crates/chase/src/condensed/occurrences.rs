//! The occurrence rows — guard, head and body — counted by the first
//! reader.

use super::ChaseSegment;
use crate::instance::{InstanceId, SegAtomId};
use wfdl_core::csr::Csr;
use wfdl_core::{AtomId, ChunkVec};

/// What [`ChaseSegment::instances_with_guard_seg`] & co. read. Saturation,
/// grounding and the engine never do — the readers are the explicit forest,
/// the type computation, WCHECK, the reference engines and a resume that
/// relaxes an inherited atom — so a segment is built without it.
///
/// Each is a row per [`SegAtomId`] of instances, ascending.
#[derive(Clone, Debug)]
pub(super) struct Occurrences {
    /// Instances guarded by each segment atom.
    guard: Csr<InstanceId>,
    /// Instances deriving each segment atom.
    head: Csr<InstanceId>,
    /// Instances with each segment atom in their positive body, once per
    /// instance.
    body: Csr<InstanceId>,
    /// Distinct positive-body size per instance (bodies may repeat an atom
    /// after instantiation).
    pub(super) pos_distinct: Vec<u32>,
}

impl ChaseSegment {
    /// Instances whose guard matched the segment atom `id`.
    #[inline]
    pub fn instances_with_guard_seg(&self, id: SegAtomId) -> &[InstanceId] {
        self.occurrences().guard.row(id.index())
    }

    /// Instances deriving the segment atom `id`.
    #[inline]
    pub fn instances_with_head_seg(&self, id: SegAtomId) -> &[InstanceId] {
        self.occurrences().head.row(id.index())
    }

    /// Instances with the segment atom `id` in their positive body
    /// (deduplicated per instance).
    #[inline]
    pub fn instances_with_body_seg(&self, id: SegAtomId) -> &[InstanceId] {
        self.occurrences().body.row(id.index())
    }

    /// The occurrence indexes, counted on the first call.
    pub(super) fn occurrences(&self) -> &Occurrences {
        self.occurrences.get_or_init(|| self.count_occurrences())
    }

    /// The distinct atoms of instance `i`'s positive body (bodies are
    /// short; a linear prior-occurrence scan beats any set).
    fn distinct_body(&self, i: usize) -> impl Iterator<Item = SegAtomId> + Clone + '_ {
        let row = self.forest.pos.row(i);
        (row.iter().enumerate())
            .filter(move |&(k, s)| !row[..k].contains(s))
            .map(|(_, &s)| s)
    }

    /// The guard, head and distinct-positive-body rows of every segment
    /// atom, and each instance's distinct body size.
    fn count_occurrences(&self) -> Occurrences {
        let (n, num_inst) = (self.forest.atoms.len(), self.num_instances());
        let rows = |of: &ChunkVec<SegAtomId>| {
            let entries =
                (of.iter().enumerate()).map(|(i, s)| (s.index() as u32, InstanceId::from_index(i)));
            Csr::count(n, entries)
        };
        let body = (0..num_inst).flat_map(|i| {
            self.distinct_body(i)
                .map(move |s| (s.index() as u32, InstanceId::from_index(i)))
        });
        Occurrences {
            guard: rows(&self.forest.inst_guard),
            head: rows(&self.forest.inst_head),
            body: Csr::count(n, body),
            pos_distinct: (0..num_inst)
                .map(|i| self.distinct_body(i).count() as u32)
                .collect(),
        }
    }

    /// Instances whose guard matched `atom`. Atoms outside the segment
    /// guard nothing, so unknown atoms yield an empty slice.
    pub fn instances_with_guard(&self, atom: AtomId) -> &[InstanceId] {
        match self.seg_id(atom) {
            Some(s) => self.instances_with_guard_seg(s),
            None => &[],
        }
    }

    /// Instances deriving `atom`; empty for atoms outside the segment.
    pub fn instances_with_head(&self, atom: AtomId) -> &[InstanceId] {
        match self.seg_id(atom) {
            Some(s) => self.instances_with_head_seg(s),
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example4;
    use crate::ChaseBudget;
    use wfdl_core::Universe;

    #[test]
    fn unknown_atom_queries_return_empty_slices() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(3));
        // An atom interned after the chase — never part of the segment.
        let fresh_pred = u.pred("fresh", 1).unwrap();
        let zero = u.lookup_constant("0").unwrap();
        let foreign = u.atom(fresh_pred, vec![zero]).unwrap();
        assert!(!seg.contains(foreign));
        assert_eq!(seg.seg_id(foreign), None);
        assert!(seg.meta(foreign).is_none());
        assert!(seg.instances_with_guard(foreign).is_empty());
        assert!(seg.instances_with_head(foreign).is_empty());
        // A segment atom that heads nothing / guards nothing still answers
        // with (possibly empty) slices rather than a miss.
        let t = u.lookup_pred("T").unwrap();
        let t0 = u.atom(t, vec![zero]).unwrap();
        assert!(seg.contains(t0));
        assert!(seg.instances_with_guard(t0).is_empty(), "T guards no rule");
        assert!(!seg.instances_with_head(t0).is_empty());
    }

    #[test]
    fn csr_accessors_mirror_instance_arrays() {
        let mut u = Universe::new();
        let (db, prog) = example4(&mut u);
        let seg = ChaseSegment::build(&mut u, &db, &prog, ChaseBudget::depth(4));
        assert!(seg.num_instances() > 0);
        assert!(seg.occurrences.get().is_none(), "counted on first read");
        for iid in seg.instance_ids() {
            let inst = seg.instance(iid);
            // Dense accessors agree with the materialized view.
            assert_eq!(seg.guard_atom(iid), inst.guard_atom);
            assert_eq!(seg.head_atom(iid), inst.head);
            assert_eq!(seg.src_rule(iid), inst.src_rule);
            let pos: Vec<AtomId> = seg.pos_seg(iid).iter().map(|&s| seg.atom_of(s)).collect();
            assert_eq!(pos.as_slice(), inst.pos.as_ref());
            assert_eq!(seg.neg_atoms(iid), inst.neg.as_ref());
            // Occurrence rows contain the instance.
            assert!(seg
                .instances_with_guard_seg(seg.guard_seg(iid))
                .contains(&iid));
            assert!(seg
                .instances_with_head_seg(seg.head_seg(iid))
                .contains(&iid));
            for &s in seg.pos_seg(iid) {
                assert!(seg.instances_with_body_seg(s).contains(&iid));
            }
            // Distinct-count matches a naive dedup.
            let mut dedup = pos.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(seg.num_distinct_pos(iid) as usize, dedup.len());
        }
        // Round-trip seg ids.
        for (i, sa) in seg.atoms().iter().enumerate() {
            let sid = seg.seg_id(sa.atom).expect("segment atom has a seg id");
            assert_eq!(sid.index(), i);
            assert_eq!(seg.atom_of(sid), sa.atom);
        }
    }
}
