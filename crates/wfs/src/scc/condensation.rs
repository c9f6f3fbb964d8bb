//! The condensation of the atom dependency graph: Tarjan's algorithm
//! (`wfdl_core::scc`) over the whole program, and the component rows a
//! solve carries.

use std::collections::BTreeMap;
use wfdl_core::csr::Csr;
use wfdl_core::scc::{tarjan, Identity, Sccs};
use wfdl_core::{ChunkVec, RowPool};
use wfdl_storage::GroundProgram;

/// The strongly connected components of a program's atom dependency graph
/// (`head → body atom`), by **ordinal**, in emission order: Tarjan's
/// algorithm emits each component after everything it depends on (reverse
/// topological order of the condensation).
///
/// The sweep against the empty model hands Tarjan's flat arrays over as the tails of
/// chunked ones — no per-component allocation even when every component is
/// a singleton. A resumed solve's clone shares their chunks and appends
/// the cone's components with fresh ordinals (see the module docs for why
/// that keeps emission order). A component the cone dissolves keeps its
/// ordinal, which is never handed out again, and its row, which nothing
/// rewrites: every atom of it is a cone atom and now belongs to a cone
/// component, so the row reads as dissolved once its first atom's
/// component is another one.
#[derive(Clone, Debug, Default)]
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
    pub(super) fn largest(&self) -> usize {
        self.sizes.keys().next_back().copied().unwrap_or(0)
    }

    /// Stops counting the components `dissolved`, whose atoms are all
    /// about to join new components.
    pub(super) fn dissolve(&mut self, dissolved: &[u32]) {
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
    pub(super) fn push(&mut self, atoms: impl ExactSizeIterator<Item = u32> + Clone) {
        let ordinal = wfdl_core::dense_u32(self.comps.len(), "component ordinal");
        for a in atoms.clone() {
            self.comp_of[a as usize] = ordinal;
        }
        self.live += 1;
        *self.sizes.entry(atoms.len()).or_insert(0) += 1;
        self.comps.push(atoms);
    }
}

impl From<Sccs> for Condensation {
    /// Tarjan's arrays, handed over as they are.
    fn from(sccs: Sccs) -> Condensation {
        let mut sizes = BTreeMap::new();
        let mut singletons = 0;
        for w in sccs.comps.off.windows(2) {
            match (w[1] - w[0]) as usize {
                1 => singletons += 1,
                size => *sizes.entry(size).or_insert(0) += 1,
            }
        }
        if singletons > 0 {
            sizes.insert(1, singletons);
        }
        Condensation {
            live: sccs.num_components(),
            comp_of: sccs.comp_of.into(),
            comps: RowPool::from_csr(sccs.comps),
            sizes,
        }
    }
}

/// Computes the [`Condensation`] of a ground program's dependency graph.
pub fn condensation(prog: &GroundProgram) -> Condensation {
    condense(prog).into()
}

/// Tarjan's algorithm over the whole program's dependency graph: its edges
/// run `head → body atom` (over the atom's rules in rule order, each rule's
/// positive body, then its negative one), and its roots are every atom in
/// local-id order. So a node is its atom's local id, and a component is
/// emitted after everything it depends on. The edges are laid out first in
/// one flat CSR, filled in local-id order, so that the walk reads one row
/// per atom rather than the scattered rows of its rules.
pub(super) fn condense(prog: &GroundProgram) -> Sccs {
    let n = wfdl_core::dense_u32(prog.num_atoms(), "atom");
    let mut adj = Csr {
        off: Vec::with_capacity(n as usize + 1),
        items: Vec::with_capacity(prog.num_body_literals()),
    };
    adj.off.push(0);
    for a in 0..n {
        for rid in prog.rules_with_head_local(a) {
            let r = rid.index();
            adj.items.extend_from_slice(prog.pos_local(r));
            adj.items.extend_from_slice(prog.neg_local(r));
        }
        adj.off
            .push(wfdl_core::dense_u32(adj.items.len(), "dependency edges"));
    }
    let adj = &adj;
    tarjan(n, &mut Identity, |a| adj.row(a as usize).iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::tests::a;
    use wfdl_storage::{GroundProgramBuilder, GroundRule};

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
}
