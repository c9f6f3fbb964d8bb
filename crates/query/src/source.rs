//! The [`TruthSource`] abstraction: anything that assigns three-valued
//! truth to ground atoms can answer queries.
//!
//! `wfdl-wfs` implements this for its `WellFoundedModel`; tests use the
//! lightweight [`InterpSource`].

use wfdl_core::{AtomId, Interp, Truth};

/// A three-valued model that queries can be evaluated against.
pub trait TruthSource {
    /// Truth value of a ground atom. Atoms the source has never seen read
    /// [`TruthSource::unseen`].
    fn value(&self, atom: AtomId) -> Truth;

    /// The verdict of every atom the source has never seen — one that was
    /// never interned, or names a constant or predicate the universe does
    /// not know. `False` under the WFS reading of a complete model (no
    /// forward proof); a source cut off before its fixpoint, where absence
    /// proves nothing, answers `Unknown`.
    fn unseen(&self) -> Truth {
        Truth::False
    }

    /// All certainly-true atoms (drives the positive-atom index).
    fn certain_atoms(&self) -> Vec<AtomId>;

    /// All not-certainly-false atoms (drives possible-world evaluation).
    fn possible_atoms(&self) -> Vec<AtomId>;
}

/// A `TruthSource` over an explicit interpretation and atom universe.
///
/// Atoms outside `atoms` are false (mirroring the chase-segment reading).
#[derive(Clone, Debug)]
pub struct InterpSource<'a> {
    interp: &'a Interp,
    atoms: &'a [AtomId],
}

impl<'a> InterpSource<'a> {
    /// Wraps an interpretation together with its atom universe.
    pub fn new(interp: &'a Interp, atoms: &'a [AtomId]) -> Self {
        InterpSource { interp, atoms }
    }
}

impl TruthSource for InterpSource<'_> {
    fn value(&self, atom: AtomId) -> Truth {
        if self.atoms.contains(&atom) {
            self.interp.value(atom)
        } else {
            Truth::False
        }
    }

    fn certain_atoms(&self) -> Vec<AtomId> {
        self.atoms
            .iter()
            .copied()
            .filter(|&a| self.interp.value(a).is_true())
            .collect()
    }

    fn possible_atoms(&self) -> Vec<AtomId> {
        self.atoms
            .iter()
            .copied()
            .filter(|&a| !self.interp.value(a).is_false())
            .collect()
    }
}
