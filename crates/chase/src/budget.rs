//! Resource budgets for chase saturation.

/// Limits on how much of the (generally infinite) guarded chase forest a
/// [`crate::condensed::ChaseSegment`] materializes.
///
/// The paper's Proposition 12 guarantees exact query answers at depth
/// `n·δ` (`wfdl-reference` computes `δ`); that bound exists to prove
/// decidability and is astronomically large, so practical use picks a
/// budget and checks the segment's
/// [`crate::condensed::ChaseSegment::complete`] flag (or uses the
/// stabilization strategy in `wfdl-wfs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseBudget {
    /// Atoms at this forest depth are materialized but not expanded.
    pub max_depth: u32,
    /// Hard cap on the number of distinct atoms in the segment.
    pub max_atoms: usize,
    /// Hard cap on the number of distinct rule instances in the segment.
    pub max_instances: usize,
    /// Worker threads for the saturation match phase: `1` = serial,
    /// `0` = auto ([`wfdl_core::resolve_threads`]: one per hardware
    /// thread, serial below three; small frontiers stay serial either
    /// way). The produced segment is bit-identical for every value —
    /// see the "Sharded saturation" section of `crates/chase/src/README.md`.
    pub threads: usize,
}

impl ChaseBudget {
    /// A budget that only limits depth.
    pub fn depth(max_depth: u32) -> Self {
        ChaseBudget {
            max_depth,
            max_atoms: usize::MAX,
            max_instances: usize::MAX,
            threads: 1,
        }
    }

    /// No limits: only safe when the chase terminates (e.g. programs
    /// without existential variables).
    pub fn unbounded() -> Self {
        ChaseBudget {
            max_depth: u32::MAX,
            max_atoms: usize::MAX,
            max_instances: usize::MAX,
            threads: 1,
        }
    }

    /// Returns a copy with a different atom cap.
    pub fn with_max_atoms(mut self, n: usize) -> Self {
        self.max_atoms = n;
        self
    }

    /// Returns a copy with a different instance cap.
    pub fn with_max_instances(mut self, n: usize) -> Self {
        self.max_instances = n;
        self
    }

    /// Returns a copy with a different match-phase thread count
    /// (`0` = auto). Saturation output is bit-identical for every value.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }
}

impl Default for ChaseBudget {
    /// Depth 16, one million atoms, four million instances: deep enough for
    /// every example in the paper while keeping worst-case memory bounded.
    fn default() -> Self {
        ChaseBudget {
            max_depth: 16,
            max_atoms: 1_000_000,
            max_instances: 4_000_000,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let b = ChaseBudget::depth(3);
        assert_eq!(b.max_depth, 3);
        assert_eq!(b.max_atoms, usize::MAX);
        let u = ChaseBudget::unbounded();
        assert_eq!(u.max_depth, u32::MAX);
        let c = ChaseBudget::default()
            .with_max_atoms(10)
            .with_max_instances(20)
            .with_threads(4);
        assert_eq!(c.max_atoms, 10);
        assert_eq!(c.max_instances, 20);
        assert_eq!(c.threads, 4);
        assert_eq!(b.threads, 1, "constructors default to serial");
    }
}
