//! Solve-wide resource controls: wall-clock deadlines, cooperative
//! cancellation, and memory budgets, with structured truncation reporting.
//!
//! A [`SolveBudget`] travels alongside (not inside) the solver options —
//! options are a pure-value cache key, while a budget carries runtime
//! state (an absolute [`Instant`], a shared [`CancelToken`]). The chase
//! checks it at **round boundaries** and the WFS engine at **component
//! boundaries**, so a trip always stops at a point where every
//! invariant holds: a tripped chase segment is resumable, and a tripped
//! WFS model is a sound under-approximation (decided atoms carry their
//! final well-founded values; everything else degrades to `Unknown`).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve stopped short of the full (depth-bounded) fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// The wall-clock deadline of the [`SolveBudget`] passed.
    Deadline,
    /// The [`CancelToken`] was cancelled from another thread.
    Cancelled,
    /// The memory budget (bytes) was exceeded by the solver's pools.
    MemBudget,
    /// The chase hit its atom cap (`ChaseBudget::max_atoms`).
    AtomCap,
    /// The chase hit its instance cap (`ChaseBudget::max_instances`).
    InstanceCap,
    /// The chase was bounded by the depth budget (`ChaseBudget::max_depth`).
    DepthCap,
}

impl TruncationReason {
    /// True for the runtime-budget trips (deadline / cancellation / memory)
    /// that stop a solve at a clean, resumable boundary — as opposed to the
    /// chase's structural caps.
    pub fn is_budget_trip(self) -> bool {
        matches!(
            self,
            TruncationReason::Deadline | TruncationReason::Cancelled | TruncationReason::MemBudget
        )
    }
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TruncationReason::Deadline => "deadline",
            TruncationReason::Cancelled => "cancelled",
            TruncationReason::MemBudget => "memory budget",
            TruncationReason::AtomCap => "atom cap",
            TruncationReason::InstanceCap => "instance cap",
            TruncationReason::DepthCap => "depth cap",
        };
        f.write_str(s)
    }
}

/// Outcome of a solve: either the full fixpoint was reached, or the solve
/// was stopped early. A budget trip ([`SolveOutcome::is_budget_trip`])
/// leaves a sound under-approximation: certain answers stay certain, and
/// undecided atoms report `Unknown`. A depth, atom or instance cap does
/// not: the chase stopped short, an atom it never derived reads false, and
/// through negation that can turn a verdict either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The solve ran to its natural fixpoint.
    Complete,
    /// The solve was stopped early for the given reason.
    Truncated(TruncationReason),
}

impl SolveOutcome {
    /// True iff the solve ran to its natural fixpoint.
    pub fn is_complete(self) -> bool {
        matches!(self, SolveOutcome::Complete)
    }

    /// The truncation reason, if the solve was stopped early.
    pub fn truncation(self) -> Option<TruncationReason> {
        match self {
            SolveOutcome::Complete => None,
            SolveOutcome::Truncated(r) => Some(r),
        }
    }

    /// True iff a runtime budget (deadline / cancellation / memory) stopped
    /// the solve — see [`TruncationReason::is_budget_trip`].
    pub fn is_budget_trip(self) -> bool {
        self.truncation()
            .is_some_and(TruncationReason::is_budget_trip)
    }
}

impl fmt::Display for SolveOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveOutcome::Complete => f.write_str("complete"),
            SolveOutcome::Truncated(r) => write!(f, "truncated ({r})"),
        }
    }
}

/// A cooperative cancellation flag, cloneable and settable from any thread.
///
/// Clones share one flag. The solver polls it at its trip points; a
/// cancelled solve stops at the next boundary and reports
/// [`TruncationReason::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Where a deterministic fault is injected (test harness; see [`FaultPlan`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// The chase round boundary after `N` completed rounds.
    ChaseRound(u64),
    /// The apply step of chase round `N` (1-based; fires once the round's
    /// matches have been applied, so segment state stays coherent for trip
    /// kinds).
    ChaseMerge(u64),
    /// The WFS evaluation of the component with this condensation ordinal.
    WfsComponent(u32),
    /// The entry of an incremental chase resume, before any delta fact is
    /// applied.
    ResumeBoundary,
}

/// What the injected fault does at its site.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (exercises the `catch_unwind` isolation at the engine boundary).
    Panic,
    /// Behave as if the wall-clock deadline tripped.
    TripDeadline,
    /// Behave as if the memory budget tripped.
    TripMem,
    /// Behave as if the cancel token tripped.
    TripCancel,
}

/// A deterministic fault injection: at `site`, do `kind`. Carried inside a
/// [`SolveBudget`] so integration tests (compiled as separate crates, where
/// `#[cfg(test)]` hooks are invisible) can drive the same code paths real
/// budget trips take. Zero-cost when absent.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Where to inject.
    pub site: FaultSite,
    /// What to inject.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// Fires the fault if `site` matches: panics for [`FaultKind::Panic`],
    /// otherwise returns the simulated trip reason.
    pub fn fire(&self, site: FaultSite) -> Option<TruncationReason> {
        if self.site != site {
            return None;
        }
        match self.kind {
            FaultKind::Panic => panic!("injected fault: panic at {site:?}"),
            FaultKind::TripDeadline => Some(TruncationReason::Deadline),
            FaultKind::TripMem => Some(TruncationReason::MemBudget),
            FaultKind::TripCancel => Some(TruncationReason::Cancelled),
        }
    }
}

/// Runtime resource limits for one solve: an optional wall-clock deadline,
/// an optional shared [`CancelToken`], and an optional memory budget in
/// bytes (accounted against the chase builder pools and the WFS engine's
/// verdict/fingerprint allocations).
///
/// The default budget is unlimited and adds one branch per trip point.
#[derive(Clone, Debug, Default)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    mem_limit: Option<usize>,
    /// Deterministic fault injection for the robustness test harness.
    #[doc(hidden)]
    pub fault: Option<FaultPlan>,
}

impl SolveBudget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True iff no limit and no fault is set — trip points skip all work.
    #[inline]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.cancel.is_none()
            && self.mem_limit.is_none()
            && self.fault.is_none()
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `d` from now.
    pub fn with_deadline_in(self, d: Duration) -> Self {
        self.with_deadline(Instant::now() + d)
    }

    /// Attaches a cancellation token (store a clone; cancel from anywhere).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets a memory budget in bytes.
    pub fn with_mem_limit(mut self, bytes: usize) -> Self {
        self.mem_limit = Some(bytes);
        self
    }

    /// Attaches a deterministic fault injection (test harness).
    #[doc(hidden)]
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The configured memory budget in bytes, if any.
    pub fn mem_limit(&self) -> Option<usize> {
        self.mem_limit
    }

    /// True iff a memory budget is configured (callers can skip computing
    /// `mem_used` otherwise).
    #[inline]
    pub fn wants_mem(&self) -> bool {
        self.mem_limit.is_some()
    }

    /// Polls every limit: cancellation first (cheapest, most urgent), then
    /// the deadline, then the memory budget against `mem_used` bytes.
    #[inline]
    pub fn check(&self, mem_used: usize) -> Option<TruncationReason> {
        if let Some(t) = &self.cancel {
            if t.is_cancelled() {
                return Some(TruncationReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(TruncationReason::Deadline);
            }
        }
        if let Some(m) = self.mem_limit {
            if mem_used > m {
                return Some(TruncationReason::MemBudget);
            }
        }
        None
    }

    /// Fires the fault plan at `site` if one matches (panics for panic
    /// faults), without polling the real limits.
    #[doc(hidden)]
    #[inline]
    pub fn fire_fault(&self, site: FaultSite) -> Option<TruncationReason> {
        self.fault.as_ref().and_then(|f| f.fire(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = SolveBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.check(usize::MAX), None);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let b = SolveBudget::unlimited().with_cancel(t.clone());
        assert_eq!(b.check(0), None);
        t.cancel();
        assert_eq!(b.check(0), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn expired_deadline_trips() {
        let b = SolveBudget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(b.check(0), Some(TruncationReason::Deadline));
    }

    #[test]
    fn mem_limit_trips_only_above_budget() {
        let b = SolveBudget::unlimited().with_mem_limit(1024);
        assert_eq!(b.check(1024), None);
        assert_eq!(b.check(1025), Some(TruncationReason::MemBudget));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let t = CancelToken::new();
        t.cancel();
        let b = SolveBudget::unlimited()
            .with_cancel(t)
            .with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(b.check(0), Some(TruncationReason::Cancelled));
    }

    #[test]
    fn fault_plan_fires_only_at_its_site() {
        let b = SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::ChaseRound(2),
            kind: FaultKind::TripMem,
        });
        assert!(!b.is_unlimited());
        assert_eq!(b.fire_fault(FaultSite::ChaseRound(1)), None);
        assert_eq!(
            b.fire_fault(FaultSite::ChaseRound(2)),
            Some(TruncationReason::MemBudget)
        );
        // The real limits are all unset, so the budget itself never trips.
        assert_eq!(b.check(0), None);
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_panics_at_site() {
        let b = SolveBudget::unlimited().with_fault(FaultPlan {
            site: FaultSite::ResumeBoundary,
            kind: FaultKind::Panic,
        });
        b.fire_fault(FaultSite::ResumeBoundary);
    }

    #[test]
    fn outcome_and_reason_display() {
        assert_eq!(SolveOutcome::Complete.to_string(), "complete");
        assert_eq!(
            SolveOutcome::Truncated(TruncationReason::Deadline).to_string(),
            "truncated (deadline)"
        );
        assert!(SolveOutcome::Complete.is_complete());
        assert_eq!(
            SolveOutcome::Truncated(TruncationReason::MemBudget).truncation(),
            Some(TruncationReason::MemBudget)
        );
        assert!(TruncationReason::Cancelled.is_budget_trip());
        assert!(!TruncationReason::AtomCap.is_budget_trip());
    }
}
