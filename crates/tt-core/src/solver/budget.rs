//! Solve budgets: wall-clock deadlines, work ceilings, and cooperative
//! cancellation.
//!
//! The DP over the subset lattice is exponential in `k`, so a production
//! deployment must survive instances that blow past a deadline or work
//! budget. A [`Budget`] expresses the caller's limits; every engine
//! threads a [`BudgetMeter`] through its hot loop and, on exhaustion,
//! stops and returns its anytime incumbent as a
//! [`Degraded`](crate::solver::engine::SolveOutcome::Degraded) result —
//! never a hang, never a panic, never a silently wrong answer.
//!
//! The meter is designed so that the unlimited budget (the default) costs
//! one branch per charge: engines can call it unconditionally.
//!
//! Candidates are charged per `(S, i)` pair of the lattice an engine
//! covers (`C(k, j)·N` per dense level, the useful pairs of a `memo`
//! level), not per pair it evaluates: the level kernel's chunk pass
//! skips the pairs its bound rules out (`bound_skipped`), yet a budget
//! cuts a solve at the same level with or without that bound.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation token, cloneable across threads.
///
/// # Examples
/// ```
/// use tt_core::solver::budget::CancelToken;
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; every solver holding a clone observes it at
    /// its next budget check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a budget ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// More subsets were evaluated than allowed.
    SubsetLimit,
    /// More `(S, i)` candidates were evaluated than allowed.
    CandidateLimit,
    /// The [`CancelToken`] fired.
    Cancelled,
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustReason::Deadline => write!(f, "deadline exceeded"),
            ExhaustReason::SubsetLimit => write!(f, "subset limit exceeded"),
            ExhaustReason::CandidateLimit => write!(f, "candidate limit exceeded"),
            ExhaustReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Limits on one solve: any combination of a wall-clock deadline, work
/// ceilings, and a cancellation token. The default is unlimited.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Wall-clock deadline, measured from the start of the solve.
    pub deadline: Option<Duration>,
    /// Ceiling on subsets whose `C(S)` may be computed.
    pub max_subsets: Option<u64>,
    /// Ceiling on `(S, i)` candidates, charged per lattice pair (see
    /// the module doc).
    pub max_candidates: Option<u64>,
    /// Cooperative cancellation.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// The unlimited budget: engines behave exactly as without one.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(d: Duration) -> Budget {
        Budget {
            deadline: Some(d),
            ..Budget::default()
        }
    }

    /// A budget with only a candidate-evaluation ceiling.
    pub fn with_max_candidates(n: u64) -> Budget {
        Budget {
            max_candidates: Some(n),
            ..Budget::default()
        }
    }

    /// True iff no limit of any kind is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_subsets.is_none()
            && self.max_candidates.is_none()
            && self.cancel.is_none()
    }

    /// Starts the clock: the meter engines thread through their loops.
    /// Polls once immediately, so a pre-cancelled token or already-past
    /// deadline trips on the very first charge even of a tiny solve.
    pub fn start(&self) -> BudgetMeter {
        let mut meter = BudgetMeter {
            start: Instant::now(),
            deadline: self.deadline,
            max_subsets: self.max_subsets,
            max_candidates: self.max_candidates,
            cancel: self.cancel.clone(),
            unlimited: self.is_unlimited(),
            subsets: 0,
            candidates: 0,
            since_poll: 0,
            exhausted: None,
        };
        meter.check();
        meter
    }
}

/// How many charges may pass between wall-clock / cancellation polls.
/// Candidate evaluations are tens of nanoseconds, so 256 charges keep the
/// reaction to a deadline well under a millisecond while amortizing the
/// `Instant::now()` cost away.
const POLL_INTERVAL: u64 = 256;

/// A running budget: counters plus the start instant. Exhaustion is
/// sticky — once a limit trips, every later check reports it.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    start: Instant,
    deadline: Option<Duration>,
    max_subsets: Option<u64>,
    max_candidates: Option<u64>,
    cancel: Option<CancelToken>,
    unlimited: bool,
    subsets: u64,
    candidates: u64,
    since_poll: u64,
    exhausted: Option<ExhaustReason>,
}

impl BudgetMeter {
    /// A meter that never exhausts.
    pub fn unlimited() -> BudgetMeter {
        Budget::unlimited().start()
    }

    /// Charges `n` subset evaluations; returns `true` while within budget.
    #[inline]
    pub fn charge_subsets(&mut self, n: u64) -> bool {
        self.subsets += n;
        if self.unlimited {
            return true;
        }
        if let Some(limit) = self.max_subsets {
            if self.subsets > limit {
                self.exhausted.get_or_insert(ExhaustReason::SubsetLimit);
            }
        }
        self.poll(n)
    }

    /// Charges `n` candidate evaluations; returns `true` while within
    /// budget.
    #[inline]
    pub fn charge_candidates(&mut self, n: u64) -> bool {
        self.candidates += n;
        if self.unlimited {
            return true;
        }
        if let Some(limit) = self.max_candidates {
            if self.candidates > limit {
                self.exhausted.get_or_insert(ExhaustReason::CandidateLimit);
            }
        }
        self.poll(n)
    }

    /// Polls the deadline and the cancel token unconditionally; returns
    /// `true` while within budget. Use at coarse boundaries (level
    /// starts, machine phases) where a stale poll would overshoot.
    pub fn check(&mut self) -> bool {
        if self.unlimited {
            return true;
        }
        self.since_poll = 0;
        if self.exhausted.is_none() {
            if let Some(d) = self.deadline {
                if self.start.elapsed() > d {
                    self.exhausted = Some(ExhaustReason::Deadline);
                }
            }
        }
        if self.exhausted.is_none() {
            if let Some(c) = &self.cancel {
                if c.is_cancelled() {
                    self.exhausted = Some(ExhaustReason::Cancelled);
                }
            }
        }
        self.exhausted.is_none()
    }

    #[inline]
    fn poll(&mut self, n: u64) -> bool {
        self.since_poll += n;
        if self.since_poll >= POLL_INTERVAL {
            return self.check();
        }
        self.exhausted.is_none()
    }

    /// Why the budget ran out, if it did.
    pub fn exhausted(&self) -> Option<ExhaustReason> {
        self.exhausted
    }

    /// Subsets charged so far.
    pub fn subsets(&self) -> u64 {
        self.subsets
    }

    /// Candidates charged so far.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Wall-clock time since the meter started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_exhausts() {
        let mut m = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            assert!(m.charge_candidates(1));
            assert!(m.charge_subsets(1));
        }
        assert!(m.check());
        assert_eq!(m.exhausted(), None);
        assert_eq!(m.candidates(), 10_000);
        assert_eq!(m.subsets(), 10_000);
    }

    #[test]
    fn candidate_limit_trips_and_sticks() {
        let mut m = Budget::with_max_candidates(10).start();
        assert!(m.charge_candidates(10));
        assert!(!m.charge_candidates(1));
        assert_eq!(m.exhausted(), Some(ExhaustReason::CandidateLimit));
        // Sticky even if later charges would fit.
        assert!(!m.check());
        assert_eq!(m.exhausted(), Some(ExhaustReason::CandidateLimit));
    }

    #[test]
    fn subset_limit_trips() {
        let mut m = Budget {
            max_subsets: Some(4),
            ..Budget::default()
        }
        .start();
        assert!(m.charge_subsets(4));
        assert!(!m.charge_subsets(1));
        assert_eq!(m.exhausted(), Some(ExhaustReason::SubsetLimit));
    }

    #[test]
    fn zero_deadline_trips_on_first_check() {
        let mut m = Budget::with_deadline(Duration::ZERO).start();
        assert!(!m.check());
        assert_eq!(m.exhausted(), Some(ExhaustReason::Deadline));
    }

    #[test]
    fn deadline_is_polled_within_the_interval() {
        let mut m = Budget::with_deadline(Duration::ZERO).start();
        let mut charged = 0u64;
        while m.charge_candidates(1) {
            charged += 1;
            assert!(charged <= POLL_INTERVAL, "poll never fired");
        }
        assert_eq!(m.exhausted(), Some(ExhaustReason::Deadline));
    }

    #[test]
    fn cancel_token_observed() {
        let token = CancelToken::new();
        let mut m = Budget {
            cancel: Some(token.clone()),
            ..Budget::default()
        }
        .start();
        assert!(m.check());
        token.cancel();
        assert!(!m.check());
        assert_eq!(m.exhausted(), Some(ExhaustReason::Cancelled));
    }

    #[test]
    fn budget_reports_unlimited_correctly() {
        assert!(Budget::unlimited().is_unlimited());
        assert!(!Budget::with_deadline(Duration::from_millis(1)).is_unlimited());
        assert!(!Budget::with_max_candidates(5).is_unlimited());
    }
}
