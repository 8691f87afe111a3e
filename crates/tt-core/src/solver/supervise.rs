//! Health-aware supervision of solver engines: fallback chains,
//! retry with exponential backoff, and warm failover via checkpoints.
//!
//! A single engine run can die three ways that are not the caller's
//! fault: a panic inside the backend, a machine simulator escalating
//! unrepaired faults ([`DegradeReason::FaultEscalation`]), or a
//! capacity refusal (`k` beyond what the backend can represent). The
//! supervisor wraps a *chain* of engines so that none of these ever
//! surfaces as a missing or silently wrong answer: the failing engine
//! is retried with exponential backoff, then abandoned for the next
//! engine down the chain (e.g. auto → rayon → seq → bnb).
//!
//! Failover is *warm*: every engine run goes through
//! [`Solver::solve_resumable`] over one wavefront [`Checkpoint`] the
//! supervisor lends it and keeps outside the unwind boundary. A
//! resumable engine advances that wavefront level by level — the level
//! kernel in place, as its own slab; the machine simulators by copying
//! each level they read back — so when it dies, the wavefront still
//! holds every level it completed, and the next engine in the chain
//! restarts the lattice at `level + 1` instead of from scratch. Nothing
//! is copied for the failover: a supervised kernel solve holds one
//! `2^k` lattice, the same as an unsupervised one.
//! Budget exhaustion (deadline, work ceilings, cancellation) is *not*
//! engine ill-health: the degraded bound-sandwich result is returned
//! as final, because every other engine would run out of the same
//! budget.
//!
//! When the whole chain fails, the supervisor still answers: it prices
//! the anytime incumbent out of the last checkpoint (greedy completion
//! above the wavefront) and returns an honest
//! [`Degraded`](SolveOutcome::Degraded) report. For the same reason a
//! heuristic engine reached as last resort reports `Degraded` — its
//! cost is an upper bound, and the supervisor never lets an upper
//! bound masquerade as the optimum.

use crate::instance::TtInstance;
use crate::solver::bounds::Bounds;
use crate::solver::budget::Budget;
use crate::solver::checkpoint::{Checkpoint, LevelView};
use crate::solver::engine::{
    degraded_result, registry, timed_report_with, DegradeReason, EngineKind, SolveOutcome,
    SolveReport, Solver, WorkStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Supervision policy: how often to retry a failing engine before
/// failing over, and how long to back off between retries.
#[derive(Clone, Debug)]
pub struct SuperviseOptions {
    /// Retries per engine after its first failed attempt (panic or
    /// fault escalation; capacity refusals are never retried).
    pub retries_per_engine: u32,
    /// Initial backoff before the first retry; doubles per retry.
    pub backoff: Duration,
    /// Ceiling on any single backoff sleep (pre-jitter).
    pub backoff_cap: Duration,
    /// Spread each backoff sleep over `[d/2, d]` instead of sleeping
    /// the deterministic doubling exactly. A batch of supervisors that
    /// all saw the same transient fault would otherwise retry in
    /// lockstep and re-collide; see [`jittered_backoff`].
    pub jitter: bool,
    /// Warm-start checkpoint (e.g. loaded from disk by
    /// `ttsolve --resume`); validated against the instance fingerprint
    /// before use, ignored if it belongs to another instance.
    pub resume: Option<Checkpoint>,
}

impl Default for SuperviseOptions {
    fn default() -> SuperviseOptions {
        SuperviseOptions {
            retries_per_engine: 1,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
            jitter: true,
            resume: None,
        }
    }
}

/// One splitmix64 step: tiny, seed-stable, and good enough to
/// decorrelate sleep intervals (this is jitter, not cryptography).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A process-unique jitter seed: wall clock mixed with a counter, so
/// two supervisors (or bench clients) started in the same instant still
/// draw different sleep sequences.
pub fn jitter_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
    let mut seed = nanos
        ^ COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9e37_79b9);
    // One mixing round so adjacent seeds do not produce adjacent draws.
    splitmix64(&mut seed)
}

/// The shared retry-delay policy: capped exponential backoff with
/// equal jitter. Attempt `a` targets `base · 2^min(a, 16)` clamped to
/// `cap`, and the returned sleep is drawn uniformly from the upper half
/// `[target/2, target]` — long enough to still back off, spread enough
/// that a fleet of synchronized retriers decorrelates. `state` is the
/// caller's PRNG state (see [`jitter_seed`]); deterministic callers can
/// fix it. Used by the supervisor's retry loop and by the `ttserve`
/// bencher's `Overloaded` retry path.
pub fn jittered_backoff(base: Duration, attempt: u32, cap: Duration, state: &mut u64) -> Duration {
    let target = base.saturating_mul(1 << attempt.min(16)).min(cap);
    let nanos = u64::try_from(target.as_nanos().min(u128::from(u64::MAX))).unwrap_or(u64::MAX);
    if nanos == 0 {
        return Duration::ZERO;
    }
    let half = nanos / 2;
    let jittered = half + splitmix64(state) % (nanos - half + 1);
    Duration::from_nanos(jittered)
}

/// How one engine attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The engine panicked; the payload message, when it was a string.
    Panicked(String),
    /// The engine reported [`DegradeReason::FaultEscalation`].
    FaultEscalation,
    /// The engine refused the instance for capacity (`k > max_k()`,
    /// pre-checked, or an in-engine [`DegradeReason::Capacity`]).
    Capacity,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panicked(msg) => write!(f, "panicked: {msg}"),
            FailureKind::FaultEscalation => write!(f, "unrecovered machine faults"),
            FailureKind::Capacity => write!(f, "capacity refusal"),
        }
    }
}

/// One failed attempt, for the supervision log.
#[derive(Clone, Debug)]
pub struct AttemptFailure {
    /// Engine that failed.
    pub engine: String,
    /// 0-based attempt index within that engine (0 = first try).
    pub attempt: u32,
    /// How it failed.
    pub kind: FailureKind,
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} attempt {}: {}", self.engine, self.attempt, self.kind)
    }
}

/// The supervisor's result: the winning report plus the health log.
#[derive(Clone, Debug)]
pub struct SuperviseReport {
    /// The final report (from the winning engine, or synthesized from
    /// the last checkpoint when the whole chain failed).
    pub report: SolveReport,
    /// Name of the engine that produced `report` (for `auto`, the
    /// engine it delegated to), or `"supervisor"` for a synthesized
    /// chain-exhausted result.
    pub engine: String,
    /// Every failed attempt, in order.
    pub failures: Vec<AttemptFailure>,
    /// Engines abandoned before the final answer.
    pub failovers: u32,
    /// Total retries across all engines.
    pub retries: u32,
    /// Wavefront level the winning engine warm-started from, when it
    /// resumed a checkpoint.
    pub resumed_level: Option<usize>,
    /// The wavefront at the end of supervision, priced (for saving to
    /// disk; `None` when no resumable engine completed a level). It is
    /// the engines' own slab, moved out, not a copy.
    pub checkpoint: Option<Checkpoint>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The budget for the next attempt: the caller's budget with the
/// wall-clock deadline shrunk by what supervision has already spent.
/// `None` means the overall deadline is gone — stop attempting.
/// Work ceilings are per-attempt (each engine redoes its own work).
fn remaining(budget: &Budget, start: Instant) -> Option<Budget> {
    match budget.deadline {
        None => Some(budget.clone()),
        Some(d) => d
            .checked_sub(start.elapsed())
            .filter(|r| !r.is_zero())
            .map(|r| Budget {
                deadline: Some(r),
                ..budget.clone()
            }),
    }
}

/// The default failover chain for a `k`-object instance: the `auto`
/// engine, which picks the host engine at solve time, then the tail
/// rayon → seq → bnb → memo → greedy, each kept only when it is
/// registered and its `max_k()` admits `k`. Built from the live
/// [`registry`], so it sees whatever extensions are linked in. Building
/// it probes nothing: `auto` decides when it runs. The machine
/// simulators are never in it; a caller that wants one names it.
pub fn chain_for_shape(k: usize) -> Vec<Box<dyn Solver>> {
    let mut pool = registry();
    let mut chain: Vec<Box<dyn Solver>> = Vec::new();
    for name in ["auto", "rayon", "seq", "bnb", "memo", "greedy"] {
        if let Some(pos) = pool.iter().position(|e| e.name() == name && e.max_k() >= k) {
            chain.push(pool.remove(pos));
        }
    }
    chain
}

/// Runs `inst` through the supervision chain. See the module docs for
/// the retry/failover policy.
pub fn supervise(
    inst: &TtInstance,
    chain: &[Box<dyn Solver>],
    budget: &Budget,
    opts: &SuperviseOptions,
) -> SuperviseReport {
    supervise_with_observer(inst, chain, budget, opts, &mut |_| {})
}

/// As [`supervise`], with an observer handed the owned [`Checkpoint`]
/// of every level any engine completes. Each one is built for the
/// observer; one that only persists some levels should use
/// [`supervise_with_observer`] and build those alone. The observer
/// runs inside the supervised region: it must not panic.
pub fn supervise_with_sink(
    inst: &TtInstance,
    chain: &[Box<dyn Solver>],
    budget: &Budget,
    opts: &SuperviseOptions,
    observer: &mut dyn FnMut(&Checkpoint),
) -> SuperviseReport {
    supervise_with_observer(inst, chain, budget, opts, &mut |view| {
        observer(&view.to_checkpoint());
    })
}

/// As [`supervise`], with an observer handed a borrowed [`LevelView`]
/// of every level any engine completes (e.g. to persist it for
/// `--resume` via [`LevelView::to_checkpoint`]). The observer runs
/// inside the supervised region: it must not panic.
pub fn supervise_with_observer(
    inst: &TtInstance,
    chain: &[Box<dyn Solver>],
    budget: &Budget,
    opts: &SuperviseOptions,
    observer: &mut dyn FnMut(&LevelView<'_>),
) -> SuperviseReport {
    let start = Instant::now();
    // The wavefront every engine resumes from and advances. It lives
    // outside the unwind boundary, so a panicking engine's completed
    // levels survive into the next attempt.
    let mut wave = opts.resume.as_ref().filter(|ck| ck.matches(inst)).cloned();
    let mut failures: Vec<AttemptFailure> = Vec::new();
    let mut retries = 0u32;
    let mut failovers = 0u32;
    let mut deadline_spent = false;
    let mut jitter_state = jitter_seed();

    'chain: for engine in chain {
        // Cheap capacity pre-check: don't even start an engine the
        // instance cannot fit into.
        if inst.k() > engine.max_k() {
            failures.push(AttemptFailure {
                engine: engine.name().to_string(),
                attempt: 0,
                kind: FailureKind::Capacity,
            });
            failovers += 1;
            continue;
        }
        let mut attempt = 0u32;
        loop {
            let Some(attempt_budget) = remaining(budget, start) else {
                deadline_spent = true;
                break 'chain;
            };
            let resumed_level = if engine.resumable() {
                wave.as_ref().map(|ck| ck.level)
            } else {
                None
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                engine.solve_resumable(inst, &attempt_budget, &mut wave, &mut *observer)
            }));
            let kind = match result {
                Err(payload) => FailureKind::Panicked(panic_message(payload)),
                Ok(report) => match report.outcome {
                    SolveOutcome::Degraded {
                        reason: DegradeReason::FaultEscalation,
                        ..
                    } => FailureKind::FaultEscalation,
                    SolveOutcome::Degraded {
                        reason: DegradeReason::Capacity,
                        ..
                    } => FailureKind::Capacity,
                    // Complete, or degraded by the caller's own budget:
                    // this is the final answer — every other engine
                    // would exhaust the same budget.
                    _ => {
                        let report = honest(inst, engine.kind(), report, &failures);
                        let name = report
                            .selection
                            .as_ref()
                            .map_or(engine.name(), |s| s.engine.as_str())
                            .to_string();
                        return SuperviseReport {
                            report,
                            engine: name,
                            failures,
                            failovers,
                            retries,
                            resumed_level,
                            checkpoint: priced(inst, wave),
                        };
                    }
                },
            };
            keep_completed(&mut wave);
            let retryable = !matches!(kind, FailureKind::Capacity);
            failures.push(AttemptFailure {
                engine: engine.name().to_string(),
                attempt,
                kind,
            });
            if retryable && attempt < opts.retries_per_engine {
                if !opts.backoff.is_zero() {
                    // Exponential (backoff, 2·backoff, 4·backoff, …)
                    // capped and — unless disabled — jittered, so a
                    // batch of supervisors hit by the same transient
                    // does not retry in lockstep.
                    let delay = if opts.jitter {
                        jittered_backoff(opts.backoff, attempt, opts.backoff_cap, &mut jitter_state)
                    } else {
                        opts.backoff
                            .saturating_mul(1 << attempt.min(16))
                            .min(opts.backoff_cap)
                    };
                    std::thread::sleep(delay);
                }
                attempt += 1;
                retries += 1;
                continue;
            }
            failovers += 1;
            break;
        }
    }

    // The chain is exhausted (or the deadline is). Never return
    // nothing: price the incumbent out of the last checkpoint.
    let reason = if deadline_spent {
        DegradeReason::Deadline
    } else if failures
        .iter()
        .all(|f| matches!(f.kind, FailureKind::Capacity))
    {
        DegradeReason::Capacity
    } else {
        DegradeReason::FaultEscalation
    };
    let report = timed_report_with(|| match &wave {
        Some(ck) => degraded_result(inst, reason, &|s| ck.exact(s), WorkStats::default()),
        None => degraded_result(inst, reason, &|_| None, WorkStats::default()),
    });
    SuperviseReport {
        report,
        engine: "supervisor".to_string(),
        failures,
        failovers,
        retries,
        resumed_level: None,
        checkpoint: priced(inst, wave),
    }
}

/// After a failed attempt the wavefront keeps only what the engine
/// completed: cells a level cut short by a panic wrote above it are
/// forgotten, and a wavefront that never got past level 0 is dropped,
/// so the next engine starts cold.
fn keep_completed(wave: &mut Option<Checkpoint>) {
    match wave {
        Some(ck) if ck.level == 0 => *wave = None,
        Some(ck) => ck.forget_above(),
        None => {}
    }
}

/// The wavefront as handed out in a [`SuperviseReport`], with its bound
/// sandwich priced.
fn priced(inst: &TtInstance, wave: Option<Checkpoint>) -> Option<Checkpoint> {
    let mut ck = wave?;
    ck.price(inst);
    Some(ck)
}

/// A heuristic's `Complete` is an upper bound, not the optimum; under
/// supervision it is re-labeled as an honest degraded bound sandwich
/// carrying the reason the exact engines ahead of it were abandoned.
fn honest(
    inst: &TtInstance,
    kind: EngineKind,
    mut report: SolveReport,
    failures: &[AttemptFailure],
) -> SolveReport {
    if kind == EngineKind::Heuristic && report.outcome.is_complete() {
        let reason = match failures.last() {
            Some(AttemptFailure {
                kind: FailureKind::Capacity,
                ..
            })
            | None => DegradeReason::Capacity,
            Some(_) => DegradeReason::FaultEscalation,
        };
        report.outcome = SolveOutcome::Degraded {
            upper_bound: report.cost,
            lower_bound: Bounds::lower_bound_at(inst, inst.universe()),
            reason,
        };
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
    use crate::solver::engine::{capacity_result, lookup};
    use crate::solver::sequential;
    use crate::subset::Subset;

    fn inst() -> TtInstance {
        TtInstanceBuilder::new(4)
            .weights([4, 3, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2]), 2)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .treatment(Subset::from_iter([3]), 2)
            .build()
            .unwrap()
    }

    fn fast_opts() -> SuperviseOptions {
        SuperviseOptions {
            retries_per_engine: 1,
            backoff: Duration::ZERO,
            ..SuperviseOptions::default()
        }
    }

    /// Panics on every attempt.
    struct Panicky;
    impl Solver for Panicky {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn kind(&self) -> EngineKind {
            EngineKind::Machine
        }
        fn solve_with(&self, _: &TtInstance, _: &Budget) -> SolveReport {
            panic!("injected panic")
        }
    }

    /// Always reports unrecovered machine faults.
    struct Escalating;
    impl Solver for Escalating {
        fn name(&self) -> &'static str {
            "escalating"
        }
        fn kind(&self) -> EngineKind {
            EngineKind::Machine
        }
        fn solve_with(&self, inst: &TtInstance, _: &Budget) -> SolveReport {
            timed_report_with(|| {
                degraded_result(
                    inst,
                    DegradeReason::FaultEscalation,
                    &|_| None,
                    WorkStats::default(),
                )
            })
        }
    }

    /// Refuses every instance for capacity from inside the run.
    struct Refusing;
    impl Solver for Refusing {
        fn name(&self) -> &'static str {
            "refusing"
        }
        fn kind(&self) -> EngineKind {
            EngineKind::Machine
        }
        fn solve_with(&self, inst: &TtInstance, _: &Budget) -> SolveReport {
            timed_report_with(|| capacity_result(inst, WorkStats::default()))
        }
    }

    /// Emits checkpoints through level `die_after`, then panics —
    /// a machine dying mid-lattice with its wavefront saved, inside its
    /// own telemetry scope as a real engine would.
    struct EmitThenPanic {
        die_after: usize,
    }
    impl Solver for EmitThenPanic {
        fn name(&self) -> &'static str {
            "emit-then-panic"
        }
        fn kind(&self) -> EngineKind {
            EngineKind::Machine
        }
        fn resumable(&self) -> bool {
            true
        }
        fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
            self.solve_resumable(inst, budget, &mut None, &mut |_| {})
        }
        fn solve_resumable(
            &self,
            inst: &TtInstance,
            budget: &Budget,
            wave: &mut Option<Checkpoint>,
            sink: &mut dyn FnMut(&LevelView<'_>),
        ) -> SolveReport {
            let mut meter = budget.start();
            let die = self.die_after;
            timed_report_with(|| {
                crate::solver::kernel::sweep(
                    inst,
                    &mut meter,
                    &crate::solver::kernel::Serial,
                    wave.insert(Checkpoint::blank(inst)),
                    &mut |view| {
                        sink(view);
                        assert!(view.level() < die, "injected mid-lattice death");
                    },
                );
                unreachable!("test engine must die before finishing")
            })
        }
    }

    #[test]
    fn panicking_primary_fails_over_to_seq() {
        let i = inst();
        let optimum = sequential::solve(&i).cost;
        let chain: Vec<Box<dyn Solver>> = vec![Box::new(Panicky), lookup("seq").unwrap()];
        let r = supervise(&i, &chain, &Budget::unlimited(), &fast_opts());
        assert!(r.report.outcome.is_complete());
        assert_eq!(r.report.cost, optimum);
        assert_eq!(r.engine, "seq");
        assert_eq!(r.failovers, 1);
        assert_eq!(r.retries, 1);
        assert_eq!(r.failures.len(), 2);
        assert!(matches!(r.failures[0].kind, FailureKind::Panicked(_)));
    }

    #[test]
    fn an_engine_panicking_mid_solve_leaves_no_telemetry_scope_open() {
        let i = inst();
        let chain: Vec<Box<dyn Solver>> = vec![
            Box::new(EmitThenPanic { die_after: 2 }),
            lookup("seq").unwrap(),
        ];
        let r = supervise(&i, &chain, &Budget::unlimited(), &fast_opts());
        assert_eq!(r.engine, "seq");
        assert!(matches!(r.failures[0].kind, FailureKind::Panicked(_)));
        assert!(
            !tt_obs::telemetry::active(),
            "the dead engine's scope leaked"
        );
        // With no scope open, a later level feeds only the global layers.
        tt_obs::telemetry::record_level(1, 1, 1, 1);
        assert!(!tt_obs::telemetry::active());
    }

    #[test]
    fn fault_escalation_retries_then_fails_over() {
        let i = inst();
        let optimum = sequential::solve(&i).cost;
        let chain: Vec<Box<dyn Solver>> = vec![Box::new(Escalating), lookup("seq").unwrap()];
        let opts = SuperviseOptions {
            retries_per_engine: 2,
            ..fast_opts()
        };
        let r = supervise(&i, &chain, &Budget::unlimited(), &opts);
        assert_eq!(r.report.cost, optimum);
        assert_eq!(r.retries, 2);
        assert_eq!(r.failures.len(), 3, "initial try + 2 retries");
        assert!(r
            .failures
            .iter()
            .all(|f| f.kind == FailureKind::FaultEscalation));
        assert_eq!(r.failovers, 1);
    }

    #[test]
    fn capacity_precheck_skips_undersized_engines_without_calling_them() {
        let i = TtInstanceBuilder::new(5)
            .weights([1, 1, 1, 1, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .treatment(Subset::universe(5), 3)
            .build()
            .unwrap();
        // exhaustive's max_k is 3; the pre-check must skip it unretried.
        let chain: Vec<Box<dyn Solver>> =
            vec![lookup("exhaustive").unwrap(), lookup("seq").unwrap()];
        let r = supervise(&i, &chain, &Budget::unlimited(), &fast_opts());
        assert!(r.report.outcome.is_complete());
        assert_eq!(r.engine, "seq");
        assert_eq!(r.retries, 0);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].kind, FailureKind::Capacity);
    }

    #[test]
    fn in_engine_capacity_refusal_is_not_retried() {
        let i = inst();
        let chain: Vec<Box<dyn Solver>> = vec![Box::new(Refusing), lookup("seq").unwrap()];
        let r = supervise(&i, &chain, &Budget::unlimited(), &fast_opts());
        assert_eq!(r.engine, "seq");
        assert_eq!(r.retries, 0);
        assert_eq!(r.failures.len(), 1);
        assert_eq!(r.failures[0].kind, FailureKind::Capacity);
    }

    #[test]
    fn budget_exhaustion_is_final_not_a_failure() {
        let i = inst();
        let chain: Vec<Box<dyn Solver>> = vec![lookup("seq").unwrap(), lookup("bnb").unwrap()];
        let r = supervise(&i, &chain, &Budget::with_max_candidates(1), &fast_opts());
        assert_eq!(r.engine, "seq", "must not fail over on a blown budget");
        assert_eq!(r.failovers, 0);
        assert!(r.failures.is_empty());
        match r.report.outcome {
            SolveOutcome::Degraded { reason, .. } => {
                assert_eq!(reason, DegradeReason::CandidateLimit)
            }
            SolveOutcome::Complete => panic!("starved budget must degrade"),
        }
    }

    #[test]
    fn warm_handoff_resumes_mid_lattice() {
        let i = inst();
        let optimum = sequential::solve(&i).cost;
        let die_after = 2;
        let chain: Vec<Box<dyn Solver>> = vec![
            Box::new(EmitThenPanic { die_after }),
            lookup("seq").unwrap(),
        ];
        let opts = SuperviseOptions {
            retries_per_engine: 0,
            ..fast_opts()
        };
        let r = supervise(&i, &chain, &Budget::unlimited(), &opts);
        assert!(r.report.outcome.is_complete());
        assert_eq!(r.report.cost, optimum);
        assert_eq!(r.engine, "seq");
        assert_eq!(r.resumed_level, Some(die_after));
        assert_eq!(r.report.work.extra("resumed_level"), Some(die_after as u64));
        // The warm restart recomputes only levels above the wavefront.
        let cold = lookup("seq").unwrap().solve(&i);
        assert!(
            r.report.work.subsets < cold.work.subsets,
            "resume must redo strictly fewer subsets ({} vs {})",
            r.report.work.subsets,
            cold.work.subsets
        );
    }

    #[test]
    fn exhausted_chain_synthesizes_a_degraded_answer_from_the_checkpoint() {
        let i = inst();
        let optimum = sequential::solve(&i).cost;
        let chain: Vec<Box<dyn Solver>> = vec![Box::new(EmitThenPanic { die_after: 2 })];
        let opts = SuperviseOptions {
            retries_per_engine: 0,
            ..fast_opts()
        };
        let r = supervise(&i, &chain, &Budget::unlimited(), &opts);
        assert_eq!(r.engine, "supervisor");
        assert_eq!(r.checkpoint.as_ref().map(|c| c.level), Some(2));
        match r.report.outcome {
            SolveOutcome::Degraded {
                upper_bound,
                lower_bound,
                reason,
            } => {
                assert_eq!(reason, DegradeReason::FaultEscalation);
                assert!(lower_bound <= optimum);
                assert!(upper_bound >= optimum);
                assert!(upper_bound.is_finite(), "incumbent priced from checkpoint");
            }
            SolveOutcome::Complete => panic!("exhausted chain cannot be complete"),
        }
        let t = r.report.tree.as_ref().expect("incumbent tree");
        t.validate(&i).unwrap();
    }

    #[test]
    fn heuristic_last_resort_is_reported_degraded() {
        let i = inst();
        let optimum = sequential::solve(&i).cost;
        let chain: Vec<Box<dyn Solver>> = vec![Box::new(Panicky), lookup("greedy").unwrap()];
        let r = supervise(&i, &chain, &Budget::unlimited(), &fast_opts());
        assert_eq!(r.engine, "greedy");
        match r.report.outcome {
            SolveOutcome::Degraded {
                upper_bound,
                lower_bound,
                ..
            } => {
                assert_eq!(upper_bound, r.report.cost);
                assert!(lower_bound <= optimum);
                assert!(upper_bound >= optimum);
            }
            SolveOutcome::Complete => {
                panic!("a heuristic under supervision must not claim completeness")
            }
        }
    }

    #[test]
    fn empty_chain_still_answers() {
        let i = inst();
        let r = supervise(&i, &[], &Budget::unlimited(), &fast_opts());
        assert_eq!(r.engine, "supervisor");
        match r.report.outcome {
            SolveOutcome::Degraded { reason, .. } => assert_eq!(reason, DegradeReason::Capacity),
            SolveOutcome::Complete => panic!(),
        }
    }

    #[test]
    fn resume_option_seeds_the_first_engine() {
        let i = inst();
        let sol = sequential::solve(&i);
        let ck = LevelView::dense(&i, 3, &sol.tables.cost).to_checkpoint();
        let opts = SuperviseOptions {
            resume: Some(ck),
            ..fast_opts()
        };
        let chain: Vec<Box<dyn Solver>> = vec![lookup("seq").unwrap()];
        let r = supervise(&i, &chain, &Budget::unlimited(), &opts);
        assert!(r.report.outcome.is_complete());
        assert_eq!(r.report.cost, sol.cost);
        assert_eq!(r.resumed_level, Some(3));
    }

    #[test]
    fn observer_sees_every_level_checkpoint() {
        let i = inst();
        let chain: Vec<Box<dyn Solver>> = vec![lookup("seq").unwrap()];
        let mut levels = Vec::new();
        let r = supervise_with_sink(&i, &chain, &Budget::unlimited(), &fast_opts(), &mut |ck| {
            levels.push(ck.level)
        });
        assert!(r.report.outcome.is_complete());
        assert_eq!(levels, vec![1, 2, 3, 4]);
    }

    #[test]
    fn chain_for_shape_orders_software_tail() {
        // Only tt-core engines are registered here, so `rayon` is absent;
        // no machine heads the chain at any k.
        for k in 1..=crate::MAX_K {
            let names: Vec<&str> = chain_for_shape(k).iter().map(|e| e.name()).collect();
            assert_eq!(names, ["auto", "seq", "bnb", "memo", "greedy"], "k={k}");
        }
    }

    #[test]
    fn jittered_backoff_stays_in_the_upper_half_of_the_capped_target() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        let mut state = 7u64;
        for attempt in 0..20 {
            let target = base.saturating_mul(1 << attempt.min(16)).min(cap);
            for _ in 0..64 {
                let d = jittered_backoff(base, attempt, cap, &mut state);
                assert!(
                    d >= target / 2,
                    "attempt {attempt}: {d:?} < {:?}",
                    target / 2
                );
                assert!(d <= target, "attempt {attempt}: {d:?} > {target:?}");
            }
        }
    }

    #[test]
    fn jittered_backoff_zero_base_never_sleeps() {
        let mut state = 1u64;
        assert_eq!(
            jittered_backoff(Duration::ZERO, 5, Duration::from_secs(1), &mut state),
            Duration::ZERO
        );
    }

    #[test]
    fn jittered_backoff_actually_varies() {
        let base = Duration::from_millis(64);
        let cap = Duration::from_secs(10);
        let mut state = jitter_seed();
        let draws: std::collections::HashSet<Duration> = (0..32)
            .map(|_| jittered_backoff(base, 3, cap, &mut state))
            .collect();
        assert!(draws.len() > 1, "32 draws collapsed to one value");
    }

    #[test]
    fn jitter_seeds_differ_across_calls() {
        let a = jitter_seed();
        let b = jitter_seed();
        assert_ne!(a, b);
    }
}
