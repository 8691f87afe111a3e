//! Per-solve telemetry: the structured record a single engine run
//! leaves behind.
//!
//! While `tt-core`'s `timed_report_with` runs an engine, a collector
//! scope is open on the current thread. Engines feed it through
//! [`record_level`] (one sample per completed DP level) and
//! [`add_counter`] (named counters: pruned candidates, checkpoint
//! latencies, machine counters). When the scope closes the collected
//! [`Telemetry`] is attached to the `SolveReport`; a scope whose engine
//! panics closes as its guard unwinds.
//!
//! Recording also fans out to the global layers: each level sample
//! bumps the `tt_dp_levels_total` / `tt_dp_cells_total` /
//! `tt_dp_candidates_total` counters and the `tt_dp_level_nanos`
//! histogram, and emits a `dp_level` trace instant when tracing is on
//! — so engines call one function and every exporter sees the level.
//!
//! Scopes nest (a supervisor solving through a fallback chain opens
//! one scope per attempt): samples go to the innermost scope only.
//! With no scope open, per-solve collection is skipped but the global
//! metrics and trace still record — instrumented library code works
//! the same outside engine runs.

use crate::{metrics, trace};
use std::cell::RefCell;

/// One completed DP level, as seen by the engine that computed it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelSample {
    /// The wavefront level `#S`.
    pub level: u32,
    /// Subset cells `C(S)` evaluated at this level.
    pub cells: u64,
    /// Candidate `(S, i)` pairs evaluated at this level.
    pub candidates: u64,
    /// Wall-clock nanoseconds the level took.
    pub nanos: u64,
}

/// The structured record of one solve, attached to every
/// `SolveReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Per-DP-level samples, in completion order (empty for engines
    /// without a level-synchronous structure).
    pub levels: Vec<LevelSample>,
    /// Named counters accumulated during the solve (checkpoint
    /// latencies, machine counters, prune counts), in first-touch
    /// order.
    pub counters: Vec<(String, u64)>,
}

impl Telemetry {
    /// Looks up a named counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Total wall time across all recorded levels, in nanoseconds.
    pub fn total_level_nanos(&self) -> u64 {
        self.levels.iter().map(|l| l.nanos).sum()
    }

    /// Did this solve record nothing at all?
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty() && self.counters.is_empty()
    }

    /// Renders the telemetry as a single JSON object:
    /// `{"levels":[{"level":1,"cells":4,"candidates":20,"nanos":123},...],"counters":{"name":v,...}}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"level\":{},\"cells\":{},\"candidates\":{},\"nanos\":{}}}",
                l.level, l.cells, l.candidates, l.nanos
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&crate::json::string(k));
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("}}");
        out
    }
}

thread_local! {
    static STACK: RefCell<Vec<Telemetry>> = const { RefCell::new(Vec::new()) };
}

/// An open collector scope on the current thread. [`finish`](Scope::finish)
/// closes it and returns what it collected; dropping it unfinished (an
/// engine that panicked) closes it too, so no scope outlives its solve.
#[must_use = "a scope closes when dropped"]
pub struct Scope {
    /// Stack depth below this scope.
    depth: usize,
    /// Scopes live on one thread's stack: not `Send`.
    _thread: std::marker::PhantomData<*const ()>,
}

impl Scope {
    /// Closes the scope (and any left open inside it) and returns what
    /// it collected.
    pub fn finish(self) -> Telemetry {
        STACK
            .with(|s| s.borrow_mut().get_mut(self.depth).map(std::mem::take))
            .unwrap_or_default()
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        // A drop must not panic, even at thread exit.
        let _ = STACK.try_with(|s| {
            if let Ok(mut s) = s.try_borrow_mut() {
                s.truncate(self.depth);
            }
        });
    }
}

/// Opens a collector scope on this thread, closed by the returned
/// guard.
pub fn begin() -> Scope {
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Telemetry::default());
        s.len() - 1
    });
    Scope {
        depth,
        _thread: std::marker::PhantomData,
    }
}

/// Is a collector scope open on this thread?
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// Records one completed DP level: into the innermost scope (if any),
/// the global metrics, and the trace stream.
pub fn record_level(level: usize, cells: u64, candidates: u64, nanos: u64) {
    let level = u32::try_from(level).unwrap_or(u32::MAX);
    STACK.with(|s| {
        if let Some(t) = s.borrow_mut().last_mut() {
            t.levels.push(LevelSample {
                level,
                cells,
                candidates,
                nanos,
            });
        }
    });
    metrics::counter("tt_dp_levels_total").inc();
    metrics::counter("tt_dp_cells_total").add(cells);
    metrics::counter("tt_dp_candidates_total").add(candidates);
    metrics::histogram("tt_dp_level_nanos").record(nanos);
    if trace::enabled() {
        trace::instant(
            "dp_level",
            vec![
                ("level".to_string(), u64::from(level).into()),
                ("cells".to_string(), cells.into()),
                ("candidates".to_string(), candidates.into()),
                ("nanos".to_string(), nanos.into()),
            ],
        );
    }
}

/// Accumulates `delta` into the named per-solve counter of the
/// innermost scope (no-op without one).
pub fn add_counter(name: &str, delta: u64) {
    STACK.with(|s| {
        if let Some(t) = s.borrow_mut().last_mut() {
            match t.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v += delta,
                None => t.counters.push((name.to_string(), delta)),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Held by every test that calls [`record_level`]: the level
    /// counters are process-global and tests run on parallel threads,
    /// so an exact before/after reading needs the others kept out.
    fn record_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn scope_collects_levels_and_counters() {
        let _serial = record_lock();
        let scope = begin();
        record_level(1, 4, 20, 100);
        record_level(2, 6, 30, 200);
        add_counter("pruned", 3);
        add_counter("pruned", 2);
        let t = scope.finish();
        assert_eq!(t.levels.len(), 2);
        assert_eq!(t.levels[1].candidates, 30);
        assert_eq!(t.counter("pruned"), Some(5));
        assert_eq!(t.counter("absent"), None);
        assert_eq!(t.total_level_nanos(), 300);
        assert!(!t.is_empty());
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let _serial = record_lock();
        let outer = begin();
        record_level(1, 1, 1, 1);
        let inner = begin();
        record_level(1, 9, 9, 9);
        let inner = inner.finish();
        let outer = outer.finish();
        assert_eq!(inner.levels.len(), 1);
        assert_eq!(inner.levels[0].cells, 9);
        assert_eq!(outer.levels.len(), 1);
        assert_eq!(outer.levels[0].cells, 1);
    }

    #[test]
    fn a_dropped_scope_closes_itself() {
        let _serial = record_lock();
        assert!(!active());
        let outer = begin();
        drop(begin());
        record_level(1, 2, 3, 4);
        assert_eq!(outer.finish().levels.len(), 1);
        assert!(!active());
    }

    #[test]
    fn recording_without_a_scope_still_feeds_global_metrics() {
        let _serial = record_lock();
        let before = metrics::counter("tt_dp_levels_total").get();
        record_level(3, 10, 50, 123);
        assert_eq!(metrics::counter("tt_dp_levels_total").get(), before + 1);
    }

    #[test]
    fn telemetry_json_shape() {
        let t = Telemetry {
            levels: vec![LevelSample {
                level: 1,
                cells: 4,
                candidates: 20,
                nanos: 99,
            }],
            counters: vec![("checkpoint_saves".to_string(), 2)],
        };
        assert_eq!(
            t.to_json(),
            "{\"levels\":[{\"level\":1,\"cells\":4,\"candidates\":20,\"nanos\":99}],\"counters\":{\"checkpoint_saves\":2}}"
        );
        assert_eq!(
            Telemetry::default().to_json(),
            "{\"levels\":[],\"counters\":{}}"
        );
    }
}
