//! Supervision holds one lattice. This test binary counts every heap
//! byte through its own global allocator and pins the peak of a
//! supervised `seq` solve at k = 16 to one `2^k × 8 B` cost slab plus
//! the kernel's rank buffer: the supervisor lends the engine its
//! wavefront instead of copying each level into a second lattice (that
//! copy, with its 4-byte argmin per cell, added 12 B per cell).
//!
//! The same wavefront is what a failover resumes from, so this file also
//! kills a kernel engine partway through a level and checks what the
//! next engine inherits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::solver::budget::Budget;
use tt_core::solver::checkpoint::{Checkpoint, LevelView};
use tt_core::solver::engine::{EngineKind, SolveReport, Solver};
use tt_core::solver::kernel;
use tt_core::solver::supervise::{supervise, SuperviseOptions};
use tt_core::subset::frontier::binomial;
use tt_core::subset::Subset;
use tt_workloads::catalog::Domain;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests of this binary run one at a time, so no test's
/// allocations land in another's peak.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn no_retries() -> SuperviseOptions {
    SuperviseOptions {
        retries_per_engine: 0,
        backoff: Duration::ZERO,
        ..SuperviseOptions::default()
    }
}

#[test]
fn supervising_seq_at_k16_holds_one_cost_slab() {
    let _serial = serial();
    let inst = Domain::Medical.generate(16, 7);
    let chain = vec![tt_core::solver::lookup("seq").unwrap()];
    // One untimed run first: registry, telemetry and thread-locals
    // allocate once per process, not per solve.
    let cold = supervise(&inst, &chain, &Budget::unlimited(), &no_retries());
    drop(cold);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let r = supervise(&inst, &chain, &Budget::unlimited(), &no_retries());
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert!(r.report.outcome.is_complete());
    assert_eq!(
        r.report.cost,
        tt_core::solver::sequential::solve(&inst).cost
    );
    let slab = (1usize << 16) * std::mem::size_of::<Cost>();
    let rank_buffer = kernel::WINDOW * std::mem::size_of::<Cost>();
    let slack = 128 << 10;
    assert!(
        peak <= slab + rank_buffer + slack,
        "peak live heap {peak} B exceeds one {slab} B slab + {rank_buffer} B rank buffer + \
         {slack} B slack"
    );
    // The checkpoint handed out is that slab, cost-only.
    let ck = r.checkpoint.expect("the wavefront");
    assert_eq!((ck.level, ck.cost.len(), ck.best.len()), (16, 1 << 16, 0));
}

/// Runs the level kernel through level `completed`, writes every other
/// cell of the next level as a window scatter cut short leaves it, then
/// panics.
struct DiesMidLevel {
    completed: usize,
}

impl Solver for DiesMidLevel {
    fn name(&self) -> &'static str {
        "dies-mid-level"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Exact
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
        _budget: &Budget,
        wave: &mut Option<Checkpoint>,
        sink: &mut dyn FnMut(&LevelView<'_>),
    ) -> SolveReport {
        let wave = wave.insert(Checkpoint::blank(inst));
        // A budget of exactly the first `completed` levels' candidates.
        let cells: u64 = (1..=self.completed).map(|j| binomial(inst.k(), j)).sum();
        let mut meter = Budget::with_max_candidates(cells * inst.n_actions() as u64).start();
        kernel::sweep(inst, &mut meter, &kernel::Serial, wave, sink);
        assert_eq!(wave.level, self.completed);
        for s in Subset::of_size(inst.k(), self.completed + 1).step_by(2) {
            wave.cost[s.index()] = Cost::ZERO;
        }
        panic!("died partway through level {}", self.completed + 1)
    }
}

#[test]
fn a_kernel_engine_dying_mid_level_hands_over_its_completed_levels() {
    let _serial = serial();
    let inst = Domain::Random.generate(12, 3);
    let seq = tt_core::solver::lookup("seq").unwrap();
    let mut cold_levels = Vec::new();
    let cold = seq.solve_resumable(&inst, &Budget::unlimited(), &mut None, &mut |v| {
        cold_levels.push(v.to_checkpoint());
    });
    for completed in [0, 1, 5, 11] {
        let case = format!("died in level {}", completed + 1);

        // The next engine resumes from the last completed level and
        // answers exactly.
        let chain: Vec<Box<dyn Solver>> = vec![
            Box::new(DiesMidLevel { completed }),
            tt_core::solver::lookup("seq").unwrap(),
        ];
        let r = supervise(&inst, &chain, &Budget::unlimited(), &no_retries());
        assert_eq!(r.engine, "seq", "{case}");
        assert!(r.report.outcome.is_complete(), "{case}");
        assert_eq!(r.report.cost, cold.cost, "{case}");
        let resumed = (completed > 0).then_some(completed);
        assert_eq!(r.resumed_level, resumed, "{case}");
        assert_eq!(
            r.report.work.extra("resumed_level"),
            resumed.map(|l| l as u64),
            "{case}"
        );

        // With no engine after it, the reported checkpoint is the cold
        // run's at the completed level: the half-written level is gone.
        let alone: Vec<Box<dyn Solver>> = vec![Box::new(DiesMidLevel { completed })];
        let r = supervise(&inst, &alone, &Budget::unlimited(), &no_retries());
        assert_eq!(r.engine, "supervisor", "{case}");
        match completed.checked_sub(1) {
            None => assert!(r.checkpoint.is_none(), "{case}: nothing was completed"),
            Some(at) => {
                let ck = r.checkpoint.expect("the completed levels");
                assert_eq!(ck.to_text(), cold_levels[at].to_text(), "{case}");
                assert_eq!(ck, cold_levels[at], "{case}: cells above the level");
            }
        }
    }
}
