//! Heavy validation runs, gated behind `--ignored` (run with
//! `cargo test --release -- --ignored` before a release).
//!
//! These push each component well past the sizes the regular suite uses:
//! large-universe solver agreement, `memo` at k = 25, the level kernel
//! and `memo` on the catalog at k = 20, a 2^20-PE CCC pass, and a bigger
//! bit-serial BVM solve.
//!
//! Two are timing pins, meaningful only in release: the observability
//! seam's overhead and the solution cache's warm-hit speed. Each takes
//! batched samples of both sides interleaved (machine-speed drift hits
//! both equally) and compares fastest to fastest (scheduler noise only
//! ever adds time). They hold `TIMING` exclusively; every other test
//! here holds it shared, so no solve runs beside a measurement.

use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};
use tt_cache::SolutionCache;
use tt_core::solver::budget::Budget;
use tt_core::solver::{branch_and_bound, kernel, memo, sequential};
use tt_parallel::{bvm as bvm_tt, ccc as ccc_tt, hyper, rayon_solver};
use tt_workloads::random::RandomConfig;
use tt_workloads::random_adequate;

/// Held exclusively by the timing pins and shared by every other test.
static TIMING: RwLock<()> = RwLock::new(());

fn untimed() -> RwLockReadGuard<'static, ()> {
    TIMING.read().unwrap_or_else(PoisonError::into_inner)
}

/// Calls of `f` per sample, so that one sample spans about `span`: a
/// statistic over microsecond single calls is scheduler noise, not a
/// measurement. Also warms `f` up.
fn batch_size(span: Duration, f: &mut dyn FnMut()) -> u32 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1);
    (span.as_nanos() / once).clamp(1, 10_000) as u32
}

/// Wall time per call of `f`, over one batch of `iters` calls.
fn per_call(iters: u32, f: &mut dyn FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

#[test]
#[ignore = "heavy: ~2^16 subsets × many actions"]
fn large_universe_solver_agreement() {
    let _shared = untimed();
    let inst = random_adequate(16, 77);
    let seq = sequential::solve_tables(&inst);
    let ray = rayon_solver::solve_tables(&inst);
    assert_eq!(seq.cost, ray.cost);
    assert_eq!(seq.best, ray.best);
    let mm = memo::solve(&inst);
    assert_eq!(mm.cost, seq.cost[inst.universe().index()]);
    let bnb = branch_and_bound::solve(&inst);
    assert_eq!(bnb.cost, mm.cost);
}

/// `memo` at `MAX_K`: the catalog's random k = 25 closure is 11,336
/// subsets, and `memo` must hold just those — a `2^25`-cell slab would
/// show up as `frontier_cells_allocated` — and return a valid tree that
/// costs what it reports.
#[test]
#[ignore = "heavy: k = MAX_K, run in release with the other heavy tests"]
fn memo_at_k25_allocates_only_its_closure() {
    let _shared = untimed();
    let inst = tt_workloads::catalog::Domain::Random.generate(25, 7);
    let mm = memo::solve(&inst);
    assert_eq!(mm.frontier.cells_allocated, mm.reachable_subsets as u64);
    assert!(mm.reachable_subsets < 1 << 20, "{}", mm.reachable_subsets);
    let tree = mm.tree.expect("the catalog instance is adequate");
    tree.validate(&inst).unwrap();
    assert_eq!(tree.expected_cost(&inst), mm.cost);
}

#[test]
#[ignore = "heavy: five k = 20 catalog solves, four ways each"]
fn kernel_matches_the_reference_on_the_catalog_at_k20() {
    let _shared = untimed();
    // C(20, 10) = 184,756 cells: the middle levels span three
    // 65,536-cell windows of 64 chunks each. The reference is the
    // cell-major DP on `Cost` arithmetic; `seq`, `rayon` and `memo`
    // run the chunk pass on plain `u64`.
    tt_parallel::register_engines();
    for domain in tt_workloads::catalog::Domain::all() {
        let inst = domain.generate(20, 7);
        let reference = sequential::solve_tables(&inst).cost;
        for engine in ["seq", "rayon"] {
            let mut wave = None;
            let r = tt_core::solver::lookup(engine).unwrap().solve_resumable(
                &inst,
                &Budget::unlimited(),
                &mut wave,
                &mut |_| {},
            );
            assert!(r.outcome.is_complete(), "{domain:?} {engine}");
            let slab = wave.expect("the engine's wavefront").cost;
            assert!(slab == reference, "{domain:?} {engine}: slab differs");
        }
        let mm = memo::solve(&inst);
        assert_eq!(mm.table.iter().count(), mm.reachable_subsets + 1);
        for (s, c) in mm.table.iter() {
            assert_eq!(c, reference[s.index()], "{domain:?} memo: C({s}) differs");
        }
    }
}

#[test]
#[ignore = "heavy: hypercube with 2^17 PEs"]
fn big_hypercube_tt_run() {
    let _shared = untimed();
    let inst = RandomConfig {
        k: 12,
        n_tests: 16,
        n_treatments: 16,
        max_cost: 6,
        max_weight: 4,
    }
    .generate(3);
    let seq = sequential::solve_tables(&inst);
    let hyp = hyper::solve(&inst); // 2^(12+5) = 131072 PEs
    assert_eq!(hyp.c_table, seq.cost);
}

#[test]
#[ignore = "heavy: CCC with 2^20 PEs (the paper's implementable machine)"]
fn million_pe_ccc_ascend() {
    let _shared = untimed();
    // r = 4: Q = 16, 2^16 cycles, 2^20 PEs — the machine size the paper
    // says was implementable in 1985 VLSI.
    let mut ccc = hypercube::CccMachine::new(4, |x| (x as u64).wrapping_mul(0x9E37_79B9));
    let d = ccc.dims();
    let expect = ccc.pes().iter().copied().min().unwrap();
    ccc.ascend(0..d, |_, _, lo, hi| {
        let m = (*lo).min(*hi);
        *lo = m;
        *hi = m;
    });
    assert!(ccc.pes().iter().all(|&v| v == expect));
    let slowdown = ccc.counts().total_comm() as f64 / d as f64;
    assert!((3.0..=6.0).contains(&slowdown), "slowdown {slowdown}");
}

#[test]
#[ignore = "heavy: full bit-serial BVM solve on 2048 PEs"]
fn bigger_bvm_tt_run() {
    let _shared = untimed();
    let inst = RandomConfig {
        k: 5,
        n_tests: 8,
        n_treatments: 8,
        max_cost: 5,
        max_weight: 3,
    }
    .generate(21);
    let seq = sequential::solve_tables(&inst);
    let sol = bvm_tt::solve(&inst); // dims = 5 + 4 = 9 → r = 3, 2048 PEs
    assert_eq!(sol.c_table, seq.cost);
    assert_eq!(sol.machine_r, 3);
}

#[test]
#[ignore = "heavy: CCC TT with replicas"]
fn ccc_tt_on_oversized_machine() {
    let _shared = untimed();
    let inst = RandomConfig {
        k: 7,
        n_tests: 8,
        n_treatments: 8,
        max_cost: 6,
        max_weight: 4,
    }
    .generate(9);
    let seq = sequential::solve_tables(&inst);
    let ccc = ccc_tt::solve(&inst); // dims 11 → r = 3 exactly
    assert_eq!(ccc.c_table, seq.cost);
}

/// The observability seam (`timed_report_with`: telemetry scope, trace
/// span, solve counter, report assembly) costs under 5 % of the solve
/// it wraps: the registered `seq` engine against the same kernel sweep
/// and tree extraction called directly, on random k = 12 seed 7.
#[test]
#[ignore = "timing: run in release with the other heavy tests"]
fn the_observability_seam_costs_under_five_percent_of_seq() {
    let _solo = TIMING.write().unwrap_or_else(PoisonError::into_inner);
    let inst = random_adequate(12, 7);
    let engine = tt_repro::lookup("seq").unwrap();
    let unlimited = Budget::unlimited();
    let mut raw = || {
        let mut meter = unlimited.start();
        let mut wave = tt_core::solver::Checkpoint::blank(&inst);
        kernel::sweep(&inst, &mut meter, &kernel::Serial, &mut wave, &mut |_| {});
        let root = inst.universe();
        std::hint::black_box(sequential::extract_tree_costs(&inst, &wave.cost, root));
    };
    let mut seamed = || {
        std::hint::black_box(engine.solve(&inst));
    };
    let iters = batch_size(Duration::from_millis(10), &mut raw);
    seamed();
    let (mut raw_min, mut seamed_min) = (Duration::MAX, Duration::MAX);
    for _ in 0..25 {
        raw_min = raw_min.min(per_call(iters, &mut raw));
        seamed_min = seamed_min.min(per_call(iters, &mut seamed));
    }
    let overhead = seamed_min.as_secs_f64() / raw_min.as_secs_f64() - 1.0;
    println!("seam: raw seq {raw_min:?}, through the engine {seamed_min:?}");
    assert!(overhead <= 0.05, "seam overhead {:+.2} %", overhead * 100.0);
}

/// A warm `SolutionCache` hit answers bit-identically to the miss that
/// filled it (same cost, same tree text) and at least 5× faster than
/// the fastest of three cold `seq` solves, on random k = 12 seed 7: a
/// cache that re-solves, or canonicalizes slower than the DP, fails.
#[test]
#[ignore = "timing: run in release with the other heavy tests"]
fn a_warm_cache_hit_is_exact_and_five_times_faster_than_cold_seq() {
    let _solo = TIMING.write().unwrap_or_else(PoisonError::into_inner);
    let inst = tt_workloads::catalog::Domain::Random.generate(12, 7);
    let seq = tt_repro::lookup("seq").unwrap();
    let mut cache = SolutionCache::in_memory(8);
    let canonical = tt_cache::canonicalize(&inst);
    assert!(cache.lookup_canonical(&canonical).is_none());
    let miss = seq.solve(&inst);
    cache.insert_canonical(canonical, &miss);
    let tree_text =
        |r: &tt_core::solver::SolveReport| r.tree.as_ref().map(tt_core::tree_io::tree_to_text);
    let hit = cache.lookup_report(&inst).expect("the miss was stored");
    assert_eq!(hit.cost, miss.cost);
    assert_eq!(tree_text(&hit), tree_text(&miss));

    let mut cold = || {
        std::hint::black_box(seq.solve(&inst));
    };
    let mut warm = || {
        std::hint::black_box(cache.lookup_report(&inst));
    };
    let iters = batch_size(Duration::from_millis(20), &mut warm);
    let (mut cold_min, mut warm_min) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        cold_min = cold_min.min(per_call(1, &mut cold));
        warm_min = warm_min.min(per_call(iters, &mut warm));
    }
    println!("cache: warm hit {warm_min:?}, cold seq {cold_min:?}");
    assert!(warm_min * 5 <= cold_min, "a warm hit is not 5x faster");
}
