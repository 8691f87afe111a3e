//! Heavy validation runs, gated behind `--ignored` (run with
//! `cargo test --release -- --ignored` before a release).
//!
//! These push each component well past the sizes the regular suite uses:
//! large-universe solver agreement, `memo` at k = 25, the level kernel
//! on the catalog at k = 20, a 2^20-PE CCC pass, and a bigger
//! bit-serial BVM solve.

use tt_core::solver::budget::Budget;
use tt_core::solver::{branch_and_bound, memo, sequential};
use tt_parallel::{bvm as bvm_tt, ccc as ccc_tt, hyper, rayon_solver};
use tt_workloads::random::RandomConfig;
use tt_workloads::random_adequate;

#[test]
#[ignore = "heavy: ~2^16 subsets × many actions"]
fn large_universe_solver_agreement() {
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
    let inst = tt_workloads::catalog::Domain::Random.generate(25, 7);
    let mm = memo::solve(&inst);
    assert_eq!(mm.frontier.cells_allocated, mm.reachable_subsets as u64);
    assert!(mm.reachable_subsets < 1 << 20, "{}", mm.reachable_subsets);
    let tree = mm.tree.expect("the catalog instance is adequate");
    tree.validate(&inst).unwrap();
    assert_eq!(tree.expected_cost(&inst), mm.cost);
}

#[test]
#[ignore = "heavy: five k = 20 catalog solves, three ways each"]
fn kernel_matches_the_reference_on_the_catalog_at_k20() {
    // C(20, 10) = 184,756 cells: the middle levels span three
    // 65,536-cell windows of 64 chunks each.
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
    }
}

#[test]
#[ignore = "heavy: hypercube with 2^17 PEs"]
fn big_hypercube_tt_run() {
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
