//! The ground-truth chain (DESIGN.md §5): exhaustive enumeration ⇒
//! sequential DP ⇒ memoized DP ⇒ rayon DP ⇒ hypercube simulation ⇒ CCC
//! simulation ⇒ BVM bit-serial program — every adjacent pair must agree
//! **exactly** (integer equality, no tolerance).
//!
//! The chain is driven two ways: through the unified engine registry
//! (`registry_engines_agree` — whatever is registered must agree, so a
//! new backend joins the test by joining the registry) and through the
//! raw per-backend APIs for the deep table-level comparisons the
//! uniform `Solver` interface deliberately does not expose.

use proptest::prelude::*;
use tt_core::cost::Cost;
use tt_core::instance::{TtInstance, TtInstanceBuilder};
use tt_core::solver::budget::BudgetMeter;
use tt_core::solver::checkpoint::Checkpoint;
use tt_core::solver::kernel::{self, Executor};
use tt_core::solver::{exhaustive, memo, sequential};
use tt_core::subset::Subset;
use tt_parallel::{bvm as bvm_tt, ccc as ccc_tt, hyper, rayon_solver};
use tt_workloads::random::RandomConfig;

/// An arbitrary (possibly inadequate) instance strategy: solvers must
/// agree on INF results too.
fn arb_instance(max_k: usize) -> impl Strategy<Value = TtInstance> {
    (2..=max_k, 1usize..=3, 1usize..=3, any::<u64>()).prop_map(|(k, nt, nr, seed)| {
        // Derive sets and costs deterministically from the seed so cases
        // shrink well.
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let full = (1u32 << k) - 1;
        let mut b = TtInstanceBuilder::new(k).weights((0..k).map(|_| 1 + next() % 9));
        for _ in 0..nt {
            let s = Subset(1 + (next() as u32) % full);
            b = b.test(s, 1 + next() % 9);
        }
        for _ in 0..nr {
            let s = Subset(1 + (next() as u32) % full);
            b = b.treatment(s, 1 + next() % 9);
        }
        b.build().unwrap()
    })
}

/// An xorshift stream of instance parameters.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A weight or cost: small, in `[2^62, 2^64)`, or within 3 of `cap`.
    fn value(&mut self, cap: u64) -> u64 {
        match self.next() % 3 {
            0 => 1 + self.next() % 9,
            1 => ((1 << 62) + self.next() % (3 << 62)).min(cap),
            _ => cap - self.next() % 4,
        }
    }
}

/// Instances whose middle levels span several [`kernel::CHUNK`]-cell
/// chunks (`C(13, 6) = 1716`), with weights and costs that mix small
/// values with values near 2^62–2^64, so `t·p(S)` and the candidate
/// sums saturate. About half carry a universe treatment; most of the
/// others are inadequate.
fn arb_wide_instance() -> impl Strategy<Value = TtInstance> {
    (11usize..=14, 1usize..=6, 1usize..=6, any::<u64>()).prop_map(|(k, nt, nr, seed)| {
        let mut r = XorShift(seed | 1);
        let full = (1u32 << k) - 1;
        let mut b = TtInstanceBuilder::new(k).weights((0..k).map(|_| r.value(u64::MAX)));
        for _ in 0..nt {
            let s = Subset(1 + (r.next() as u32) % full);
            b = b.test(s, r.value(u64::MAX - 1));
        }
        for _ in 0..nr {
            let s = Subset(1 + (r.next() as u32) % full);
            b = b.treatment(s, r.value(u64::MAX - 1));
        }
        if r.next() & 1 == 0 {
            b = b.treatment(Subset::universe(k), r.value(u64::MAX - 1));
        }
        b.build().unwrap()
    })
}

/// One instance on each side of the kernel's raw-`u64` bound, from one
/// seed: the same sets, small weights and small base costs, every cost
/// scaled by one factor so that `finite_cost_bound` lies just below
/// `2^63` in the first and just above it in the second. Candidates run
/// up to about `2^59`. Without a universe treatment most are
/// inadequate, so `INF` cells are gathered on both sides.
fn arb_bound_edge_pair() -> impl Strategy<Value = [TtInstance; 2]> {
    (11usize..=13, 1usize..=6, 1usize..=6, any::<u64>()).prop_map(|(k, nt, nr, seed)| {
        let mut r = XorShift(seed | 1);
        let full = (1u32 << k) - 1;
        let weights: Vec<u64> = (0..k).map(|_| 1 + r.next() % 16).collect();
        let mut actions: Vec<(bool, Subset, u64)> = (0..nt + nr)
            .map(|a| {
                (
                    a < nt,
                    Subset(1 + (r.next() as u32) % full),
                    1 + r.next() % 8,
                )
            })
            .collect();
        if r.next() & 1 == 0 {
            actions.push((false, Subset::universe(k), 1 + r.next() % 8));
        }
        let unit = actions.iter().map(|a| a.2).sum::<u64>()
            * weights.iter().sum::<u64>()
            * (2 * k as u64 + 2);
        let below = ((1u64 << 63) - 1) / unit;
        [below, below + 1].map(|factor| {
            let mut b = TtInstanceBuilder::new(k).weights(weights.iter().copied());
            for &(is_test, set, cost) in &actions {
                b = if is_test {
                    b.test(set, cost * factor)
                } else {
                    b.treatment(set, cost * factor)
                };
            }
            b.build().unwrap()
        })
    })
}

/// The slab one level-kernel sweep leaves, `window` cells per window.
fn kernel_slab(inst: &TtInstance, exec: &dyn Executor, window: usize) -> Vec<Cost> {
    let mut wave = Checkpoint::blank(inst);
    kernel::sweep_windows(
        inst,
        &mut BudgetMeter::unlimited(),
        exec,
        &mut wave,
        &mut |_| {},
        window,
    );
    assert_eq!(wave.level, inst.k());
    wave.cost
}

/// The level kernel, serial, on rayon workers and one chunk per window,
/// equals the cell-major mask-order DP on every cell.
fn check_kernel(inst: &TtInstance) {
    let reference = sequential::solve_tables(inst).cost;
    for (what, exec, window) in [
        ("serial", &kernel::Serial as &dyn Executor, kernel::WINDOW),
        ("rayon", &rayon_solver::Rayon, kernel::WINDOW),
        ("one-chunk windows", &kernel::Serial, kernel::CHUNK),
    ] {
        let slab = kernel_slab(inst, exec, window);
        let first_diff = slab
            .iter()
            .zip(&reference)
            .position(|(got, want)| got != want);
        prop_assert_eq!(first_diff, None, "{} differs from the mask-order DP", what);
    }
}

/// `memo`'s chunk pass over its closure table equals the mask-order DP
/// on every closure cell, and its tree is the DP's and costs `C(U)` —
/// or, on an inadequate instance, there is no tree and `C(U) = INF`.
fn check_memo(inst: &TtInstance) {
    let reference = sequential::solve_tables(inst);
    let mm = memo::solve(inst);
    // Every closure subset, plus `∅`.
    prop_assert_eq!(mm.table.iter().count(), mm.reachable_subsets + 1);
    for (s, c) in mm.table.iter() {
        prop_assert_eq!(c, reference.cost[s.index()], "C({}) differs", s);
    }
    let root = inst.universe();
    prop_assert_eq!(mm.cost, reference.cost[root.index()]);
    prop_assert_eq!(&mm.tree, &sequential::extract_tree(inst, &reference, root));
    match &mm.tree {
        Some(t) => {
            prop_assert!(t.validate(inst).is_ok(), "memo tree invalid");
            prop_assert_eq!(t.expected_cost(inst), mm.cost, "memo tree cost");
        }
        None => prop_assert!(mm.cost.is_inf(), "memo lost the tree"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The level kernel equals the mask-order DP on every cell — across
    /// chunk boundaries, under saturation and on inadequate instances.
    #[test]
    fn level_kernel_matches_the_mask_order_dp(inst in arb_wide_instance()) {
        check_kernel(&inst);
    }

    /// `memo`'s closure equals the mask-order DP — under saturation and
    /// on inadequate instances.
    #[test]
    fn memo_matches_the_mask_order_dp_on_its_closure(inst in arb_wide_instance()) {
        check_memo(&inst);
    }

    /// Both chunk-pass arithmetics — raw `u64` just below the bound,
    /// the cell-major reference just above it — give the mask-order
    /// DP's cells, in the dense sweep and in `memo`'s closure.
    #[test]
    fn both_sides_of_the_raw_bound_match_the_mask_order_dp(pair in arb_bound_edge_pair()) {
        for (inst, raw) in pair.iter().zip([true, false]) {
            let bound = inst.finite_cost_bound();
            prop_assert_eq!(bound.is_some_and(|b| b < 1 << 63), raw, "bound {:?}", bound);
            check_kernel(inst);
            check_memo(inst);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every registered engine, dispatched through the uniform
    /// `Solver` interface: exact engines (DP, machine simulations,
    /// thread pool) reproduce the sequential optimum exactly — cost and
    /// a valid tree — and heuristics give a sound upper bound.
    /// Inadequate (INF) instances are included.
    #[test]
    fn registry_engines_agree(inst in arb_instance(4)) {
        tt_parallel::register_engines();
        let opt = sequential::solve(&inst).cost;
        for e in tt_core::solver::registry() {
            if inst.k() > e.max_k() {
                continue;
            }
            let r = e.solve(&inst);
            if e.kind().is_exact() {
                prop_assert_eq!(r.cost, opt, "{} disagrees with the DP", e.name());
            } else {
                prop_assert!(r.cost >= opt, "{} beat the optimum: {} < {opt}", e.name(), r.cost);
            }
            match &r.tree {
                Some(t) => {
                    prop_assert!(t.validate(&inst).is_ok(), "{} tree invalid", e.name());
                    prop_assert_eq!(t.expected_cost(&inst), r.cost, "{} tree cost", e.name());
                }
                None => prop_assert!(r.cost.is_inf(), "{} lost the tree", e.name()),
            }
        }
    }

    /// Sequential == memoized == rayon on the universe cost, including
    /// inadequate (INF) instances.
    #[test]
    fn seq_memo_rayon_agree(inst in arb_instance(7)) {
        let seq = sequential::solve(&inst);
        let mm = memo::solve(&inst);
        let ray = rayon_solver::solve_tables(&inst);
        prop_assert_eq!(seq.cost, mm.cost);
        prop_assert_eq!(&seq.tables.cost, &ray.cost);
        prop_assert_eq!(&seq.tables.best, &ray.best);
    }

    /// Sequential == hypercube == CCC on the full C(·) table.
    #[test]
    fn machines_agree_with_dp(inst in arb_instance(6)) {
        let seq = sequential::solve(&inst);
        let hyp = hyper::solve(&inst);
        let ccc = ccc_tt::solve(&inst);
        prop_assert_eq!(&hyp.c_table, &seq.tables.cost);
        prop_assert_eq!(&ccc.c_table, &seq.tables.cost);
    }

    /// The bit-serial BVM program agrees with the DP on the full table.
    /// (Small sizes: each case simulates thousands of machine cycles.)
    #[test]
    fn bvm_agrees_with_dp(inst in arb_instance(4)) {
        let seq = sequential::solve(&inst);
        let bv = bvm_tt::solve(&inst);
        prop_assert_eq!(&bv.c_table, &seq.tables.cost);
    }

    /// DP optimum == brute-force tree enumeration (tiny instances).
    #[test]
    fn dp_is_optimal_against_enumeration(inst in arb_instance(3)) {
        let seq = sequential::solve(&inst);
        let (best, tree) = exhaustive::best_tree(&inst);
        prop_assert_eq!(seq.cost, best);
        if let Some(t) = tree {
            prop_assert_eq!(t.expected_cost(&inst), best);
        }
    }
}

/// The same chain on structured workload generators, deterministically.
#[test]
fn workload_chain_agrees() {
    for seed in 0..5u64 {
        for inst in [
            RandomConfig::default_for(5).generate(seed),
            tt_workloads::medical::medical(5, seed),
            tt_workloads::faults::fault_location(4, seed),
            tt_workloads::biology::identification_key(4, seed),
        ] {
            let seq = sequential::solve(&inst);
            assert!(seq.cost.is_finite());
            let hyp = hyper::solve(&inst);
            let ccc = ccc_tt::solve(&inst);
            let ray = rayon_solver::solve_tables(&inst);
            assert_eq!(hyp.c_table, seq.tables.cost, "seed={seed}");
            assert_eq!(ccc.c_table, seq.tables.cost, "seed={seed}");
            assert_eq!(ray.cost, seq.tables.cost, "seed={seed}");
        }
    }
}

/// BVM on a structured workload (kept small: full bit-level simulation).
#[test]
fn bvm_on_structured_workload() {
    let inst = tt_workloads::faults::fault_location(3, 1);
    let seq = sequential::solve(&inst);
    let bv = bvm_tt::solve(&inst);
    assert_eq!(bv.c_table, seq.tables.cost);
    assert!(bv.cost.is_finite());
}

/// The empty-set convention C(∅) = 0 holds in every machine's table
/// (index 0 of the C table).
#[test]
fn empty_set_costs_zero_everywhere() {
    let inst = RandomConfig::default_for(4).generate(9);
    assert_eq!(sequential::solve(&inst).tables.cost[0], Cost::ZERO);
    assert_eq!(hyper::solve(&inst).c_table[0], Cost::ZERO);
    assert_eq!(ccc_tt::solve(&inst).c_table[0], Cost::ZERO);
    assert_eq!(bvm_tt::solve(&inst).c_table[0], Cost::ZERO);
}
