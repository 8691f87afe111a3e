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
use tt_core::TtError;
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

    /// A weight: small, around `2^20`, or around `2^30`.
    fn weight(&mut self) -> u64 {
        match self.next() % 3 {
            0 => 1 + self.next() % 9,
            1 => (1 << 20) + self.next() % (1 << 20),
            _ => (1 << 30) + self.next() % (1 << 30),
        }
    }
}

/// One draw of a wide instance: weights, and actions `(is_test, set,
/// base cost, scaled)`; the costs of the scaled actions share one
/// factor (see [`WideDraw::build`]).
#[derive(Clone, Debug)]
struct WideDraw {
    k: usize,
    weights: Vec<u64>,
    actions: Vec<(bool, Subset, u64, bool)>,
}

impl WideDraw {
    /// The instance whose scaled costs are their base times the largest
    /// factor that keeps `finite_cost_bound` below `2^63`, plus `extra`.
    /// With `Σt = f·B + S` (`B` the scaled bases, `S` the rest), the
    /// bound `Σt·p(U)·(2k+2) + 1` is below `2^63` exactly while
    /// `Σt ≤ (2^63 − 2) / (p(U)·(2k+2))`.
    fn build(&self, extra: u64) -> Result<TtInstance, TtError> {
        let p_u: u64 = self.weights.iter().sum();
        let base = |scaled: bool| -> u64 {
            self.actions
                .iter()
                .filter(|a| a.3 == scaled)
                .map(|a| a.2)
                .sum()
        };
        let max_sum_t = ((1 << 63) - 2) / (p_u * (2 * self.k as u64 + 2));
        let factor = (max_sum_t - base(false)) / base(true) + extra;
        let mut b = TtInstanceBuilder::new(self.k).weights(self.weights.iter().copied());
        for &(is_test, set, cost, scaled) in &self.actions {
            let cost = if scaled { cost * factor } else { cost };
            b = if is_test {
                b.test(set, cost)
            } else {
                b.treatment(set, cost)
            };
        }
        b.build()
    }
}

/// Draws whose middle levels span several [`kernel::CHUNK`]-cell
/// chunks (`C(13, 6) = 1716`), with weights from 1 to about `2^31` and
/// small base costs, about half of them scaled. The first action is
/// always scaled. About half carry a universe treatment; most of the
/// others are inadequate.
fn arb_wide_draw() -> impl Strategy<Value = WideDraw> {
    (11usize..=14, 1usize..=6, 1usize..=6, any::<u64>()).prop_map(|(k, nt, nr, seed)| {
        let mut r = XorShift(seed | 1);
        let full = (1u32 << k) - 1;
        let weights = (0..k).map(|_| r.weight()).collect();
        let mut actions: Vec<(bool, Subset, u64, bool)> = (0..nt + nr)
            .map(|a| {
                let set = Subset(1 + (r.next() as u32) % full);
                (a < nt, set, 1 + r.next() % 9, a == 0 || r.next() & 1 == 0)
            })
            .collect();
        if r.next() & 1 == 0 {
            actions.push((
                false,
                Subset::universe(k),
                1 + r.next() % 9,
                r.next() & 1 == 0,
            ));
        }
        WideDraw {
            k,
            weights,
            actions,
        }
    })
}

/// Wide instances at the edge of the cost bound: `t·p(S)` and the
/// candidate sums run up to about `2^59`, next to costs in single
/// digits, and inadequate instances gather `INF` cells.
fn arb_wide_instance() -> impl Strategy<Value = TtInstance> {
    arb_wide_draw().prop_map(|draw| draw.build(0).expect("the largest admitted factor"))
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
    /// chunk boundaries, at the edge of the cost bound and on inadequate
    /// instances.
    #[test]
    fn level_kernel_matches_the_mask_order_dp(inst in arb_wide_instance()) {
        check_kernel(&inst);
    }

    /// `memo`'s closure equals the mask-order DP — at the edge of the
    /// cost bound and on inadequate instances.
    #[test]
    fn memo_matches_the_mask_order_dp_on_its_closure(inst in arb_wide_instance()) {
        check_memo(&inst);
    }

    /// The builder admits the largest factor, whose cost bound is just
    /// below `2^63`, and there the dense sweep and `memo`'s closure give
    /// the mask-order DP's cells; one factor step above, it refuses.
    #[test]
    fn both_sides_of_the_cost_bound_edge_solve_exactly_or_are_refused(draw in arb_wide_draw()) {
        let inst = draw.build(0).expect("the largest admitted factor");
        let bound = inst.finite_cost_bound();
        prop_assert!((1 << 62..1 << 63).contains(&bound), "bound {}", bound);
        check_kernel(&inst);
        check_memo(&inst);
        prop_assert_eq!(draw.build(1), Err(TtError::CostBoundTooLarge));
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
