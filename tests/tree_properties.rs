//! Property tests on procedure trees: optimal trees validate, their
//! first-principles evaluation equals the DP value, heuristics are upper
//! bounds, and every DP table entry is achieved by a concrete tree.

use proptest::prelude::*;
use tt_core::solver::{greedy, sequential};
use tt_core::subset::frontier::DenseSlab;
use tt_core::subset::Subset;
use tt_workloads::random::RandomConfig;

fn cfg(k: usize) -> RandomConfig {
    RandomConfig {
        k,
        n_tests: k,
        n_treatments: k / 2 + 1,
        max_cost: 9,
        max_weight: 7,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The extracted optimal tree is a valid successful procedure and its
    /// first-principles expected cost equals C(U).
    #[test]
    fn optimal_tree_validates_and_matches(k in 2usize..=8, seed in any::<u64>()) {
        let inst = cfg(k).generate(seed);
        let sol = sequential::solve(&inst);
        prop_assert!(sol.cost.is_finite());
        let tree = sol.tree.unwrap();
        prop_assert!(tree.validate(&inst).is_ok());
        prop_assert_eq!(tree.expected_cost(&inst), sol.cost);
    }

    /// Every finite DP entry C(S) is achieved exactly by the tree
    /// extracted for S, evaluated from first principles at live set S.
    #[test]
    fn every_table_entry_is_achieved(k in 2usize..=6, seed in any::<u64>()) {
        let inst = cfg(k).generate(seed);
        let sol = sequential::solve(&inst);
        for s in Subset::all(k) {
            if s.is_empty() { continue; }
            let c = sol.tables.cost[s.index()];
            match sequential::extract_tree(&inst, &sol.tables, s) {
                Some(t) => {
                    prop_assert!(t.validate_from(&inst, s).is_ok());
                    prop_assert_eq!(t.expected_cost_from(&inst, s), c);
                }
                None => prop_assert!(c.is_inf()),
            }
        }
    }

    /// The on-path argmin helper the cost-only engines read their
    /// argmins through recomputes exactly the first-minimizer the
    /// mask-order DP stores, at every subset, and the tree extracted
    /// from the cost slab alone is the stored-argmin tree.
    #[test]
    fn recomputed_argmins_equal_the_stored_first_minimizer(k in 2usize..=8, seed in any::<u64>()) {
        let inst = cfg(k).generate(seed);
        let sol = sequential::solve(&inst);
        let slab = DenseSlab(&sol.tables.cost);
        for s in Subset::all(k) {
            prop_assert_eq!(
                sequential::argmin_at(&inst, &slab, s),
                sol.tables.best[s.index()],
                "S={}", s
            );
        }
        let root = inst.universe();
        prop_assert_eq!(sequential::extract_tree_costs(&inst, &sol.tables.cost, root), sol.tree);
    }

    /// Heuristic procedures are valid and never beat the optimum.
    #[test]
    fn heuristics_are_valid_upper_bounds(k in 2usize..=8, seed in any::<u64>()) {
        let inst = cfg(k).generate(seed);
        let opt = sequential::solve(&inst).cost;
        for h in [
            greedy::Heuristic::SplitBalance,
            greedy::Heuristic::EntropyGain,
            greedy::Heuristic::TreatOnlyCover,
        ] {
            let g = greedy::solve(&inst, h).unwrap();
            prop_assert!(g.tree.validate(&inst).is_ok());
            prop_assert!(g.cost >= opt, "{:?} beat the optimum", h);
        }
    }

    /// Monotonicity: C(S) is finite for every non-empty subset of an
    /// adequate instance, and subadditive against treat-first splits:
    /// C(S) ≤ M[S, i] for every applicable action (the DP takes a min).
    #[test]
    fn table_entries_are_minimal(k in 2usize..=6, seed in any::<u64>()) {
        let inst = cfg(k).generate(seed);
        let sol = sequential::solve(&inst);
        let wt = inst.weight_table();
        for s in Subset::all(k) {
            if s.is_empty() { continue; }
            prop_assert!(sol.tables.cost[s.index()].is_finite());
            for i in 0..inst.n_actions() {
                let cand = sequential::candidate(&inst, &wt, &sol.tables.cost, s, i);
                prop_assert!(sol.tables.cost[s.index()] <= cand, "S={s} i={i}");
            }
        }
    }

    /// Scaling all weights by a constant scales every cost entry.
    #[test]
    fn cost_scales_linearly_in_weights(k in 2usize..=6, seed in any::<u64>(), f in 2u64..=5) {
        let base = cfg(k).generate(seed);
        let mut b = tt_core::instance::TtInstanceBuilder::new(k)
            .weights(base.weights().iter().map(|&w| w * f));
        for a in base.actions() {
            b = b.action(*a);
        }
        let scaled = b.build().unwrap();
        let c1 = sequential::solve(&base);
        let c2 = sequential::solve(&scaled);
        for s in Subset::all(k) {
            let a = c1.tables.cost[s.index()];
            let bb = c2.tables.cost[s.index()];
            match a.finite() {
                Some(v) => prop_assert_eq!(bb, tt_core::Cost::new(v * f)),
                None => prop_assert!(bb.is_inf()),
            }
        }
    }

    /// Adding an action never increases any C(S); removing adequacy is
    /// detected by INF.
    #[test]
    fn more_actions_never_hurt(k in 2usize..=6, seed in any::<u64>(), cost in 1u64..=9) {
        let base = cfg(k).generate(seed);
        let mut b = tt_core::instance::TtInstanceBuilder::new(k)
            .weights(base.weights().iter().copied());
        for a in base.actions() {
            b = b.action(*a);
        }
        b = b.treatment(Subset::universe(k), cost);
        let bigger = b.build().unwrap();
        let c1 = sequential::solve(&base);
        let c2 = sequential::solve(&bigger);
        for s in Subset::all(k) {
            prop_assert!(c2.tables.cost[s.index()] <= c1.tables.cost[s.index()], "S={s}");
        }
    }
}
