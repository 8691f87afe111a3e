//! Bottom-up sequential dynamic programming — the paper's `T_1` baseline.
//!
//! Computes `C(S)` for every `S ⊆ U` in `O(N·2^k)` candidate evaluations
//! using the recurrence of Section 1, iterating masks in increasing numeric
//! order (every non-empty proper submask is numerically smaller, so both
//! `C(S ∩ T_i)` and `C(S − T_i)` are available when `C(S)` is computed —
//! the numeric order refines the paper's `#S = j` wavefront).
//!
//! This mask-order DP, with its stored argmin plane, is the reference
//! the engines are tested against; the engines themselves run the
//! cost-only level kernel of [`super::kernel`].

use crate::cost::Cost;
use crate::instance::TtInstance;
use crate::subset::frontier::{CostLookup, DenseSlab};
use crate::subset::Subset;
use crate::tree::TtTree;

/// Operation counters for the sequential DP (the `T_1` side of every
/// speedup ratio reported in EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Number of `(S, i)` candidate evaluations (the paper counts these as
    /// the sequential work: `N·(2^k − 1)` for the full lattice).
    pub candidates: u64,
    /// Number of subsets whose `C(S)` was computed (always `2^k`).
    pub subsets: u64,
}

/// The full DP tables, exposed so parallel implementations can be checked
/// against them entry by entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DpTables {
    /// `cost[S.index()] = C(S)`; `cost[0] = 0`.
    pub cost: Vec<Cost>,
    /// `best[S.index()]` = index of the minimizing action at `S`, or
    /// `None` when `C(S) = INF` or `S = ∅`.
    pub best: Vec<Option<u16>>,
}

/// Result of the sequential solver.
#[derive(Clone, Debug)]
pub struct Solution {
    /// `C(U)`: minimum expected cost of a TT procedure (INF iff the
    /// instance is inadequate).
    pub cost: Cost,
    /// An optimal procedure tree, or `None` when `C(U) = INF`.
    pub tree: Option<TtTree>,
    /// Work counters.
    pub stats: DpStats,
    /// The full `C(·)` and argmin tables.
    pub tables: DpTables,
}

/// The cost the action `i` achieves at live set `S`, given the table of
/// smaller sets, or `INF` when the action is useless at `S`.
///
/// This is the paper's `M[S, i]`; the `INF` cases are exactly the ones the
/// paper excludes "automatically" by saturation.
#[inline]
pub fn candidate(
    inst: &TtInstance,
    weight_table: &[u64],
    cost: &[Cost],
    s: Subset,
    i: usize,
) -> Cost {
    let mut gathers = 0u64;
    candidate_via(
        inst,
        weight_table[s.index()],
        &DenseSlab(cost),
        s,
        i,
        &mut gathers,
    )
}

/// As [`candidate`], but generic over the gather table: `w = p(S)` is
/// supplied by the caller and child costs come from any
/// [`CostLookup`] — the cost slab of the level kernel, or the sparse
/// closure of the memoized DP. Each child gather bumps `gathers`.
#[inline]
pub fn candidate_via<L: CostLookup>(
    inst: &TtInstance,
    w: u64,
    table: &L,
    s: Subset,
    i: usize,
    gathers: &mut u64,
) -> Cost {
    let a = inst.action(i);
    let inter = s.intersect(a.set);
    let diff = s.difference(a.set);
    if inter.is_empty() {
        // Test: positive outcome impossible — no information.
        // Treatment: cures nothing. Either way the action cannot help.
        return Cost::INF;
    }
    let charged = Cost::new(a.cost).saturating_mul_weight(w);
    if a.is_test() {
        if diff.is_empty() {
            // Positive outcome certain — no information.
            return Cost::INF;
        }
        *gathers += 2;
        charged + table.cost_of(inter) + table.cost_of(diff)
    } else {
        *gathers += 1;
        charged + table.cost_of(diff)
    }
}

/// The cell kernel shared by every DP: minimizes [`candidate_via`] over
/// all actions at `s`, returning the cost and the first-minimizer
/// argmin (the argmin the mask-order DP stores).
#[inline]
pub fn min_candidate<L: CostLookup>(
    inst: &TtInstance,
    w: u64,
    table: &L,
    s: Subset,
    gathers: &mut u64,
) -> (Cost, Option<u16>) {
    let mut c = Cost::INF;
    let mut b = None;
    for i in 0..inst.n_actions() {
        let m = candidate_via(inst, w, table, s, i, gathers);
        if m < c {
            c = m;
            b = Some(i as u16);
        }
    }
    (c, b)
}

/// Solves `inst` by bottom-up DP and extracts an optimal tree.
pub fn solve(inst: &TtInstance) -> Solution {
    let tables = solve_tables(inst);
    let mut stats = DpStats::default();
    let size = 1usize << inst.k();
    stats.subsets = size as u64;
    stats.candidates = (size as u64 - 1) * inst.n_actions() as u64;
    let root = inst.universe();
    let cost = tables.cost[root.index()];
    let tree = extract_tree(inst, &tables, root);
    Solution {
        cost,
        tree,
        stats,
        tables,
    }
}

/// Computes only the DP tables (no tree extraction), in mask order.
pub fn solve_tables(inst: &TtInstance) -> DpTables {
    let size = 1usize << inst.k();
    let weight_table = inst.weight_table();
    let mut cost = vec![Cost::INF; size];
    let mut best: Vec<Option<u16>> = vec![None; size];
    cost[0] = Cost::ZERO;
    for mask in 1..size {
        let s = Subset(mask as u32);
        let mut gathers = 0u64;
        let (c, b) = min_candidate(inst, weight_table[mask], &DenseSlab(&cost), s, &mut gathers);
        cost[mask] = c;
        best[mask] = b;
    }
    DpTables { cost, best }
}

/// Per-level observer of a machine simulator's wavefront: called as
/// `sink(j, &cost)` after each completed level `j`.
pub type LevelSink<'a> = dyn FnMut(usize, &[Cost]) + 'a;

/// A completed `#S ≤ level` wavefront to warm-start a machine simulator
/// from: `(level, cost slab)`, as held by a
/// [`Checkpoint`](super::checkpoint::Checkpoint).
pub type WavefrontSeed<'a> = (usize, &'a [Cost]);

/// The first-minimizer argmin at `s`, recomputed from the costs of its
/// children: the action the mask-order DP stores in its argmin plane.
/// `None` when `C(S)` is INF, when `s` is empty, or when `table` is not
/// exact below `s` (the recomputed minimum then misses `table`'s own
/// `C(S)`). Every reader of a cost-only table gets its argmins here.
pub fn argmin_at<L: CostLookup>(inst: &TtInstance, table: &L, s: Subset) -> Option<u16> {
    let mut gathers = 0u64;
    let (c, b) = min_candidate(inst, inst.weight_of(s), table, s, &mut gathers);
    if c == table.cost_of(s) {
        b
    } else {
        None
    }
}

/// Extracts an optimal tree from a complete cost slab, recomputing the
/// argmin at each node on the path with [`argmin_at`] — the same tree
/// [`extract_tree`] yields from a stored argmin plane.
pub fn extract_tree_costs(inst: &TtInstance, cost: &[Cost], root: Subset) -> Option<TtTree> {
    extract_by(inst, root, &|s| argmin_at(inst, &DenseSlab(cost), s))
}

/// Extracts an optimal tree from the argmin table, starting at `root`.
pub fn extract_tree(inst: &TtInstance, tables: &DpTables, root: Subset) -> Option<TtTree> {
    if tables.cost[root.index()].is_inf() {
        return None;
    }
    extract_by(inst, root, &|s| tables.best[s.index()])
}

/// The tree below `root` that follows `argmin` at every node; `None`
/// when some node on the way has no argmin.
fn extract_by(
    inst: &TtInstance,
    root: Subset,
    argmin: &dyn Fn(Subset) -> Option<u16>,
) -> Option<TtTree> {
    if root.is_empty() {
        return None;
    }
    let i = argmin(root)? as usize;
    let a = inst.action(i);
    if a.is_test() {
        let pos = extract_by(inst, root.intersect(a.set), argmin)?;
        let neg = extract_by(inst, root.difference(a.set), argmin)?;
        Some(TtTree::test(i, pos, neg))
    } else {
        let remaining = root.difference(a.set);
        if remaining.is_empty() {
            Some(TtTree::leaf(i))
        } else {
            let fail = extract_by(inst, remaining, argmin)?;
            Some(TtTree::treat_then(i, fail))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;

    fn fig1_like() -> TtInstance {
        // 4 objects; 2 tests, 3 treatments. A small instance in the spirit
        // of the paper's Fig. 1.
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

    #[test]
    fn empty_set_costs_zero_and_singletons_use_treatments() {
        let inst = fig1_like();
        let sol = solve(&inst);
        assert_eq!(sol.tables.cost[0], Cost::ZERO);
        // C({0}) = min over treatments containing 0 of t·P_0 = 3·4 = 12.
        assert_eq!(sol.tables.cost[Subset::singleton(0).index()], Cost::new(12));
        // C({3}) = 2·1 = 2.
        assert_eq!(sol.tables.cost[Subset::singleton(3).index()], Cost::new(2));
        // Object 1 only treated by T3 {1,2}: C({1}) = 4·3 = 12.
        assert_eq!(sol.tables.cost[Subset::singleton(1).index()], Cost::new(12));
    }

    #[test]
    fn optimal_tree_matches_dp_cost_and_validates() {
        let inst = fig1_like();
        let sol = solve(&inst);
        assert!(sol.cost.is_finite());
        let tree = sol.tree.expect("adequate");
        tree.validate(&inst).unwrap();
        assert_eq!(tree.expected_cost(&inst), sol.cost);
    }

    #[test]
    fn every_subset_tree_matches_its_dp_entry() {
        let inst = fig1_like();
        let sol = solve(&inst);
        for s in Subset::all(inst.k()) {
            if s.is_empty() {
                continue;
            }
            let c = sol.tables.cost[s.index()];
            match extract_tree(&inst, &sol.tables, s) {
                Some(t) => {
                    t.validate_from(&inst, s).unwrap();
                    assert_eq!(t.expected_cost_from(&inst, s), c, "S={s}");
                }
                None => assert!(c.is_inf(), "S={s}"),
            }
        }
    }

    #[test]
    fn inadequate_instance_yields_inf() {
        let inst = TtInstanceBuilder::new(2)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::singleton(0), 1)
            .build()
            .unwrap();
        let sol = solve(&inst);
        assert!(sol.cost.is_inf());
        assert!(sol.tree.is_none());
        assert!(extract_tree_costs(&inst, &sol.tables.cost, inst.universe()).is_none());
        // But the treatable singleton still has finite cost.
        assert_eq!(sol.tables.cost[Subset::singleton(0).index()], Cost::new(1));
        assert!(sol.tables.cost[Subset::singleton(1).index()].is_inf());
    }

    #[test]
    fn useless_actions_are_excluded() {
        // A test equal to the universe is always useless; a treatment
        // disjoint from the live set likewise.
        let inst = TtInstanceBuilder::new(2)
            .weights([1, 1])
            .test(Subset::universe(2), 1)
            .treatment(Subset::universe(2), 5)
            .build()
            .unwrap();
        let sol = solve(&inst);
        // Only the treatment applies at U: C(U) = 5·2 = 10.
        assert_eq!(sol.cost, Cost::new(10));
        let t = sol.tree.unwrap();
        assert!(matches!(
            t,
            TtTree::Treatment {
                action: 1,
                failure: None
            }
        ));
    }

    #[test]
    fn cheap_test_beats_treat_everything() {
        // Splitting first is cheaper than blanket treatment sequences.
        let inst = TtInstanceBuilder::new(2)
            .weights([1, 1])
            .test(Subset::singleton(0), 1)
            .treatment(Subset::singleton(0), 10)
            .treatment(Subset::singleton(1), 10)
            .build()
            .unwrap();
        let sol = solve(&inst);
        // With the test: 1·2 + 10·1 + 10·1 = 22.
        // Without: treat {0} then {1}: 10·2 + 10·1 = 30 (or symmetric).
        assert_eq!(sol.cost, Cost::new(22));
        assert!(matches!(sol.tree.unwrap(), TtTree::Test { action: 0, .. }));
    }

    #[test]
    fn weights_steer_the_tree() {
        // Heavier object should be resolved on the cheaper path.
        let heavy0 = TtInstanceBuilder::new(2)
            .weights([100, 1])
            .treatment(Subset::singleton(0), 1)
            .treatment(Subset::singleton(1), 1)
            .build()
            .unwrap();
        let sol = solve(&heavy0);
        // Treat {0} first: 1·101 + 1·1 = 102; other order: 1·101 + 1·100=201.
        assert_eq!(sol.cost, Cost::new(102));
        match sol.tree.unwrap() {
            TtTree::Treatment { action, .. } => {
                assert_eq!(heavy0.action(action).set, Subset::singleton(0))
            }
            TtTree::Test { .. } => panic!("expected a treatment at the root"),
        }
    }

    #[test]
    fn recomputed_argmins_equal_the_stored_plane() {
        let inst = fig1_like();
        let sol = solve(&inst);
        for s in Subset::all(inst.k()) {
            let got = argmin_at(&inst, &DenseSlab(&sol.tables.cost), s);
            assert_eq!(got, sol.tables.best[s.index()], "S={s}");
        }
        let tree = extract_tree_costs(&inst, &sol.tables.cost, inst.universe());
        assert_eq!(tree, sol.tree);
    }

    #[test]
    fn argmins_are_withheld_below_an_inexact_table() {
        let inst = fig1_like();
        let mut cost = solve(&inst).tables.cost;
        let u = inst.universe();
        // Inflate every proper subset: no treatment covers U, so every
        // candidate at U now misses the stored C(U).
        for s in Subset::all(inst.k()) {
            if !s.is_empty() && s != u {
                cost[s.index()] = Cost::new(1_000_000_000);
            }
        }
        assert!(cost[u.index()] < Cost::new(1_000_000_000));
        assert_eq!(argmin_at(&inst, &DenseSlab(&cost), u), None);
    }

    #[test]
    fn stats_count_full_lattice_work() {
        let inst = fig1_like();
        let sol = solve(&inst);
        assert_eq!(sol.stats.subsets, 16);
        assert_eq!(sol.stats.candidates, 15 * 5);
    }
}
