//! Anytime completion of partial DP tables.
//!
//! When a budget exhausts mid-solve, the exact engines hold a *partial*
//! table: `C(S)` is known exactly for some subsets and unknown for the
//! rest. [`complete_tree`] turns that into a full valid procedure —
//! following the argmin recomputed from the children's costs wherever
//! the table knows `C(S)` and falling back to the greedy split-balance
//! choice where it does not. The resulting tree's
//! expected cost is a true *upper bound* on the optimum (it is a real
//! procedure), and it is never worse than the pure greedy tree on the
//! subsets the table did finish.
//!
//! [`degraded_bounds`] pairs that upper bound with the admissible
//! lookahead lower bound of [`Bounds`], giving the
//! `lower ≤ optimum ≤ upper` sandwich a `Degraded` outcome promises.

use crate::cost::Cost;
use crate::instance::TtInstance;
use crate::solver::bounds::Bounds;
use crate::solver::greedy;
use crate::solver::sequential::argmin_at;
use crate::subset::frontier::CostLookup;
use crate::subset::Subset;
use crate::tree::TtTree;

/// Builds a complete valid procedure for `inst` from a partial exact
/// table.
///
/// `exact(S)` returns `Some(C(S))` when the table knows `S` exactly and
/// `None` otherwise. Known-infinite entries short-circuit to `None` (no
/// procedure exists below them); a finite entry gets the
/// first-minimizer recomputed from its children's entries with
/// [`argmin_at`]; unknown entries fall back to the greedy choice. Returns
/// `None` iff no successful procedure could be built, in which case the
/// upper bound is `INF`.
pub fn complete_tree(inst: &TtInstance, exact: &dyn Fn(Subset) -> Option<Cost>) -> Option<TtTree> {
    complete_node(inst, inst.universe(), exact)
}

fn complete_node(
    inst: &TtInstance,
    live: Subset,
    exact: &dyn Fn(Subset) -> Option<Cost>,
) -> Option<TtTree> {
    debug_assert!(!live.is_empty());
    let known = match exact(live) {
        Some(c) if c.is_inf() => return None,
        // Children of an exact entry are exact too, so the recomputed
        // argmin is the first-minimizer the DP would store; `argmin_at`
        // refuses (and greedy decides) if the table disagrees with
        // itself.
        Some(_) => argmin_at(inst, &Known(exact), live),
        None => None,
    };
    let i = match known {
        Some(i) => usize::from(i),
        None => greedy::best_action(inst, live, greedy::Heuristic::SplitBalance)?,
    };
    let a = inst.action(i);
    let inter = live.intersect(a.set);
    let diff = live.difference(a.set);
    // Both the DP and the greedy rule only pick applicable actions, so
    // the children below are strictly smaller than `live` — the
    // recursion terminates.
    if a.is_test() {
        let pos = complete_node(inst, inter, exact)?;
        let neg = complete_node(inst, diff, exact)?;
        Some(TtTree::test(i, pos, neg))
    } else if diff.is_empty() {
        Some(TtTree::leaf(i))
    } else {
        Some(TtTree::treat_then(i, complete_node(inst, diff, exact)?))
    }
}

/// A partial exact table as a cost table: unknown sets read as INF.
struct Known<'a>(&'a dyn Fn(Subset) -> Option<Cost>);

impl CostLookup for Known<'_> {
    fn cost_of(&self, s: Subset) -> Cost {
        if s.is_empty() {
            return Cost::ZERO;
        }
        (self.0)(s).unwrap_or(Cost::INF)
    }
}

/// The `(upper_bound, lower_bound)` pair for a degraded outcome:
/// the incumbent tree's expected cost (INF when no tree could be built)
/// and the admissible lookahead bound at the universe.
pub fn degraded_bounds(inst: &TtInstance, tree: Option<&TtTree>) -> (Cost, Cost) {
    let upper = tree.map_or(Cost::INF, |t| t.expected_cost(inst));
    let lower = Bounds::lower_bound_at(inst, inst.universe());
    (upper, lower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
    use crate::solver::sequential;

    fn inst() -> TtInstance {
        TtInstanceBuilder::new(5)
            .weights([8, 4, 2, 1, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2]), 1)
            .test(Subset::from_iter([1, 3]), 2)
            .treatment(Subset::from_iter([0]), 2)
            .treatment(Subset::from_iter([1, 2]), 3)
            .treatment(Subset::from_iter([2, 3, 4]), 4)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_table_gives_the_greedy_tree() {
        let i = inst();
        let t = complete_tree(&i, &|_| None).unwrap();
        t.validate(&i).unwrap();
        let g = greedy::solve(&i, greedy::Heuristic::SplitBalance).unwrap();
        assert_eq!(t.expected_cost(&i), g.cost);
    }

    #[test]
    fn full_table_gives_the_optimal_tree() {
        let i = inst();
        let sol = sequential::solve(&i);
        let t = complete_tree(&i, &|s| Some(sol.tables.cost[s.index()])).unwrap();
        t.validate(&i).unwrap();
        assert_eq!(t.expected_cost(&i), sol.cost);
        assert_eq!(Some(t), sol.tree, "the stored first-minimizers");
    }

    #[test]
    fn partial_table_is_sandwiched_between_greedy_and_optimal() {
        let i = inst();
        let sol = sequential::solve(&i);
        let greedy_cost = greedy::solve(&i, greedy::Heuristic::SplitBalance)
            .unwrap()
            .cost;
        // Only subsets of size <= 2 are "known" — a typical watermark cut.
        let t = complete_tree(&i, &|s| (s.len() <= 2).then(|| sol.tables.cost[s.index()])).unwrap();
        t.validate(&i).unwrap();
        let c = t.expected_cost(&i);
        assert!(c >= sol.cost);
        assert!(c <= greedy_cost);
    }

    #[test]
    fn degraded_bounds_sandwich_the_optimum() {
        let i = inst();
        let opt = sequential::solve(&i).cost;
        let t = complete_tree(&i, &|_| None);
        let (upper, lower) = degraded_bounds(&i, t.as_ref());
        assert!(lower <= opt, "{lower} > optimum {opt}");
        assert!(upper >= opt, "{upper} < optimum {opt}");
    }

    #[test]
    fn inadequate_instance_yields_inf_upper_bound() {
        let i = TtInstanceBuilder::new(2)
            .treatment(Subset::singleton(0), 1)
            .build()
            .unwrap();
        let t = complete_tree(&i, &|_| None);
        assert!(t.is_none());
        let (upper, lower) = degraded_bounds(&i, t.as_ref());
        assert!(upper.is_inf());
        assert!(lower.is_inf());
    }
}
