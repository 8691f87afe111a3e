//! Live-set DP over reachable subsets only, on the level kernel.
//!
//! The paper's parallel algorithm allocates a PE to **every** `(S, i)` pair
//! because a SIMD machine cannot cheaply skip lattice levels. A sequential
//! machine can: only subsets reachable from `U` through test splits and
//! treatment failures ever matter, and for structured instances this is a
//! tiny fraction of `2^k`. This solver quantifies that ablation
//! (experiment E14 in DESIGN.md).
//!
//! It runs in two passes. `walk_closure` marks the closure top-down
//! from `U` under the recurrence's usefulness rules, one `#S = j` level
//! at a time, into sorted per-level mask lists, and counts the useful
//! `(S, i)` pairs as it goes. Then each marked level, bottom-up, goes
//! through the level kernel's action-major chunk pass
//! (`kernel::chunk_costs`), which gathers from one closure-sized,
//! open-addressed `mask → C(S)` table ([`ClosureTable`]) instead of the
//! `2^k` slab. A level's cells enter the table once the level is done,
//! and every gather of a useful pair lands on a smaller closure set, so
//! the table never misses. Every closure cell equals the mask-order
//! DP's, and the tree comes from [`argmin_at`] over the same table, so
//! it is the tree `seq` extracts. `auto` hands over the closure its
//! selection walk already marked (`solve_closure`), so an `auto` solve
//! walks once.
//!
//! [`argmin_at`]: crate::solver::sequential::argmin_at

use crate::cost::Cost;
use crate::instance::{Action, TtInstance};
use crate::solver::budget::BudgetMeter;
use crate::solver::kernel::{self, SplitWeights, CHUNK};
use crate::solver::sequential::extract_tree_via;
use crate::subset::frontier::{CostLookup, FrontierStats};
use crate::subset::Subset;
use crate::tree::TtTree;

/// Result of the memoized solver.
#[derive(Clone, Debug)]
pub struct MemoSolution {
    /// `C(U)` (meaningless when the budget exhausted mid-solve — check
    /// the meter).
    pub cost: Cost,
    /// An optimal tree, or `None` when `C(U) = INF` or the budget
    /// exhausted.
    pub tree: Option<TtTree>,
    /// Number of distinct subsets actually evaluated (compare `2^k`).
    pub reachable_subsets: usize,
    /// Number of useful `(S, i)` pairs at the evaluated subsets.
    pub candidates: u64,
    /// Exact `C(S)` for every subset of a *completed* level (and `∅`):
    /// a budget that runs out stops between levels, so a degraded
    /// caller can trust every entry.
    pub table: ClosureTable,
    /// Frontier accounting: cells allocated / peak resident equal the
    /// reachable-closure size; `rank_calls` counts the closure-table
    /// gathers of the useful pairs (two per test pair, one per
    /// treatment pair), an upper bound on the gathers the chunk pass
    /// ran: the pairs its bound skips gather nothing (`bound_skipped`).
    pub frontier: FrontierStats,
}

/// One `#S = j` level of the reachable closure.
#[derive(Default)]
pub(crate) struct Level {
    /// The level's subsets in ascending mask order.
    masks: Vec<Subset>,
    /// Useful test pairs at them (two gathers each).
    tests: u64,
    /// Useful treatment pairs at them (one gather each).
    treatments: u64,
}

/// The closure of `U` as [`walk_closure`] marks it: `levels[j]` holds the
/// `#S = j` subsets (`levels[0]` stays empty: `C(∅) = 0` is implicit).
#[derive(Default)]
pub(crate) struct Closure {
    levels: Vec<Level>,
    /// Subsets in the closure, `U` included.
    pub(crate) cells: usize,
}

/// The walk's visited set, one bit per lattice subset, and the subsets
/// marked for each level the walk has not reached yet.
struct Marks {
    seen: Vec<u64>,
    pending: Vec<Vec<Subset>>,
    count: usize,
}

impl Marks {
    /// Queues `s` for its level the first time it is seen. `∅` starts
    /// out seen, so it is never queued or counted.
    #[inline]
    fn mark(&mut self, s: Subset) {
        let (word, bit) = (s.index() / 64, s.index() % 64);
        if self.seen[word] & (1 << bit) == 0 {
            self.seen[word] |= 1 << bit;
            self.pending[s.len()].push(s);
            self.count += 1;
        }
    }
}

/// Walks the closure of `U` under the recurrence's useful actions,
/// level by level from `U` down. When the walk reaches level `j`, every
/// set above it has been expanded, so the level's marks are final:
/// `go_on(j, marked)` sees their number and may stop the walk. The
/// level is then sorted and expanded, tests and treatments in separate
/// loops as in the kernel. A child is queued once, the first time the
/// visited set (`2^k / 8` bytes, 128 KiB at `k = 20`) sees it.
/// Returns the closure, or `None` as soon as a marked child takes its
/// size, counting `U`, past `cap`, or when `go_on` returns `false`.
pub(crate) fn walk_closure(
    inst: &TtInstance,
    cap: usize,
    go_on: &mut dyn FnMut(usize, usize) -> bool,
) -> Option<Closure> {
    let k = inst.k();
    let sets = |actions: &[Action]| -> Vec<Subset> { actions.iter().map(|a| a.set).collect() };
    let (tests, treatments) = (sets(inst.tests()), sets(inst.treatments()));
    let mut seen = vec![0u64; (1usize << k).div_ceil(64)];
    seen[0] = 1;
    let mut marks = Marks {
        seen,
        pending: vec![Vec::new(); k + 1],
        count: 0,
    };
    marks.mark(inst.universe());
    let mut levels: Vec<Level> = (0..=k).map(|_| Level::default()).collect();
    for j in (1..=k).rev() {
        let mut masks = std::mem::take(&mut marks.pending[j]);
        if !go_on(j, masks.len()) {
            return None;
        }
        masks.sort_unstable();
        let level = &mut levels[j];
        // A useless action's children are `∅` and `S` itself, both
        // seen, so every action is marked and only the counts test
        // usefulness.
        for &s in &masks {
            for &t in &tests {
                let (inter, diff) = (s.intersect(t), s.difference(t));
                level.tests += u64::from(!inter.is_empty() & !diff.is_empty());
                marks.mark(inter);
                marks.mark(diff);
            }
            for &t in &treatments {
                level.treatments += u64::from(s.intersects(t));
                marks.mark(s.difference(t));
            }
            // Only a marked child can pass the cap: `U` alone never does.
            if marks.count > cap.max(1) {
                return None;
            }
        }
        level.masks = masks;
    }
    Some(Closure {
        levels,
        cells: marks.count,
    })
}

/// `C(S)` over the closure: `(mask, cost)` slots with Fibonacci hashing
/// on the mask, linear probing and a power-of-two capacity at least
/// twice the entries. No subset of a universe of at most `MAX_K`
/// objects has mask `u32::MAX`, so it marks a free slot, and `∅ → 0` is
/// an ordinary entry.
#[derive(Clone, Debug)]
pub struct ClosureTable {
    slots: Vec<(u32, Cost)>,
    /// `64 − log₂(slots.len())`, the Fibonacci-hash shift.
    shift: u32,
}

/// The free-slot key.
const FREE: u32 = u32::MAX;

/// `⌊2^64 / φ⌋`, the Fibonacci-hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl ClosureTable {
    /// A table with room for `cells` subsets besides `∅`, which it holds.
    fn for_cells(cells: usize) -> ClosureTable {
        let cap = ((cells + 1) * 2).next_power_of_two().max(4);
        let mut table = ClosureTable {
            slots: vec![(FREE, Cost::INF); cap],
            shift: 64 - cap.trailing_zeros(),
        };
        table.insert(Subset::EMPTY, Cost::ZERO);
        table
    }

    /// The slot holding `s`, or the free slot where it would go.
    #[inline]
    fn slot(&self, s: Subset) -> usize {
        let mask = self.slots.len() - 1;
        let mut h = (u64::from(s.0).wrapping_mul(FIB) >> self.shift) as usize;
        while self.slots[h].0 != s.0 && self.slots[h].0 != FREE {
            h = (h + 1) & mask;
        }
        h
    }

    fn insert(&mut self, s: Subset, c: Cost) {
        let h = self.slot(s);
        self.slots[h] = (s.0, c);
    }

    /// `C(s)`, when the table holds `s`.
    pub fn get(&self, s: Subset) -> Option<Cost> {
        let (key, c) = self.slots[self.slot(s)];
        (key == s.0).then_some(c)
    }

    /// Every `(S, C(S))` the table holds, `∅` included, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Subset, Cost)> + '_ {
        self.slots
            .iter()
            .filter(|&&(key, _)| key != FREE)
            .map(|&(key, c)| (Subset(key), c))
    }
}

impl CostLookup for ClosureTable {
    #[inline]
    fn cost_of(&self, s: Subset) -> Cost {
        let (key, c) = self.slots[self.slot(s)];
        debug_assert_eq!(key, s.0, "gathers stay inside the finished closure");
        c
    }
}

/// Solves `inst` over the reachable closure only.
pub fn solve(inst: &TtInstance) -> MemoSolution {
    solve_with(inst, &mut BudgetMeter::unlimited())
}

/// As [`solve`] but under a budget, polled by the walk at each level and
/// charged per level by the evaluation. If the meter exhausts, `table`
/// holds only the completed levels, and `cost`/`tree` must be ignored
/// (check `meter.exhausted()`).
pub fn solve_with(inst: &TtInstance, meter: &mut BudgetMeter) -> MemoSolution {
    let closure = walk_closure(inst, usize::MAX, &mut |_, _| meter.check());
    solve_closure(inst, meter, closure.unwrap_or_default())
}

/// Evaluates a walked closure bottom-up, each level charged to `meter`
/// (its cells and its useful pairs) before it runs.
pub(crate) fn solve_closure(
    inst: &TtInstance,
    meter: &mut BudgetMeter,
    closure: Closure,
) -> MemoSolution {
    let Closure { levels, cells } = closure;
    let mut frontier = FrontierStats::default();
    frontier.on_alloc(cells as u64);
    let mut table = ClosureTable::for_cells(cells);
    let split = SplitWeights::new(inst);
    let mut costs = [Cost::INF; CHUNK];
    let (mut reachable_subsets, mut candidates) = (0, 0);
    for level in levels.iter().skip(1) {
        let pairs = level.tests + level.treatments;
        let in_budget = meter.charge_subsets(level.masks.len() as u64)
            & meter.charge_candidates(pairs)
            & meter.check();
        if !in_budget {
            break;
        }
        for masks in level.masks.chunks(CHUNK) {
            let costs = &mut costs[..masks.len()];
            frontier.bound_skipped += kernel::chunk_costs(inst, &split, &table, masks, costs);
            for (&s, &c) in masks.iter().zip(costs.iter()) {
                table.insert(s, c);
            }
        }
        reachable_subsets += level.masks.len();
        candidates += pairs;
        frontier.rank_calls += 2 * level.tests + level.treatments;
    }
    let root = inst.universe();
    let (cost, tree) = match meter.exhausted() {
        None => (table.cost_of(root), extract_tree_via(inst, &table, root)),
        Some(_) => (Cost::INF, None),
    };
    MemoSolution {
        cost,
        tree,
        reachable_subsets,
        candidates,
        table,
        frontier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
    use crate::solver::budget::Budget;
    use crate::solver::sequential;

    fn inst() -> TtInstance {
        TtInstanceBuilder::new(5)
            .weights([5, 4, 3, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2, 4]), 2)
            .treatment(Subset::from_iter([0, 1, 2]), 3)
            .treatment(Subset::from_iter([2, 3]), 1)
            .treatment(Subset::from_iter([4]), 2)
            .build()
            .unwrap()
    }

    #[test]
    fn agrees_with_bottom_up() {
        let i = inst();
        let memo = solve(&i);
        let seq = sequential::solve(&i);
        assert_eq!(memo.cost, seq.cost);
        let t = memo.tree.unwrap();
        t.validate(&i).unwrap();
        assert_eq!(t.expected_cost(&i), seq.cost);
    }

    #[test]
    fn touches_fewer_subsets_than_the_lattice() {
        let i = inst();
        let memo = solve(&i);
        assert!(memo.reachable_subsets < (1 << i.k()));
        assert!(memo.reachable_subsets >= 1);
    }

    #[test]
    fn inadequate_instance() {
        let i = TtInstanceBuilder::new(3)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::from_iter([0, 1]), 1)
            .build()
            .unwrap();
        let memo = solve(&i);
        assert!(memo.cost.is_inf());
        assert!(memo.tree.is_none());
    }

    #[test]
    fn candidates_count_the_useful_pairs_of_the_closure() {
        let i = inst();
        let memo = solve(&i);
        let useful = memo
            .table
            .iter()
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, _)| {
                let useless = |a: &Action| {
                    !s.intersects(a.set) || (a.is_test() && s.difference(a.set).is_empty())
                };
                i.actions().iter().filter(|a| !useless(a)).count() as u64
            })
            .sum::<u64>();
        assert_eq!(memo.candidates, useful);
        let full = ((1u64 << i.k()) - 1) * i.n_actions() as u64;
        assert!(memo.candidates <= full);
    }

    #[test]
    fn peak_resident_cells_equal_the_closure() {
        let i = inst();
        let memo = solve(&i);
        assert_eq!(
            memo.frontier.cells_allocated, memo.reachable_subsets as u64,
            "the closure table holds exactly the closure"
        );
        assert_eq!(
            memo.frontier.peak_resident_cells,
            memo.frontier.cells_allocated
        );
        assert!(memo.frontier.rank_calls > 0);
    }

    #[test]
    fn table_matches_sequential_on_every_reachable_subset() {
        let i = inst();
        let memo = solve(&i);
        let seq = sequential::solve(&i);
        assert_eq!(memo.table.iter().count(), memo.reachable_subsets + 1);
        for (s, c) in memo.table.iter() {
            assert_eq!(c, seq.tables.cost[s.index()], "cost at {s}");
        }
    }

    #[test]
    fn a_starved_solve_keeps_only_its_completed_levels() {
        let i = inst();
        let full = solve(&i);
        let seq = sequential::solve_tables(&i);
        // One candidate short of the whole closure: the top level is
        // never evaluated, everything below it is.
        let mut meter = Budget::with_max_candidates(full.candidates - 1).start();
        let cut = solve_with(&i, &mut meter);
        assert!(meter.exhausted().is_some());
        assert!(cut.cost.is_inf() && cut.tree.is_none());
        assert_eq!(cut.table.get(i.universe()), None);
        assert!(cut.reachable_subsets < full.reachable_subsets);
        assert!(cut.table.iter().count() > 1, "the lower levels finished");
        for (s, c) in cut.table.iter() {
            assert_eq!(c, seq.cost[s.index()], "cost at {s}");
        }
    }
}
