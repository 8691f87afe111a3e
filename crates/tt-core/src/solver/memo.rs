//! Live-set DP over reachable subsets only, on sparse frontiers.
//!
//! The paper's parallel algorithm allocates a PE to **every** `(S, i)` pair
//! because a SIMD machine cannot cheaply skip lattice levels. A sequential
//! machine can: only subsets reachable from `U` through test splits and
//! treatment failures ever matter, and for structured instances this is a
//! tiny fraction of `2^k`. This solver quantifies that ablation
//! (experiment E14 in DESIGN.md).
//!
//! Since the frontier refactor this is no longer a recursive memo: it runs
//! in two levelwise passes. A **marking pass** walks the closure top-down
//! from `U` (the same usefulness rules as the recurrence), producing one
//! sorted mask list per `#S = j` level — deduplicated by a visited set of
//! one bit per lattice subset, no hash set in the loop; an **evaluation
//! pass** then sweeps those
//! sparse frontiers bottom-up. Within a level, ascending CNS rank *is*
//! ascending mask order (the colex property [`frontier::rank`](crate::subset::frontier::rank) documents),
//! so each child gather is a rank lookup implemented as a probe of the
//! level's `MaskIndex` — no per-gather rank arithmetic. Peak resident cells
//! equal the closure size — the counter the `memo/random/k20` ttbench cell
//! pins — while the visit order (ascending rank within ascending level)
//! picks the same first-minimizer argmins as the old depth-first memo, so
//! costs, trees, and the `reachable_subsets`/`candidates` counters are
//! unchanged.

use crate::cost::Cost;
use crate::instance::TtInstance;
use crate::solver::budget::BudgetMeter;
use crate::solver::sequential::candidate_via;
use crate::subset::frontier::{CostLookup, FrontierStats};
use crate::subset::Subset;
use crate::tree::TtTree;
use std::collections::HashMap;

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
    /// Number of `(S, i)` candidate evaluations performed.
    pub candidates: u64,
    /// The memo table: exact `(C(S), argmin)` for every *finished*
    /// subset — cells cut by the budget are never inserted, so a
    /// degraded caller can trust every entry.
    pub table: HashMap<u32, (Cost, Option<u16>)>,
    /// Frontier accounting: cells allocated / peak resident equal the
    /// reachable-closure size, rank calls count the sparse gathers.
    pub frontier: FrontierStats,
}

/// Open-addressed `mask → cell index` map for one sparse level:
/// Fibonacci hashing on the mask, linear probing, power-of-two
/// capacity at twice the cell count. Non-empty masks are never zero,
/// so zero marks a free slot. A level's table is a few cache lines for
/// typical closures — each gather costs one multiply and (almost
/// always) one probe, against the ~log₂(cells) mispredicting probes of
/// a bisection.
struct MaskIndex {
    /// `(mask, cell index)` slots; `mask == 0` means empty.
    slots: Vec<(u32, u32)>,
    /// `64 − log₂(slots.len())`, the Fibonacci-hash shift.
    shift: u32,
}

/// `⌊2^64 / φ⌋`, the Fibonacci-hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl MaskIndex {
    fn build(masks: &[u32]) -> MaskIndex {
        let cap = (masks.len() * 2).next_power_of_two().max(4);
        let shift = 64 - cap.trailing_zeros();
        let mut slots = vec![(0u32, 0u32); cap];
        for (i, &key) in masks.iter().enumerate() {
            debug_assert_ne!(key, 0, "∅ is never a cell");
            let mut h = (u64::from(key).wrapping_mul(FIB) >> shift) as usize;
            while slots[h].0 != 0 {
                h = (h + 1) & (cap - 1);
            }
            slots[h] = (key, u32::try_from(i).expect("cells fit u32"));
        }
        MaskIndex { slots, shift }
    }

    /// The cell index of `key`, which must be present.
    #[inline]
    fn get(&self, key: u32) -> usize {
        let mut h = (u64::from(key).wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let (k, i) = self.slots[h];
            if k == key {
                return i as usize;
            }
            debug_assert_ne!(k, 0, "gather target is in the closure by construction");
            h = (h + 1) & (self.slots.len() - 1);
        }
    }
}

/// One `#S = j` slice of the reachable closure: the marked subsets'
/// masks in ascending order (= ascending CNS rank order), with their
/// costs and argmins filled in by the evaluation pass, plus the
/// mask-index table the gathers probe.
struct SparseLevel {
    masks: Vec<u32>,
    index: MaskIndex,
    cost: Vec<Cost>,
    arg: Vec<Option<u16>>,
}

impl SparseLevel {
    /// Builds a level from an already sorted, deduplicated mask list.
    fn new(masks: Vec<u32>) -> SparseLevel {
        debug_assert!(masks.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        let cells = masks.len();
        SparseLevel {
            index: MaskIndex::build(&masks),
            masks,
            cost: vec![Cost::INF; cells],
            arg: vec![None; cells],
        }
    }
}

/// Gather view over the completed lower levels (and `∅ → 0`). Each
/// lookup is a [`frontier::rank`](crate::subset::frontier::rank)-order access: within a level,
/// ascending rank is ascending mask, so the cell index comes from the
/// level's [`MaskIndex`] and the rank itself is never computed.
struct SparseLower<'a> {
    levels: &'a [SparseLevel],
    rank_calls: std::cell::Cell<u64>,
}

impl CostLookup for SparseLower<'_> {
    #[inline]
    fn cost_of(&self, s: Subset) -> Cost {
        if s.is_empty() {
            return Cost::ZERO;
        }
        self.rank_calls.set(self.rank_calls.get() + 1);
        let lvl = &self.levels[s.len()];
        lvl.cost[lvl.index.get(s.0)]
    }
}

/// Walks the closure of `U` under the recurrence's useful actions,
/// level by level from `U` down: each `#S = j` level is sorted when the
/// walk reaches it, expanded, then handed to `expanded(j, masks)`
/// (sorted and deduplicated) — `memo` keeps it, a count-only caller
/// drops it. A child is queued once, the first time a visited set of
/// one bit per lattice subset (`2^k / 8` bytes, 128 KiB at `k = 20`)
/// sees it. Deduplicating a level only when the walk reaches it would
/// hold up to `2N` pending copies of each subset until then (15 MB on a
/// 58,151-subset `k = 20` closure). Returns the closure's size counting
/// `U` (`∅` is implicit, `C(∅) = 0`, never a cell), or `None` as soon
/// as that size exceeds `cap` or `alive`, polled every 1024 expanded
/// subsets, returns `false`.
pub(crate) fn walk_closure(
    inst: &TtInstance,
    cap: usize,
    alive: &mut dyn FnMut() -> bool,
    expanded: &mut dyn FnMut(usize, Vec<u32>),
) -> Option<usize> {
    let k = inst.k();
    let mut pending: Vec<Vec<u32>> = vec![Vec::new(); k + 1];
    let mut seen = vec![0u64; (1usize << k).div_ceil(64)];
    let mut fresh = |s: Subset| {
        let (word, bit) = (s.index() / 64, s.index() % 64);
        let new = seen[word] & (1 << bit) == 0;
        seen[word] |= 1 << bit;
        new
    };
    let root = inst.universe();
    fresh(root);
    pending[k].push(root.0);
    let mut count = 1usize;
    let mut polled = 0u32;
    for j in (1..=k).rev() {
        let mut lvl = std::mem::take(&mut pending[j]);
        lvl.sort_unstable();
        for &mask in &lvl {
            let s = Subset(mask);
            polled += 1;
            if polled.is_multiple_of(1024) && !alive() {
                return None;
            }
            for i in 0..inst.n_actions() {
                let a = inst.action(i);
                let inter = s.intersect(a.set);
                let diff = s.difference(a.set);
                if inter.is_empty() || (a.is_test() && diff.is_empty()) {
                    continue;
                }
                let children = [a.is_test().then_some(inter), Some(diff)];
                for c in children.into_iter().flatten() {
                    if !c.is_empty() && fresh(c) {
                        pending[c.len()].push(c.0);
                        count += 1;
                        if count > cap {
                            return None;
                        }
                    }
                }
            }
        }
        expanded(j, lvl);
    }
    Some(count)
}

/// Solves `inst` top-down, touching only reachable subsets.
pub fn solve(inst: &TtInstance) -> MemoSolution {
    solve_with(inst, &mut BudgetMeter::unlimited())
}

/// As [`solve`] but under a budget. If the meter exhausts, the sweep
/// stops at the current cell; the returned `table` still holds only
/// exact entries, and `cost`/`tree` must be ignored (check
/// `meter.exhausted()`).
pub fn solve_with(inst: &TtInstance, meter: &mut BudgetMeter) -> MemoSolution {
    let k = inst.k();
    let mut stats = FrontierStats::default();
    let mut candidates = 0u64;
    let dead_solution = |stats: FrontierStats, candidates: u64, table: HashMap<u32, _>| {
        let reachable = table.len();
        MemoSolution {
            cost: Cost::INF,
            tree: None,
            reachable_subsets: reachable,
            candidates,
            table,
            frontier: stats,
        }
    };
    let mut marked: Vec<Vec<u32>> = vec![Vec::new(); k + 1];
    let walked = walk_closure(inst, usize::MAX, &mut || meter.check(), &mut |j, lvl| {
        marked[j] = lvl;
    });
    if walked.is_none() {
        return dead_solution(stats, candidates, HashMap::new());
    }
    let mut levels: Vec<SparseLevel> = marked.into_iter().map(SparseLevel::new).collect();
    for lvl in &levels {
        stats.on_alloc(lvl.masks.len() as u64);
    }

    // Bottom-up evaluation over the sparse frontiers: ascending rank
    // within ascending level, the same first-minimizer tie-break as the
    // dense sweeps. `cut` marks the first unfinished cell when the
    // budget exhausts mid-sweep.
    let mut cut: Option<(usize, usize)> = None;
    'levels: for j in 1..=k {
        let (lower, cur) = levels.split_at_mut(j);
        let cur = &mut cur[0];
        let gather = SparseLower {
            levels: lower,
            rank_calls: std::cell::Cell::new(0),
        };
        for idx in 0..cur.masks.len() {
            let s = Subset(cur.masks[idx]);
            if !meter.charge_subsets(1) {
                cut = Some((j, idx));
                stats.rank_calls += gather.rank_calls.get();
                break 'levels;
            }
            let w = inst.weight_of(s);
            let mut best = Cost::INF;
            let mut arg = None;
            let mut gathers = 0u64;
            for i in 0..inst.n_actions() {
                let a = inst.action(i);
                let inter = s.intersect(a.set);
                let diff = s.difference(a.set);
                if inter.is_empty() || (a.is_test() && diff.is_empty()) {
                    continue;
                }
                candidates += 1;
                if !meter.charge_candidates(1) {
                    cut = Some((j, idx));
                    stats.rank_calls += gather.rank_calls.get();
                    break 'levels;
                }
                let m = candidate_via(inst, w, &gather, s, i, &mut gathers);
                if m < best {
                    best = m;
                    arg = Some(i as u16);
                }
            }
            cur.cost[idx] = best;
            cur.arg[idx] = arg;
        }
        stats.rank_calls += gather.rank_calls.get();
    }

    // Export the finished cells as the memo table (INF cells included:
    // a finished INF entry is exact knowledge, same as before).
    let mut table: HashMap<u32, (Cost, Option<u16>)> = HashMap::new();
    for (j, lvl) in levels.iter().enumerate().skip(1) {
        for idx in 0..lvl.masks.len() {
            if let Some((cj, ci)) = cut {
                if j > cj || (j == cj && idx >= ci) {
                    break;
                }
            }
            table.insert(lvl.masks[idx], (lvl.cost[idx], lvl.arg[idx]));
        }
    }
    if cut.is_some() {
        return dead_solution(stats, candidates, table);
    }

    let cost = table.get(&inst.universe().0).map_or(Cost::INF, |&(c, _)| c);
    let tree = tree_from_table(inst, &table, inst.universe());
    MemoSolution {
        cost,
        tree,
        reachable_subsets: table.len(),
        candidates,
        table,
        frontier: stats,
    }
}

fn tree_from_table(
    inst: &TtInstance,
    table: &HashMap<u32, (Cost, Option<u16>)>,
    s: Subset,
) -> Option<TtTree> {
    if s.is_empty() {
        return None;
    }
    let &(c, arg) = table.get(&s.0)?;
    if c.is_inf() {
        return None;
    }
    let i = arg? as usize;
    let a = inst.action(i);
    if a.is_test() {
        let pos = tree_from_table(inst, table, s.intersect(a.set))?;
        let neg = tree_from_table(inst, table, s.difference(a.set))?;
        Some(TtTree::test(i, pos, neg))
    } else {
        let remaining = s.difference(a.set);
        if remaining.is_empty() {
            Some(TtTree::leaf(i))
        } else {
            Some(TtTree::treat_then(
                i,
                tree_from_table(inst, table, remaining)?,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
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
    fn candidate_count_is_bounded_by_full_lattice_work() {
        let i = inst();
        let memo = solve(&i);
        let full = ((1u64 << i.k()) - 1) * i.n_actions() as u64;
        assert!(memo.candidates <= full);
    }

    #[test]
    fn peak_resident_cells_equal_the_closure() {
        let i = inst();
        let memo = solve(&i);
        assert_eq!(
            memo.frontier.cells_allocated, memo.reachable_subsets as u64,
            "sparse frontiers hold exactly the closure"
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
        for (&mask, &(c, arg)) in &memo.table {
            let s = Subset(mask);
            assert_eq!(c, seq.tables.cost[s.index()], "cost at {s}");
            assert_eq!(arg, seq.tables.best[s.index()], "argmin at {s}");
        }
    }
}
