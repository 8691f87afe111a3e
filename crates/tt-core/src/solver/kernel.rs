//! The levelwise DP kernel every host engine runs.
//!
//! One `#S = j` wavefront sweep of `C(S)` over a mask-indexed,
//! cost-only slab: `2^k` [`Cost`] cells, 8 B each, and nothing else —
//! no argmin plane (argmins are recomputed where they are read, by
//! [`sequential::argmin_at`]) and no `p(S)` weight table (each cell
//! sums its own weight with [`TtInstance::weight_of`]).
//!
//! A level is computed into a rank-ordered buffer, one window of at
//! most [`WINDOW`] cells at a time, and each window is scattered into
//! the slab once. A window is walked in chunks of [`CHUNK`] cells: one
//! `unrank` per chunk, then Gosper steps, so a chunk knows its subsets
//! from its rank alone and chunks are independent. The only thing engines differ in is how those chunks
//! run — the [`Executor`]: [`Serial`] here (`seq`), worker threads in
//! `tt-parallel` (`rayon`). Every gather reads a strictly smaller set,
//! written in an earlier level, so the slab is read-only while a level
//! runs and every executor produces the same cells.
//!
//! Per level the kernel charges the whole level to the budget meter,
//! records a `tt-obs` level sample and hands the sink a
//! [`LevelView::dense_costs`] of the slab.

use crate::cost::Cost;
use crate::instance::TtInstance;
use crate::solver::anytime::ExactEntry;
use crate::solver::budget::{Budget, BudgetMeter};
use crate::solver::checkpoint::{Checkpoint, LevelView};
use crate::solver::engine::{
    degraded_result, prepare_resume, record_frontier_stats, SolveOutcome, WorkStats,
};
use crate::solver::sequential::{self, min_candidate};
use crate::subset::frontier::{self, DenseSlab, FrontierStats};
use crate::subset::Subset;
use crate::tree::TtTree;

/// Cells per chunk of a level buffer: 8 KiB of `Cost`, small enough to
/// stay resident while its gathers walk the slab.
pub const CHUNK: usize = 1 << 10;

/// Cells per window: a level wider than this is computed and scattered
/// a window at a time, so the rank buffer stays at 512 KiB whatever `k`
/// (the widest level is 1.4 MiB of cells at `k = 20`, 41 MiB at 25).
pub const WINDOW: usize = 64 * CHUNK;

/// How the chunks of one window run.
pub trait Executor {
    /// Calls `chunk(ci, cells)` exactly once for each [`CHUNK`]-cell
    /// chunk `ci` of `out` (the last one may be shorter). Chunks are
    /// disjoint, so they may run in any order or at once.
    fn run(&self, out: &mut [Cost], chunk: &(dyn Fn(usize, &mut [Cost]) + Sync));
}

/// Runs the chunks one after another on the calling thread.
pub struct Serial;

impl Executor for Serial {
    fn run(&self, out: &mut [Cost], chunk: &(dyn Fn(usize, &mut [Cost]) + Sync)) {
        for (ci, cells) in out.chunks_mut(CHUNK).enumerate() {
            chunk(ci, cells);
        }
    }
}

/// A completed `#S ≤ level` wavefront to start from: the level and a
/// slab exact up to it. The slab is taken over, not copied.
pub type Seed = (usize, Vec<Cost>);

/// What a sweep leaves behind.
pub struct Sweep {
    /// `cost[S.index()] = C(S)`, exact for every `#S ≤ done`.
    pub cost: Vec<Cost>,
    /// The completed level: `k` unless the budget ran out.
    pub done: usize,
    /// Slab cells allocated (none when the slab came with the seed) and
    /// unranks (one per chunk and one per window).
    pub stats: FrontierStats,
}

impl Sweep {
    /// The partial exact table, in the shape `anytime` consumes.
    pub fn exact(&self, s: Subset) -> Option<ExactEntry> {
        (s.len() <= self.done).then(|| (self.cost[s.index()], None))
    }
}

/// The next mask with the same popcount (Gosper's hack). Callers must
/// not step past the last subset of a level.
fn gosper_next(s: Subset) -> Subset {
    let cur = s.0;
    let c = cur & cur.wrapping_neg();
    let r = cur.wrapping_add(c);
    Subset((((r ^ cur) >> 2) / c) | r)
}

/// Sweeps levels `seed level + 1 ..= k` (all of them without a seed),
/// stopping between levels when `meter` runs out.
pub fn sweep(
    inst: &TtInstance,
    meter: &mut BudgetMeter,
    exec: &dyn Executor,
    seed: Option<Seed>,
    sink: &mut dyn FnMut(&LevelView<'_>),
) -> Sweep {
    sweep_windows(inst, meter, exec, seed, sink, WINDOW)
}

/// [`sweep`] with `window` cells per window (a multiple of [`CHUNK`]).
fn sweep_windows(
    inst: &TtInstance,
    meter: &mut BudgetMeter,
    exec: &dyn Executor,
    seed: Option<Seed>,
    sink: &mut dyn FnMut(&LevelView<'_>),
    window: usize,
) -> Sweep {
    debug_assert_eq!(window % CHUNK, 0, "windows hold whole chunks");
    let k = inst.k();
    let n_actions = inst.n_actions() as u64;
    let mut stats = FrontierStats::default();
    let (start, mut cost) = match seed {
        Some((level, cost)) => {
            assert_eq!(cost.len(), 1usize << k, "seed slab size");
            (level.min(k), cost)
        }
        None => {
            stats.on_alloc(1u64 << k);
            let mut cost = vec![Cost::INF; 1usize << k];
            cost[0] = Cost::ZERO;
            (0, cost)
        }
    };
    let mut buf: Vec<Cost> = Vec::new();
    let mut done = k;
    for j in (start + 1)..=k {
        let cells = frontier::binomial(k, j);
        let in_budget = meter.charge_subsets(cells)
            & meter.charge_candidates(cells * n_actions)
            & meter.check();
        if !in_budget {
            done = j - 1;
            break;
        }
        let level_start = std::time::Instant::now();
        if buf.is_empty() {
            buf = vec![Cost::INF; (frontier::max_frontier(k) as usize).min(window)];
        }
        let level = cells as usize;
        // Cells of level `j` are never gathered while level `j` runs, so
        // a finished window may be scattered before the next one starts.
        for first in (0..level).step_by(window) {
            let out = &mut buf[..(level - first).min(window)];
            let slab = DenseSlab(&cost);
            exec.run(out, &|ci, chunk| {
                let mut s = frontier::unrank(j, (first + ci * CHUNK) as u64);
                let mut gathers = 0u64;
                for (off, cell) in chunk.iter_mut().enumerate() {
                    if off > 0 {
                        s = gosper_next(s);
                    }
                    *cell = min_candidate(inst, inst.weight_of(s), &slab, s, &mut gathers).0;
                }
            });
            let mut s = frontier::unrank(j, first as u64);
            for (off, &c) in out.iter().enumerate() {
                if off > 0 {
                    s = gosper_next(s);
                }
                cost[s.index()] = c;
            }
            stats.unrank_calls += out.len().div_ceil(CHUNK) as u64 + 1;
        }
        let nanos = u64::try_from(level_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tt_obs::telemetry::record_level(j, cells, cells * n_actions, nanos);
        sink(&LevelView::dense_costs(inst, j, &cost));
    }
    Sweep { cost, done, stats }
}

/// A whole host-engine solve: the sweep under `budget`, warm-started
/// from `resume` when it belongs to `inst` (a copy of its cost slab;
/// its argmins are not needed), then its [`report`], with the resumed
/// level as `resumed_level`.
pub fn solve(
    inst: &TtInstance,
    budget: &Budget,
    exec: &dyn Executor,
    resume: Option<&Checkpoint>,
    sink: &mut dyn FnMut(&LevelView<'_>),
) -> (Cost, Option<TtTree>, WorkStats, SolveOutcome) {
    let mut meter = budget.start();
    let seed = prepare_resume(inst, resume).map(|ck| (ck.level, ck.cost.clone()));
    let resumed = seed.as_ref().map(|(level, _)| *level);
    let sweep = sweep(inst, &mut meter, exec, seed, sink);
    report(inst, &meter, &sweep, resumed)
}

/// The report of a finished sweep: `C(U)` and the tree extracted from
/// the slab, or — when `meter` ran out — the degraded result from the
/// completed wavefront. Reports `completed_levels`, the frontier
/// counters and `resumed_level` when given.
pub fn report(
    inst: &TtInstance,
    meter: &BudgetMeter,
    sweep: &Sweep,
    resumed: Option<usize>,
) -> (Cost, Option<TtTree>, WorkStats, SolveOutcome) {
    let mut work = WorkStats {
        subsets: meter.subsets(),
        candidates: meter.candidates(),
        ..WorkStats::default()
    };
    work.push_extra("completed_levels", sweep.done as u64);
    record_frontier_stats(&mut work, sweep.stats);
    if let Some(level) = resumed {
        work.push_extra("resumed_level", level as u64);
    }
    match meter.exhausted() {
        None => {
            let root = inst.universe();
            let tree = sequential::extract_tree_costs(inst, &sweep.cost, root);
            (sweep.cost[root.index()], tree, work, SolveOutcome::Complete)
        }
        Some(r) => degraded_result(inst, r.into(), &|s| sweep.exact(s), work),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;

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
    fn the_sweep_matches_the_mask_order_tables_cell_for_cell() {
        let i = inst();
        let mut levels = Vec::new();
        let sweep = sweep(&i, &mut BudgetMeter::unlimited(), &Serial, None, &mut |v| {
            levels.push(v.level())
        });
        assert_eq!(sweep.done, i.k());
        assert_eq!(levels, (1..=i.k()).collect::<Vec<_>>());
        assert_eq!(sweep.cost, sequential::solve_tables(&i).cost);
        assert_eq!(sweep.stats.cells_allocated, 1 << i.k());
        assert_eq!(sweep.stats.peak_resident_cells, 1 << i.k());
    }

    #[test]
    fn a_seeded_sweep_allocates_nothing_and_runs_only_the_levels_above() {
        let i = inst();
        let full = sequential::solve_tables(&i).cost;
        let mut levels = Vec::new();
        let sweep = sweep(
            &i,
            &mut BudgetMeter::unlimited(),
            &Serial,
            Some((2, full.clone())),
            &mut |v| levels.push(v.level()),
        );
        assert_eq!(levels, vec![3, 4, 5]);
        assert_eq!(sweep.cost, full);
        assert_eq!(sweep.stats.cells_allocated, 0);
    }

    #[test]
    fn windows_narrower_than_a_level_give_the_same_slab() {
        let i = TtInstanceBuilder::new(14)
            .weights((0..14).map(|j| 1 + j % 5))
            .test(Subset::from_iter([0, 3, 5, 8, 12]), 2)
            .test(Subset::from_iter([1, 2, 9, 10, 11]), 1)
            .test(Subset::from_iter([4, 6, 7, 13]), 3)
            .treatment(Subset::from_iter(0..7), 7)
            .treatment(Subset::from_iter(7..14), 5)
            .treatment(Subset::from_iter([2, 4, 9, 12]), 2)
            .build()
            .unwrap();
        // C(14,7) = 3432 cells: one-chunk windows split the middle
        // levels four ways, the default window takes each level whole.
        let run = |window| {
            sweep_windows(
                &i,
                &mut BudgetMeter::unlimited(),
                &Serial,
                None,
                &mut |_| {},
                window,
            )
            .cost
        };
        let reference = sequential::solve_tables(&i).cost;
        assert_eq!(run(CHUNK), reference);
        assert_eq!(run(WINDOW), reference);
    }

    #[test]
    fn gosper_steps_walk_a_level_in_rank_order() {
        for j in 1..=6 {
            let mut s = frontier::unrank(j, 0);
            for want in Subset::of_size(9, j).skip(1) {
                s = gosper_next(s);
                assert_eq!(s, want);
            }
        }
    }
}
