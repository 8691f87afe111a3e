//! The levelwise DP kernel every host engine runs.
//!
//! One `#S = j` wavefront sweep of `C(S)` over a mask-indexed,
//! cost-only slab: `2^k` [`Cost`] cells, 8 B each, and nothing else —
//! no argmin plane (argmins are recomputed where they are read, by
//! [`sequential::argmin_at`]) and no `2^k` weight table (`p(S)` is the
//! saturating sum of two half-width subset sums, `SplitWeights`). The
//! slab is the caller's [`Checkpoint`]: the kernel advances it in
//! place, level by level, so the wavefront a caller keeps for a warm
//! failover is the kernel's own slab, never a copy of it.
//!
//! A level is computed into a rank-ordered buffer, one window of at
//! most [`WINDOW`] cells at a time, and each window is scattered into
//! the slab once. A window is walked in chunks of [`CHUNK`] cells: one
//! `unrank` per chunk, then Gosper steps, so a chunk knows its subsets
//! from its rank alone and chunks are independent. Within a chunk the
//! loop order is the paper's `(S, i)` order turned onto a host core:
//! the chunk's masks and weights are laid out once, then each action
//! makes one pass over the whole chunk, folding its candidate
//! `M[S, i]` into every cell's running minimum. For a fixed `T_i` the
//! masks rise through the chunk, so the `S − T_i` gathers walk the slab
//! forward and the `S ∩ T_i` gathers stay among `T_i`'s subsets. The
//! minimum over actions does not depend on their order, so every cell
//! equals [`sequential::min_candidate`]'s, the cell-major reference.
//!
//! The chunk pass's arithmetic is sized to the instance, as the paper
//! sizes its `w`-bit numbers: every built instance has its
//! [`TtInstance::finite_cost_bound`] below `2^63`, so the pass runs on
//! plain `u64` and no finite product or sum reaches `Cost`'s
//! saturation point; its cells are `Cost`'s algebra bit for bit (see
//! `chunk_costs`), and what the slab stores and compares is still
//! [`Cost`].
//!
//! The chunk pass is generic over its gather, a [`CostLookup`]: the
//! dense sweep reads the slab through [`DenseSlab`], and `memo` hands
//! it the masks of one marked closure level and its closure-sized
//! `mask → C(S)` table (see [`super::memo`]).
//!
//! The only thing engines differ in is how those chunks run — the
//! [`Executor`]: [`Serial`] here (`seq`), worker threads in
//! `tt-parallel` (`rayon`). Every gather reads a strictly smaller set,
//! written in an earlier level, so the slab is read-only while a level
//! runs and every executor produces the same cells.
//!
//! Per level the kernel charges the whole level to the budget meter,
//! records a `tt-obs` level sample, moves the wavefront's level up and
//! hands the sink a [`LevelView`] of the wavefront.

use crate::cost::Cost;
use crate::instance::TtInstance;
use crate::solver::budget::{Budget, BudgetMeter};
use crate::solver::checkpoint::{Checkpoint, LevelView};
use crate::solver::engine::{
    admit_wave, degraded_result, record_frontier_stats, SolveOutcome, WorkStats,
};
use crate::solver::sequential;
use crate::subset::frontier::{self, CostLookup, DenseSlab, FrontierStats};
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

/// The next mask with the same popcount (Gosper's hack). Callers must
/// not step past the last subset of a level.
fn gosper_next(s: Subset) -> Subset {
    let cur = s.0;
    let c = cur & cur.wrapping_neg();
    let r = cur.wrapping_add(c);
    Subset((((r ^ cur) >> 2) / c) | r)
}

/// `p(S)` for every mask from two half-width subset-sum tables: `lo`
/// over the low `⌈k/2⌉` objects, `hi` over the rest, `2·2^⌈k/2⌉` u64 in
/// all (16 KiB at `k = 20`). Saturating addition of non-negative
/// integers is associative, so `lo[S_low] ⊕ hi[S_high]` is exactly
/// [`TtInstance::weight_of`], saturation included.
pub(crate) struct SplitWeights {
    lo: Vec<u64>,
    hi: Vec<u64>,
    half: u32,
}

impl SplitWeights {
    /// Builds both tables for `inst`'s weights.
    pub(crate) fn new(inst: &TtInstance) -> SplitWeights {
        let half = inst.k().div_ceil(2);
        let (lo, hi) = inst.weights().split_at(half);
        SplitWeights {
            lo: subset_sums(lo),
            hi: subset_sums(hi),
            half: half as u32,
        }
    }

    /// `p(s)`.
    #[inline]
    pub(crate) fn of(&self, s: Subset) -> u64 {
        let low = s.0 & ((1u32 << self.half) - 1);
        self.lo[low as usize].saturating_add(self.hi[(s.0 >> self.half) as usize])
    }
}

/// The saturating subset sums of `weights`, indexed by mask.
fn subset_sums(weights: &[u64]) -> Vec<u64> {
    let mut sums = vec![0u64; 1 << weights.len()];
    for mask in 1..sums.len() {
        let low = mask.trailing_zeros() as usize;
        sums[mask] = sums[mask & (mask - 1)].saturating_add(weights[low]);
    }
    sums
}

/// Computes one chunk of level cells: `cells[off]` becomes
/// `C(masks[off])` gathered from `table`, `weights[off]` being
/// `p(masks[off])`.
///
/// The pass runs action by action on plain `u64`. The candidates and
/// their exclusions are [`sequential::candidate_via`]'s: an action is
/// useless at `S` when `S ∩ T` is empty, a test also when `S − T` is,
/// so `table` is only read at the children of useful pairs. Under the
/// instance's cost bound every finite cell, product and sum is below
/// `2^63`, never reaching `Cost`'s saturation at `u64::MAX − 1`, so
/// `t·p(S)` and the sums are plain (wrapping) arithmetic and the
/// minimum a plain `min`. A gathered `INF` (`u64::MAX`) is then the one
/// value with its top bit set; its sign mask, or-ed into the sum, keeps
/// `INF` absorbing. Every cell equals `Cost`'s algebra bit for bit.
pub(crate) fn chunk_costs<L: CostLookup>(
    inst: &TtInstance,
    table: &L,
    masks: &[Subset],
    weights: &[u64],
    cells: &mut [Cost],
) {
    let gather = |s| table.cost_of(s).0;
    // All ones for a gathered `INF`, zero for a finite cost.
    let inf = |c: u64| (c >> 63).wrapping_neg();
    cells.fill(Cost::INF);
    for t in inst.tests() {
        for ((cell, &s), &w) in cells.iter_mut().zip(masks).zip(weights) {
            let (inter, diff) = (s.intersect(t.set), s.difference(t.set));
            if inter.is_empty() || diff.is_empty() {
                continue;
            }
            let (a, b) = (gather(inter), gather(diff));
            let m = (t.cost * w).wrapping_add(a).wrapping_add(b) | inf(a | b);
            cell.0 = cell.0.min(m);
        }
    }
    for t in inst.treatments() {
        for ((cell, &s), &w) in cells.iter_mut().zip(masks).zip(weights) {
            if !s.intersects(t.set) {
                continue;
            }
            let a = gather(s.difference(t.set));
            let m = (t.cost * w).wrapping_add(a) | inf(a);
            cell.0 = cell.0.min(m);
        }
    }
}

/// Sweeps `wave` from its level up to `k` in place, stopping between
/// levels when `meter` runs out. `wave.level` moves up as each level
/// completes, before the sink sees it, so a caller that catches a panic
/// still holds every completed level (a level cut short may have left
/// cells above it written: see [`Checkpoint::forget_above`]). Returns
/// the frontier counters: the slab counts as allocated for a sweep that
/// starts at level 0.
pub fn sweep(
    inst: &TtInstance,
    meter: &mut BudgetMeter,
    exec: &dyn Executor,
    wave: &mut Checkpoint,
    sink: &mut dyn FnMut(&LevelView<'_>),
) -> FrontierStats {
    sweep_windows(inst, meter, exec, wave, sink, WINDOW)
}

/// [`sweep`] with `window` cells per window (a multiple of [`CHUNK`]).
/// A narrower window only splits each level into more scatters: the
/// slab it leaves is [`sweep`]'s.
pub fn sweep_windows(
    inst: &TtInstance,
    meter: &mut BudgetMeter,
    exec: &dyn Executor,
    wave: &mut Checkpoint,
    sink: &mut dyn FnMut(&LevelView<'_>),
    window: usize,
) -> FrontierStats {
    debug_assert_eq!(window % CHUNK, 0, "windows hold whole chunks");
    let k = inst.k();
    assert_eq!(wave.k, k, "wavefront slab size");
    let n_actions = inst.n_actions() as u64;
    let mut stats = FrontierStats::default();
    if wave.level == 0 {
        stats.on_alloc(1u64 << k);
    }
    let mut buf: Vec<Cost> = Vec::new();
    let split = SplitWeights::new(inst);
    for j in (wave.level + 1)..=k {
        let cells = frontier::binomial(k, j);
        let in_budget = meter.charge_subsets(cells)
            & meter.charge_candidates(cells * n_actions)
            & meter.check();
        if !in_budget {
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
            let slab = &wave.cost[..];
            exec.run(out, &|ci, chunk| {
                let mut masks = [Subset::EMPTY; CHUNK];
                let mut weights = [0u64; CHUNK];
                let (masks, weights) = (&mut masks[..chunk.len()], &mut weights[..chunk.len()]);
                let mut s = frontier::unrank(j, (first + ci * CHUNK) as u64);
                for (off, (m, w)) in masks.iter_mut().zip(weights.iter_mut()).enumerate() {
                    if off > 0 {
                        s = gosper_next(s);
                    }
                    (*m, *w) = (s, split.of(s));
                }
                chunk_costs(inst, &DenseSlab(slab), masks, weights, chunk);
            });
            let mut s = frontier::unrank(j, first as u64);
            for (off, &c) in out.iter().enumerate() {
                if off > 0 {
                    s = gosper_next(s);
                }
                wave.cost[s.index()] = c;
            }
            stats.unrank_calls += out.len().div_ceil(CHUNK) as u64 + 1;
        }
        let nanos = u64::try_from(level_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tt_obs::telemetry::record_level(j, cells, cells * n_actions, nanos);
        wave.level = j;
        sink(&LevelView::of(inst, wave));
    }
    stats
}

/// A whole host-engine solve: the sweep under `budget` over the
/// caller's wavefront — resumed from it when it belongs to `inst`,
/// replaced by a cold one otherwise — then its `report`, with the
/// resumed level as `resumed_level`. The wavefront is left at the last
/// completed level.
pub fn solve(
    inst: &TtInstance,
    budget: &Budget,
    exec: &dyn Executor,
    wave: &mut Option<Checkpoint>,
    sink: &mut dyn FnMut(&LevelView<'_>),
) -> (Cost, Option<TtTree>, WorkStats, SolveOutcome) {
    let mut meter = budget.start();
    let fingerprint = admit_wave(inst, wave);
    let resumed = wave.as_ref().map(|ck| ck.level);
    let wave = wave.get_or_insert_with(|| Checkpoint::cold(inst.k(), fingerprint));
    let stats = sweep(inst, &mut meter, exec, wave, sink);
    report(inst, &meter, wave, stats, resumed)
}

/// The report of a finished sweep: `C(U)` and the tree extracted from
/// the slab, or — when `meter` ran out — the degraded result from the
/// completed wavefront. Reports `completed_levels`, the frontier
/// counters and `resumed_level` when given.
fn report(
    inst: &TtInstance,
    meter: &BudgetMeter,
    wave: &Checkpoint,
    stats: FrontierStats,
    resumed: Option<usize>,
) -> (Cost, Option<TtTree>, WorkStats, SolveOutcome) {
    let mut work = WorkStats {
        subsets: meter.subsets(),
        candidates: meter.candidates(),
        ..WorkStats::default()
    };
    work.push_extra("completed_levels", wave.level as u64);
    record_frontier_stats(&mut work, stats);
    if let Some(level) = resumed {
        work.push_extra("resumed_level", level as u64);
    }
    match meter.exhausted() {
        None => {
            let root = inst.universe();
            let tree = sequential::extract_tree_costs(inst, &wave.cost, root);
            (wave.cost[root.index()], tree, work, SolveOutcome::Complete)
        }
        Some(r) => degraded_result(inst, r.into(), &|s| wave.exact(s), work),
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
        let mut wave = Checkpoint::blank(&i);
        let stats = sweep(
            &i,
            &mut BudgetMeter::unlimited(),
            &Serial,
            &mut wave,
            &mut |v| levels.push(v.level()),
        );
        assert_eq!(wave.level, i.k());
        assert_eq!(levels, (1..=i.k()).collect::<Vec<_>>());
        assert_eq!(wave.cost, sequential::solve_tables(&i).cost);
        assert_eq!(stats.cells_allocated, 1 << i.k());
        assert_eq!(stats.peak_resident_cells, 1 << i.k());
    }

    #[test]
    fn a_seeded_sweep_allocates_nothing_and_runs_only_the_levels_above() {
        let i = inst();
        let full = sequential::solve_tables(&i);
        let mut levels = Vec::new();
        // Levels 0..=2 exact.
        let mut wave = Checkpoint::blank(&i);
        for level in 1..=2 {
            wave.absorb_level(level, &full.cost);
        }
        let stats = sweep(
            &i,
            &mut BudgetMeter::unlimited(),
            &Serial,
            &mut wave,
            &mut |v| levels.push(v.level()),
        );
        assert_eq!(levels, vec![3, 4, 5]);
        assert_eq!(wave.cost, full.cost);
        assert_eq!(stats.cells_allocated, 0);
    }

    #[test]
    fn a_starved_sweep_stops_at_its_last_completed_level() {
        let i = inst();
        let full = sequential::solve_tables(&i).cost;
        let mut wave = Checkpoint::blank(&i);
        // Levels 1 and 2 sweep 5 and 10 cells × 6 actions.
        let mut meter = Budget::with_max_candidates(90).start();
        sweep(&i, &mut meter, &Serial, &mut wave, &mut |_| {});
        assert_eq!(wave.level, 2);
        for (mask, (&c, &want)) in wave.cost.iter().zip(&full).enumerate() {
            let s = Subset(mask as u32);
            assert_eq!(
                c,
                if s.len() <= 2 { want } else { Cost::INF },
                "mask {mask}"
            );
        }
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
            let mut wave = Checkpoint::blank(&i);
            sweep_windows(
                &i,
                &mut BudgetMeter::unlimited(),
                &Serial,
                &mut wave,
                &mut |_| {},
                window,
            );
            wave.cost
        };
        let reference = sequential::solve_tables(&i).cost;
        assert_eq!(run(CHUNK), reference);
        assert_eq!(run(WINDOW), reference);
    }

    #[test]
    fn split_weights_equal_weight_of_on_every_mask() {
        let near_max = [u64::MAX, u64::MAX - 1, 1 << 63, (1 << 62) + 3];
        for k in 1..=12 {
            for saturating in [false, true] {
                let weights = (0..k as u64).map(|j| {
                    if saturating && j % 3 == 1 {
                        near_max[j as usize % near_max.len()]
                    } else {
                        1 + j * 7 % 11
                    }
                });
                // A free treatment keeps the cost bound at 1, so
                // saturating weights are admitted.
                let i = TtInstanceBuilder::new(k)
                    .weights(weights)
                    .treatment(Subset::universe(k), 0)
                    .build()
                    .unwrap();
                let split = SplitWeights::new(&i);
                for s in Subset::all(k) {
                    assert_eq!(split.of(s), i.weight_of(s), "k={k} S={s}");
                }
            }
        }
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
