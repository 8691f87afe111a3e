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
//! the chunk's masks, weights and bounds are laid out once, then each
//! action makes one pass over the chunk, folding its candidate
//! `M[S, i]` into every cell's running minimum. For a fixed `T_i` the
//! masks rise through the chunk, so the `S − T_i` gathers walk the slab
//! forward and the `S ∩ T_i` gathers stay among `T_i`'s subsets.
//!
//! Unlike the paper's SIMD array, a host core can skip work, and the
//! pass skips the pairs that provably cannot win. With `L(S) =
//! Σ_{x∈S} p_x · tmin_x`, the treatment-charge bound (`tmin_x` the cost
//! of the cheapest treatment containing `x`; `L = INF` when some object
//! of `S` has none), `C(S) ≥ L(S)` and `L` is additive and monotone, so
//! a test's candidate `t·p(S) + C(S ∩ T) + C(S − T)` is at least
//! `t·p(S) + L(S)`, and a treatment's `t·p(S) + C(S − T)` at least
//! `t·p(S) + L(S − T) ≥ t·p(S) + L(S) − L(T)`. The actions run in
//! groups of equal cost, tests before treatments and each kind in
//! ascending cost order, so cheap candidates lower the running minima
//! first. A group's bound is the least of its actions' bounds:
//! `t·p(S) + L(S)` for tests, `t·p(S) + max(0, L(S) − L_g)` for
//! treatments, with `L_g` the largest `L(T)` in the group (finite: a
//! treatment holds only treatable objects; an `INF` `L(S)` bounds
//! `INF`). At each group boundary the chunk's cells are compacted to
//! those whose group bound is below their running minimum, one bound
//! per cell and group, never per pair, and the group runs over those
//! cells only (over all of them when nearly all are live). A skipped
//! candidate is at least its cell's minimum, and the minimum over
//! actions depends neither on their order nor on candidates that
//! cannot lower it, so every cell equals [`sequential::min_candidate`]'s,
//! the cell-major reference, bit for bit. The budget is still charged
//! `C(k, j)·N` pairs per level; the pairs the bound skipped are counted
//! in [`FrontierStats::bound_skipped`].
//!
//! The chunk pass's arithmetic is sized to the instance, as the paper
//! sizes its `w`-bit numbers: every built instance has its
//! [`TtInstance::finite_cost_bound`] below `2^63`, so the pass runs on
//! plain `u64` and no finite product or sum reaches `Cost`'s
//! saturation point; its cells are `Cost`'s algebra bit for bit (see
//! `chunk_costs`), and what the slab stores and compares is still
//! [`Cost`]. The bounds are below `2^63` too, or `INF`, and their sums
//! saturate at `INF`.
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
use crate::instance::{Action, TtInstance};
use crate::solver::bounds::object_charge;
use crate::solver::budget::{Budget, BudgetMeter};
use crate::solver::checkpoint::{Checkpoint, LevelView};
use crate::solver::engine::{
    admit_wave, degraded_result, record_frontier_stats, SolveOutcome, WorkStats,
};
use crate::solver::sequential;
use crate::subset::frontier::{self, CostLookup, DenseSlab, FrontierStats};
use crate::subset::Subset;
use crate::tree::TtTree;
use crate::MAX_K;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Objects per third of a mask in the `L` tables: three thirds of
/// 9 bits cover `MAX_K` objects.
const THIRD: u32 = 9;
const _: () = assert!(3 * THIRD as usize >= MAX_K);

/// `p(S)` and the treatment-charge bound `L(S)` for every mask.
///
/// `p(S)` is the saturating sum of two half-width subset sums: `lo`
/// over the low `⌈k/2⌉` objects, `hi` over the rest, `2·2^⌈k/2⌉` u64
/// (16 KiB at `k = 20`). `L(S)` is the `INF`-absorbing sum of three
/// subset sums over 9-object thirds of the mask, 12 KiB kept inline
/// for any `k`: the bound adds no heap block to a sweep. (With glibc,
/// a change to the blocks a solve allocates moves where its small
/// long-lived blocks land, and one can split the freed `2^k` slab so
/// that the next slab no longer fits in it: perfbench solve-large's
/// peak RSS rose 1.9 MB on some seeds with the `L` tables on the heap.)
/// Saturating addition of non-negative integers is associative, so the
/// sums are exactly [`TtInstance::weight_of`] and
/// [`Bounds::treatment_charge`], saturation and `INF` included.
///
/// [`Bounds::treatment_charge`]: crate::solver::bounds::Bounds::treatment_charge
pub(crate) struct SplitWeights {
    lo: Vec<u64>,
    hi: Vec<u64>,
    half: u32,
    charges: [[u64; 1 << THIRD]; 3],
}

impl SplitWeights {
    /// Builds the tables for `inst`.
    pub(crate) fn new(inst: &TtInstance) -> SplitWeights {
        let half = inst.k().div_ceil(2);
        let (lo, hi) = inst.weights().split_at(half);
        let mut split = SplitWeights {
            lo: subset_sums(lo),
            hi: subset_sums(hi),
            half: half as u32,
            charges: [[0; 1 << THIRD]; 3],
        };
        let mut charges = [Cost::ZERO; MAX_K];
        for (j, c) in charges[..inst.k()].iter_mut().enumerate() {
            *c = object_charge(inst, j);
        }
        let thirds = charges[..inst.k()].chunks(THIRD as usize);
        for (sums, charges) in split.charges.iter_mut().zip(thirds) {
            for mask in 1..1usize << charges.len() {
                let low = mask.trailing_zeros() as usize;
                sums[mask] = (Cost(sums[mask & (mask - 1)]) + charges[low]).0;
            }
        }
        split
    }

    /// `(p(s), L(s))`.
    #[inline]
    pub(crate) fn of(&self, s: Subset) -> (u64, u64) {
        let low = s.0 & ((1u32 << self.half) - 1);
        let p = self.lo[low as usize].saturating_add(self.hi[(s.0 >> self.half) as usize]);
        // Each third is `INF` (`u64::MAX`) or at most `L(U)`, which is
        // below the cost bound, so saturating `u64` addition is `Cost`'s.
        let third = |t: u32| {
            let bits = (s.0 >> (t * THIRD)) & ((1 << THIRD) - 1);
            self.charges[t as usize][bits as usize]
        };
        let charge = third(0).saturating_add(third(1)).saturating_add(third(2));
        (p, charge)
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

/// The sets of the `actions` that cost `c`.
fn costing(actions: &[Action], c: u64) -> impl Iterator<Item = Subset> + Clone + '_ {
    actions.iter().filter(move |a| a.cost == c).map(|a| a.set)
}

/// The distinct costs of `actions`, in ascending order.
fn ascending_costs(actions: &[Action]) -> impl Iterator<Item = u64> + '_ {
    let above = move |c: Option<u64>| {
        let costs = actions.iter().map(|a| a.cost);
        costs.filter(|&x| c.is_none_or(|c| x > c)).min()
    };
    std::iter::successors(above(None), move |&c| above(Some(c)))
}

/// All ones for `INF` (`u64::MAX`, the one value with its top bit set
/// below the cost bound), zero for a finite cost.
#[inline]
fn inf(c: u64) -> u64 {
    (c >> 63).wrapping_neg()
}

/// The bound of the tests costing `c` at a cell of weight `w = p(S)`
/// and charge `l = L(S)`: `c·p(S) + L(S)`, since every candidate is
/// `c·p(S) + C(S ∩ T) + C(S − T)` and `L` is additive.
fn test_bound(c: u64) -> impl Fn(u64, u64) -> u64 + Copy {
    move |w, l| (c * w).saturating_add(l)
}

/// The bound of the treatments costing `c`: `c·p(S) + max(0, L(S) −
/// L_g)`, with `L_g` the largest `L(T)` of the group. A treatment's
/// candidate is `c·p(S) + C(S − T)`, and `C(S − T) ≥ L(S − T) = L(S) −
/// L(S ∩ T) ≥ L(S) − L(T) ≥ L(S) − L_g`, because `L` is additive and
/// monotone. A treatment holds only treatable objects, so `L_g` is
/// finite; when `L(S)` is `INF`, every candidate is `INF` and so is
/// the bound. Finite, `c·p(S) + L(S)` is below the cost bound, so the
/// sum is plain.
fn treatment_bound(
    split: &SplitWeights,
    treatments: &[Action],
    c: u64,
) -> impl Fn(u64, u64) -> u64 + Copy {
    let cure = costing(treatments, c).map(|t| split.of(t).1).max();
    let cure = cure.unwrap_or(0);
    move |w, l| (c * w).wrapping_add(l.saturating_sub(cure)) | inf(l)
}

/// Computes one chunk of level cells: `cells[off]` becomes
/// `C(masks[off])` gathered from `table`. Returns the `(S, i)` pairs the
/// bound skipped.
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
///
/// Actions run in groups of equal cost, tests first, each kind in
/// ascending cost order, and each group only over the cells its bound
/// leaves live (see [`Chunk::run_group`]): [`test_bound`]'s `t·p(S) +
/// L(S)` for a test, [`treatment_bound`]'s `t·p(S) + max(0, L(S) −
/// max L(T))` for a treatment. Each bound is taken once per cell and
/// group, from the cell's `p(S)` and `L(S)`, never per pair.
pub(crate) fn chunk_costs<L: CostLookup>(
    inst: &TtInstance,
    split: &SplitWeights,
    table: &L,
    masks: &[Subset],
    cells: &mut [Cost],
) -> u64 {
    let len = masks.len();
    let (mut weights, mut charges) = ([0u64; CHUNK], [0u64; CHUNK]);
    let (weights, charges) = (&mut weights[..len], &mut charges[..len]);
    for ((w, l), &s) in weights.iter_mut().zip(charges.iter_mut()).zip(masks) {
        (*w, *l) = split.of(s);
    }
    let gather = |s| table.cost_of(s).0;
    cells.fill(Cost::INF);
    let mut chunk = Chunk {
        masks,
        weights,
        charges,
        cells,
        live: [0; CHUNK],
    };
    let mut skipped = 0;
    for c in ascending_costs(inst.tests()) {
        let sets = costing(inst.tests(), c);
        skipped += chunk.run_group(sets, test_bound(c), |t, s, w, cell| {
            let (inter, diff) = (s.intersect(t), s.difference(t));
            if inter.is_empty() || diff.is_empty() {
                return;
            }
            let (a, b) = (gather(inter), gather(diff));
            let m = (c * w).wrapping_add(a).wrapping_add(b) | inf(a | b);
            cell.0 = cell.0.min(m);
        });
    }
    for c in ascending_costs(inst.treatments()) {
        let sets = costing(inst.treatments(), c);
        let bound = treatment_bound(split, inst.treatments(), c);
        skipped += chunk.run_group(sets, bound, |t, s, w, cell| {
            if !s.intersects(t) {
                return;
            }
            let a = gather(s.difference(t));
            let m = (c * w).wrapping_add(a) | inf(a);
            cell.0 = cell.0.min(m);
        });
    }
    skipped
}

/// One chunk in the chunk pass: its masks, weights and charges, its
/// cells' running minima, and the index list of the cells a group runs
/// over.
struct Chunk<'a> {
    masks: &'a [Subset],
    weights: &'a [u64],
    charges: &'a [u64],
    cells: &'a mut [Cost],
    live: [u16; CHUNK],
}

impl Chunk<'_> {
    /// Folds every action of a group of one cost, given by its `sets`,
    /// into the cells with `fold(T, S, p(S), cell)`, skipping the cells
    /// whose running minimum is already at most `bound(p(S), L(S))`, a
    /// lower bound on every candidate of the group there. A skipped
    /// candidate could not lower its cell's minimum, so the cells are
    /// the dense pass's exactly.
    ///
    /// The live cells are compacted without branches into `live` at
    /// the group boundary, walking the weights, charges and cells in
    /// step so that the loop indexes nothing but `live`. When more than
    /// seven in eight are live, the group runs over the whole chunk
    /// instead, as a dense pass. Returns the pairs skipped: the dead
    /// cells times the group's actions.
    #[inline]
    fn run_group(
        &mut self,
        sets: impl Iterator<Item = Subset> + Clone,
        bound: impl Fn(u64, u64) -> u64,
        fold: impl Fn(Subset, Subset, u64, &mut Cost),
    ) -> u64 {
        let (cells, live) = (&mut *self.cells, &mut self.live);
        let mut n = 0;
        let bounds = self.weights.iter().zip(self.charges);
        for (off, (cell, (&w, &l))) in cells.iter().zip(bounds).enumerate() {
            live[n] = off as u16;
            n += usize::from(bound(w, l) < cell.0);
        }
        if 8 * n > 7 * cells.len() {
            for t in sets {
                let pairs = cells.iter_mut().zip(self.masks).zip(self.weights);
                for ((cell, &s), &w) in pairs {
                    fold(t, s, w, cell);
                }
            }
            return 0;
        }
        for t in sets.clone() {
            for &off in &live[..n] {
                let off = usize::from(off);
                fold(t, self.masks[off], self.weights[off], &mut cells[off]);
            }
        }
        ((cells.len() - n) * sets.count()) as u64
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
    let bound_skipped = AtomicU64::new(0);
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
                let masks = &mut masks[..chunk.len()];
                let mut s = frontier::unrank(j, (first + ci * CHUNK) as u64);
                for (off, m) in masks.iter_mut().enumerate() {
                    if off > 0 {
                        s = gosper_next(s);
                    }
                    *m = s;
                }
                let skipped = chunk_costs(inst, &split, &DenseSlab(slab), masks, chunk);
                bound_skipped.fetch_add(skipped, Ordering::Relaxed);
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
    stats.bound_skipped = bound_skipped.into_inner();
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
                    assert_eq!(split.of(s).0, i.weight_of(s), "k={k} S={s}");
                }
            }
        }
    }

    #[test]
    fn split_charges_equal_the_treatment_charge_bound_on_every_mask() {
        use crate::solver::bounds::Bounds;
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
                // Every fifth object is untreatable. Saturating weights
                // are admitted under free treatments only, whose charges
                // are 0 whatever the weight.
                let cost = |c: u64| if saturating { 0 } else { c };
                let mut b = TtInstanceBuilder::new(k).weights(weights);
                for j in (0..k).filter(|j| j % 5 != 4) {
                    let set =
                        Subset::from_iter([j, (j + 1) % k].into_iter().filter(|o| o % 5 != 4));
                    b = b.treatment(set, cost(1 + (j as u64 * 5) % 7));
                }
                let i = b.build().unwrap();
                let (split, bounds) = (SplitWeights::new(&i), Bounds::new(&i));
                for s in Subset::all(k) {
                    assert_eq!(
                        Cost(split.of(s).1),
                        bounds.treatment_charge(s),
                        "k={k} S={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_bounds_never_exceed_a_candidate_of_their_group() {
        let mut bitten = 0;
        for k in 1..=12usize {
            // From k = 2 object `k − 1` is untreatable, from k = 7 also
            // object 3: the masks that hold one have `L(S) = INF`.
            let treatable: Vec<usize> = (0..k)
                .filter(|&j| k == 1 || (j != k - 1 && (k < 7 || j != 3)))
                .collect();
            // Every `step`-th of `len` treatable objects from `skip` on.
            let part = |skip: usize, len: usize, step: usize| {
                let objects = treatable.iter().copied().skip(skip).take(len);
                Subset::from_iter(objects.step_by(step))
            };
            let mut b = TtInstanceBuilder::new(k).weights((0..k as u64).map(|j| 1 + j * 5 % 7));
            for (j, &o) in treatable.iter().enumerate() {
                b = b.test(Subset::from_iter([o, (o + 2) % k]), 1 + j as u64 % 3);
            }
            // Each cost group mixes set sizes: cost 2 a singleton, a pair
            // and every third object; cost 0 (free) the last object, a
            // pair and all but the first two.
            let n = treatable.len();
            let last = |len: usize| part(n.saturating_sub(len), len, 1);
            let groups = [
                (2, [part(0, 1, 1), part(1, 2, 1), part(0, n, 3)]),
                (0, [last(1), last(2), part(2, n, 1)]),
            ];
            for (c, sets) in groups {
                for t in sets.into_iter().filter(|t| !t.is_empty()) {
                    b = b.treatment(t, c);
                }
            }
            let i = b.build().unwrap();
            let split = SplitWeights::new(&i);
            let table = sequential::solve_tables(&i).cost;
            for s in Subset::all(k) {
                let (w, l) = split.of(s);
                for a in 0..i.n_actions() {
                    let action = i.action(a);
                    let bound = if action.is_test() {
                        test_bound(action.cost)(w, l)
                    } else {
                        treatment_bound(&split, i.treatments(), action.cost)(w, l)
                    };
                    let at = |what: &str| format!("k={k} S={s} action {a}: {what}");
                    if l == u64::MAX {
                        assert_eq!(bound, u64::MAX, "{}", at("an INF charge bounds INF"));
                    } else if !action.is_test() && bound > action.cost * w {
                        bitten += 1;
                    }
                    let useful = s.intersects(action.set)
                        && (!action.is_test() || !s.difference(action.set).is_empty());
                    if useful {
                        let table = DenseSlab(&table);
                        let cand = sequential::candidate_via(&i, w, &table, s, a, &mut 0);
                        assert!(bound <= cand.0, "{}", at(&format!("{bound} > {cand}")));
                    }
                }
            }
        }
        // The `L(S) − max L(T)` term is positive on some cells.
        assert!(bitten > 0);
    }

    #[test]
    fn cost_groups_run_cheapest_first_within_their_kind() {
        let i = inst();
        let groups = |actions: &[Action]| {
            let sizes = ascending_costs(actions).map(|c| (c, costing(actions, c).count()));
            sizes.collect::<Vec<_>>()
        };
        assert_eq!(groups(i.tests()), [(1, 2), (2, 1)]);
        assert_eq!(groups(i.treatments()), [(2, 1), (3, 1), (4, 1)]);
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
