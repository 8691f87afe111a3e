//! The modern shared-memory realization: the paper's level-synchronous
//! schedule with rayon threads instead of SIMD PEs.
//!
//! The structure mirrors the parallel algorithm exactly — the `#S = j`
//! wavefront is the outer loop, and all `(S, i)` candidates of a level are
//! evaluated in parallel — but each "PE" is a work item on a thread pool,
//! and the minimization over `i` happens inside the work item (a modern
//! core is a far bigger grain than a 1-bit PE). Results are bit-identical
//! to the sequential DP: a level only reads `C(·)` entries of strictly
//! smaller sets, which were all written in earlier levels.

use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::solver::budget::BudgetMeter;
use tt_core::solver::sequential::{min_candidate, DpTables, FrontierSink, LevelSink};
use tt_core::subset::frontier::{self, DenseSlab, FrontierTable};
use tt_core::subset::Subset;

/// Solves the DP level-synchronously with rayon; returns the same tables
/// as `tt_core::solver::sequential::solve_tables`.
pub fn solve_tables(inst: &TtInstance) -> DpTables {
    solve_tables_with(inst, &mut BudgetMeter::unlimited()).0
}

/// As [`solve_tables`], but budgeted: the whole `#S = j` level is charged
/// to the meter before it is computed, and an exhausted meter stops the
/// sweep between levels. Returns the tables plus the number of completed
/// levels — entries for `#S ≤` that count are exact, the rest are still
/// `INF` placeholders.
pub fn solve_tables_with(inst: &TtInstance, meter: &mut BudgetMeter) -> (DpTables, usize) {
    solve_tables_resumable(inst, meter, None, &mut |_, _, _| {})
}

/// As [`solve_tables_with`], but resumable: `seed = (level, tables)`
/// warm-starts from a checkpoint's completed `#S ≤ level` slab (levels
/// below the seed are neither recomputed nor re-charged to the meter),
/// and `sink` receives the tables after each completed level — the
/// checkpoint-export hook.
///
/// Each level is swept by `sweep_level` into one rank-ordered
/// `(cost, argmin)` buffer, allocated once at the widest level's size,
/// and scattered into the mask-indexed slabs when the level completes.
pub fn solve_tables_resumable(
    inst: &TtInstance,
    meter: &mut BudgetMeter,
    seed: Option<(usize, &DpTables)>,
    sink: &mut LevelSink<'_>,
) -> (DpTables, usize) {
    let k = inst.k();
    let size = 1usize << k;
    let weight_table = inst.weight_table();
    let mut cost = vec![Cost::INF; size];
    let mut best: Vec<Option<u16>> = vec![None; size];
    cost[0] = Cost::ZERO;
    let mut start = 0;
    if let Some((level, tables)) = seed {
        start = level.min(k);
        for s in Subset::all(k) {
            if !s.is_empty() && s.len() <= start {
                cost[s.index()] = tables.cost[s.index()];
                best[s.index()] = tables.best[s.index()];
            }
        }
    }
    let mut done = k;
    let mut level_buf: Vec<(Cost, Option<u16>)> = Vec::new();

    for j in (start + 1)..=k {
        let cells = frontier::binomial(k, j);
        let in_budget = meter.charge_subsets(cells)
            & meter.charge_candidates(cells * inst.n_actions() as u64)
            & meter.check();
        if !in_budget {
            done = j - 1;
            break;
        }
        if level_buf.is_empty() {
            level_buf = vec![(Cost::INF, None); frontier::max_frontier(k) as usize];
        }
        let out = &mut level_buf[..cells as usize];
        // Every gather reads a strictly smaller set, written in an
        // earlier level, so the slab is read-only while the level runs.
        let cost_ref = &cost;
        sweep_level(j, out, |s, gathers| {
            min_candidate(
                inst,
                weight_table[s.index()],
                &DenseSlab(cost_ref),
                s,
                gathers,
            )
        });
        for (s, &(c, b)) in Subset::of_size(k, j).zip(out.iter()) {
            cost[s.index()] = c;
            best[s.index()] = b;
        }
        sink(j, &cost, &best);
    }
    (DpTables { cost, best }, done)
}

/// Cache-block size for the parallel level sweeps: each work item
/// owns one contiguous run of ranked cells, so a chunk's output (8 KiB
/// of `Cost`) stays resident while its gathers walk the lower
/// levels. One `unrank` per chunk boundary; within a chunk the next
/// subset comes from a Gosper step, exactly the rank-order walk the
/// sequential sweep uses.
pub const FRONTIER_CHUNK: usize = 1 << 10;

/// The next mask with the same popcount (Gosper's hack). Callers must
/// not step past the last subset of a level.
fn gosper_next(s: Subset) -> Subset {
    let cur = s.0;
    let c = cur & cur.wrapping_neg();
    let r = cur.wrapping_add(c);
    Subset((((r ^ cur) >> 2) / c) | r)
}

/// The rank-order walk both parallel sweeps share: writes
/// `out[r] = cell(S_r, &mut counter)` for the subsets `S_r` of level
/// `j` in rank order, on rayon workers in chunks of [`FRONTIER_CHUNK`]
/// cells (one `unrank` per chunk, then Gosper steps). Chunks are
/// disjoint slices of `out`, so workers cannot race. Returns the summed
/// per-cell counter and the number of chunks (one unrank each).
fn sweep_level<T: Send>(
    j: usize,
    out: &mut [T],
    cell: impl Fn(Subset, &mut u64) -> T + Sync,
) -> (u64, u64) {
    // Task-local counters, folded in with one relaxed add per chunk:
    // no atomics in the per-cell hot path.
    let counted = AtomicU64::new(0);
    out.par_chunks_mut(FRONTIER_CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let mut local = 0u64;
            let mut s = frontier::unrank(j, (ci * FRONTIER_CHUNK) as u64);
            for (off, slot) in chunk.iter_mut().enumerate() {
                if off > 0 {
                    s = gosper_next(s);
                }
                *slot = cell(s, &mut local);
            }
            counted.fetch_add(local, Ordering::Relaxed);
        });
    (
        counted.into_inner(),
        out.len().div_ceil(FRONTIER_CHUNK) as u64,
    )
}

/// The frontier-compressed parallel sweep: the same `#S = j` wavefront
/// and the same cell values as
/// `tt_core::solver::sequential::solve_frontier_levelwise`, but the
/// top frontier is written by rayon workers in cache-blocked chunks of
/// [`FRONTIER_CHUNK`] ranked cells. Chunks are disjoint slices of the
/// level buffer, and every gather reads strictly lower (completed)
/// frontiers, so the parallelism cannot race; determinism is free
/// because each cell's value is a pure function of the lower levels.
///
/// `seed` warm-starts from an already-populated table (e.g.
/// `FrontierTable::from_dense` on a checkpoint slab); `sink` observes
/// the table after each completed level. Returns the table plus the
/// completed level.
pub fn solve_frontier_resumable(
    inst: &TtInstance,
    meter: &mut BudgetMeter,
    seed: Option<FrontierTable>,
    sink: &mut FrontierSink<'_>,
) -> (FrontierTable, usize) {
    let k = inst.k();
    let n_actions = inst.n_actions() as u64;
    let mut table = match seed {
        Some(t) => {
            assert_eq!(t.k(), k, "seed universe size");
            t
        }
        None => FrontierTable::new(k),
    };
    let start_level = table.len_levels() - 1;
    let mut done = k;
    for j in (start_level + 1)..=k {
        let cells = frontier::binomial(k, j);
        let in_budget = meter.charge_subsets(cells)
            & meter.charge_candidates(cells * n_actions)
            & meter.check();
        if !in_budget {
            done = j - 1;
            break;
        }
        let level_start = std::time::Instant::now();
        table.push_level();
        let (lower, out) = table.split_top();
        let lower_ref = &lower;
        let (gathers, unranks) = sweep_level(j, out, |s, gathers| {
            min_candidate(inst, inst.weight_of(s), lower_ref, s, gathers).0
        });
        table.stats_mut().rank_calls += gathers;
        table.stats_mut().unrank_calls += unranks;
        let nanos = u64::try_from(level_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        tt_obs::telemetry::record_level(j, cells, cells * n_actions, nanos);
        sink(j, &table);
    }
    (table, done)
}

/// Convenience wrapper: `C(U)` plus an optimal tree via the shared
/// extraction code.
pub fn solve(inst: &TtInstance) -> tt_core::solver::sequential::Solution {
    let tables = solve_tables(inst);
    let root = inst.universe();
    let cost = tables.cost[root.index()];
    let tree = tt_core::solver::sequential::extract_tree(inst, &tables, root);
    let size = 1u64 << inst.k();
    tt_core::solver::sequential::Solution {
        cost,
        tree,
        stats: tt_core::solver::sequential::DpStats {
            candidates: (size - 1) * inst.n_actions() as u64,
            subsets: size,
        },
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;

    fn inst(k: usize) -> TtInstance {
        // A deterministic medium instance exercising all action kinds.
        let mut b = TtInstanceBuilder::new(k).weights((0..k).map(|j| 1 + (j as u64 * 7) % 13));
        for t in 0..k {
            b = b.test(
                Subset::from_iter((0..k).filter(|&x| (x * 31 + t * 17) % 3 == 0)),
                1 + (t as u64 % 5),
            );
        }
        for t in 0..k {
            b = b.treatment(
                Subset::from_iter((0..k).filter(|&x| (x + t) % 4 != 0 || x == t)),
                2 + (t as u64 % 7),
            );
        }
        // Ensure adequacy.
        b = b.treatment(Subset::universe(k), 50);
        b.build().unwrap()
    }

    #[test]
    fn tables_match_sequential_exactly() {
        for k in [3usize, 5, 8] {
            let i = inst(k);
            let par = solve_tables(&i);
            let seq = sequential::solve_tables(&i);
            assert_eq!(par.cost, seq.cost, "k={k}");
            assert_eq!(par.best, seq.best, "k={k}");
        }
    }

    #[test]
    fn dense_sweep_spans_chunk_boundaries() {
        // Catalog k = 14: C(14,7) = 3432 > FRONTIER_CHUNK cells at the
        // equator, so mid-level chunks start from a real unrank, and
        // levels 1-4 and 10-14 fit one chunk on the calling thread.
        let i = tt_workloads::catalog::Domain::Medical.generate(14, 3);
        let par = solve_tables(&i);
        let seq = sequential::solve_tables(&i);
        assert!(frontier::max_frontier(14) as usize > 3 * FRONTIER_CHUNK);
        for s in Subset::all(14) {
            assert_eq!(par.cost[s.index()], seq.cost[s.index()], "cost {s}");
            assert_eq!(par.best[s.index()], seq.best[s.index()], "best {s}");
        }
    }

    #[test]
    fn frontier_sweep_matches_sequential_cell_for_cell() {
        use tt_core::solver::budget::BudgetMeter;
        for k in [3usize, 5, 8, 11] {
            let i = inst(k);
            let (table, done) =
                solve_frontier_resumable(&i, &mut BudgetMeter::unlimited(), None, &mut |_, _| {});
            assert_eq!(done, k);
            let seq = sequential::solve_tables(&i);
            for s in Subset::all(k) {
                assert_eq!(
                    table.cost_of_checked(s),
                    Some(seq.cost[s.index()]),
                    "k={k} s={s}"
                );
            }
            // Chunked sweeps account one unrank per chunk and the same
            // gather count as the sequential frontier sweep.
            assert!(table.stats().unrank_calls >= k as u64);
            let (seq_table, _) = sequential::solve_frontier_levelwise(
                &i,
                &mut BudgetMeter::unlimited(),
                None,
                &mut |_, _| {},
            );
            assert_eq!(
                table.stats().rank_calls,
                seq_table.stats().rank_calls,
                "k={k}"
            );
        }
    }

    #[test]
    fn frontier_sweep_spans_chunk_boundaries() {
        // k = 14 has C(14,7) = 3432 > FRONTIER_CHUNK cells at the
        // equator, so mid-level chunks start from a real unrank.
        let i = inst(14);
        let (table, done) = solve_frontier_resumable(
            &i,
            &mut tt_core::solver::budget::BudgetMeter::unlimited(),
            None,
            &mut |_, _| {},
        );
        assert_eq!(done, 14);
        let seq = sequential::solve_tables(&i);
        let root = Subset::universe(14);
        assert_eq!(table.cost_of_checked(root), Some(seq.cost[root.index()]));
        for s in Subset::of_size(14, 7) {
            assert_eq!(table.cost_of_checked(s), Some(seq.cost[s.index()]), "{s}");
        }
    }

    #[test]
    fn solve_extracts_a_valid_optimal_tree() {
        let i = inst(6);
        let sol = solve(&i);
        let tree = sol.tree.expect("adequate");
        tree.validate(&i).unwrap();
        assert_eq!(tree.expected_cost(&i), sol.cost);
    }

    #[test]
    fn inadequate_instance() {
        let i = TtInstanceBuilder::new(4)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::from_iter([0, 1]), 1)
            .build()
            .unwrap();
        let sol = solve(&i);
        assert!(sol.cost.is_inf());
        assert!(sol.tree.is_none());
    }
}
