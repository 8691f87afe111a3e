//! The modern shared-memory realization: the paper's level-synchronous
//! schedule with rayon threads instead of SIMD PEs.
//!
//! The structure mirrors the parallel algorithm exactly — the `#S = j`
//! wavefront is the outer loop, and all cells of a level are evaluated
//! in parallel — but each "PE" is a chunk of cells on a thread pool,
//! and the minimization over `i` happens inside the cell (a modern core
//! is a far bigger grain than a 1-bit PE). The sweep itself is
//! `tt_core`'s level kernel; this module only supplies the executor
//! that runs a level's chunks on worker threads. Results are
//! bit-identical to the sequential DP: a level only reads `C(·)` entries
//! of strictly smaller sets, which were all written in earlier levels.

use rayon::prelude::*;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::solver::budget::BudgetMeter;
use tt_core::solver::checkpoint::Checkpoint;
use tt_core::solver::kernel::{self, Executor};
use tt_core::solver::sequential::{argmin_at, DpTables};
use tt_core::subset::frontier::DenseSlab;
use tt_core::subset::Subset;

/// Runs a level's chunks on rayon worker threads.
pub struct Rayon;

impl Executor for Rayon {
    fn run(&self, out: &mut [Cost], chunk: &(dyn Fn(usize, &mut [Cost]) + Sync)) {
        out.par_chunks_mut(kernel::CHUNK)
            .enumerate()
            .for_each(|(ci, cells)| chunk(ci, cells));
    }
}

/// Solves the DP level-synchronously with rayon; returns the same tables
/// as `tt_core::solver::sequential::solve_tables`: the kernel's cost
/// slab, plus every argmin recomputed from it (the kernel stores none).
pub fn solve_tables(inst: &TtInstance) -> DpTables {
    let mut wave = Checkpoint::blank(inst);
    kernel::sweep(
        inst,
        &mut BudgetMeter::unlimited(),
        &Rayon,
        &mut wave,
        &mut |_| {},
    );
    let cost = wave.cost;
    let mut best: Vec<Option<u16>> = vec![None; cost.len()];
    best.par_iter_mut()
        .enumerate()
        .for_each(|(mask, b)| *b = argmin_at(inst, &DenseSlab(&cost), Subset(mask as u32)));
    DpTables { cost, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::checkpoint::LevelView;
    use tt_core::solver::sequential;
    use tt_core::subset::frontier;

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
        // Catalog k = 14: C(14,7) = 3432 > CHUNK cells at the equator,
        // so mid-level chunks start from a real unrank, and levels 1-4
        // and 10-14 fit one chunk on the calling thread.
        let i = tt_workloads::catalog::Domain::Medical.generate(14, 3);
        let par = solve_tables(&i);
        let seq = sequential::solve_tables(&i);
        assert!(frontier::max_frontier(14) as usize > 3 * kernel::CHUNK);
        for s in Subset::all(14) {
            assert_eq!(par.cost[s.index()], seq.cost[s.index()], "cost {s}");
            assert_eq!(par.best[s.index()], seq.best[s.index()], "best {s}");
        }
    }

    #[test]
    fn serial_and_rayon_checkpoints_are_byte_identical_at_every_level() {
        let i = tt_workloads::catalog::Domain::Medical.generate(14, 3);
        let texts = |exec: &dyn Executor| {
            let mut texts = Vec::new();
            let mut wave = Checkpoint::blank(&i);
            kernel::sweep(
                &i,
                &mut BudgetMeter::unlimited(),
                exec,
                &mut wave,
                &mut |v| {
                    texts.push(v.to_checkpoint().to_text());
                },
            );
            assert_eq!(wave.level, 14);
            texts
        };
        let (serial, parallel) = (texts(&kernel::Serial), texts(&Rayon));
        assert_eq!(serial.len(), 14);
        for (level, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s, p, "level {}", level + 1);
        }
        // And the final slab is the reference's, argmins recomputed.
        let last = Checkpoint::from_text(&serial[13]).unwrap();
        let reference = sequential::solve_tables(&i);
        assert_eq!(last.cost, reference.cost);
        let view = LevelView::dense(&i, 14, &reference.cost, &reference.best).to_checkpoint();
        assert_eq!((last.upper, last.lower), (view.upper, view.lower));
    }

    #[test]
    fn inadequate_instance() {
        let i = TtInstanceBuilder::new(4)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::from_iter([0, 1]), 1)
            .build()
            .unwrap();
        let tables = solve_tables(&i);
        assert!(tables.cost[i.universe().index()].is_inf());
        assert_eq!(tables, sequential::solve_tables(&i));
    }
}
