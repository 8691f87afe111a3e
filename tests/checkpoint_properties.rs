//! Property tests for the checkpoint/resume layer: serialized
//! checkpoints reject any single-byte corruption, and resuming from
//! any level boundary reproduces the uninterrupted run on every
//! registered engine (resumable engines warm-start; the rest honestly
//! solve cold and still agree).

use proptest::prelude::*;
use tt_core::solver::budget::Budget;
use tt_core::solver::checkpoint::Checkpoint;
use tt_core::solver::checkpoint::LevelView;
use tt_core::solver::sequential;
use tt_workloads::random_adequate;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Write → corrupt one byte → load is always rejected: the checksum
    /// (or, for bytes that break the framing, the structural parse)
    /// catches every single-byte flip at every position.
    #[test]
    fn corrupting_one_byte_is_always_rejected(
        k in 3usize..=6,
        seed in 0u64..500,
        level_frac in 0u8..=100,
        pos_frac in 0u8..=100,
        flip in 1u8..=0x7f,
    ) {
        let i = random_adequate(k, seed);
        let sol = sequential::solve(&i);
        let level = 1 + (usize::from(level_frac) * (k - 1)) / 100;
        let ck = LevelView::dense(&i, level, &sol.tables.cost).to_checkpoint();
        let mut bytes = ck.to_text().into_bytes();
        let pos = (usize::from(pos_frac) * (bytes.len() - 1)) / 100;
        bytes[pos] ^= flip;
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert!(
            Checkpoint::from_text(&corrupted).is_err(),
            "flip {flip:#04x} at byte {pos} (level {level}) was accepted"
        );
    }

    /// For every exact engine that fits the instance: resuming from the
    /// checkpoint of any completed level — after a round-trip through
    /// the on-disk text format, as `--resume` does — reproduces the
    /// cold run's result exactly. Resumable engines emit one checkpoint
    /// per level; non-resumable engines emit none and ignore the seed.
    #[test]
    fn resuming_any_level_boundary_matches_the_cold_run(
        k in 3usize..=4,
        seed in 0u64..200,
    ) {
        let i = random_adequate(k, seed);
        let opt = sequential::solve(&i).cost;
        for engine in tt_repro::registry() {
            if i.k() > engine.max_k() || !engine.kind().is_exact() {
                continue;
            }
            let mut cks = Vec::new();
            let cold =
                engine.solve_resumable(&i, &Budget::unlimited(), &mut None, &mut |v| {
                    cks.push(v.to_checkpoint());
                });
            prop_assert!(cold.outcome.is_complete(), "{} cold run", engine.name());
            prop_assert_eq!(cold.cost, opt, "{} vs DP", engine.name());
            if engine.resumable() {
                let levels: Vec<usize> = cks.iter().map(|c| c.level).collect();
                prop_assert_eq!(
                    levels,
                    (1..=k).collect::<Vec<_>>(),
                    "{} must checkpoint every level",
                    engine.name()
                );
            } else {
                prop_assert!(cks.is_empty(), "{} claimed checkpoints", engine.name());
            }
            for ck in &cks {
                let reloaded = Checkpoint::from_text(&ck.to_text()).unwrap();
                let warm = engine.solve_resumable(
                    &i,
                    &Budget::unlimited(),
                    &mut Some(reloaded),
                    &mut |_| {},
                );
                prop_assert!(
                    warm.outcome.is_complete(),
                    "{} from level {}",
                    engine.name(),
                    ck.level
                );
                prop_assert_eq!(
                    warm.cost,
                    cold.cost,
                    "{} resumed from level {} disagrees",
                    engine.name(),
                    ck.level
                );
                if let Some(t) = &warm.tree {
                    t.validate(&i).unwrap();
                }
            }
        }
    }
}

/// The kill-and-resume scenario end to end, on disk, at k = 12: a
/// work-starved run leaves its last completed-level checkpoint behind;
/// loading it and resuming under an unlimited budget reproduces the
/// cold optimum while recomputing strictly fewer subsets.
#[test]
fn killed_k12_solve_resumes_from_disk_with_strictly_less_work() {
    let i = random_adequate(12, 7);
    let dir = std::env::temp_dir().join(format!("ttck-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["seq", "rayon"] {
        let engine = tt_repro::lookup(name).unwrap();
        let path = dir.join(format!("{name}.ck"));
        let mut saved = 0u32;
        let partial = engine.solve_resumable(
            &i,
            &Budget::with_max_candidates(2_000),
            &mut None,
            &mut |v| {
                v.to_checkpoint().save(&path).unwrap();
                saved += 1;
            },
        );
        assert!(
            !partial.outcome.is_complete(),
            "{name}: the starved run must stop mid-lattice"
        );
        assert!(saved > 0, "{name}: no checkpoint reached disk");

        let ck = Checkpoint::load(&path).unwrap();
        assert!(ck.matches(&i));
        let warm =
            engine.solve_resumable(&i, &Budget::unlimited(), &mut Some(ck.clone()), &mut |_| {});
        let cold = engine.solve(&i);
        assert!(warm.outcome.is_complete());
        assert_eq!(warm.cost, cold.cost, "{name}: resumed cost differs");
        assert!(
            warm.work.subsets < cold.work.subsets,
            "{name}: resume must redo strictly fewer subsets ({} vs {})",
            warm.work.subsets,
            cold.work.subsets
        );
        assert_eq!(warm.work.extra("resumed_level"), Some(ck.level as u64));
    }

    // The machine simulators make the accounting exact: a cold complete
    // run sweeps the full lattice, and a warm resume from level L must
    // report exactly 2^k minus the replayed binomial prefix — the
    // overlayed levels are loaded, not recomputed, and must not be
    // double-counted.
    let binom =
        |j: usize| -> u64 { (0..j).fold(1u64, |b, x| b * (12 - x as u64) / (x as u64 + 1)) };
    for name in ["hyper", "hyper-blocked"] {
        let engine = tt_repro::lookup(name).unwrap();
        let pes = tt_parallel::Layout::new(i.k(), i.n_actions()).pes() as u64;
        let path = dir.join(format!("{name}.ck"));
        let mut saved = 0u32;
        // Three levels' worth of PE sweeps, then starvation.
        let partial = engine.solve_resumable(
            &i,
            &Budget::with_max_candidates(3 * pes),
            &mut None,
            &mut |v| {
                v.to_checkpoint().save(&path).unwrap();
                saved += 1;
            },
        );
        assert!(!partial.outcome.is_complete(), "{name}: must starve");
        assert_eq!(saved, 3, "{name}: expected exactly three level checkpoints");
        assert_eq!(
            partial.work.subsets,
            (0..=3).map(&binom).sum::<u64>(),
            "{name}: a starved cold run counts only the completed prefix"
        );

        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.level, 3);
        let warm =
            engine.solve_resumable(&i, &Budget::unlimited(), &mut Some(ck.clone()), &mut |_| {});
        let cold = engine.solve(&i);
        assert!(warm.outcome.is_complete());
        assert_eq!(warm.cost, cold.cost, "{name}: resumed cost differs");
        assert_eq!(
            cold.work.subsets,
            1 << 12,
            "{name}: cold full-lattice sweep"
        );
        let replayed: u64 = (0..=ck.level).map(&binom).sum();
        assert_eq!(
            warm.work.subsets,
            cold.work.subsets - replayed,
            "{name}: replayed checkpoint levels must not be re-counted"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
