//! Frontier-scale validation: CNS `rank`/`unrank` invariants over the
//! full supported width (`k ≤ 24`), large-`k` agreement between the
//! frontier-compressed engines and the dense DP, and dense-v1
//! checkpoint compatibility under the frontier engines.
//!
//! The `k = 18` agreement test is `#[ignore]`d for the regular suite
//! and run in release mode by the CI `frontier-scale` job, under a
//! `ulimit -v` address-space ceiling that makes a silent regression to
//! dense `O(N·2^k)` allocation fail loudly.

use proptest::prelude::*;
use tt_core::solver::budget::Budget;
use tt_core::solver::checkpoint::Checkpoint;
use tt_core::subset::frontier::{binomial, max_frontier, rank, unrank};
use tt_core::subset::Subset;
use tt_workloads::random_adequate;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `rank ∘ unrank = id` on every level of every `k ≤ 24`, and
    /// `unrank` lands inside the universe at the right popcount.
    #[test]
    fn rank_unrank_roundtrip_at_every_width(
        k in 1usize..=24,
        j_frac in 0u8..=100,
        r_frac in 0u8..=100,
    ) {
        let j = (usize::from(j_frac) * k) / 100;
        let cells = binomial(k, j);
        let r = (u64::from(r_frac) * (cells - 1)) / 100;
        let s = unrank(j, r);
        prop_assert_eq!(s.len(), j);
        prop_assert!(s.is_subset_of(Subset::universe(k)));
        prop_assert_eq!(rank(s), r);
    }

    /// Within a level, rank order is strictly increasing mask order —
    /// the colex property that makes a frontier sweep visit cells in
    /// exactly the order Gosper's hack enumerates them, and therefore
    /// pick the same first-minimizer argmins as the dense DP.
    #[test]
    fn rank_orders_each_level_like_the_mask(
        k in 2usize..=24,
        j_frac in 0u8..=100,
        r_frac in 0u8..=100,
    ) {
        // j ∈ 1..=k-1 keeps C(k, j) ≥ 2 so a predecessor rank exists.
        let j = 1 + (usize::from(j_frac) * (k - 2)) / 100;
        let cells = binomial(k, j);
        let r = 1 + (u64::from(r_frac) * (cells - 2)) / 100;
        let lo = unrank(j, r - 1);
        let hi = unrank(j, r);
        prop_assert!(lo.0 < hi.0, "rank {} (mask {:#b}) vs rank {} (mask {:#b})", r - 1, lo.0, r, hi.0);
    }

    /// `rank` of an arbitrary nonempty mask is dense in `0..C(24, #S)`
    /// and roundtrips through `unrank` at its own level.
    #[test]
    fn rank_of_arbitrary_masks_roundtrips(mask in 1u32..(1u32 << 24)) {
        let s = Subset(mask);
        let r = rank(s);
        prop_assert!(r < binomial(24, s.len()));
        prop_assert_eq!(unrank(s.len(), r), s);
    }
}

/// The frontier-compressed engines, the sparse memo, and the parallel
/// dense solver all agree with the dense sequential DP at `k = 16` —
/// the scale the dense engines can still reach, so every frontier
/// answer is cross-checked against a mask-indexed ground truth.
#[test]
fn engines_agree_with_dense_seq_at_k16() {
    let inst = random_adequate(16, 7);
    let seq = tt_repro::lookup("seq").unwrap().solve(&inst);
    assert!(seq.outcome.is_complete());
    for name in ["seq-frontier", "rayon-frontier", "memo", "rayon"] {
        let r = tt_repro::lookup(name).unwrap().solve(&inst);
        assert!(r.outcome.is_complete(), "{name}");
        assert_eq!(r.cost, seq.cost, "{name} disagrees with the dense DP");
        if let Some(t) = &r.tree {
            t.validate(&inst).unwrap();
            assert_eq!(t.expected_cost(&inst), seq.cost, "{name} tree cost");
        }
    }
}

/// `memo` holds the reachable closure, not the lattice: on the catalog's
/// random k = 20 instance (seed 7) its peak resident cells stay within
/// twice the widest frontier `C(20, 10)`, far below the `2^20` cells a
/// dense slab would hold.
#[test]
fn memo_on_random_k20_stays_within_twice_the_widest_frontier() {
    let inst = tt_workloads::catalog::Domain::Random.generate(20, 7);
    let mm = tt_repro::lookup("memo").unwrap().solve(&inst);
    assert!(mm.outcome.is_complete());
    let resident = mm
        .work
        .extra("frontier_peak_resident_cells")
        .expect("memo reports frontier residency");
    assert_eq!(resident, mm.work.subsets, "resident cells are the closure");
    assert!(
        resident <= 2 * max_frontier(20),
        "memo resident cells {resident} exceed twice the widest frontier"
    );
}

/// The CI `frontier-scale` check: at `k = 18` the two full-lattice
/// frontier engines and the sparse memo agree with the dense DP, the
/// frontier engines allocate exactly `Σ_j C(18, j) = 2^18` cost-only
/// cells (no dense argmin plane), and the memo's resident cells stay
/// within twice the widest frontier.
#[test]
#[ignore = "frontier-scale: release-mode CI job (cargo test --release -- --ignored)"]
fn frontier_engines_agree_at_k18_within_frontier_memory() {
    let inst = random_adequate(18, 7);
    let seq = tt_repro::lookup("seq").unwrap().solve(&inst);
    for name in ["seq-frontier", "rayon-frontier"] {
        let r = tt_repro::lookup(name).unwrap().solve(&inst);
        assert!(r.outcome.is_complete(), "{name}");
        assert_eq!(r.cost, seq.cost, "{name} disagrees with the dense DP");
        assert_eq!(
            r.work.extra("frontier_cells_allocated"),
            Some(1u64 << 18),
            "{name} must allocate exactly the lattice, level by level"
        );
    }
    let mm = tt_repro::lookup("memo").unwrap().solve(&inst);
    assert_eq!(mm.cost, seq.cost, "memo disagrees with the dense DP");
    let resident = mm
        .work
        .extra("frontier_peak_resident_cells")
        .expect("memo reports frontier residency");
    assert!(
        resident <= 2 * max_frontier(18),
        "memo resident cells {resident} exceed twice the widest frontier"
    );
}

/// Kill-and-resume across format generations: a *dense* engine's
/// starved run exported in the legacy v1 wire format must warm-start
/// the frontier engines — existing on-disk `--resume` files keep
/// working after the frontier refactor — and the frontier engines'
/// own checkpoints are written in the v2 frontier-compressed format.
#[test]
fn dense_v1_checkpoint_resumes_under_the_frontier_engines() {
    let inst = random_adequate(12, 7);
    let seq = tt_repro::lookup("seq").unwrap();

    // Starve the dense run mid-lattice; keep its last checkpoint.
    let mut last: Option<Checkpoint> = None;
    let partial = seq.solve_resumable(
        &inst,
        &Budget::with_max_candidates(20_000),
        &mut None,
        &mut |v| last = Some(v.to_checkpoint()),
    );
    assert!(
        !partial.outcome.is_complete(),
        "the starved run must stop mid-lattice"
    );
    let ck = last.expect("at least one level checkpoint");
    let text = ck.to_text_v1();
    assert!(text.starts_with("ttck 1\n"), "legacy writer emits v1");
    let reloaded = Checkpoint::from_text(&text).unwrap();
    assert!(reloaded.matches(&inst));

    for name in ["seq-frontier", "rayon-frontier"] {
        let engine = tt_repro::lookup(name).unwrap();
        let cold = engine.solve(&inst);
        let warm = engine.solve_resumable(
            &inst,
            &Budget::unlimited(),
            &mut Some(reloaded.clone()),
            &mut |_| {},
        );
        assert!(warm.outcome.is_complete(), "{name}");
        assert_eq!(warm.cost, cold.cost, "{name}: resumed cost differs");
        assert_eq!(
            warm.work.extra("resumed_level"),
            Some(reloaded.level as u64),
            "{name}"
        );
        assert!(
            warm.work.subsets < cold.work.subsets,
            "{name}: resume must redo strictly fewer subsets ({} vs {})",
            warm.work.subsets,
            cold.work.subsets
        );
    }

    // The frontier engine's own exports use the v2 format, and those
    // reload and resume identically.
    let frontier_engine = tt_repro::lookup("seq-frontier").unwrap();
    let mut v2_texts: Vec<String> = Vec::new();
    let cold = frontier_engine.solve_resumable(&inst, &Budget::unlimited(), &mut None, &mut |v| {
        v2_texts.push(v.to_checkpoint().to_text());
    });
    assert!(!v2_texts.is_empty());
    assert!(
        v2_texts.iter().all(|t| t.starts_with("ttck 2\n")),
        "frontier checkpoints default to the v2 wire format"
    );
    let mid = Checkpoint::from_text(&v2_texts[v2_texts.len() / 2]).unwrap();
    let warm =
        frontier_engine.solve_resumable(&inst, &Budget::unlimited(), &mut Some(mid), &mut |_| {});
    assert_eq!(warm.cost, cold.cost, "v2 roundtrip resume");
}
