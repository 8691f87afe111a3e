//! Registry-wide smoke test: every registered engine must solve a small
//! adequate instance and an inadequate (INF) instance, agree on the
//! cost, and report work statistics that respect the problem's bounds.

use tt_core::instance::{TtInstance, TtInstanceBuilder};
use tt_core::solver::EngineKind;
use tt_core::subset::Subset;

/// Small adequate instance every engine (even `exhaustive`, k <= 3) can
/// take: 3 objects, one test, two treatments covering the universe.
fn adequate() -> TtInstance {
    TtInstanceBuilder::new(3)
        .weights([3, 2, 1])
        .test(Subset(0b011), 1)
        .test(Subset(0b101), 2)
        .treatment(Subset(0b011), 3)
        .treatment(Subset(0b110), 2)
        .treatment(Subset(0b100), 1)
        .build()
        .unwrap()
}

/// Inadequate: object 2 is covered by no treatment, so C(U) = INF.
fn inadequate() -> TtInstance {
    TtInstanceBuilder::new(3)
        .weights([1, 1, 1])
        .test(Subset(0b010), 1)
        .treatment(Subset(0b011), 2)
        .build()
        .unwrap()
}

#[test]
fn every_engine_solves_the_adequate_instance() {
    let inst = adequate();
    let opt = tt_core::solver::sequential::solve(&inst).cost;
    assert!(opt.is_finite());
    let engines = tt_repro::registry();
    assert!(engines.len() >= 10, "registry too small: {}", engines.len());
    for e in engines {
        assert!(inst.k() <= e.max_k(), "{} cannot take k=3", e.name());
        let r = e.solve(&inst);
        if e.kind().is_exact() {
            assert_eq!(r.cost, opt, "{} disagrees with the DP", e.name());
        } else {
            assert!(r.cost >= opt, "{} beat the optimum", e.name());
            assert!(
                r.cost.is_finite(),
                "{} failed on an adequate instance",
                e.name()
            );
        }
        let tree = r
            .tree
            .unwrap_or_else(|| panic!("{} returned no tree", e.name()));
        tree.validate(&inst).unwrap();
        assert_eq!(
            tree.expected_cost(&inst),
            r.cost,
            "{} tree/cost mismatch",
            e.name()
        );
    }
}

#[test]
fn every_engine_reports_inf_on_the_inadequate_instance() {
    let inst = inadequate();
    for e in tt_repro::registry() {
        let r = e.solve(&inst);
        assert!(
            r.cost.is_inf(),
            "{} found a cost on an unsolvable instance",
            e.name()
        );
        assert!(r.tree.is_none(), "{} returned a tree for INF", e.name());
    }
}

#[test]
fn work_stats_respect_problem_bounds() {
    let inst = adequate();
    let plane = (1u64 << inst.k()) * inst.n_actions() as u64;
    for e in tt_repro::registry() {
        let r = e.solve(&inst);
        let w = &r.work;
        assert!(
            w.subsets <= 1 << inst.k(),
            "{}: subsets={} exceeds 2^k",
            e.name(),
            w.subsets
        );
        if e.name() == "bnb" {
            // Expanded and pruned sets partition (a subset of) the
            // candidate plane: together they cannot exceed 2^k * N.
            assert!(
                w.candidates + w.pruned <= plane,
                "bnb: expanded {} + pruned {} exceeds the candidate plane {plane}",
                w.candidates,
                w.pruned
            );
        }
        if e.kind() == EngineKind::Machine {
            assert!(w.machine_steps > 0, "{}: machine with no steps", e.name());
            assert!(w.pes > 0, "{}: machine with no PEs", e.name());
        }
    }
}

/// The default supervision chain is headed by `auto`, which decides at
/// solve time, at every k. The answer must name the engine that ran —
/// `memo` on a sparse reachable closure, `seq` on a dense one up to
/// k = 15 (narrow widest level), `rayon` at k = 16 — never `auto` and
/// never a machine simulator, and its cost and tree must be `seq`'s
/// exactly.
#[test]
fn default_chains_name_the_engine_auto_delegated_to() {
    use tt_core::solver::supervise::{supervise, SuperviseOptions};
    use tt_core::solver::Budget;
    use tt_workloads::catalog::Domain;
    for (domain, k, want) in [
        (Domain::Medical, 6, "seq"),
        (Domain::Random, 8, "seq"),
        (Domain::Medical, 12, "seq"),
        (Domain::Random, 14, "memo"),
        (Domain::Random, 15, "memo"),
        (Domain::Random, 16, "memo"),
        (Domain::Medical, 15, "seq"),
        (Domain::Medical, 16, "rayon"),
    ] {
        let inst = domain.generate(k, 1);
        let chain = tt_parallel::orchestrate::default_chain(&inst);
        let sup = supervise(
            &inst,
            &chain,
            &Budget::unlimited(),
            &SuperviseOptions::default(),
        );
        let case = format!("{} k={k}", domain.name());
        assert_eq!(sup.engine, want, "{case}");
        assert_eq!(sup.failovers, 0, "{case}");
        assert!(sup.report.outcome.is_complete(), "{case}");
        let seq = tt_repro::lookup("seq").unwrap().solve(&inst);
        assert_eq!(sup.report.cost, seq.cost, "{case}: cost");
        assert_eq!(sup.report.tree, seq.tree, "{case}: tree");
    }
}

/// The engine `auto` delegates to on every catalog domain at the k the
/// serving and benchmark paths use, pinned so that no decision moves
/// silently: sparse closures go to `memo`, narrow dense ones to `seq`,
/// wide dense ones (and closures past the probe's cap, as `lab` at
/// k = 20) to `rayon`.
#[test]
fn auto_picks_on_the_catalog_are_pinned() {
    tt_parallel::register_engines();
    let picks: [(&str, [&str; 5]); 5] = [
        ("random", ["memo", "memo", "memo", "memo", "memo"]),
        ("medical", ["seq", "seq", "rayon", "rayon", "rayon"]),
        ("faults", ["seq", "seq", "rayon", "rayon", "rayon"]),
        ("biology", ["seq", "seq", "rayon", "rayon", "rayon"]),
        ("lab", ["seq", "seq", "memo", "memo", "rayon"]),
    ];
    for (domain, want) in picks {
        let domain = tt_workloads::catalog::Domain::parse(domain).unwrap();
        for (k, want) in [12, 15, 16, 18, 20].into_iter().zip(want) {
            let pick = tt_core::solver::auto_select(&domain.generate(k, 7));
            assert_eq!(pick.engine, want, "{domain:?} k={k}: {}", pick.reason);
        }
    }
}

/// The exact work and memory anchors of the quick benchmark matrix:
/// `cost`, `subsets`, `machine_steps` and the peak resident cost cells
/// (`frontier_peak_resident_cells`, 0 for the machine engines) of each
/// cell, the `(S, i)` pairs the level kernel's bound skipped
/// (`bound_skipped`, 0 for the machine engines: a change that silently
/// turns the bound off, or the treatment groups' `L(S) − max L(T)`
/// term, fails here; the medical and faults rows lean on that term),
/// plus the batch and supervised orchestration paths. These are
/// simulator outputs, not timings; a change in any of them is an
/// algorithm change, so the table is regenerated in the same change.
#[test]
fn quick_matrix_work_and_residency_are_pinned() {
    use tt_core::solver::supervise::{supervise, SuperviseOptions};
    use tt_core::solver::Budget;
    use tt_parallel::orchestrate::{self, BatchStatus};
    use tt_workloads::catalog::Domain::{Faults, Medical, Random};
    #[rustfmt::skip]
    let cells = [
        // (engine, domain, k, seed, cost, subsets, machine_steps, resident
        // cells, pairs the chunk pass's bound skipped)
        ("seq", Random, 9, 7, 200, 511, 0, 512, 5872),
        ("seq", Medical, 9, 3, 8530, 511, 0, 512, 9190),
        ("seq", Faults, 9, 3, 644, 511, 0, 512, 11520),
        ("memo", Random, 9, 7, 200, 99, 0, 99, 1016),
        ("rayon", Random, 9, 7, 200, 511, 0, 512, 5872),
        ("seq", Random, 11, 7, 304, 2047, 0, 2048, 25075),
        ("rayon", Random, 12, 7, 179, 4095, 0, 4096, 60779),
        ("memo", Random, 13, 7, 196, 495, 0, 495, 7049),
        ("hyper", Random, 7, 7, 114, 128, 92, 0, 0),
        ("hyper-blocked", Random, 7, 7, 114, 128, 92, 0, 0),
        ("ccc", Random, 6, 7, 72, 64, 391, 0, 0),
        ("bvm", Random, 6, 7, 72, 64, 26820, 0, 0),
    ];
    for (engine, domain, k, seed, cost, subsets, steps, resident, skipped) in cells {
        let r = tt_repro::lookup(engine)
            .unwrap()
            .solve(&domain.generate(k, seed));
        let w = &r.work;
        assert_eq!(
            (r.cost.0, w.subsets, w.machine_steps),
            (cost, subsets, steps),
            "{engine}/{}/k{k}: cost, subsets, machine_steps",
            domain.name()
        );
        let cells = w.extra("frontier_peak_resident_cells").unwrap_or(0);
        assert_eq!(cells, resident, "{engine}/{}/k{k}", domain.name());
        let bound = w.extra("bound_skipped").unwrap_or(0);
        assert_eq!(
            bound,
            skipped,
            "{engine}/{}/k{k}: bound_skipped",
            domain.name()
        );
    }

    let manifest = "demo:random:8:7 id=a solver=seq\n\
                    demo:medical:8:3 id=b solver=memo\n\
                    demo:random:7:5 id=c solver=rayon\n";
    let batch = orchestrate::run_batch(manifest, &mut |_| {});
    let costs: Vec<_> = batch.records.iter().map(|r| r.cost.map(|c| c.0)).collect();
    assert_eq!(costs, [Some(204), Some(4502), Some(149)], "batch/mixed/k8");
    assert!(batch
        .records
        .iter()
        .all(|r| matches!(r.status, BatchStatus::Ok)));

    let inst = Random.generate(7, 7);
    let chain = orchestrate::default_chain(&inst);
    let unlimited = Budget::unlimited();
    let sup = supervise(&inst, &chain, &unlimited, &SuperviseOptions::default());
    let w = &sup.report.work;
    assert_eq!((sup.report.cost.0, sup.engine.as_str()), (114, "seq"));
    assert_eq!(
        (w.subsets, w.machine_steps),
        (127, 0),
        "supervised/random/k7"
    );
    assert_eq!(w.extra("frontier_peak_resident_cells"), Some(128));
}
