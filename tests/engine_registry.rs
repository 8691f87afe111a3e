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

/// The default supervision chain heads its host engines with `auto`,
/// which decides at solve time. The answer must name the engine that
/// ran — `memo` on a sparse reachable closure, `seq` on a dense one at
/// k = 15 (narrow widest level), `rayon` at k = 16 — never `auto`, and
/// its cost and tree must be `seq`'s exactly.
#[test]
fn default_chains_name_the_engine_auto_delegated_to() {
    use tt_core::solver::supervise::{supervise, SuperviseOptions};
    use tt_core::solver::Budget;
    use tt_workloads::catalog::Domain;
    for (domain, k, want) in [
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
