//! Budget resilience across the whole registry: every engine, handed an
//! exhausted or tiny budget, must return promptly with a sound degraded
//! result — never hang, never panic, never report bounds that exclude
//! the true optimum. The `ccc` and `bvm` engines run a second time with
//! a fault plan armed, which must not loosen the budget.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use tt_core::instance::TtInstance;
use tt_core::solver::budget::{Budget, CancelToken};
use tt_core::solver::engine::SolveOutcome;
use tt_core::solver::{sequential, Solver};
use tt_parallel::orchestrate::parse_fault_spec;
use tt_workloads::random::RandomConfig;

fn inst(k: usize, seed: u64) -> TtInstance {
    RandomConfig {
        k,
        n_tests: k,
        n_treatments: k / 2 + 1,
        max_cost: 9,
        max_weight: 7,
    }
    .generate(seed)
}

/// Every registry engine under its name, then the `ccc` engine with a
/// corrupting link armed and the `bvm` engine with a bit flip armed
/// (past the four fetches its probes consume), under their specs.
fn engines() -> Vec<(String, Box<dyn Solver>)> {
    let mut engines: Vec<(String, Box<dyn Solver>)> = tt_repro::registry()
        .into_iter()
        .map(|e| (e.name().to_string(), e))
        .collect();
    for spec in ["ccc:corrupt:4@0", "bvm:flip:1@6"] {
        let armed = parse_fault_spec(spec).unwrap().engine();
        engines.push((format!("{} armed with {spec}", armed.name()), armed));
    }
    engines
}

/// The outcome's bound sandwich must contain the true optimum, and the
/// incumbent tree (when present) must be a valid procedure achieving
/// exactly the upper bound.
fn assert_sound(name: &str, exact: bool, i: &TtInstance, report: &tt_core::solver::SolveReport) {
    let opt = sequential::solve(i).cost;
    match report.outcome {
        SolveOutcome::Complete => {
            if exact {
                assert_eq!(report.cost, opt, "{name}: complete but wrong");
            } else {
                assert!(report.cost >= opt, "{name}: heuristic beat the optimum");
            }
        }
        SolveOutcome::Degraded {
            upper_bound,
            lower_bound,
            ..
        } => {
            assert_eq!(report.cost, upper_bound, "{name}: cost != upper bound");
            assert!(
                lower_bound <= opt && opt <= upper_bound,
                "{name}: optimum {opt} outside [{lower_bound}, {upper_bound}]"
            );
            if let Some(t) = &report.tree {
                t.validate(i).unwrap();
                assert_eq!(t.expected_cost(i), upper_bound, "{name}: incumbent cost");
            }
        }
    }
}

/// A 1 ms deadline on a k = 16 instance: every engine — including the
/// machine simulators whose address space cannot even hold k = 16 —
/// returns quickly with a sound answer instead of hanging or panicking.
#[test]
fn one_millisecond_deadline_on_k16_degrades_everywhere() {
    let i = inst(16, 42);
    let budget = Budget::with_deadline(Duration::from_millis(1));
    for (name, engine) in engines() {
        let start = Instant::now();
        let report = engine.solve_with(&i, &budget);
        let wall = start.elapsed();
        // The acceptance bar is ~10x the deadline; CI machines are noisy,
        // so the assert is lenient — the point is "milliseconds, not the
        // hours a k = 16 machine simulation would take".
        assert!(
            wall < Duration::from_secs(5),
            "{name} took {wall:?} against a 1 ms deadline"
        );
        assert_sound(&name, engine.kind().is_exact(), &i, &report);
    }
}

/// A pre-cancelled token degrades every engine on the very first check.
#[test]
fn pre_cancelled_token_stops_every_engine() {
    let i = inst(6, 7);
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget {
        cancel: Some(token),
        ..Budget::default()
    };
    for (name, engine) in engines() {
        if i.k() > engine.max_k() {
            continue; // capacity-gated engines degrade anyway; covered above
        }
        let report = engine.solve_with(&i, &budget);
        assert!(
            report.outcome.is_degraded(),
            "{name} ignored a pre-cancelled token"
        );
        assert_sound(&name, engine.kind().is_exact(), &i, &report);
    }
}

/// The unlimited budget is the identity: every engine completes exactly
/// as it does through `solve`.
#[test]
fn unlimited_budget_changes_nothing() {
    let i = inst(5, 3);
    for (name, engine) in engines() {
        if i.k() > engine.max_k() {
            continue;
        }
        let report = engine.solve_with(&i, &Budget::unlimited());
        assert!(report.outcome.is_complete(), "{name}");
        assert_eq!(report.cost, engine.solve(&i).cost, "{name}");
    }
}

/// `memo` charges its budget one closure level at a time. Cut between
/// levels at several points of a solve, it reports a degraded sandwich
/// around the optimum, priced from the levels it finished.
#[test]
fn memo_cut_mid_solve_returns_a_sandwich_around_the_optimum() {
    let i = tt_workloads::catalog::Domain::Lab.generate(12, 7);
    let memo = tt_repro::lookup("memo").unwrap();
    let full = memo.solve(&i);
    assert!(full.outcome.is_complete());
    let total = full.work.candidates;
    for max_candidates in [total / 4, total / 2, 3 * total / 4, total - 1] {
        let report = memo.solve_with(&i, &Budget::with_max_candidates(max_candidates));
        let name = format!("memo at {max_candidates} of {total} candidates");
        assert!(
            matches!(report.outcome, SolveOutcome::Degraded { .. }),
            "{name}: {:?}",
            report.outcome
        );
        assert!(report.work.subsets > 0, "{name}: no level finished");
        assert_sound(&name, true, &i, &report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Degraded sandwich property over a randomized instance family and
    /// candidate budgets: for every engine, armed or not, any outcome
    /// must carry a bound sandwich containing the exact DP optimum.
    #[test]
    fn degraded_bounds_always_contain_the_optimum(
        k in 4usize..7,
        seed in 0u64..1000,
        max_candidates in 1u64..2000,
    ) {
        let i = inst(k, seed);
        let budget = Budget::with_max_candidates(max_candidates);
        for (name, engine) in engines() {
            if k > engine.max_k() {
                continue;
            }
            let report = engine.solve_with(&i, &budget);
            assert_sound(&name, engine.kind().is_exact(), &i, &report);
        }
    }
}
