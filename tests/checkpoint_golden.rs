//! Checkpoint bytes are pinned: every level boundary's
//! `LevelView::to_checkpoint().to_text()` must equal the golden files,
//! which hold the texts the engines wrote when each level still built an
//! owned checkpoint. Covered: the engines one at a time, the supervisor's
//! observer stream and final checkpoint (plain and across a failover in
//! both directions between dense and frontier storage), and the file
//! `ttsolve --checkpoint` leaves behind. A k = 12 failover test checks
//! that the supervisor's incrementally copied checkpoint warm-starts the
//! next engine at the level the first one died after.

use std::path::Path;
use std::process::Command;
use std::time::Duration;
use tt_core::instance::TtInstance;
use tt_core::solver::budget::Budget;
use tt_core::solver::checkpoint::{Checkpoint, LevelView};
use tt_core::solver::engine::{EngineKind, SolveReport, Solver};
use tt_core::solver::sequential;
use tt_core::solver::supervise::{supervise, supervise_with_observer, SuperviseOptions};
use tt_workloads::catalog::Domain;

const INSTANCE: &str = "tests/golden/medical-k8-seed7.tt";

fn golden_instance() -> TtInstance {
    tt_core::io::from_text(&std::fs::read_to_string(INSTANCE).unwrap()).unwrap()
}

/// The golden file's checkpoint texts, one per level `1..=k`.
fn golden(name: &str) -> Vec<String> {
    let text = std::fs::read_to_string(format!("tests/golden/checkpoints-{name}.txt")).unwrap();
    text.split_inclusive('\n')
        .fold(Vec::new(), |mut texts: Vec<String>, line| {
            if line == "ttck 2\n" {
                texts.push(String::new());
            }
            texts
                .last_mut()
                .expect("starts with a header")
                .push_str(line);
            texts
        })
}

fn texts_of(engine: &dyn Solver, inst: &TtInstance) -> Vec<String> {
    let mut texts = Vec::new();
    let r = engine.solve_resumable(inst, &Budget::unlimited(), None, &mut |v| {
        texts.push(v.to_checkpoint().to_text());
    });
    assert!(r.outcome.is_complete(), "{}", engine.name());
    texts
}

#[test]
fn engine_checkpoints_match_the_goldens_at_every_level() {
    tt_parallel::register_engines();
    let inst = golden_instance();
    for (storage, engines) in [
        ("dense", &["seq", "rayon", "hyper", "ccc"][..]),
        (
            "frontier",
            &["rayon-frontier", "seq-frontier", "hyper-blocked"][..],
        ),
    ] {
        let want = golden(storage);
        assert_eq!(want.len(), inst.k());
        for name in engines {
            let engine = tt_repro::lookup(name).unwrap();
            let got = texts_of(engine.as_ref(), &inst);
            assert_eq!(got.len(), want.len(), "{name}: levels");
            for (level, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{name}: level {} differs from the golden", level + 1);
            }
        }
    }
}

/// Emits views through level `die_after` from the dense or the frontier
/// sweep, then panics.
struct DieAfter {
    die_after: usize,
    frontier: bool,
}

impl Solver for DieAfter {
    fn name(&self) -> &'static str {
        "die-after"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Machine
    }
    fn resumable(&self) -> bool {
        true
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        self.solve_resumable(inst, budget, None, &mut |_| {})
    }
    fn solve_resumable(
        &self,
        inst: &TtInstance,
        budget: &Budget,
        _resume: Option<&Checkpoint>,
        sink: &mut dyn FnMut(&LevelView<'_>),
    ) -> SolveReport {
        let mut meter = budget.start();
        let die = self.die_after;
        if self.frontier {
            sequential::solve_frontier_levelwise(inst, &mut meter, None, &mut |level, table| {
                sink(&LevelView::frontier(inst, level, table));
                assert!(level < die, "injected death after level {die}");
            });
        } else {
            sequential::solve_tables_levelwise(inst, &mut meter, None, &mut |level, cost, best| {
                sink(&LevelView::dense(inst, level, cost, best));
                assert!(level < die, "injected death after level {die}");
            });
        }
        unreachable!("the test engine dies before finishing")
    }
}

fn no_retries() -> SuperviseOptions {
    SuperviseOptions {
        retries_per_engine: 0,
        backoff: Duration::ZERO,
        ..SuperviseOptions::default()
    }
}

#[test]
fn supervised_checkpoints_match_the_goldens() {
    tt_parallel::register_engines();
    let inst = golden_instance();
    let (dense, frontier) = (golden("dense"), golden("frontier"));
    let k = inst.k();
    let die = |frontier| -> Box<dyn Solver> {
        Box::new(DieAfter {
            die_after: 3,
            frontier,
        })
    };
    // (name, chain, expected observer stream); the final checkpoint is
    // the stream's last text.
    type Case = (&'static str, Vec<Box<dyn Solver>>, Vec<String>);
    let cases: Vec<Case> = vec![
        (
            "default chain",
            tt_parallel::orchestrate::default_chain(&inst),
            dense.clone(),
        ),
        (
            "dense then frontier",
            vec![die(false), tt_repro::lookup("rayon-frontier").unwrap()],
            [&dense[..3], &frontier[3..]].concat(),
        ),
        (
            "frontier then dense",
            vec![die(true), tt_repro::lookup("seq").unwrap()],
            [&frontier[..3], &dense[3..]].concat(),
        ),
    ];
    for (name, chain, want) in cases {
        let mut got = Vec::new();
        let r = supervise_with_observer(
            &inst,
            &chain,
            &Budget::unlimited(),
            &no_retries(),
            &mut |v| {
                got.push(v.to_checkpoint().to_text());
            },
        );
        assert!(r.report.outcome.is_complete(), "{name}");
        assert_eq!(got.len(), k, "{name}: levels");
        for (level, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{name}: observed level {} differs", level + 1);
        }
        let last = r.checkpoint.expect("a final checkpoint").to_text();
        assert_eq!(&last, &want[k - 1], "{name}: final checkpoint differs");
    }
}

#[test]
fn ttsolve_checkpoint_files_match_the_goldens() {
    let (dense, frontier) = (golden("dense"), golden("frontier"));
    let dir = std::env::temp_dir().join(format!("ttck-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (flags, want) in [
        (&["--solver", "rayon"][..], dense.last()),
        (&["--solver", "rayon-frontier"][..], frontier.last()),
        (&["--supervise"][..], dense.last()),
    ] {
        let file = dir.join("out.ttck");
        let out = Command::new(env!("CARGO_BIN_EXE_ttsolve"))
            .arg(INSTANCE)
            .args(flags)
            .arg("--checkpoint")
            .arg(&file)
            .output()
            .unwrap();
        assert!(out.status.success(), "{flags:?}: {out:?}");
        let got = std::fs::read_to_string(&file).unwrap();
        assert_eq!(Some(&got), want, "{flags:?}: checkpoint file differs");
        std::fs::remove_file(&file).unwrap();
    }
    std::fs::remove_dir_all(Path::new(&dir)).unwrap();
}

#[test]
fn k12_failover_resumes_from_the_incremental_copy_with_the_cold_cost() {
    tt_parallel::register_engines();
    let inst = Domain::Random.generate(12, 3);
    let cold = sequential::solve(&inst).cost;
    for die_after in [1, 5, 11] {
        for (frontier, next) in [(false, "rayon"), (true, "rayon"), (false, "rayon-frontier")] {
            let chain: Vec<Box<dyn Solver>> = vec![
                Box::new(DieAfter {
                    die_after,
                    frontier,
                }),
                tt_repro::lookup(next).unwrap(),
            ];
            let case = format!("die after {die_after} (frontier {frontier}), then {next}");
            let r = supervise(&inst, &chain, &Budget::unlimited(), &no_retries());
            assert_eq!(r.engine, next, "{case}");
            assert!(r.report.outcome.is_complete(), "{case}");
            assert_eq!(r.report.cost, cold, "{case}");
            assert_eq!(r.resumed_level, Some(die_after), "{case}");
            assert_eq!(
                r.report.work.extra("resumed_level"),
                Some(die_after as u64),
                "{case}"
            );
            let ck = r.checkpoint.expect("final checkpoint");
            assert_eq!(ck.level, inst.k(), "{case}");
            assert_eq!(ck.cost[inst.universe().index()], cold, "{case}");
        }
    }
}
