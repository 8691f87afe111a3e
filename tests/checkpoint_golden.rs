//! Checkpoint bytes are pinned: every level boundary's
//! `LevelView::to_checkpoint().to_text()` must equal
//! `checkpoints-cost-only.txt`, which holds the texts the engines wrote
//! when each level still built an owned checkpoint. Every engine writes
//! that one cost-only form. Covered: the engines one at a time, the
//! supervisor's observer stream and final checkpoint (plain and across a
//! failover in both directions between a machine simulator and the level
//! kernel), and the file `ttsolve --checkpoint` leaves behind.
//!
//! `checkpoints-dense.txt` is a legacy input: the same levels as older
//! builds wrote them, with the `hyper`/`ccc` argmin in every cell. Its
//! texts must still load, write back as the cost-only golden, and
//! warm-start `seq`, `hyper` and `ccc` to the cold cost.
//!
//! A k = 12 failover test checks that the wavefront the first engine
//! advanced warm-starts the next engine at the level the first one died
//! after.

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
    let r = engine.solve_resumable(inst, &Budget::unlimited(), &mut None, &mut |v| {
        texts.push(v.to_checkpoint().to_text());
    });
    assert!(r.outcome.is_complete(), "{}", engine.name());
    texts
}

#[test]
fn engine_checkpoints_match_the_goldens_at_every_level() {
    tt_parallel::register_engines();
    let inst = golden_instance();
    let want = golden("cost-only");
    assert_eq!(want.len(), inst.k());
    for name in [
        "seq",
        "rayon",
        "rayon-frontier",
        "seq-frontier",
        "hyper",
        "hyper-blocked",
        "ccc",
    ] {
        let engine = tt_repro::lookup(name).unwrap();
        let got = texts_of(engine.as_ref(), &inst);
        assert_eq!(got.len(), want.len(), "{name}: levels");
        for (level, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{name}: level {} differs from the golden", level + 1);
        }
    }
}

#[test]
fn legacy_argmin_checkpoints_load_as_the_cost_only_golden_and_resume() {
    tt_parallel::register_engines();
    let inst = golden_instance();
    let (dense, costs) = (golden("dense"), golden("cost-only"));
    assert_eq!(dense.len(), inst.k());
    let cold = sequential::solve(&inst).cost;
    for (level, (legacy, want)) in dense.iter().zip(&costs).enumerate() {
        let level = level + 1;
        assert_ne!(legacy, want, "level {level}: the fixture carries argmins");
        let ck = Checkpoint::from_text(legacy).unwrap();
        assert_eq!(ck.level, level);
        assert_eq!(&ck.to_text(), want, "level {level}: written back");
        // `ccc` simulates a 2^20-PE machine here: one mid-lattice resume.
        let engines: &[&str] = if level == 4 {
            &["seq", "hyper", "ccc"]
        } else {
            &["seq", "hyper"]
        };
        for name in engines {
            let engine = tt_repro::lookup(name).unwrap();
            let r = engine.solve_resumable(
                &inst,
                &Budget::unlimited(),
                &mut Some(ck.clone()),
                &mut |_| {},
            );
            assert!(r.outcome.is_complete(), "{name} resumed@{level}");
            assert_eq!(r.cost, cold, "{name} resumed@{level}");
            assert_eq!(
                r.work.extra("resumed_level"),
                Some(level as u64),
                "{name} resumed@{level}"
            );
        }
    }
}

/// Runs `engine` until it has advanced the wavefront through level
/// `die_after`, then panics.
struct DieAfter {
    die_after: usize,
    engine: &'static str,
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
        self.solve_resumable(inst, budget, &mut None, &mut |_| {})
    }
    fn solve_resumable(
        &self,
        inst: &TtInstance,
        budget: &Budget,
        wave: &mut Option<Checkpoint>,
        sink: &mut dyn FnMut(&LevelView<'_>),
    ) -> SolveReport {
        let die = self.die_after;
        let mut sink = |view: &LevelView<'_>| {
            sink(view);
            assert!(view.level() < die, "injected death after level {die}");
        };
        let engine = tt_repro::lookup(self.engine).unwrap();
        engine.solve_resumable(inst, budget, wave, &mut sink);
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
    let costs = golden("cost-only");
    let k = inst.k();
    let die = |engine| -> Box<dyn Solver> {
        Box::new(DieAfter {
            die_after: 3,
            engine,
        })
    };
    // (name, chain, expected observer stream); the final checkpoint is
    // the stream's last text.
    type Case = (&'static str, Vec<Box<dyn Solver>>, Vec<String>);
    let cases: Vec<Case> = vec![
        (
            "default chain",
            tt_parallel::orchestrate::default_chain(&inst),
            costs.clone(),
        ),
        (
            "machine then kernel",
            vec![die("hyper"), tt_repro::lookup("rayon").unwrap()],
            costs.clone(),
        ),
        (
            "kernel then machine",
            vec![die("seq"), tt_repro::lookup("hyper").unwrap()],
            costs.clone(),
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
    let costs = golden("cost-only");
    let dir = std::env::temp_dir().join(format!("ttck-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (flags, want) in [
        (&["--solver", "rayon"][..], costs.last()),
        (&["--solver", "rayon-frontier"][..], costs.last()),
        (&["--supervise"][..], costs.last()),
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
        for (engine, next) in [("seq", "rayon"), ("hyper", "rayon"), ("seq", "seq")] {
            let chain: Vec<Box<dyn Solver>> = vec![
                Box::new(DieAfter { die_after, engine }),
                tt_repro::lookup(next).unwrap(),
            ];
            let case = format!("{engine} dies after {die_after}, then {next}");
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
