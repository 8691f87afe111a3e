//! `ttcheck` — static verification for TT instances, BVM microcode, CCC
//! exchange schedules, and the serve/drain lifecycle. No solving (and no
//! running server) required for a verdict.
//!
//! ```text
//! USAGE:
//!   ttcheck <file.tt> [--microcode] [--schedule] [--whole-run] [--all] [--verbose]
//!   ttcheck --demo <domain> [k] [seed] [--microcode] [--schedule] [--whole-run] [--all]
//!           (domains: random, medical, faults, biology, lab)
//!   ttcheck --passes [r] [--whole-run]   # standalone ASCEND/DESCEND schedule check
//!   ttcheck model [--workers n] [--queue n] [--clients n] [--bad n]
//!                 [--no-drain] [--inject-lost-shed] [--verbose]
//!   ttcheck model --crash [--workers n] [--queue n] [--clients n] [--crashes n]
//!                 [--inject-lost-recovery] [--verbose]
//! ```
//!
//! Instance passes, composable per invocation:
//!
//! * **instance lint** (always): `tt_core::lint` — feasibility (an object
//!   no treatment covers means *no procedure exists*, flagged before any
//!   solver runs), dominated/duplicate actions, zero-cost cycles,
//!   unreachable DP subsets.
//! * **`--microcode`**: records the full BVM instruction stream of a TT
//!   solve of the instance and runs `bvm::verify` over it — abstract
//!   interpretation for uninitialized reads, dead writes, conflicting
//!   gated writes, illegal lateral gating — plus a replay cost audit.
//! * **`--schedule`**: traces the CCC machine executing the TT program's
//!   dimension exchanges and checks every recorded pass against the
//!   pipelined Preparata–Vuillemin schedule (dimension order, one wire
//!   transit per slot, rotation physics). With **`--whole-run`** the
//!   recorded passes are additionally placed on the run's global clock
//!   and `tt_analyze::schedule::check_run` looks for what per-pass
//!   checking cannot see: cross-pass write-write wire conflicts, home
//!   double-bookings, precedence/wait-for-cycle deadlocks.
//!
//! `--all` = `--microcode --schedule --whole-run`. When the lint pass
//! finds a hard error (infeasible instance) the machine passes are
//! skipped — the verdict needs no solve.
//!
//! **`ttcheck model`** is the lifecycle prover: it explores *every*
//! interleaving of the modelled `tt-serve` accept/queue/worker/drain
//! machinery (`tt_analyze::server_model`) and proves, per configuration,
//! the `accepted == completed + degraded + shed + faulted` accounting
//! invariant, that no client is ever dropped without a typed answer (no
//! lost sheds), deadlock freedom, and drain termination. With no flags
//! it sweeps the whole lattice up to 3 workers × queue 3 × 5 clients —
//! plus the crash-extended lattice (below) — and flags pin one
//! configuration. `--inject-lost-shed` plants the classic accept-thread
//! bug (shed connection dropped instead of answered) and prints the
//! checker's replayable counterexample trace.
//!
//! **`ttcheck model --crash`** proves the journal-backed durability
//! layer: keyed clients retrying across nondeterministic SIGKILLs, with
//! journal replay, headless recovery, pending-key steals, condvar
//! waiters, and dedup hits all modelled
//! (`tt_analyze::server_model::CrashModel`). Per configuration it
//! proves no lost work (replay re-enqueues every unfinished key; the
//! journal ledger never drifts from the in-flight population),
//! exactly-once-equivalent dedup (`accepted == completed + recovered`
//! cumulatively across restarts, `j_completed == completed`), and
//! crash/restart termination. `--inject-lost-recovery` plants the
//! replay bug that drops one unfinished key and prints its replayable
//! counterexample.
//!
//! Exit codes: `0` clean (warnings allowed), `1` errors found, `2` usage
//! error, `3` unreadable input file, `4` unparseable instance, `6`
//! unknown domain, `15` model-check or whole-run schedule violation.
//!
//! Exploration volume is exported through `tt-obs` as
//! `analyze_states_explored` / `analyze_violations` (visible with
//! `--verbose`).

use std::process::exit;
use std::time::Instant;
use tt_analyze::explore::replay;
use tt_analyze::schedule::{check_run, RunSchedule};
use tt_analyze::server_model::{
    check_crash, check_server, sweep, sweep_crash, CrashConfig, CrashModel, ServerConfig,
    ServerModel,
};
use tt_core::instance::TtInstance;
use tt_core::io;
use tt_core::lint;
use tt_core::preprocess;

const EXIT_FINDINGS: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_READ: i32 = 3;
const EXIT_PARSE: i32 = 4;
const EXIT_UNKNOWN_NAME: i32 = 6;
const EXIT_MODEL_VIOLATION: i32 = 15;

fn usage() -> ! {
    eprintln!(
        "usage: ttcheck <file.tt> [--microcode] [--schedule] [--whole-run] [--all] [--verbose]\n\
         \x20      ttcheck --demo <random|medical|faults|biology|lab> [k] [seed] [flags]\n\
         \x20      ttcheck --passes [r] [--whole-run]\n\
         \x20      ttcheck model [--workers n] [--queue n] [--clients n] [--bad n]\n\
         \x20                    [--no-drain] [--inject-lost-shed] [--verbose]\n\
         \x20      ttcheck model --crash [--workers n] [--queue n] [--clients n]\n\
         \x20                    [--crashes n] [--inject-lost-recovery] [--verbose]\n\
         exit codes: 0 clean, 1 errors found, 2 usage, 3 unreadable file,\n\
         \x20           4 invalid instance, 6 unknown domain,\n\
         \x20           15 model-check or whole-run schedule violation"
    );
    exit(EXIT_USAGE)
}

#[derive(Default)]
struct Opts {
    microcode: bool,
    schedule: bool,
    whole_run: bool,
    verbose: bool,
}

fn parse_flags<'a>(args: impl Iterator<Item = &'a String>) -> Opts {
    let mut opts = Opts::default();
    for a in args {
        match a.as_str() {
            "--microcode" => opts.microcode = true,
            "--schedule" => opts.schedule = true,
            "--whole-run" => {
                opts.schedule = true;
                opts.whole_run = true;
            }
            "--all" => {
                opts.microcode = true;
                opts.schedule = true;
                opts.whole_run = true;
            }
            "--verbose" => opts.verbose = true,
            _ => usage(),
        }
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    // Lifecycle model checking: no instance involved.
    if args[0] == "model" {
        exit(check_model(&args[1..]));
    }

    // Standalone schedule check: no instance involved.
    if args[0] == "--passes" {
        let mut whole_run = false;
        let mut r: usize = 2;
        let mut pos = 1;
        if let Some(parsed) = args.get(pos).and_then(|s| s.parse().ok()) {
            r = parsed;
            pos += 1;
        }
        for a in &args[pos..] {
            match a.as_str() {
                "--whole-run" => whole_run = true,
                _ => usage(),
            }
        }
        if r == 0 || r > 4 {
            usage();
        }
        exit(check_generic_passes(r, whole_run));
    }

    // Any other leading flag is a usage error, not a file name.
    if args[0] != "--demo" && args[0].starts_with("--") {
        usage();
    }

    let (inst, opts) = if args[0] == "--demo" {
        let domain = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
        let mut pos = 2;
        let k: usize = match args.get(pos).and_then(|s| s.parse().ok()) {
            Some(k) => {
                pos += 1;
                k
            }
            None => 6,
        };
        let seed: u64 = match args.get(pos).and_then(|s| s.parse().ok()) {
            Some(s) => {
                pos += 1;
                s
            }
            None => 0,
        };
        let Some(d) = tt_workloads::catalog::Domain::parse(domain) else {
            eprintln!("unknown domain '{domain}'");
            exit(EXIT_UNKNOWN_NAME)
        };
        (d.generate(k, seed), parse_flags(args[pos..].iter()))
    } else {
        let path = &args[0];
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                exit(EXIT_READ)
            }
        };
        let inst = match io::from_text(&text) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                exit(EXIT_PARSE)
            }
        };
        (inst, parse_flags(args[1..].iter()))
    };

    exit(check_instance(&inst, &opts));
}

/// Runs the requested passes over one instance; returns the exit code.
fn check_instance(inst: &TtInstance, opts: &Opts) -> i32 {
    println!(
        "instance: k = {}, N = {} ({} tests, {} treatments)",
        inst.k(),
        inst.n_actions(),
        inst.n_tests(),
        inst.n_treatments()
    );

    let mut errors = 0usize;
    let mut run_violations = 0usize;

    // Pass 1: instance lint (static; no solving).
    let report = lint::lint(inst);
    println!("-- lint: {} finding(s)", report.diagnostics.len());
    print!("{report}");
    if report.has_errors() {
        // Infeasible: the verdict is final without running a machine.
        println!("infeasible instance: skipping machine passes");
        return EXIT_FINDINGS;
    }
    // Dominance reduction (the same mapping the tt-cache canonicalizer
    // consumes): report what the equivalence-class collapse removes and
    // what survives it, then lint the reduced instance.
    let red = preprocess::reduce(inst);
    if red.removed > 0 {
        println!(
            "-- reduction: {} dominated action(s) removed, {} survive (original indices {:?})",
            red.removed,
            red.original_index.len(),
            red.original_index
        );
        for d in &lint::lint(&red.instance).diagnostics {
            if d.code == lint::LintCode::DominatedAction {
                println!("post-reduction {d}");
            }
        }
    }

    // Pass 2: record the BVM TT solve and verify the microcode.
    if opts.microcode {
        let (sol, prog) = tt_parallel::bvm::solve_recorded(inst);
        let vr = bvm::verify::verify_with_replay(&prog, sol.machine_r);
        println!(
            "-- microcode: {} instructions (r = {}), {} diagnostic(s)",
            prog.instructions.len(),
            sol.machine_r,
            vr.diagnostics.len()
        );
        if opts.verbose || !vr.is_clean() {
            print!("{vr}");
        }
        errors += vr.errors().count();
    }

    // Pass 3: trace the CCC TT solve and verify every exchange pass —
    // and, with --whole-run, the passes against each other on the run's
    // global clock.
    if opts.schedule {
        let driver = tt_parallel::ccc::CccDriver::new(inst);
        let mut m = driver.fresh_machine();
        m.start_trace();
        driver.init(&mut m);
        for level in 1..=inst.k() {
            driver.run_level(&mut m, level);
        }
        let traces = m.take_trace();
        let mut violations = 0usize;
        for t in &traces {
            for v in hypercube::verify::check_pass(t) {
                println!("schedule violation ({:?} {:?}): {v}", t.kind, t.dims);
                violations += 1;
            }
        }
        println!(
            "-- schedule: {} pass(es) traced, {} violation(s)",
            traces.len(),
            violations
        );
        errors += violations;

        if opts.whole_run {
            let run = RunSchedule::sequential(traces);
            let slots = run.passes.last().map_or(0, |p| p.end());
            let rv = check_run(&run, None);
            for v in &rv {
                println!("whole-run violation: {v}");
            }
            println!(
                "-- whole-run: {} pass(es) over {} global slot(s), {} violation(s)",
                run.passes.len(),
                slots,
                rv.len()
            );
            run_violations += rv.len();
        }
    }

    if run_violations > 0 {
        println!("FAIL: {run_violations} whole-run violation(s)");
        EXIT_MODEL_VIOLATION
    } else if errors > 0 {
        println!("FAIL: {errors} error(s)");
        EXIT_FINDINGS
    } else {
        println!("ok");
        0
    }
}

/// Traces a generic ASCEND then DESCEND over a full CCC of cycle length
/// `2^r` and checks both against the Preparata–Vuillemin schedule —
/// plus, with `--whole-run`, against each other on the global clock.
fn check_generic_passes(r: usize, whole_run: bool) -> i32 {
    let q = 1usize << r;
    let dims = q + r;
    let mut m = hypercube::CccMachine::new(r, |x| x as u64);
    m.start_trace();
    m.ascend(0..dims, |_, _, lo, hi| {
        let s = *lo ^ *hi;
        *lo = s;
        *hi = s;
    });
    m.descend(0..dims, |_, _, lo, hi| {
        let s = lo.wrapping_add(*hi);
        *lo = s;
        *hi = s;
    });
    let traces = m.take_trace();
    let mut violations = 0usize;
    for t in &traces {
        for v in hypercube::verify::check_pass(t) {
            println!("schedule violation ({:?} {:?}): {v}", t.kind, t.dims);
            violations += 1;
        }
    }
    println!(
        "schedule: r = {r} (Q = {q}, {dims} dims), {} pass(es), {} violation(s)",
        traces.len(),
        violations
    );
    let mut run_violations = 0usize;
    if whole_run {
        let run = RunSchedule::sequential(traces);
        let rv = check_run(&run, None);
        for v in &rv {
            println!("whole-run violation: {v}");
        }
        println!(
            "whole-run: {} pass(es), {} violation(s)",
            run.passes.len(),
            rv.len()
        );
        run_violations = rv.len();
    }
    if run_violations > 0 {
        EXIT_MODEL_VIOLATION
    } else if violations > 0 {
        EXIT_FINDINGS
    } else {
        0
    }
}

/// `ttcheck model`: explicit-state checking of the serve/drain
/// lifecycle. Sweeps the full configuration lattice by default; any
/// explicit dimension pins a single configuration.
fn check_model(args: &[String]) -> i32 {
    let mut workers: Option<u8> = None;
    let mut queue: Option<u8> = None;
    let mut clients: Option<u8> = None;
    let mut bad: u8 = 0;
    let mut crashes: Option<u8> = None;
    let mut drain = true;
    let mut crash_mode = false;
    let mut inject = false;
    let mut inject_recovery = false;
    let mut verbose = false;

    fn dim(it: &mut std::slice::Iter<'_, String>) -> u8 {
        match it.next().and_then(|s| s.parse().ok()) {
            Some(v @ 1..=6) => v,
            _ => usage(),
        }
    }

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => workers = Some(dim(&mut it)),
            "--queue" => queue = Some(dim(&mut it)),
            "--clients" => clients = Some(dim(&mut it)),
            "--bad" => match it.next().and_then(|s| s.parse().ok()) {
                Some(v @ 0..=6) => bad = v,
                _ => usage(),
            },
            "--crashes" => crashes = Some(dim(&mut it)),
            "--crash" => crash_mode = true,
            "--no-drain" => drain = false,
            "--inject-lost-shed" => inject = true,
            "--inject-lost-recovery" => {
                crash_mode = true;
                inject_recovery = true;
            }
            "--verbose" => verbose = true,
            _ => usage(),
        }
    }
    if crashes.is_some() {
        crash_mode = true;
    }
    if crash_mode && (bad > 0 || !drain || inject) {
        usage(); // lifecycle-only flags make no sense on the crash model
    }

    let started = Instant::now();
    let mut total_states = 0u64;
    let mut code = 0;

    if crash_mode {
        code = check_crash_model(
            workers,
            queue,
            clients,
            crashes,
            inject_recovery,
            verbose,
            &mut total_states,
        );
        finish_model(started, total_states, verbose);
        return code;
    }

    let single = workers.is_some() || queue.is_some() || clients.is_some() || bad > 0 || inject;

    if single {
        let cfg = ServerConfig {
            workers: workers.unwrap_or(3),
            queue: queue.unwrap_or(3),
            good_clients: clients.unwrap_or(5),
            bad_clients: bad,
            allow_drain: drain,
            inject_lost_shed: inject,
        };
        println!(
            "model: {} worker(s), queue {}, {} client(s) ({} misbehaving), drain {}{}",
            cfg.workers,
            cfg.queue,
            cfg.clients(),
            cfg.bad_clients,
            if cfg.allow_drain { "on" } else { "off" },
            if inject {
                ", lost-shed bug injected"
            } else {
                ""
            },
        );
        let report = check_server(cfg);
        total_states += report.states;
        if report.proves() {
            println!(
                "proved: accounting invariant, no lost sheds, deadlock freedom, drain \
                 termination ({} states, {} transitions, depth {})",
                report.states, report.transitions, report.peak_depth
            );
        } else {
            code = EXIT_MODEL_VIOLATION;
            for v in &report.violations {
                println!("VIOLATION ({:?}): {}", v.kind, v.message);
                println!("counterexample ({} steps):", v.trace.len());
                for (i, step) in v.trace.iter().enumerate() {
                    println!("  {i:3}. {step:?}");
                }
                // Prove the trace is replayable: every prefix re-applies.
                match replay(&ServerModel::new(cfg), &v.trace) {
                    Ok(states) => {
                        if verbose {
                            println!("replayed {} state(s); final:", states.len());
                            println!("  {:?}", states.last().unwrap());
                        } else {
                            println!("trace replays cleanly ({} states)", states.len());
                        }
                    }
                    Err(e) => println!("REPLAY FAILED at step {}: {}", e.step, e.message),
                }
            }
        }
    } else {
        // Exhaustive sweep of the whole lattice.
        println!("model: sweeping 3 workers x queue 3 x 5 clients (drain on)");
        for (cfg, report) in sweep(3, 3, 5) {
            total_states += report.states;
            let verdict = if report.proves() {
                "proved".to_string()
            } else {
                code = EXIT_MODEL_VIOLATION;
                format!(
                    "VIOLATION: {}",
                    report
                        .violations
                        .first()
                        .map_or("(none recorded)", |v| v.message.as_str())
                )
            };
            if verbose || !report.proves() {
                println!(
                    "  w={} q={} c={}: {} states, {} transitions — {verdict}",
                    cfg.workers, cfg.queue, cfg.good_clients, report.states, report.transitions
                );
            }
        }
        if code == 0 {
            println!(
                "proved for all 45 configurations: accounting invariant, no lost sheds, \
                 deadlock freedom, drain termination"
            );
        }
        // The default sweep proves both lattices: the serve/drain
        // lifecycle above and the crash/recover durability layer.
        println!("model: sweeping crash lattice 2 workers x queue 2 x 3 clients x 2 crashes");
        let mut crash_configs = 0usize;
        for (cfg, report) in sweep_crash(2, 2, 3, 2) {
            crash_configs += 1;
            total_states += report.states;
            let proved = report.proves();
            if verbose || !proved {
                println!(
                    "  w={} q={} c={} x={}: {} states, {} transitions — {}",
                    cfg.workers,
                    cfg.queue,
                    cfg.clients,
                    cfg.max_crashes,
                    report.states,
                    report.transitions,
                    if proved {
                        "proved".to_string()
                    } else {
                        format!(
                            "VIOLATION: {}",
                            report
                                .violations
                                .first()
                                .map_or("(none recorded)", |v| v.message.as_str())
                        )
                    }
                );
            }
            if !proved {
                code = EXIT_MODEL_VIOLATION;
            }
        }
        if code == 0 {
            println!(
                "proved for all {crash_configs} crash configurations: no lost work, \
                 exactly-once-equivalent dedup, crash/restart termination"
            );
        }
    }

    finish_model(started, total_states, verbose);
    code
}

/// Prints the exploration-volume footer shared by every `model` mode.
fn finish_model(started: Instant, total_states: u64, verbose: bool) {
    let elapsed = started.elapsed();
    println!(
        "explored {total_states} state(s) in {:.2?}{}",
        elapsed,
        if verbose {
            format!(
                " ({:.0} states/s)",
                total_states as f64 / elapsed.as_secs_f64().max(1e-9)
            )
        } else {
            String::new()
        }
    );
}

/// `ttcheck model --crash`: the crash/recover durability prover.
/// Explicit dimensions (or the injected bug) pin one configuration;
/// otherwise the full small-configuration lattice is swept.
fn check_crash_model(
    workers: Option<u8>,
    queue: Option<u8>,
    clients: Option<u8>,
    crashes: Option<u8>,
    inject_recovery: bool,
    verbose: bool,
    total_states: &mut u64,
) -> i32 {
    let single = workers.is_some()
        || queue.is_some()
        || clients.is_some()
        || crashes.is_some()
        || inject_recovery;
    let mut code = 0;
    if single {
        let cfg = CrashConfig {
            workers: workers.unwrap_or(2),
            queue: queue.unwrap_or(2),
            clients: clients.unwrap_or(3),
            max_crashes: crashes.unwrap_or(2),
            inject_lost_recovery: inject_recovery,
        };
        println!(
            "crash model: {} worker(s), queue {}, {} keyed client(s), {} crash(es){}",
            cfg.workers,
            cfg.queue,
            cfg.clients,
            cfg.max_crashes,
            if inject_recovery {
                ", lost-recovery bug injected"
            } else {
                ""
            },
        );
        let report = check_crash(cfg);
        *total_states += report.states;
        if report.proves() {
            println!(
                "proved: no lost work, exactly-once-equivalent dedup, crash/restart \
                 termination ({} states, {} transitions, depth {})",
                report.states, report.transitions, report.peak_depth
            );
        } else {
            code = EXIT_MODEL_VIOLATION;
            for v in &report.violations {
                println!("VIOLATION ({:?}): {}", v.kind, v.message);
                println!("counterexample ({} steps):", v.trace.len());
                for (i, step) in v.trace.iter().enumerate() {
                    println!("  {i:3}. {step:?}");
                }
                // Prove the trace is replayable: every prefix re-applies.
                match replay(&CrashModel::new(cfg), &v.trace) {
                    Ok(states) => {
                        if verbose {
                            println!("replayed {} state(s); final:", states.len());
                            println!("  {:?}", states.last().unwrap());
                        } else {
                            println!("trace replays cleanly ({} states)", states.len());
                        }
                    }
                    Err(e) => println!("REPLAY FAILED at step {}: {}", e.step, e.message),
                }
            }
        }
    } else {
        println!("crash model: sweeping 2 workers x queue 2 x 3 clients x 2 crashes");
        let mut configs = 0usize;
        for (cfg, report) in sweep_crash(2, 2, 3, 2) {
            configs += 1;
            *total_states += report.states;
            let proved = report.proves();
            if verbose || !proved {
                println!(
                    "  w={} q={} c={} x={}: {} states, {} transitions — {}",
                    cfg.workers,
                    cfg.queue,
                    cfg.clients,
                    cfg.max_crashes,
                    report.states,
                    report.transitions,
                    if proved {
                        "proved".to_string()
                    } else {
                        format!(
                            "VIOLATION: {}",
                            report
                                .violations
                                .first()
                                .map_or("(none recorded)", |v| v.message.as_str())
                        )
                    }
                );
            }
            if !proved {
                code = EXIT_MODEL_VIOLATION;
            }
        }
        if code == 0 {
            println!(
                "proved for all {configs} crash configurations: no lost work, \
                 exactly-once-equivalent dedup, crash/restart termination"
            );
        }
    }
    code
}
