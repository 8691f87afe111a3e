//! `ttsolve` — command-line solver for test-and-treatment instances.
//!
//! ```text
//! USAGE:
//!   ttsolve <file.tt> [--solver <engine>] [--tree] [--dot] [--reduce] [--stats]
//!           [--timeout <ms>] [--max-candidates <n>] [--faults <spec>]
//!           [--supervise] [--checkpoint <file>] [--resume <file>]
//!           [--cache <dir>]
//!   ttsolve --demo <domain> [k] [seed] [--solver <engine>] [--tree] [--dot] [--stats]
//!           (domains: random, medical, faults, biology, lab)
//!   ttsolve --emit <domain> [k] [seed]   # print a generated instance
//!   ttsolve --batch <manifest> [--records <f>] [--summary <f>]  # supervised batch solving
//!   ttsolve --engines                    # list the registered engines
//! ```
//!
//! Reads the text format of `tt_core::io` (see its docs), solves with the
//! chosen engine from the unified solver registry, and prints the cost —
//! optionally the procedure tree, DOT output, dominance-reduction
//! summary, and the engine's uniform work statistics.
//!
//! `--timeout`/`--max-candidates` set a [`Budget`]; when it runs out the
//! engine stops and prints its anytime incumbent with the guaranteed
//! `[lower, upper]` bound sandwich instead of hanging.
//!
//! `--faults` arms a deterministic machine-fault plan on the targeted
//! machine's registry engine (`ccc` or `bvm`; a `--solver` naming
//! another engine is a usage error) and solves with it: the engine's
//! driver detects, retries and quarantines the faults (see
//! `tt_parallel::resilient`), and every other solve flag — `--timeout`,
//! `--max-candidates`, `--tree`, `--stats`, `--profile`,
//! `--checkpoint`, `--resume`, `--supervise` — applies as it does to
//! `--solver ccc`. A `resilience:` line reports the glitches detected,
//! the retries, the dead-PE count and the replica read back. The spec
//! is a comma-separated list, all targeting one machine:
//!
//! ```text
//!   ccc:dead:<addr>        dead PE (quarantined via a replica block)
//!   ccc:drop:<dim>@<nth>   the nth exchange on dim is lost in flight
//!   ccc:corrupt:<dim>@<nth> ... corrupts the receiving PE instead
//!   bvm:dead:<pe>          dead column (escalates)
//!   bvm:stuck:<pe>=<0|1>   neighbour fetch stuck at a constant bit
//!   bvm:flip:<pe>@<nth>    the nth fetch glitches one bit once
//! ```
//!
//! `--check` runs the static instance linter (`tt_core::lint`) before
//! solving: findings are printed, and a hard error (an object no
//! treatment covers — the instance is provably unsolvable) stops the run
//! before any engine is invoked. See `ttcheck` for the full static
//! verification surface (microcode and schedule passes).
//!
//! `--supervise` solves through a health-aware failover chain
//! (`tt_core::solver::supervise`) instead of a single engine: the
//! `auto` engine first, then software fallbacks (a machine simulator
//! runs only when `--solver` or `--faults` names it); panics, fault escalations, and capacity refusals
//! retry with backoff and then fail over — warm, when a checkpoint
//! exists. `--checkpoint <file>` persists the newest level-boundary
//! checkpoint to disk during the solve (fsynced temp file, atomic
//! rename, directory fsync, checksummed; a solve answered by `memo`
//! has no level boundaries and writes none), and `--resume <file>`
//! restarts a killed run from one: the resumed solve recomputes only
//! the levels above the checkpoint's wavefront. A corrupt, truncated,
//! or mismatched checkpoint is rejected (exit code 9), never trusted.
//!
//! `--batch <manifest>` streams instances through one supervisor with
//! per-instance isolation: each manifest line is `<file.tt>` or
//! `demo:<domain>:<k>:<seed>`, optionally followed by `solver=`,
//! `timeout_ms=`, `max_candidates=`, `faults=` overrides; `#` starts a
//! comment. Every line yields one JSON record on stdout (engine used,
//! failovers, retries, outcome) and a bad line — malformed, unreadable,
//! even a panicking solve — becomes an `error` record while the batch
//! continues. The run exits 0 only when every instance produced the
//! exact optimum, else 10 (batch-partial). `--records <file>` mirrors
//! the record stream into a crash-safe JSONL file (fsync'd at every
//! instance boundary, so a kill mid-batch never tears a completed
//! record) and `--summary <file>` writes the totals trailer via temp
//! file + atomic rename.
//!
//! `--cache <dir>` puts the content-addressed solution cache
//! (`tt_cache`) in front of the solve, the same sequence ttserve runs:
//! the instance is canonicalized once (object relabelling, weight
//! gcd-rescale, dominance reduction) and looked up by content hash. A
//! hit prints the cached answer, translated back to this instance's
//! labels and weight scale, without solving. A miss runs the normal
//! solve — `seq`, `--solver <engine>` or `--supervise` — and offers its
//! report to the cache, which keeps it only when it is complete and
//! from an exact engine; the cache directory gains a segment line for
//! the next run to replay. The printed `cache: hit|miss (N entries)`
//! line says which happened; `--metrics` exposes the same as
//! `ttcache_hits`/`ttcache_misses`. `--cache` conflicts with
//! `--faults` (a fault demo must exercise the machine), `--checkpoint`
//! and `--resume` (a hit has no levels).
//!
//! Observability (see the README's "Observability" section for the
//! schemas): `--trace <file>` captures the solve's span/instant event
//! stream and writes it as JSON lines; `--metrics` prints a Prometheus
//! text-format snapshot of the global counters and histograms after
//! the solve; `--profile` prints a human per-DP-level breakdown (cells,
//! candidate evaluations, wall time) from the report's telemetry.
//! `--solver auto` runs the registry's `auto` engine, which picks an
//! engine from the instance's shape at solve time
//! (`tt_core::solver::select`, the same decision that heads the
//! default supervision chain) and prints the pick and the reason. With
//! `--resume` it picks among the resumable engines only; a cold solve
//! it answers with `memo` emits no levels, so `--checkpoint` then
//! writes no file.
//!
//! Exit codes: `0` success, `2` usage error, `3` unreadable input file,
//! `4` unparseable or invalid instance, `5` static lint error (with
//! `--check`), `6` unknown engine or domain, `7` budget exhausted
//! (degraded result printed), `8` machine faults escalated past
//! recovery, `9` corrupt or mismatched `--resume` checkpoint, `10`
//! batch finished with non-optimal instances (degraded or error
//! records).

use std::path::Path;
use std::process::exit;
use std::time::Duration;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::io;
use tt_core::solver::budget::Budget;
use tt_core::solver::checkpoint::{Checkpoint, LevelView};
use tt_core::solver::engine::{DegradeReason, SolveOutcome, SolveReport};
use tt_core::solver::supervise::{supervise_with_observer, SuperviseOptions};
use tt_core::solver::Solver;
use tt_parallel::engines::REDUNDANCY_NANOS;
use tt_parallel::orchestrate::{self, FaultTarget};

const EXIT_USAGE: i32 = 2;
const EXIT_READ: i32 = 3;
const EXIT_PARSE: i32 = 4;
const EXIT_LINT: i32 = 5;
const EXIT_UNKNOWN_NAME: i32 = 6;
const EXIT_DEGRADED: i32 = 7;
const EXIT_FAULT_ESCALATION: i32 = 8;
const EXIT_RESUME_CORRUPT: i32 = 9;
const EXIT_BATCH_PARTIAL: i32 = 10;

fn usage() -> ! {
    eprintln!(
        "usage: ttsolve <file.tt> [--solver <engine>|auto] [--tree] [--dot] [--reduce] [--stats]\n\
         \x20                    [--timeout <ms>] [--max-candidates <n>] [--faults <spec>] [--check]\n\
         \x20                    [--supervise] [--checkpoint <file>] [--resume <file>]\n\
         \x20                    [--trace <file>] [--metrics] [--profile] [--cache <dir>]\n\
         \x20      ttsolve --demo <random|medical|faults|biology|lab> [k] [seed] [flags]\n\
         \x20      ttsolve --emit <random|medical|faults|biology|lab> [k] [seed]\n\
         \x20      ttsolve --batch <manifest> [--records <file>] [--summary <file>]\n\
         \x20      ttsolve --engines\n\
         fault specs arm the ccc/bvm engine (every solve flag applies):\n\
         \x20            ccc:dead:<addr> ccc:drop:<dim>@<nth> ccc:corrupt:<dim>@<nth>\n\
         \x20            bvm:dead:<pe> bvm:stuck:<pe>=<0|1> bvm:flip:<pe>@<nth>\n\
         batch lines: <file.tt | demo:<domain>:<k>:<seed>> [id=] [solver=] [timeout_ms=]\n\
         \x20            [max_candidates=] [faults=]   (# starts a comment)\n\
         exit codes: 0 ok, 2 usage, 3 unreadable file, 4 invalid instance,\n\
         \x20           5 lint error (--check), 6 unknown engine/domain,\n\
         \x20           7 degraded (budget), 8 fault escalation,\n\
         \x20           9 corrupt/mismatched resume checkpoint, 10 batch partial"
    );
    exit(EXIT_USAGE)
}

fn generate(domain: &str, k: usize, seed: u64) -> TtInstance {
    match tt_workloads::catalog::Domain::parse(domain) {
        Some(d) => d.generate(k, seed),
        None => {
            eprintln!("unknown domain '{domain}'");
            exit(EXIT_UNKNOWN_NAME)
        }
    }
}

/// Flags shared by the file and `--demo` modes.
#[derive(Default)]
struct Opts {
    solver: Option<String>,
    tree: bool,
    dot: bool,
    reduce: bool,
    stats: bool,
    timeout_ms: Option<u64>,
    max_candidates: Option<u64>,
    faults: Option<String>,
    check: bool,
    supervise: bool,
    checkpoint: Option<String>,
    resume: Option<String>,
    trace: Option<String>,
    metrics: bool,
    profile: bool,
    cache: Option<String>,
}

impl Opts {
    fn budget(&self) -> Budget {
        Budget {
            deadline: self.timeout_ms.map(Duration::from_millis),
            max_candidates: self.max_candidates,
            ..Budget::default()
        }
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> T {
    match v.and_then(|s| s.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("{flag} needs a numeric argument");
            usage()
        }
    }
}

fn parse_flags<'a>(args: impl Iterator<Item = &'a String>, allow_reduce: bool) -> Opts {
    let mut opts = Opts::default();
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--solver" => opts.solver = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--tree" => opts.tree = true,
            "--dot" => opts.dot = true,
            "--reduce" if allow_reduce => opts.reduce = true,
            "--stats" => opts.stats = true,
            "--timeout" => opts.timeout_ms = Some(parse_number("--timeout", it.next())),
            "--max-candidates" => {
                opts.max_candidates = Some(parse_number("--max-candidates", it.next()))
            }
            "--faults" => opts.faults = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--check" => opts.check = true,
            "--supervise" => opts.supervise = true,
            "--checkpoint" => opts.checkpoint = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--resume" => opts.resume = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--trace" => opts.trace = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--metrics" => opts.metrics = true,
            "--profile" => opts.profile = true,
            "--cache" => opts.cache = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    opts
}

fn list_engines() {
    println!("registered engines:");
    for e in tt_repro::registry() {
        let aliases = if e.aliases().is_empty() {
            String::new()
        } else {
            format!(" (aka {})", e.aliases().join(", "))
        };
        println!(
            "  {:14} {:10} k<={:2}  {}{aliases}",
            e.name(),
            format!("[{:?}]", e.kind()).to_lowercase(),
            e.max_k(),
            e.description()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    if args[0] == "--engines" {
        list_engines();
        return;
    }

    // Batch mode: stream a manifest through one supervisor with
    // per-instance isolation; JSON-lines records plus a totals trailer.
    // `--records`/`--summary` mirror the stream into crash-safe files
    // (records fsync'd per instance, summary via atomic rename).
    if args[0] == "--batch" {
        let path = args.get(1).unwrap_or_else(|| usage());
        let mut records_path: Option<String> = None;
        let mut summary_path: Option<String> = None;
        let mut it = args[2..].iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--records" => records_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
                "--summary" => summary_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
                _ => usage(),
            }
        }
        let manifest = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                exit(EXIT_READ)
            }
        };
        let mut sink = match orchestrate::BatchSink::open(
            records_path.as_deref().map(Path::new),
            summary_path.as_deref().map(Path::new),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot open batch sink: {e}");
                exit(EXIT_READ)
            }
        };
        let summary = orchestrate::run_batch(&manifest, &mut |rec| {
            println!("{}", rec.to_json());
            if let Err(e) = sink.record(rec) {
                eprintln!("cannot write batch record: {e}");
                exit(EXIT_READ)
            }
        });
        if let Err(e) = sink.finish(&summary) {
            eprintln!("cannot write batch summary: {e}");
            exit(EXIT_READ)
        }
        println!("{}", summary.to_json());
        eprintln!(
            "batch: {} ok, {} degraded, {} errors",
            summary.ok(),
            summary.degraded(),
            summary.errors()
        );
        exit(if summary.all_ok() {
            0
        } else {
            EXIT_BATCH_PARTIAL
        });
    }

    // Generation modes: `--demo`/`--emit <domain> [k] [seed]`, then
    // (for --demo) the same flags as file mode.
    if args[0] == "--demo" || args[0] == "--emit" {
        let domain = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
        let mut pos = 2;
        let k: usize = match args.get(pos).and_then(|s| s.parse().ok()) {
            Some(k) => {
                pos += 1;
                k
            }
            None => 8,
        };
        let seed: u64 = match args.get(pos).and_then(|s| s.parse().ok()) {
            Some(s) => {
                pos += 1;
                s
            }
            None => 0,
        };
        let inst = generate(domain, k, seed);
        if args[0] == "--emit" {
            if pos < args.len() {
                usage();
            }
            print!("{}", io::to_text(&inst));
            return;
        }
        let mut opts = parse_flags(args[pos..].iter(), false);
        // The demo exists to show a procedure: keep printing the tree
        // unless the user asked only for DOT output.
        opts.tree = opts.tree || !opts.dot;
        solve_and_report(&inst, &opts);
        return;
    }

    let path = &args[0];
    let opts = parse_flags(args[1..].iter(), true);

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
    let inst = if opts.reduce {
        let red = tt_core::preprocess::reduce(&inst);
        eprintln!(
            "dominance reduction: {} -> {} actions ({} removed)",
            inst.n_actions(),
            red.instance.n_actions(),
            red.removed
        );
        red.instance
    } else {
        inst
    };
    solve_and_report(&inst, &opts);
}

fn print_instance_line(inst: &TtInstance) {
    println!(
        "instance: k = {}, N = {} ({} tests, {} treatments), adequate: {}",
        inst.k(),
        inst.n_actions(),
        inst.n_tests(),
        inst.n_treatments(),
        inst.is_adequate()
    );
}

fn print_result(inst: &TtInstance, opts: &Opts, report: &SolveReport, exact: bool) -> i32 {
    if opts.stats {
        println!("stats: {}", report.work);
        println!("wall: {:.3?}", report.wall);
    }
    let work = &report.work;
    if let Some(glitches) = work.extra("glitches_detected") {
        let extra = |name| work.extra(name).unwrap_or(0);
        println!(
            "resilience: glitches detected = {glitches}, retries = {}, dead PEs = {}, replica used = {}",
            extra("fault_retries"),
            extra("dead_pes"),
            extra("replica_used")
        );
    }
    let mut code = 0;
    match report.outcome {
        SolveOutcome::Complete => {
            if exact {
                println!("optimal expected cost: {}", report.cost);
            } else {
                println!("expected cost (upper bound): {}", report.cost);
            }
        }
        SolveOutcome::Degraded {
            upper_bound,
            lower_bound,
            reason,
        } => {
            let gap = match (lower_bound, upper_bound) {
                (Cost(lo), Cost(hi)) if !upper_bound.is_inf() => format!("gap {}", hi - lo),
                _ => "gap unbounded".to_string(),
            };
            println!(
                "degraded result ({reason}): optimum within [{lower_bound}, {upper_bound}] ({gap})"
            );
            code = if reason == DegradeReason::FaultEscalation {
                EXIT_FAULT_ESCALATION
            } else {
                EXIT_DEGRADED
            };
        }
    }
    if let Some(t) = &report.tree {
        if opts.tree {
            let label = if report.outcome.is_complete() && exact {
                "optimal procedure"
            } else {
                "incumbent procedure"
            };
            println!("\n{label}:\n");
            print!("{}", t.render(inst));
        }
        if opts.dot {
            print!("{}", t.to_dot(inst));
        }
    } else if report.cost.is_inf() {
        println!(
            "no successful procedure exists (untreatable objects: {})",
            inst.untreatable()
        );
    }
    code
}

/// Flushes the observability side-channels: drains the trace ring to a
/// JSONL file (`--trace`) and prints the Prometheus snapshot
/// (`--metrics`). Called on every exit path out of a solve so a
/// degraded or fault-escalated run still leaves its evidence behind.
fn emit_observability(opts: &Opts) {
    if let Some(path) = &opts.trace {
        let events = tt_obs::trace::drain();
        let dropped = tt_obs::trace::dropped();
        let mut out = String::with_capacity(events.len() * 96);
        for e in &events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        match std::fs::write(path, out) {
            Ok(()) => {
                let note = if dropped > 0 {
                    format!(" ({dropped} oldest events dropped by the ring)")
                } else {
                    String::new()
                };
                eprintln!("trace: {} events -> {path}{note}", events.len());
            }
            Err(e) => eprintln!("warning: cannot write trace file {path}: {e}"),
        }
    }
    if opts.metrics {
        print!("{}", tt_obs::metrics::render_prometheus());
    }
}

/// `--profile`: the human-readable rendering of the report's per-level
/// telemetry — one row per DP level, a row for an armed `bvm` solve's
/// redundant runs, plus the named engine counters.
fn print_profile(report: &SolveReport) {
    let t = &report.telemetry;
    if t.is_empty() {
        println!("profile: no telemetry recorded (engine predates instrumentation?)");
        return;
    }
    println!("profile: per-level wavefront (level = treated-subset cardinality)");
    println!(
        "  {:>5} {:>12} {:>14} {:>12}",
        "level", "cells", "candidates", "time"
    );
    for s in &t.levels {
        println!(
            "  {:>5} {:>12} {:>14} {:>12}",
            s.level,
            s.cells,
            s.candidates,
            format!("{:.3?}", Duration::from_nanos(s.nanos)),
        );
    }
    if let Some(nanos) = t.counter(REDUNDANCY_NANOS) {
        let time = format!("{:.3?}", Duration::from_nanos(nanos));
        println!("  {:<33} {time:>12}", "redundant runs");
    }
    println!(
        "  total level time: {:.3?} of {:.3?} wall",
        Duration::from_nanos(t.total_level_nanos()),
        report.wall
    );
    let counters: Vec<_> = t
        .counters
        .iter()
        .filter(|(n, _)| n != REDUNDANCY_NANOS)
        .collect();
    if !counters.is_empty() {
        println!("profile: engine counters");
        for (name, v) in counters {
            println!("  {name:<24} {v}");
        }
    }
}

fn solve_and_report(inst: &TtInstance, opts: &Opts) {
    if opts.trace.is_some() {
        tt_obs::trace::enable();
    }
    if opts.check {
        let report = tt_core::lint::lint(inst);
        if !report.is_clean() {
            eprint!("{report}");
        }
        if report.has_errors() {
            eprintln!("static check failed: the instance is unsolvable; not invoking a solver");
            exit(EXIT_LINT);
        }
    }
    let cached = opts
        .cache
        .as_deref()
        .map(|dir| cache_lookup(inst, opts, dir));
    let mut resume = opts
        .resume
        .as_deref()
        .map(|p| load_checkpoint_or_exit(p, inst));
    let faults = opts.faults.as_deref().map(|spec| {
        let target = FaultTarget::parse_for(spec, opts.solver.as_deref()).unwrap_or_else(|e| {
            eprintln!("--faults: {e}");
            exit(EXIT_USAGE)
        });
        println!("fault plan armed on {}: {spec}", target.machine());
        target
    });
    if opts.supervise {
        let code = solve_supervised(inst, opts, faults, resume, cached);
        emit_observability(opts);
        exit(code);
    }
    let name = opts.solver.clone().unwrap_or_else(|| "seq".to_string());
    let engine: Box<dyn Solver> = match faults {
        Some(target) => target.engine(),
        None => match tt_repro::lookup(&name) {
            Some(e) => e,
            None => {
                eprintln!("unknown solver '{name}'; registered engines:");
                for e in tt_repro::registry() {
                    eprintln!("  {}", e.name());
                }
                exit(EXIT_UNKNOWN_NAME)
            }
        },
    };

    print_instance_line(inst);
    if inst.k() > engine.max_k() {
        eprintln!(
            "warning: engine '{}' is sized for k <= {}; k = {} may be slow or exhaust memory",
            engine.name(),
            engine.max_k(),
            inst.k()
        );
    }

    let report = if resume.is_some() || opts.checkpoint.is_some() {
        if !engine.resumable() && (resume.is_some() || opts.checkpoint.is_some()) {
            eprintln!(
                "note: engine '{}' is not resumable; solving cold, no checkpoints will be written",
                engine.name()
            );
        }
        let mut sink = |view: &LevelView<'_>| {
            if let Some(p) = &opts.checkpoint {
                save_checkpoint(p, &view.to_checkpoint());
            }
        };
        engine.solve_resumable(inst, &opts.budget(), &mut resume, &mut sink)
    } else {
        engine.solve_with(inst, &opts.budget())
    };
    if let Some(sel) = &report.selection {
        println!("auto-selected engine: {} — {}", sel.engine, sel.reason);
    }
    if opts.stats {
        let ran = report
            .selection
            .as_ref()
            .map_or(engine.name(), |s| &s.engine);
        println!("engine: {ran}");
    }
    if opts.profile {
        print_profile(&report);
    }
    let exact = engine.kind().is_exact();
    offer_to_cache(cached, &report, exact);
    let code = print_result(inst, opts, &report, exact);
    emit_observability(opts);
    exit(code)
}

/// A `--cache` miss: the opened cache and this instance's canonical
/// form, carried from the lookup to the insert.
struct CacheMiss {
    cache: tt_cache::SolutionCache,
    canonical: tt_cache::Canonical,
}

/// `--cache <dir>`: opens the cache, canonicalizes the instance once
/// and looks it up. A hit is printed like a plain solve and exits; a
/// miss returns what the normal solve needs to offer its report back.
fn cache_lookup(inst: &TtInstance, opts: &Opts, dir: &str) -> CacheMiss {
    // A hit has no levels to checkpoint or resume from, and a fault
    // demo must exercise the machine rather than read an answer back.
    if opts.faults.is_some() || opts.checkpoint.is_some() || opts.resume.is_some() {
        eprintln!("--cache conflicts with --faults/--checkpoint/--resume");
        exit(EXIT_USAGE);
    }
    let mut cache = match tt_cache::SolutionCache::open(Path::new(dir), tt_cache::DEFAULT_CAPACITY)
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot open cache directory {dir}: {e}");
            exit(EXIT_READ)
        }
    };
    let canonical = tt_cache::canonicalize(inst);
    let Some(report) = cache.lookup_canonical(&canonical) else {
        return CacheMiss { cache, canonical };
    };
    print_instance_line(inst);
    println!("cache: hit ({} entries)", cache.len());
    if opts.stats {
        println!("engine: cache");
    }
    if opts.profile {
        print_profile(&report);
    }
    let code = print_result(inst, opts, &report, true);
    emit_observability(opts);
    exit(code)
}

/// Offers a finished solve to the `--cache` store and prints the
/// `cache: miss` line. Only an `exact` engine's report is offered: the
/// store keeps any complete report, and a heuristic engine marks its
/// upper bound complete.
fn offer_to_cache(miss: Option<CacheMiss>, report: &SolveReport, exact: bool) {
    let Some(CacheMiss {
        mut cache,
        canonical,
    }) = miss
    else {
        return;
    };
    if exact {
        cache.insert_canonical(canonical, report);
    }
    println!("cache: miss ({} entries)", cache.len());
}

// ---------------------------------------------------------------------
// Checkpoint persistence and supervised solving.
// ---------------------------------------------------------------------

/// Loads and validates a `--resume` checkpoint; a corrupt, truncated,
/// or wrong-instance file exits with [`EXIT_RESUME_CORRUPT`] — a bad
/// checkpoint is never silently ignored.
fn load_checkpoint_or_exit(path: &str, inst: &TtInstance) -> Checkpoint {
    let ck = match Checkpoint::load(Path::new(path)) {
        Ok(ck) => ck,
        Err(e) => {
            eprintln!("cannot resume from {path}: {e}");
            exit(EXIT_RESUME_CORRUPT)
        }
    };
    if !ck.matches(inst) {
        eprintln!("cannot resume from {path}: checkpoint belongs to a different instance");
        exit(EXIT_RESUME_CORRUPT)
    }
    println!(
        "resuming from {path}: levels 1..={} already exact",
        ck.level
    );
    ck
}

fn save_checkpoint(path: &str, ck: &Checkpoint) {
    if let Err(e) = ck.save(Path::new(path)) {
        eprintln!("warning: cannot write checkpoint {path}: {e}");
    }
}

/// `--supervise`: solve through a failover chain under the supervisor,
/// persisting checkpoints when `--checkpoint` is set. The chain reports
/// a heuristic answer as degraded, so its report is offered to a
/// `--cache` miss as exact.
fn solve_supervised(
    inst: &TtInstance,
    opts: &Opts,
    faults: Option<FaultTarget>,
    resume: Option<Checkpoint>,
    cached: Option<CacheMiss>,
) -> i32 {
    let chain: Vec<Box<dyn Solver>> = if let Some(target) = faults {
        orchestrate::fault_chain(inst, target)
    } else if let Some(name) = opts.solver.as_deref() {
        match orchestrate::named_chain(inst, name) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return EXIT_UNKNOWN_NAME;
            }
        }
    } else {
        orchestrate::default_chain(inst)
    };

    print_instance_line(inst);
    let sup_opts = SuperviseOptions {
        resume,
        ..SuperviseOptions::default()
    };
    let mut observer = |view: &LevelView<'_>| {
        if let Some(p) = &opts.checkpoint {
            save_checkpoint(p, &view.to_checkpoint());
        }
    };
    let r = supervise_with_observer(inst, &chain, &opts.budget(), &sup_opts, &mut observer);
    println!(
        "supervision: engine = {}, failovers = {}, retries = {}",
        r.engine, r.failovers, r.retries
    );
    for f in &r.failures {
        println!("  failed: {f}");
    }
    if let Some(level) = r.resumed_level {
        println!("  warm-started from level {level}");
    }
    if opts.stats {
        println!("engine: {}", r.engine);
    }
    if opts.profile {
        print_profile(&r.report);
    }
    offer_to_cache(cached, &r.report, true);
    print_result(inst, opts, &r.report, true)
}
