//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <solve-large|serve-path|serve-cached|serve-keyed|serve-cold>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --root <checkout> --ttserve <path to the ttserve binary>
//! ```
//!
//! `perfbench/run.py` builds this binary and `ttserve` from source and
//! runs it. The run generates the workload's inputs from the seed,
//! computes every reference optimum with `seq`, measures, checks every
//! answer, and prints human-readable lines followed by one JSON result
//! line: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics. A wrong answer, an engine disagreement or an unbalanced
//! accounting identity makes the result `"correct": false` and the exit
//! code 3. `METRICS.md` defines every metric.

mod calib;
mod child;
mod cpu;
mod gen;
mod load;
mod replay;
mod report;
mod serve;
mod serve_path;
mod server;
mod solve_large;
mod stats;
mod trace;

use child::parse_kv;
use gen::Workload;
use report::{Report, MATRIX, MAX_LEVEL, SELF_LAYERS};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;
use trace::Tracer;

/// Server starts timed per serve run; `setup_s` is their median. A
/// start takes a few milliseconds, so one is not enough to be steady.
pub const SETUP_SPAWNS: usize = 11;

/// One run's settings.
#[derive(Clone)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub secs: Duration,
    pub trace: bool,
    /// Client threads: `nproc`, at most 2.
    pub clients: usize,
    pub ttserve: PathBuf,
    /// This binary, for child processes.
    pub me: PathBuf,
    /// Scratch state of this run, removed at the end.
    pub state: PathBuf,
    /// Where span traces are written.
    pub out: PathBuf,
}

fn usage() -> String {
    "usage: perfbench --workload <solve-large|serve-path|serve-cached|serve-keyed|serve-cold> --seed <n> \
     --seconds <s> --trace <0|1> --root <dir> --ttserve <path>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))?;
        args.get(i + 1).cloned().ok_or_else(usage)
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload)
        .ok_or_else(|| format!("unknown workload {workload}\n{}", usage()))?;
    let seed = get("--seed")?.parse().map_err(|_| usage())?;
    let secs: f64 = get("--seconds")?.parse().map_err(|_| usage())?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err(usage()),
    };
    let root = PathBuf::from(get("--root")?);
    let ttserve = PathBuf::from(get("--ttserve")?);
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    Ok(Ctx {
        workload,
        seed,
        secs: Duration::from_secs_f64(secs.max(1.0)),
        trace,
        clients,
        ttserve,
        me,
        state: root.join(".bench_state").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        out: root.join(".bench_out"),
    })
}

/// Runs a child of this binary to completion and returns its stdout.
pub fn run_child(me: &PathBuf, args: &[&str]) -> Result<String, String> {
    let out = Command::new(me)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// The same-instance engine matrix: every engine of [`MATRIX`] on every
/// item, each solve in its own child process so that one engine's peak
/// memory cannot mask another's. All engines must agree with the
/// reference.
pub fn matrix(ctx: &Ctx, rep: &mut Report, items: &[(String, String, u64)]) -> Result<(), String> {
    let mut paths = Vec::new();
    for (i, (_, text, _)) in items.iter().enumerate() {
        let p = ctx.state.join(format!("matrix-{i}.tt"));
        std::fs::write(&p, text).map_err(|e| e.to_string())?;
        paths.push(p.display().to_string());
    }
    for e in MATRIX {
        let (mut wall_ns, mut subsets, mut hwm_kb) = (0f64, 0f64, 0f64);
        for ((label, _, expect), path) in items.iter().zip(&paths) {
            let out = run_child(&ctx.me, &["child-engine", e, path])?;
            let kv = parse_kv(out.trim());
            let num = |k: &str| kv.get(k).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
            if kv.get("complete") != Some(&"true")
                || kv.get("cost").and_then(|c| c.parse::<u64>().ok()) != Some(*expect)
            {
                rep.problem(format!(
                    "engine {e} disagrees on {label}: {out:?}, reference {expect}"
                ));
            }
            wall_ns += num("wall_ns");
            subsets += num("subsets");
            hwm_kb = hwm_kb.max(num("hwm_kb"));
            if label == "random-k20" {
                rep.note(format!(
                    "cross-check random k=20: {e} {:.1} ms, peak {:.1} MB",
                    num("wall_ns") / 1e6,
                    num("hwm_kb") / 1024.0
                ));
            }
        }
        let n = items.len().max(1) as f64;
        rep.set(format!("engine.{e}.solve_ms"), wall_ns / 1e6 / n);
        rep.set(format!("engine.{e}.peak_rss_mb"), hwm_kb / 1024.0);
        rep.set(
            format!("engine.{e}.cells_per_s"),
            if wall_ns > 0.0 {
                subsets / (wall_ns / 1e9)
            } else {
                0.0
            },
        );
    }
    rep.note(format!(
        "engine matrix: {} engines x {} instances ({})",
        MATRIX.len(),
        items.len(),
        items
            .iter()
            .map(|i| i.0.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(())
}

/// Per-layer call times and self times from a replay trace.
pub fn layer_metrics(rep: &mut Report, t: &Tracer, seen: &replay::Replayed, requests: usize) {
    let layers = t.layers();
    let mean = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 / l.calls as f64)
    };
    let canon = mean("canon.canonicalize");
    rep.set("io.parse_us", mean("io.parse") / 1e3);
    rep.set("proto.decode_us", mean("proto.decode") / 1e3);
    rep.set("proto.encode_us", mean("proto.encode") / 1e3);
    rep.set("canon.canonicalize_us", canon / 1e3);
    rep.set(
        "canon.decanonicalize_us",
        mean("canon.decanonicalize") / 1e3,
    );
    // Both store calls canonicalize inside; the store's own share is
    // the call minus a canonicalization.
    rep.set(
        "store.lookup_us",
        (mean("store.lookup") - canon).max(0.0) / 1e3,
    );
    rep.set(
        "store.insert_us",
        (mean("store.insert") - canon).max(0.0) / 1e3,
    );
    rep.set("journal.append_us", mean("journal.append") / 1e3);
    rep.set("journal.rotate_ms", mean("journal.rotate") / 1e6);
    rep.set("checkpoint.to_text_us", mean("checkpoint.to_text") / 1e3);
    let solves = seen.solves.max(1) as f64;
    for (e, (n, ns)) in &seen.engine {
        if e == "hyper" || e == "ccc" {
            rep.set(format!("engine.{e}.solve_ms"), *ns as f64 / *n as f64 / 1e6);
        }
    }
    for j in 1..=MAX_LEVEL {
        rep.set(
            format!("dp.level_ms.{j}"),
            seen.level_ns.get(j).copied().unwrap_or(0) as f64 / solves / 1e6,
        );
    }
    let path_ns: u64 = layers
        .iter()
        .filter(|(n, _)| n.starts_with("orchestrate.") || *n == "supervise")
        .map(|(_, l)| l.total_ns)
        .sum();
    let engine_ns: u64 = seen.engine.values().map(|e| e.1).sum();
    rep.set(
        "orchestrate.overhead_ms",
        (path_ns as f64 - engine_ns as f64).max(0.0) / solves / 1e6,
    );
    let per_layer =
        |layers: &std::collections::BTreeMap<String, trace::LayerTime>| -> Vec<(u64, &str)> {
            SELF_LAYERS
                .iter()
                .map(|l| {
                    let ns = layers
                        .iter()
                        .filter(|(n, _)| n.as_str() == *l || n.starts_with(&format!("{l}.")))
                        .map(|(_, v)| v.self_ns)
                        .sum();
                    (ns, *l)
                })
                .collect()
        };
    let shares = |mut v: Vec<(u64, &str)>| -> String {
        v.sort_unstable_by(|a, b| b.cmp(a));
        let total = v.iter().map(|s| s.0).sum::<u64>().max(1) as f64;
        v.iter()
            .map(|(ns, l)| format!("{l} {:.1}%", 100.0 * *ns as f64 / total))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let all = per_layer(&layers);
    for (ns, l) in &all {
        rep.set(
            format!("self_ms.{l}"),
            *ns as f64 / requests.max(1) as f64 / 1e6,
        );
    }
    rep.note(format!("self time by layer: {}", shares(all)));
    let hits = t.requests("store.lookup", "supervise");
    if !hits.is_empty() {
        let on_hits = per_layer(&t.layers_of(|r| hits.contains(&r)));
        rep.note(format!(
            "self time by layer on {} cache hits: {}",
            hits.len(),
            shares(on_hits)
        ));
    }
    rep.note(
        "limit: the replay calls each layer once per request in server.rs order; how often \
         ttserve itself calls each layer per request is internal to the program",
    );
}

/// Writes the spans of this run as JSON lines.
pub fn write_trace(ctx: &Ctx, t: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.out).map_err(|e| e.to_string())?;
    let path = ctx.out.join(format!(
        "trace-{}-seed{}.jsonl",
        ctx.workload.name(),
        ctx.seed
    ));
    std::fs::write(&path, t.to_jsonl()).map_err(|e| e.to_string())
}

fn run(ctx: &Ctx) -> Result<Report, String> {
    stats::self_test().map_err(|e| format!("percentile self-test: {e}"))?;
    let fp = gen::self_test(ctx.workload, ctx.seed)?;
    tt_parallel::register_engines();
    let mut rep = Report::default();
    rep.note(format!(
        "workload {} seed {} ({} s, trace {}), request stream {fp:016x}, {} client threads",
        ctx.workload.name(),
        ctx.seed,
        ctx.secs.as_secs_f64(),
        u8::from(ctx.trace),
        ctx.clients
    ));
    let _ = std::fs::remove_dir_all(&ctx.state);
    std::fs::create_dir_all(&ctx.state).map_err(|e| e.to_string())?;
    let result = match ctx.workload {
        Workload::SolveLarge => solve_large::run(ctx, &mut rep),
        Workload::ServePath => serve_path::run(ctx, &mut rep),
        w => serve::run(ctx, w, &mut rep),
    };
    let _ = std::fs::remove_dir_all(&ctx.state);
    result.map(|()| rep)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a.starts_with("child-")) {
        if let Err(e) = child::main(&args) {
            eprintln!("perfbench child: {e}");
            std::process::exit(2);
        }
        return;
    }
    let ctx = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let rep = match run(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for n in &rep.notes {
        println!("# {n}");
    }
    if ctx.trace {
        for (name, unit) in report::per_layer() {
            println!(
                "# {name} = {} {unit}",
                rep.values.get(&name).copied().unwrap_or(0.0)
            );
        }
    }
    for p in &rep.problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    match rep.result_line(ctx.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
    if !rep.problems.is_empty() {
        std::process::exit(3);
    }
}
