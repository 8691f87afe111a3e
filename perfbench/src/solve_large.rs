//! `solve-large`: the offline path. One instance per (domain, k ∈
//! {18, 20}), solved through `orchestrate::run_batch` with no `solver=`
//! (the `ttsolve --batch` path) and through the engine `auto_select`
//! picks, each pass in a child process of its own. The gated time is
//! each answer's CPU time, calibrated ([`crate::calib`]).

use crate::calib::{self, Calibrator};
use crate::child::{manifest_items, parse_kv};
use crate::gen::{self, Oracle};
use crate::replay::{traced_supervise, Replayed};
use crate::report::{Report, PICKS};
use crate::stats::{fastest, median, summarize};
use crate::trace::Tracer;
use crate::{cpu, run_child, Ctx};
use std::collections::HashMap;
use std::time::Instant;
use tt_core::solver::select::{probe_reachable, PROBE_CAP, SPARSE_DIVISOR};
use tt_core::solver::{auto_select, lookup, Budget};
use tt_parallel::orchestrate::BatchItem;

/// Passes over the manifest in every run; each answer reports its median
/// calibrated CPU time over them.
const MIN_PASSES: usize = 3;
/// Timings of the set-up per run; `setup_s` is their median, calibrated.
const SETUPS: usize = 31;
/// Set-ups in one timing, which reports their mean: one set-up takes
/// about 0.3 ms, too short to time steadily on its own.
const SETUP_ROUNDS: usize = 8;

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let drafts = gen::solve_large(ctx.seed);
    let dir = ctx.state.join("instances");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut manifest = String::new();
    for d in &drafts {
        let path = dir.join(format!("{}.tt", d.id));
        std::fs::write(&path, &d.text).map_err(|e| e.to_string())?;
        manifest.push_str(&format!("{} id={}\n", path.display(), d.id));
    }
    let manifest_path = ctx.state.join("manifest.txt");
    std::fs::write(&manifest_path, &manifest).map_err(|e| e.to_string())?;
    let mpath = manifest_path.display().to_string();

    let mut oracle = Oracle::default();
    let reqs = gen::resolve(drafts, &mut oracle, 1)?;
    let expect: HashMap<String, u64> = reqs
        .iter()
        .map(|r| (r.draft.id.clone(), r.expect))
        .collect();
    rep.note(format!(
        "reference: {} instances solved with seq",
        oracle.solves
    ));

    // One untimed set-up first, so every timed one finds the instance
    // files in the page cache. Each timing is calibrated by a kernel run
    // at the smallest size just before it.
    setup(&manifest)?;
    let mut kernel = Calibrator::new(calib::MIN_K);
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let scale = kernel.scale(calib::MIN_K);
            Ok(setup(&manifest)? * scale)
        })
        .collect::<Result<_, String>>()?;

    // Untraced passes: at least MIN_PASSES, more while the run has time.
    // Each answer's calibrated CPU time is its median over the passes, so
    // outside load during one of the passes does not move the result.
    let started = Instant::now();
    let (mut batch_s, mut auto_s, mut pass_s, mut rss) = (vec![], vec![], vec![], 0f64);
    // Per answer: wall ms, CPU ms and calibrated CPU ms of every pass.
    let mut per_answer: HashMap<String, [Vec<f64>; 3]> = HashMap::new();
    let (mut failovers, mut retries) = (0u64, 0u64);
    loop {
        let pass = Instant::now();
        let out = run_child(&ctx.me, &["child-batch", &mpath])?;
        for line in out.lines() {
            let kv = parse_kv(line);
            let ns = |k: &str| {
                kv.get(k)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(f64::NAN)
            };
            let label = kv.get("label").copied().unwrap_or("");
            if line.starts_with("rec ") || line.starts_with("auto ") {
                rep.attempted += 1;
                let path = if line.starts_with("rec ") {
                    "batch"
                } else {
                    "auto"
                };
                let times = per_answer.entry(format!("{path} {label}")).or_default();
                times[0].push(ns("wall_ns") / 1e6);
                times[1].push(ns("cpu_ns") / 1e6);
                times[2].push(ns("cpu_ns") * ns("scale") / 1e6);
                let cost = kv.get("cost").and_then(|c| c.parse::<u64>().ok());
                let ok = kv.get("status").is_none_or(|s| *s == "ok")
                    && kv.get("complete").is_none_or(|c| *c == "true");
                if !ok {
                    rep.failed += 1;
                }
                if cost != expect.get(label).copied() {
                    rep.problem(format!("{line}: reference is {:?}", expect.get(label)));
                }
                failovers += ns("failovers").max(0.0) as u64;
                retries += ns("retries").max(0.0) as u64;
            } else if line.starts_with("batch_ns=") {
                batch_s.push(ns("batch_ns") / 1e9);
                auto_s.push(ns("auto_ns") / 1e9);
                pass_s.push((ns("batch_ns") + ns("auto_ns")) / 1e9);
                rss = rss.max(ns("hwm_kb") / 1024.0);
            }
        }
        if batch_s.len() >= MIN_PASSES && started.elapsed() + pass.elapsed() > ctx.secs {
            break;
        }
    }
    let answers: Vec<f64> = per_answer.values().map(|t| fastest(&t[0])).collect();
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let s = summarize(&answers).ok_or("no answers")?;
    let (batch, auto) = (median(&batch_s), median(&auto_s));
    rep.set(
        "cpu_ms",
        mean(per_answer.values().map(|t| median(&t[2])).collect()),
    );
    rep.note(format!(
        "uncalibrated CPU {:.3} ms per answer (median over passes)",
        mean(per_answer.values().map(|t| median(&t[1])).collect())
    ));
    rep.note(format!(
        "mean_ms {:.3} ms wall per answer; capacity_rps {:.4} answers/s over the fastest whole pass",
        mean(answers.clone()),
        answers.len() as f64 / fastest(&pass_s)
    ));
    rep.note(format!(
        "p50_ms {:.3} ms of {} answers (each the fastest of {} passes)",
        s.p50,
        s.n,
        batch_s.len()
    ));
    if let Some(t) = s.tail {
        rep.note(format!(
            "tail_ms {:.3} ms: p{:.1} of {} answers, {} beyond",
            t.value, t.pct, s.n, t.beyond
        ));
    }
    rep.set("peak_rss_mb", rss);
    rep.set("setup_s", median(&setups));
    rep.note(format!("batch_s {batch:.4} s (run_batch, default chain), auto_s {auto:.4} s (auto_select engine), medians over {} passes", batch_s.len()));
    rep.note(format!(
        "fail_pct {:.2} %",
        100.0 * rep.failed as f64 / rep.attempted.max(1) as f64
    ));
    rep.set("supervise.failovers", failovers as f64);
    rep.set("supervise.retries", retries as f64);

    if ctx.trace {
        traced(ctx, rep, &manifest, &expect)?;
        let items: Vec<(String, String, u64)> = reqs
            .iter()
            .filter(|r| r.draft.k == 18 || r.draft.id == "random-k20")
            .map(|r| (r.draft.id.clone(), r.draft.text.clone(), r.expect))
            .collect();
        crate::matrix(ctx, rep, &items)?;
        machines(ctx, rep)?;
    }
    Ok(())
}

/// The set-up the batch path pays before its first solve, in this
/// process: every manifest line parsed, its instance file read and
/// parsed, and its solver chain built (which registers the engines).
/// Returns the CPU seconds one set-up took, the mean of [`SETUP_ROUNDS`].
fn setup(manifest: &str) -> Result<f64, String> {
    let start = cpu::thread_ns();
    for _ in 0..SETUP_ROUNDS {
        for line in manifest.lines() {
            let item = BatchItem::parse(line).map_err(|e| e.to_string())?;
            let inst = item.load()?;
            std::hint::black_box(item.chain(&inst)?);
        }
    }
    Ok((cpu::thread_ns() - start) as f64 / 1e9 / SETUP_ROUNDS as f64)
}

/// The batch path of `run_batch`, one layer call at a time, with spans
/// when `t` is on. Returns its wall time in seconds.
fn batch_path(
    t: &mut Tracer,
    rep: &mut Report,
    manifest: &str,
    expect: &HashMap<String, u64>,
    seen: &mut Replayed,
) -> Result<f64, String> {
    let start = Instant::now();
    for (i, line) in manifest.lines().enumerate() {
        let rid = i as u64;
        t.enter("request", rid);
        let item = t
            .span("orchestrate.parse_item", rid, || BatchItem::parse(line))
            .map_err(|e| e.to_string())?;
        let inst = t.span("io.parse", rid, || item.load())?;
        let chain = t.span("orchestrate.chain", rid, || item.chain(&inst))?;
        let sup = traced_supervise(t, rid, &inst, &chain, &Budget::default(), &mut |_, _| {});
        t.exit();
        seen.add_solve(&sup);
        if Some(sup.report.cost.0) != expect.get(&item.label()).copied() {
            rep.problem(format!(
                "in-process batch {}: cost {}",
                item.label(),
                sup.report.cost.0
            ));
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The traced replay of both paths in this process. The batch path runs
/// untraced and then traced; the difference is the tracing overhead.
fn traced(
    ctx: &Ctx,
    rep: &mut Report,
    manifest: &str,
    expect: &HashMap<String, u64>,
) -> Result<(), String> {
    let plain = batch_path(
        &mut Tracer::off(),
        rep,
        manifest,
        expect,
        &mut Replayed::default(),
    )?;
    let mut t = Tracer::new(Instant::now());
    let mut seen = Replayed::default();
    let batch_traced = batch_path(&mut t, rep, manifest, expect, &mut seen)?;
    let engine_ns: u64 = seen.engine.values().map(|e| e.1).sum();
    let mut picks: HashMap<String, f64> = HashMap::new();
    let mut probe_ms = Vec::new();
    for (i, (path, label)) in manifest_items(manifest).into_iter().enumerate() {
        let rid = 100 + i as u64;
        t.enter("request", rid);
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let inst = t
            .span("io.parse", rid, || tt_core::io::from_text(&text))
            .map_err(|e| e.to_string())?;
        let pick = t.span("select.auto_select", rid, || auto_select(&inst));
        let engine = lookup(&pick.engine).ok_or("auto_select named an unknown engine")?;
        let r = t.span(&format!("engine.{}", pick.engine), rid, || {
            engine.solve(&inst)
        });
        t.exit();
        if Some(r.cost.0) != expect.get(&label).copied() {
            rep.problem(format!("traced auto {label}: cost {}", r.cost.0));
        }
        *picks.entry(pick.engine).or_default() += 1.0;
        // The probe alone, outside the path, for its own cost.
        let cap = ((1usize << inst.k()) / SPARSE_DIVISOR).clamp(1, PROBE_CAP);
        let p = Instant::now();
        std::hint::black_box(probe_reachable(&inst, cap));
        probe_ms.push(p.elapsed().as_secs_f64() * 1e3);
    }
    rep.set("select.probe_ms", median(&probe_ms));
    for e in PICKS {
        rep.set(
            format!("select.pick.{e}"),
            picks.get(*e).copied().unwrap_or(0.0),
        );
    }
    crate::layer_metrics(rep, &t, &seen, 20);
    // On the batch path: its wall time minus the summed engine time,
    // per instance.
    rep.set(
        "orchestrate.overhead_ms",
        (batch_traced * 1e9 - engine_ns as f64) / 1e6 / seen.solves.max(1) as f64,
    );
    rep.set(
        "trace.overhead_ms",
        (batch_traced - plain) * 1e3 / seen.solves.max(1) as f64,
    );
    crate::write_trace(ctx, &t)?;
    Ok(())
}

/// The machine primaries of the serve chain, `ccc` (k = 6) and `hyper`
/// (k = 12), on one instance per domain, each solve in a child process
/// and checked against `seq`.
fn machines(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut oracle = Oracle::default();
    for (engine, k) in [("ccc", 6usize), ("hyper", 12)] {
        let mut ms = Vec::new();
        for (di, d) in tt_workloads::catalog::Domain::all().into_iter().enumerate() {
            let text = tt_core::io::to_text(
                &d.generate(k, gen::mix(ctx.seed, &[99, di as u64, k as u64])),
            );
            let expect = oracle.optimum(&text)?;
            let path = ctx.state.join(format!("machine-{engine}-{di}.tt"));
            std::fs::write(&path, &text).map_err(|e| e.to_string())?;
            let out = run_child(
                &ctx.me,
                &["child-engine", engine, &path.display().to_string()],
            )?;
            let kv = parse_kv(out.trim());
            if kv.get("complete") != Some(&"true")
                || kv.get("cost").and_then(|c| c.parse::<u64>().ok()) != Some(expect)
            {
                rep.problem(format!(
                    "engine {engine} disagrees on {} k={k}: {out:?}, reference {expect}",
                    d.name()
                ));
            }
            ms.push(
                kv.get("wall_ns")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0)
                    / 1e6,
            );
        }
        rep.set(
            format!("engine.{engine}.solve_ms"),
            ms.iter().sum::<f64>() / ms.len() as f64,
        );
    }
    Ok(())
}
