//! `serve-path`: serve-cached's requests through `ttserve`'s request
//! path, in the benchmark's own processes: `Request::decode` →
//! `io::from_text` → `SolutionCache::lookup_report` → default chain and
//! supervision → `insert_report` → `Response::encode`, one request at a
//! time, with the cache on disk at serve-cached's capacity.
//!
//! It measures what serve-cached measures through the live server
//! (canonicalization, the store, proto and the solves of misses) with
//! no sockets, threads or queue between the layers, so a run holds its
//! figures when the machine's other tenants take CPU time, which moves
//! the live workloads' latency by far more than their bounds. Each pass
//! runs in a child process over a fresh cache directory (its VmHWM is
//! `peak_rss_mb`), and each request's time is its median calibrated CPU
//! time over the passes ([`crate::calib`] says why).
//!
//! The traced run measures the layers a live server adds: it runs the
//! serve-cached and serve-keyed traced runs with half the time each and
//! reports the journal and checkpoint layers from serve-keyed, every
//! other layer from serve-cached.

use crate::calib::{self, Calibrator};
use crate::child::parse_kv;
use crate::gen::{self, Oracle, Workload};
use crate::report::Report;
use crate::server::copy_dir;
use crate::stats::{fastest, median};
use crate::{cpu, run_child, serve, Ctx};
use std::time::Instant;

/// Passes over the requests in every run; each request reports its
/// median calibrated CPU time over them.
const MIN_PASSES: usize = 3;
/// Timed opens of the cache directory per run; `setup_s` is their
/// median, calibrated.
const SETUPS: usize = 31;

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    if ctx.trace {
        return traced(ctx, rep);
    }
    let mut oracle = Oracle::default();
    let reqs = gen::resolve(gen::path_stream(ctx.seed), &mut oracle, 16)?;
    rep.note(format!(
        "reference: {} distinct instances solved with seq",
        oracle.solves
    ));
    let expects: String = reqs.iter().map(|r| format!("{}\n", r.expect)).collect();
    let expect_path = ctx.state.join("expect.txt");
    std::fs::write(&expect_path, expects).map_err(|e| e.to_string())?;
    let seed = ctx.seed.to_string();
    let expect_arg = expect_path.display().to_string();

    let started = Instant::now();
    // Per request: wall ms, CPU ms and calibrated CPU ms of every pass.
    let mut per_req: Vec<[Vec<f64>; 3]> = vec![Default::default(); reqs.len()];
    let (mut pass_s, mut rss, mut hits) = (Vec::new(), 0f64, 0f64);
    let mut last_dir = ctx.state.join("pass-0");
    for pass in 0.. {
        let t = Instant::now();
        let dir = ctx.state.join(format!("pass-{pass}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let out = run_child(
            &ctx.me,
            &["child-path", &seed, &expect_arg, &dir.display().to_string()],
        )?;
        // The pass's wall time: its requests', without the kernel runs.
        let mut pass_ms = 0.0;
        for line in out.lines() {
            if let Some(p) = line.strip_prefix("problem ") {
                rep.problem(p.to_string());
                continue;
            }
            let kv = parse_kv(line);
            let num = |k: &str| kv.get(k).and_then(|v| v.parse::<f64>().ok());
            if line.starts_with("req ") {
                let i = num("i").ok_or("a req line without i")? as usize;
                let times = per_req.get_mut(i).ok_or("a req line past the requests")?;
                let cpu_ms = num("cpu_ns").unwrap_or(f64::NAN) / 1e6;
                times[0].push(num("ns").unwrap_or(f64::NAN) / 1e6);
                times[1].push(cpu_ms);
                times[2].push(cpu_ms * num("scale").unwrap_or(f64::NAN));
                pass_ms += num("ns").unwrap_or(f64::NAN) / 1e6;
            } else if line.starts_with("pass ") {
                if num("requests") != Some(reqs.len() as f64) {
                    rep.problem(format!("pass {pass} replayed a short stream: {line}"));
                }
                rep.attempted += reqs.len() as u64;
                rep.failed += num("degraded").unwrap_or(0.0) as u64;
                pass_s.push(pass_ms / 1e3);
                rss = rss.max(num("hwm_kb").unwrap_or(0.0) / 1024.0);
                hits = num("hits").unwrap_or(0.0);
            }
        }
        if pass > 0 {
            let _ = std::fs::remove_dir_all(&last_dir);
        }
        last_dir = dir;
        if pass_s.len() >= MIN_PASSES && started.elapsed() + t.elapsed() > ctx.secs {
            break;
        }
    }
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    rep.set(
        "cpu_ms",
        mean(per_req.iter().map(|t| median(&t[2])).collect()),
    );
    rep.note(format!(
        "uncalibrated CPU {:.3} ms per request (median over passes)",
        mean(per_req.iter().map(|t| median(&t[1])).collect())
    ));
    rep.note(format!(
        "mean_ms {:.3} ms wall per request; capacity_rps {:.3} requests/s over the fastest pass",
        mean(per_req.iter().map(|t| fastest(&t[0])).collect()),
        reqs.len() as f64 / fastest(&pass_s)
    ));
    rep.set("peak_rss_mb", rss);

    // Set-up: opening the cache directory the last pass left, which
    // replays its segments, as a server start over it does. Each timing
    // is calibrated by a kernel run at the smallest size just before it.
    let copy = ctx.state.join("cache-copy");
    let mut kernel = Calibrator::new(calib::MIN_K);
    let setups = (0..SETUPS)
        .map(|_| {
            copy_dir(&last_dir.join("cache"), &copy)?;
            let scale = kernel.scale(calib::MIN_K);
            let t = cpu::thread_ns();
            tt_cache::SolutionCache::open(&copy, gen::CACHED_CAPACITY)
                .map_err(|e| e.to_string())?;
            Ok((cpu::thread_ns() - t) as f64 / 1e9 * scale)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    rep.set("setup_s", median(&setups));
    rep.note(format!(
        "{} requests per pass, {} passes (fastest {:.3} s, median {:.3} s), {hits} cache hits per pass",
        reqs.len(),
        pass_s.len(),
        fastest(&pass_s),
        median(&pass_s)
    ));
    rep.note(format!(
        "fail_pct {:.2} %",
        100.0 * rep.failed as f64 / rep.attempted.max(1) as f64
    ));
    Ok(())
}

/// Per-layer metrics serve-path takes from the serve-keyed traced run.
const FROM_KEYED: &[&str] = &[
    "journal.",
    "checkpoint.",
    "self_ms.journal",
    "self_ms.checkpoint",
];

fn traced(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut keyed = Report::default();
    for (w, r) in [
        (Workload::ServeCached, &mut *rep),
        (Workload::ServeKeyed, &mut keyed),
    ] {
        let sub = Ctx {
            workload: w,
            secs: ctx.secs / 2,
            state: ctx.state.join(w.name()),
            ..ctx.clone()
        };
        std::fs::create_dir_all(&sub.state).map_err(|e| e.to_string())?;
        serve::run(&sub, w, r)?;
    }
    rep.attempted += keyed.attempted;
    rep.failed += keyed.failed;
    rep.problems.extend(keyed.problems);
    rep.notes
        .extend(keyed.notes.into_iter().map(|n| format!("serve-keyed: {n}")));
    for (name, v) in keyed.values {
        if FROM_KEYED.iter().any(|p| name.starts_with(p)) {
            rep.set(name, v);
        }
    }
    Ok(())
}
