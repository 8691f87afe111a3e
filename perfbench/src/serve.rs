//! The serve workloads, driving the real `ttserve` binary.
//!
//! The first server life takes the fixed-count phase (its VmHWM is
//! `peak_rss_mb`; the cache or journal directory it leaves is
//! `disk_mb`). Then the server is started over that state
//! [`SETUP_SPAWNS`] times (`setup_s` is the median time to the first
//! `pong`), and the last of those lives takes the open loop at the
//! workload's fixed rate and the closed loop that measures capacity and
//! the server's CPU time per exact answer (`cpu_ms`, calibrated).

use crate::calib::Calibrator;
use crate::gen::{self, Draft, Oracle, Phase, Req, Workload};
use crate::load::{capacity, closed_loop, open_loop, Sample, Status};
use crate::replay::{replay, Layers, Replayed};
use crate::report::{Report, ANSWERED};
use crate::server::{copy_dir, dir_bytes, Drained, Scrape, Server};
use crate::stats::{median, median_of_means, summarize};
use crate::trace::Tracer;
use crate::{cpu, Ctx, SETUP_SPAWNS};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What distinguishes one serve workload from another.
struct Plan {
    /// Closed-loop capacity, exact answers per second, measured on a
    /// 2-vCPU reference machine; the open loop's rate is a fixed share
    /// of it ([`OPEN_LOAD`]).
    capacity_rps: f64,
    /// Requests in the fixed-count phase.
    fixed: usize,
    /// Requests generated for the closed loop (it stops at its time).
    closed: usize,
    /// Server-side cache capacity, when the cache is on.
    cache: Option<usize>,
    /// Whether the cache persists to a directory.
    cache_dir: bool,
    journal: bool,
}

impl Plan {
    /// Open-loop requests per second.
    fn rate(&self) -> f64 {
        self.capacity_rps * OPEN_LOAD
    }
}

fn plan(w: Workload) -> Plan {
    match w {
        Workload::ServeCold => Plan {
            capacity_rps: 3.8,
            fixed: 11,
            closed: 300,
            cache: Some(4096),
            cache_dir: false,
            journal: false,
        },
        Workload::ServeCached => Plan {
            capacity_rps: 55.0,
            fixed: 150,
            closed: 2000,
            cache: Some(gen::CACHED_CAPACITY),
            cache_dir: true,
            journal: false,
        },
        Workload::ServeKeyed => Plan {
            capacity_rps: 9.5,
            fixed: 16,
            closed: 400,
            cache: None,
            cache_dir: false,
            journal: true,
        },
        Workload::SolveLarge | Workload::ServePath => {
            unreachable!("{} has no live server of its own", w.name())
        }
    }
}

/// Calibration kernel runs just before and just after the closed loop;
/// the server's CPU time is scaled by the median of all of them.
const CALIB_RUNS: usize = 11;

/// The open loop's offered load as a share of the closed-loop capacity.
/// Low enough that queueing stays small when the machine slows down
/// for a while: at 30 % a halving of speed raises the utilisation to
/// 60 %, not past saturation.
const OPEN_LOAD: f64 = 0.3;

/// Share of `--seconds` the open loop gets (the closed loop gets the rest).
const OPEN_SHARE: f64 = 0.7;

pub fn run(ctx: &Ctx, w: Workload, rep: &mut Report) -> Result<(), String> {
    let p = plan(w);
    let secs = ctx.secs.as_secs_f64();
    let rate = p.rate();
    let mut n_open = (rate * secs * OPEN_SHARE).round().max(1.0) as usize;
    if w == Workload::ServeCold {
        // Whole blocks of the k band, so the open loop's mix is fixed.
        n_open = n_open.div_ceil(gen::COLD_BAND) * gen::COLD_BAND;
    }
    let fixed = gen::serve_stream(w, ctx.seed, Phase::Fixed, p.fixed, &[]);
    let open = gen::serve_stream(w, ctx.seed, Phase::Open, n_open, &fixed);
    let prior: Vec<Draft> = fixed.iter().chain(open.iter()).cloned().collect();
    let closed = if ctx.trace {
        Vec::new()
    } else {
        gen::serve_stream(w, ctx.seed, Phase::Closed, p.closed, &prior)
    };
    let mut oracle = Oracle::default();
    let fixed = gen::resolve(fixed, &mut oracle, 16)?;
    let open = gen::resolve(open, &mut oracle, 16)?;
    let closed = gen::resolve(closed, &mut oracle, 16)?;
    rep.note(format!(
        "reference: {} distinct instances solved with seq",
        oracle.solves
    ));

    let cache_dir = ctx.state.join("cache");
    let journal_dir = ctx.state.join("journal");
    let mut args: Vec<String> = Vec::new();
    if let Some(cap) = p.cache {
        args.extend(["--cache-capacity".to_string(), cap.to_string()]);
    }
    if p.cache_dir {
        args.extend(["--cache".to_string(), cache_dir.display().to_string()]);
    }
    if p.journal {
        args.extend(["--journal".to_string(), journal_dir.display().to_string()]);
    }
    let state_dir: Option<PathBuf> = if p.cache_dir {
        Some(cache_dir.clone())
    } else if p.journal {
        Some(journal_dir.clone())
    } else {
        None
    };

    // Life 1: the fixed-count phase writes the state.
    let (server, _) = Server::spawn(&ctx.ttserve, &args)?;
    let (samples, _) = closed_loop(server.addr, &fixed, ctx.clients, None);
    account(rep, &fixed, &samples);
    let peak_rss = server.peak_rss_mb()?;
    check_drained(rep, "fixed-count life", server.drain()?);
    let disk_mb = state_dir
        .as_ref()
        .map_or(0.0, |d| dir_bytes(d) as f64 / 1e6);

    // Set-up over that state; the last life stays up.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUP_SPAWNS {
        let (s, took) = Server::spawn(&ctx.ttserve, &args)?;
        setups.push(took.as_secs_f64());
        if i + 1 < SETUP_SPAWNS {
            check_drained(rep, "set-up life", s.drain()?);
        } else {
            live = Some(s);
        }
    }
    let server = live.expect("at least one set-up spawn");
    rep.set("setup_s", median(&setups));
    rep.set("peak_rss_mb", peak_rss);
    rep.note(format!(
        "disk_mb {disk_mb:.4} MB ({})",
        state_dir
            .as_ref()
            .map_or("no state directory".into(), |d| d.display().to_string())
    ));

    if ctx.trace {
        traced(
            ctx,
            &p,
            rep,
            server,
            &fixed,
            &open,
            &cache_dir,
            &journal_dir,
        )?;
        rep.set(
            "store.segment_bytes",
            if p.cache_dir { disk_mb * 1e6 } else { 0.0 },
        );
        return Ok(());
    }

    let s0 = server.scrape()?;
    let (open_samples, _) = open_loop(server.addr, &open, rate, ctx.clients, None);
    account(rep, &open, &open_samples);
    let limit = Duration::from_secs_f64(secs * (1.0 - OPEN_SHARE));
    // The server's CPU time is calibrated by kernel runs at k = 16 (the
    // size of most requests) just before and after the closed loop.
    let mut calib = Calibrator::new(16);
    let mut scales: Vec<f64> = (0..CALIB_RUNS).map(|_| calib.scale(16)).collect();
    let cpu0 = cpu::of_pid_ns(server.pid())?;
    let (closed_samples, elapsed) = closed_loop(server.addr, &closed, ctx.clients, Some(limit));
    let server_cpu_ns = cpu::of_pid_ns(server.pid())? - cpu0;
    scales.extend((0..CALIB_RUNS).map(|_| calib.scale(16)));
    account(rep, &closed, &closed_samples);
    if closed_samples.len() == closed.len() {
        rep.note(format!(
            "closed loop ran out of its {} generated requests",
            closed.len()
        ));
    }
    let s1 = server.scrape()?;
    check_scrape(rep, &s1);
    check_drained(rep, "measured life", server.drain()?);

    let lat: Vec<f64> = open_samples.iter().map(|s| s.latency_ms).collect();
    let sum = summarize(&lat).ok_or("no open-loop samples")?;
    rep.note(format!("mean_ms {:.3} ms", median_of_means(&lat)));
    rep.note(format!(
        "p50_ms {:.3} ms of {} requests at {rate:.2} req/s",
        sum.p50, sum.n
    ));
    match sum.tail {
        Some(t) => rep.note(format!(
            "tail_ms {:.3} ms: p{:.1} of {} requests, {} beyond",
            t.value, t.pct, sum.n, t.beyond
        )),
        None => rep.note(format!("tail_ms: none, only {} open-loop requests", sum.n)),
    }
    let exact = closed_samples
        .iter()
        .filter(|s| s.status == Status::Exact)
        .count();
    let cap = capacity(&closed_samples);
    rep.note(format!("capacity_rps {cap:.3} exact answers/s"));
    let server_cpu_ms = server_cpu_ns as f64 / 1e6 / exact.max(1) as f64;
    rep.set("cpu_ms", server_cpu_ms * median(&scales));
    rep.note(format!(
        "uncalibrated server CPU {server_cpu_ms:.3} ms per exact answer"
    ));
    let late: Vec<f64> = open_samples.iter().map(|s| s.lateness_ms).collect();
    rep.note(format!(
        "open loop: {} requests at {rate:.2} req/s ({:.0} % of the {} req/s reference capacity, {:.0} % of this run's), 1 s deadline, {} clients; gen.lateness_ms median {:.3}, max {:.3}",
        open_samples.len(),
        100.0 * OPEN_LOAD,
        p.capacity_rps,
        100.0 * rate / cap,
        ctx.clients,
        median(&late),
        late.iter().copied().fold(0.0, f64::max)
    ));
    rep.note(format!(
        "closed loop: {} requests, {exact} exact in {:.3} s",
        closed_samples.len(),
        elapsed.as_secs_f64()
    ));
    rep.note(format!(
        "fail_pct {:.2} %",
        100.0 * rep.failed as f64 / rep.attempted.max(1) as f64
    ));
    let all: Vec<&Sample> = open_samples.iter().chain(closed_samples.iter()).collect();
    rep.note(format!("answered by: {}", shares(&all)));
    rep.note(format!(
        "scrape deltas: cache hits {} misses {} evictions {}, journal appends {} rotations {}",
        s1.delta(&s0, "ttcache_hits"),
        s1.delta(&s0, "ttcache_misses"),
        s1.delta(&s0, "ttcache_evictions"),
        s1.delta(&s0, "ttserve_journal_appends_total"),
        s1.delta(&s0, "ttserve_journal_rotations_total")
    ));
    Ok(())
}

/// Counts attempts and failures; wrong answers are problems.
fn account(rep: &mut Report, reqs: &[Req], samples: &[Sample]) {
    rep.attempted += samples.len() as u64;
    for s in samples {
        match &s.status {
            Status::Exact => {}
            Status::Wrong(why) => {
                rep.failed += 1;
                rep.problem(format!("wrong answer: {why}"));
            }
            other => {
                rep.failed += 1;
                if rep.notes.len() < 40 {
                    rep.note(format!(
                        "failed {} (k={}): {other:?}",
                        reqs[s.index].draft.id, reqs[s.index].draft.k
                    ));
                }
            }
        }
    }
}

fn check_drained(rep: &mut Report, life: &str, d: Drained) {
    if !d.balanced() {
        rep.problem(format!("{life}: books do not balance after drain: {d:?}"));
    }
}

fn check_scrape(rep: &mut Report, s: &Scrape) {
    if !s.balanced() {
        rep.problem(format!("final scrape does not balance: {:?}", s.0));
    }
}

fn shares(samples: &[&Sample]) -> String {
    let n = samples.len().max(1) as f64;
    ANSWERED
        .iter()
        .map(|e| {
            format!(
                "{e} {:.3}",
                samples.iter().filter(|s| s.engine == *e).count() as f64 / n
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The traced run: the live open loop with client spans and scrape
/// deltas around it, then the in-process replay of the layers, and the
/// engine matrix. The replay runs twice over fresh state, traced and
/// then untraced on the same requests; the difference in its wall time
/// is the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    p: &Plan,
    rep: &mut Report,
    server: Server,
    fixed: &[Req],
    open: &[Req],
    cache_dir: &std::path::Path,
    journal_dir: &std::path::Path,
) -> Result<(), String> {
    let s0 = server.scrape()?;
    let (traced, client_trace) = open_loop(
        server.addr,
        open,
        p.rate(),
        ctx.clients,
        Some(Instant::now()),
    );
    account(rep, open, &traced);
    let s1 = server.scrape()?;
    check_scrape(rep, &s1);
    let drained = server.drain()?;
    check_drained(rep, "measured life", drained);

    let late: Vec<f64> = traced.iter().map(|s| s.lateness_ms).collect();
    rep.set(
        "gen.lateness_ms",
        summarize(&late).map_or(0.0, |s| s.tail.map_or(s.p50, |t| t.value)),
    );
    let d = |name: &str| s1.delta(&s0, name);
    let n = traced.len().max(1) as f64;
    let per = |sum: &str, count: &str| {
        if d(count) > 0.0 {
            d(sum) / d(count) / 1e6
        } else {
            0.0
        }
    };
    let request_ms = per("ttserve_request_nanos_sum", "ttserve_request_nanos_count");
    rep.set("server.request_ms", request_ms);
    rep.set(
        "server.solve_ms",
        per("ttserve_solve_nanos_sum", "ttserve_solve_nanos_count"),
    );
    let service = median(&traced.iter().map(|s| s.service_ms).collect::<Vec<_>>());
    let mean_service = traced.iter().map(|s| s.service_ms).sum::<f64>() / n;
    rep.set("server.admit_wait_ms", mean_service - request_ms);
    rep.set("server.queue_peak", drained.queue_peak as f64);
    rep.set("server.shed", d("ttserve_shed_total"));
    rep.set("server.degraded", d("ttserve_degraded_total"));
    let lookups = d("ttcache_hits") + d("ttcache_misses");
    rep.set(
        "store.hit_ratio",
        if lookups > 0.0 {
            d("ttcache_hits") / lookups
        } else {
            0.0
        },
    );
    rep.set("store.evictions", d("ttcache_evictions"));
    rep.set("journal.rotations", d("ttserve_journal_rotations_total"));
    let keyed = traced
        .iter()
        .filter(|s| open[s.index].draft.key.is_some())
        .count() as f64;
    rep.set(
        "journal.appends_per_request",
        if keyed > 0.0 {
            d("ttserve_journal_appends_total") / keyed
        } else {
            0.0
        },
    );
    let all: Vec<&Sample> = traced.iter().collect();
    for e in ANSWERED {
        rep.set(
            format!("chain.answered.{e}"),
            all.iter().filter(|s| s.engine == *e).count() as f64 / n,
        );
    }
    rep.set(
        "supervise.failovers",
        traced.iter().map(|s| s.failovers).sum::<u64>() as f64,
    );
    rep.set(
        "supervise.retries",
        traced.iter().map(|s| s.retries).sum::<u64>() as f64,
    );
    rep.set(
        "proto.request_bytes",
        traced.iter().map(|s| s.request_bytes).sum::<usize>() as f64 / n,
    );
    rep.set(
        "proto.response_bytes",
        traced.iter().map(|s| s.response_bytes).sum::<usize>() as f64 / n,
    );
    rep.note(format!("live traced open loop: client service median {service:.3} ms, server request mean {request_ms:.3} ms"));

    // Replay of the layers in this process, over fresh state.
    let mut t = client_trace.unwrap_or_else(|| Tracer::new(Instant::now()));
    let reqs: Vec<Req> = fixed.iter().chain(open.iter()).cloned().collect();
    let mut problems = Vec::new();
    let (seen, traced_s) =
        replay_fresh(ctx, p, "replay", &mut t, &reqs, ctx.secs / 3, &mut problems)?;
    let (_, plain_s) = replay_fresh(
        ctx,
        p,
        "replay-plain",
        &mut Tracer::off(),
        &reqs[..seen.requests],
        Duration::MAX,
        &mut problems,
    )?;
    for problem in problems {
        rep.problem(problem);
    }
    rep.set(
        "trace.overhead_ms",
        (traced_s - plain_s) * 1e3 / seen.requests.max(1) as f64,
    );
    rep.note(format!(
        "replay: {} of {} requests through the layers in-process, {} solves, {} cache hits; {traced_s:.3} s traced, {plain_s:.3} s untraced",
        seen.requests,
        reqs.len(),
        seen.solves,
        seen.hits
    ));
    crate::layer_metrics(rep, &t, &seen, seen.requests);
    if let (Some(h), Some(c)) = (seen.engine.get("hyper"), seen.engine.get("ccc")) {
        rep.note(format!(
            "replay engines: hyper {} solves, ccc {} solves",
            h.0, c.0
        ));
    }
    rep.set(
        "journal.bytes_per_request",
        if seen.keyed_new > 0 {
            seen.journal_bytes as f64 / seen.keyed_new as f64
        } else {
            0.0
        },
    );
    if seen.checkpoint_bytes.0 > 0 {
        rep.set(
            "checkpoint.bytes",
            seen.checkpoint_bytes.1 as f64 / seen.checkpoint_bytes.0 as f64,
        );
    }
    // Replay of the state the fixed-count life left, on a copy.
    if p.cache_dir {
        let copy = ctx.state.join("cache-copy");
        let times = (0..3)
            .map(|_| {
                copy_dir(cache_dir, &copy)?;
                let t = Instant::now();
                tt_cache::SolutionCache::open(&copy, p.cache.unwrap_or(0))
                    .map_err(|e| e.to_string())?;
                Ok(t.elapsed().as_secs_f64())
            })
            .collect::<Result<Vec<f64>, String>>()?;
        rep.set("store.replay_s", median(&times));
    }
    if p.journal {
        let copy = ctx.state.join("journal-copy");
        let times = (0..3)
            .map(|_| {
                copy_dir(journal_dir, &copy)?;
                let t = Instant::now();
                tt_serve::journal::Journal::open(&copy).map_err(|e| e.to_string())?;
                Ok(t.elapsed().as_secs_f64())
            })
            .collect::<Result<Vec<f64>, String>>()?;
        rep.set("journal.replay_s", median(&times));
    }
    crate::write_trace(ctx, &t)?;

    // The engine matrix on this workload's largest instances.
    let kmax = fixed
        .iter()
        .chain(open.iter())
        .map(|r| r.draft.k)
        .max()
        .unwrap_or(0);
    let mut items: Vec<(String, String, u64)> = Vec::new();
    for r in fixed
        .iter()
        .chain(open.iter())
        .filter(|r| r.draft.k == kmax)
    {
        if items.len() < 5 && !items.iter().any(|(_, t, _)| *t == r.draft.base) {
            items.push((
                r.draft.id.clone(),
                r.draft.base.clone(),
                r.expect / r.draft.scale,
            ));
        }
    }
    crate::matrix(ctx, rep, &items)
}

/// Replays `reqs` over fresh server-side state in a directory `dir` of
/// the run's state; returns what the replay saw and its wall time in
/// seconds.
fn replay_fresh(
    ctx: &Ctx,
    p: &Plan,
    dir: &str,
    t: &mut Tracer,
    reqs: &[Req],
    budget: Duration,
    problems: &mut Vec<String>,
) -> Result<(Replayed, f64), String> {
    let rdir = ctx.state.join(dir);
    let _ = std::fs::remove_dir_all(&rdir);
    let mut layers = Layers::new(
        p.cache,
        p.cache_dir.then(|| rdir.join("cache")).as_deref(),
        p.journal.then(|| rdir.join("journal")).as_deref(),
    )?;
    let start = Instant::now();
    let seen = replay(t, reqs, &mut layers, budget, problems)?;
    Ok((seen, start.elapsed().as_secs_f64()))
}
