//! The process-level chaos harness: SIGKILL the server under load,
//! restart it, and prove nothing was lost.
//!
//! A supervisor spawns a real `ttserve serve --journal …` child
//! process, lets closed-loop clients (each request carrying a distinct
//! idempotency key) work against it, and kills the child with SIGKILL
//! at jittered instants — mid-frame, mid-solve, and (every few cycles)
//! mid-drain — then restarts it on the same address and journal
//! directory. Clients retry transport errors and typed refusals with
//! the same key until they hold a result.
//!
//! After the kill loop the harness asserts the
//! **exactly-once-equivalent invariant**:
//!
//! 1. every client holds exactly one result per key;
//! 2. each complete result's semantic hash matches a cold in-process
//!    reference solve of the same instance;
//! 3. the journal audits clean — every key has exactly one `completed`
//!    entry whose hash matches what the client saw, no orphan or
//!    duplicate entries, nothing left unfinished;
//! 4. the final server life's books balance:
//!    `accepted == completed + degraded + shed + faulted + recovered +
//!    cached`;
//! 5. the solution cache survived the kills: every life runs with
//!    `--cache <journal>/cache` (the journal's segment filter ignores the
//!    subdirectory), and one unkeyed repeat of a solved spec, sent to the
//!    final life, is answered from the cache with the reference hash.
//!
//! SIGKILL (not SIGTERM) is the point: the server gets no chance to
//! flush, drain, or say goodbye. Whatever survives is what the
//! write-ahead journal's fsync discipline actually made durable.

use crate::client::Client;
use crate::journal;
use crate::proto::{Request, Response, SolveParams, SolveResult, Source};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tt_core::solver::{jitter_seed, jittered_backoff, supervise, Budget, SuperviseOptions};
use tt_parallel::orchestrate;

/// Chaos run configuration.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// The server binary to spawn (normally `current_exe()`).
    pub server_exe: PathBuf,
    /// Address the child binds and clients dial, e.g. `127.0.0.1:7461`.
    pub addr: String,
    /// Journal directory shared across server lives.
    pub journal_dir: PathBuf,
    /// SIGKILL/restart cycles.
    pub cycles: u32,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Keyed requests per client.
    pub requests_per_client: u64,
    /// Workload spec `<domain>:<k>:<seed-base>`; the seed is replaced
    /// per request so every key names a distinct instance.
    pub spec: String,
    /// Per-request deadline sent to the server.
    pub timeout_ms: u64,
    /// Worker threads for the spawned server.
    pub workers: usize,
    /// Base interval between kills (jittered to `[base/2, base]`).
    pub kill_after: Duration,
    /// Every Nth cycle sends a wire `drain` just before the kill so
    /// some kills land mid-drain; 0 disables.
    pub drain_every: u32,
    /// Client socket timeout per round trip.
    pub io_timeout: Duration,
    /// Per-request client give-up deadline (a safety net only; hitting
    /// it fails the run).
    pub request_deadline: Duration,
}

impl Default for ChaosOptions {
    #[allow(clippy::duration_suboptimal_units)] // `from_mins` is unstable
    fn default() -> ChaosOptions {
        ChaosOptions {
            server_exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("ttserve")),
            addr: "127.0.0.1:7461".to_string(),
            journal_dir: std::env::temp_dir().join(format!("ttserve-chaos-{}", std::process::id())),
            cycles: 5,
            clients: 3,
            requests_per_client: 4,
            spec: "random:9:1".to_string(),
            timeout_ms: 5_000,
            workers: 3,
            kill_after: Duration::from_millis(400),
            drain_every: 3,
            io_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(60),
        }
    }
}

/// One client-held result.
#[derive(Clone, Debug)]
struct Observation {
    key: String,
    seq: u64,
    hash: u64,
    complete: bool,
    recovered: bool,
}

#[derive(Default)]
struct ClientTally {
    observations: Vec<Observation>,
    retries: u64,
    gave_up: u64,
}

/// The harness verdict.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// SIGKILLs delivered.
    pub kills: u32,
    /// Successful restarts (child respawned and answered a ping).
    pub restarts: u32,
    /// Keyed requests issued (clients × requests each).
    pub requests: u64,
    /// Results held by clients at the end.
    pub results: u64,
    /// Complete results among them.
    pub complete: u64,
    /// Degraded results among them (hash comparison skipped).
    pub degraded: u64,
    /// Results that arrived with `recovered: true` (journal dedup).
    pub recovered_seen: u64,
    /// Client retries across all causes.
    pub retries: u64,
    /// Requests abandoned at the client deadline (must be 0 to pass).
    pub gave_up: u64,
    /// Complete results whose hash differs from the cold reference.
    pub hash_mismatches: u64,
    /// `completed` journal entries at audit time.
    pub journal_completed: u64,
    /// Unfinished journal keys at audit time (must be 0 to pass).
    pub journal_unfinished: u64,
    /// Orphan journal entries (must be 0 to pass).
    pub journal_orphans: u64,
    /// Duplicate `completed` entries — double executions (must be 0).
    pub journal_duplicates: u64,
    /// Final server life's counters balanced?
    pub final_balanced: bool,
    /// Every invariant held?
    pub passed: bool,
    /// Human-readable invariant failures (empty when passed).
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// One JSON line for scripts and the CI chaos-smoke job.
    pub fn to_json(&self) -> String {
        let failures = self
            .failures
            .iter()
            .map(|f| tt_obs::json::string(f))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"kills\":{},\"restarts\":{},\"requests\":{},\"results\":{},\
             \"complete\":{},\"degraded\":{},\"recovered_seen\":{},\"retries\":{},\
             \"gave_up\":{},\"hash_mismatches\":{},\"journal_completed\":{},\
             \"journal_unfinished\":{},\"journal_orphans\":{},\"journal_duplicates\":{},\
             \"final_balanced\":{},\"passed\":{},\"failures\":[{failures}]}}",
            self.kills,
            self.restarts,
            self.requests,
            self.results,
            self.complete,
            self.degraded,
            self.recovered_seen,
            self.retries,
            self.gave_up,
            self.hash_mismatches,
            self.journal_completed,
            self.journal_unfinished,
            self.journal_orphans,
            self.journal_duplicates,
            self.final_balanced,
            self.passed
        )
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The per-request spec: the base spec with its seed replaced, the
/// same derivation the load bencher uses.
fn request_spec(base: &str, client_idx: usize, seq: u64) -> String {
    let mut parts: Vec<String> = base.split(':').map(str::to_string).collect();
    if parts.len() == 3 {
        let b = u64::try_from(client_idx).unwrap_or(0);
        parts[2] = (b * 1_000_003 + seq).to_string();
    }
    parts.join(":")
}

/// Cold in-process reference solve: the semantic hash a correct,
/// unhurried server must journal for this spec. `None` when even the
/// reference degrades (then the hash comparison is skipped).
fn reference_hash(spec: &str) -> Option<u64> {
    let item = orchestrate::BatchItem {
        source: format!("demo:{spec}"),
        id: None,
        solver: None,
        timeout_ms: None,
        max_candidates: None,
        faults: None,
    };
    let inst = item.load().ok()?;
    let chain = orchestrate::default_chain(&inst);
    let sup = supervise::supervise(
        &inst,
        &chain,
        &Budget::default(),
        &SuperviseOptions::default(),
    );
    match sup.report.outcome {
        tt_core::solver::SolveOutcome::Complete => {
            let r = SolveResult {
                id: None,
                engine: String::new(),
                complete: true,
                cost: sup.report.cost.is_finite().then_some(sup.report.cost.0),
                upper: None,
                lower: None,
                reason: None,
                recovered: false,
                cached: false,
                failovers: 0,
                retries: 0,
                wall_us: 0,
            };
            Some(journal::result_hash(&r))
        }
        tt_core::solver::SolveOutcome::Degraded { .. } => None,
    }
}

fn spawn_server(opts: &ChaosOptions) -> io::Result<Child> {
    Command::new(&opts.server_exe)
        .arg("serve")
        .args(["--addr", &opts.addr])
        .args(["--workers", &opts.workers.to_string()])
        .args(["--queue", "64"])
        .args(["--journal", &opts.journal_dir.to_string_lossy()])
        .args(["--cache", &opts.journal_dir.join("cache").to_string_lossy()])
        .args(["--default-timeout-ms", &opts.timeout_ms.to_string()])
        .args(["--max-timeout-ms", "60000"])
        .args(["--drain-ms", "2000"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
}

fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "unresolvable address"))
}

/// Polls ping until the child answers (replay can take a moment).
fn wait_ready(addr: SocketAddr, deadline: Duration) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if let Ok(mut c) = Client::connect(addr, Duration::from_millis(300)) {
            if matches!(c.request(&Request::Ping), Ok(Response::Pong)) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// One client: issues its keyed requests sequentially, retrying every
/// transport error and typed refusal with the same key.
fn chaos_client(
    addr: SocketAddr,
    opts: &ChaosOptions,
    client_idx: usize,
    tally: &Mutex<ClientTally>,
) {
    let mut jitter_state = jitter_seed() ^ u64::try_from(client_idx).unwrap_or(0);
    for seq in 1..=opts.requests_per_client {
        let key = format!("chaos-c{client_idx}-{seq}");
        let req = Request::Solve(SolveParams {
            id: Some(key.clone()),
            source: Source::Demo(request_spec(&opts.spec, client_idx, seq)),
            solver: None,
            timeout_ms: Some(opts.timeout_ms),
            key: Some(key.clone()),
        });
        let deadline = Instant::now() + opts.request_deadline;
        let mut attempt = 0u32;
        loop {
            if Instant::now() >= deadline {
                lock(tally).gave_up += 1;
                break;
            }
            let outcome = Client::connect(addr, opts.io_timeout).and_then(|mut c| c.request(&req));
            if let Ok(Response::Solved(r)) = outcome {
                lock(tally).observations.push(Observation {
                    key: key.clone(),
                    seq,
                    hash: journal::result_hash(&r),
                    complete: r.complete,
                    recovered: r.recovered,
                });
                break;
            }
            // Anything else — refused, errored, or the server just got
            // SIGKILLed under us — is retried with the same key.
            attempt = attempt.saturating_add(1);
            {
                lock(tally).retries += 1;
            }
            let delay = jittered_backoff(
                Duration::from_millis(10),
                attempt.min(5),
                Duration::from_millis(300),
                &mut jitter_state,
            );
            std::thread::sleep(delay);
        }
    }
}

/// Scrapes one counter from the final life's Prometheus text.
fn counter_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix(name)?;
            rest.strip_prefix(' ')?.trim().parse::<u64>().ok()
        })
        .unwrap_or(0)
}

/// Sends one request to the child, best-effort.
fn best_effort(addr: SocketAddr, req: &Request) -> Option<Response> {
    Client::connect(addr, Duration::from_millis(500))
        .and_then(|mut c| c.request(req))
        .ok()
}

fn fail(report: &mut ChaosReport, msg: impl Into<String>) {
    report.failures.push(msg.into());
}

/// Sends one unkeyed repeat of the first spec a client holds a complete
/// result for. Every life shares the cache directory and keyed solves
/// feed the cache, so the answer must come from the cache with the cold
/// reference's hash, whichever life solved it.
fn cached_repeat(
    addr: SocketAddr,
    opts: &ChaosOptions,
    tallies: &[Arc<Mutex<ClientTally>>],
    report: &mut ChaosReport,
) {
    let solved = tallies.iter().enumerate().find_map(|(client_idx, tally)| {
        let t = lock(tally);
        let obs = t.observations.iter().find(|o| o.complete)?;
        Some(request_spec(&opts.spec, client_idx, obs.seq))
    });
    let Some(spec) = solved else {
        return fail(report, "no complete result to repeat from the cache");
    };
    let req = Request::Solve(SolveParams {
        id: Some("chaos-cached-repeat".to_string()),
        source: Source::Demo(spec.clone()),
        solver: None,
        timeout_ms: Some(opts.timeout_ms),
        key: None,
    });
    match Client::connect(addr, opts.io_timeout).and_then(|mut c| c.request(&req)) {
        Ok(Response::Solved(r))
            if r.cached && reference_hash(&spec) == Some(journal::result_hash(&r)) => {}
        other => fail(
            report,
            format!(
                "unkeyed repeat of {spec} was not a cache hit with the reference hash: {other:?}"
            ),
        ),
    }
}

/// Runs the chaos loop. Returns `Err` only on harness-level failures
/// (cannot spawn or resolve); invariant violations land in
/// [`ChaosReport::failures`] with `passed: false`.
#[allow(clippy::too_many_lines)]
pub fn run(opts: &ChaosOptions) -> io::Result<ChaosReport> {
    std::fs::create_dir_all(&opts.journal_dir)?;
    let addr = resolve(&opts.addr)?;
    let mut report = ChaosReport {
        requests: u64::try_from(opts.clients).unwrap_or(0) * opts.requests_per_client,
        ..ChaosReport::default()
    };
    let mut child = spawn_server(opts)?;
    if !wait_ready(addr, Duration::from_secs(20)) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "server never became ready",
        ));
    }

    // Clients run concurrently with the kill loop.
    let tallies: Vec<Arc<Mutex<ClientTally>>> = (0..opts.clients)
        .map(|_| Arc::new(Mutex::new(ClientTally::default())))
        .collect();
    let mut threads = Vec::new();
    for (client_idx, tally) in tallies.iter().enumerate() {
        let tally = Arc::clone(tally);
        let opts = opts.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("chaos-client-{client_idx}"))
                .spawn(move || chaos_client(addr, &opts, client_idx, &tally))
                .expect("spawn chaos client"),
        );
    }

    // The kill loop: jittered sleeps land kills mid-frame and
    // mid-solve; every `drain_every`th cycle a wire drain first lands
    // the kill mid-drain.
    let mut jitter_state = jitter_seed();
    for cycle in 0..opts.cycles {
        let pause = jittered_backoff(opts.kill_after, 0, opts.kill_after * 2, &mut jitter_state);
        std::thread::sleep(pause);
        if opts.drain_every > 0 && (cycle + 1) % opts.drain_every == 0 {
            let _ = best_effort(addr, &Request::Drain);
            std::thread::sleep(Duration::from_millis(30));
        }
        let _ = child.kill(); // SIGKILL on unix: no goodbye
        let _ = child.wait();
        report.kills += 1;
        child = spawn_server(opts)?;
        if wait_ready(addr, Duration::from_secs(20)) {
            report.restarts += 1;
        } else {
            fail(&mut report, format!("restart {cycle} never became ready"));
            break;
        }
    }

    for t in threads {
        let _ = t.join();
    }
    cached_repeat(addr, opts, &tallies, &mut report);

    // Quiesce: wait for headless recovery executions to settle, then
    // read the final life's books.
    let mut last_accepted = u64::MAX;
    let settle_deadline = Instant::now() + Duration::from_secs(10);
    let mut metrics_text = String::new();
    while Instant::now() < settle_deadline {
        if let Some(Response::Metrics(text)) = best_effort(addr, &Request::Metrics) {
            let accepted = counter_value(&text, "ttserve_accepted_total");
            let stable = accepted == last_accepted;
            last_accepted = accepted;
            metrics_text = text;
            if stable {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    if metrics_text.is_empty() {
        fail(&mut report, "final metrics scrape failed".to_string());
    } else {
        let accepted = counter_value(&metrics_text, "ttserve_accepted_total");
        let settled = counter_value(&metrics_text, "ttserve_completed_total")
            + counter_value(&metrics_text, "ttserve_degraded_total")
            + counter_value(&metrics_text, "ttserve_shed_total")
            + counter_value(&metrics_text, "ttserve_faulted_total")
            + counter_value(&metrics_text, "ttserve_recovered_total")
            + counter_value(&metrics_text, "ttserve_cached_total");
        report.final_balanced = accepted == settled;
        if !report.final_balanced {
            fail(
                &mut report,
                format!("final life unbalanced: accepted {accepted} != settled {settled}"),
            );
        }
    }

    // Graceful goodbye for the last life, then audit the journal cold.
    let _ = best_effort(addr, &Request::Drain);
    let wait_end = Instant::now() + Duration::from_secs(15);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < wait_end => {
                std::thread::sleep(Duration::from_millis(50));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
        }
    }

    // Fold client observations.
    let mut observed: HashMap<String, Observation> = HashMap::new();
    for tally in &tallies {
        let t = lock(tally);
        report.retries += t.retries;
        report.gave_up += t.gave_up;
        for obs in &t.observations {
            report.results += 1;
            if obs.complete {
                report.complete += 1;
            } else {
                report.degraded += 1;
            }
            if obs.recovered {
                report.recovered_seen += 1;
            }
            observed.insert(obs.key.clone(), obs.clone());
        }
    }
    if report.results != report.requests {
        let msg = format!(
            "exactly-once violated: {} requests but {} results held",
            report.requests, report.results
        );
        fail(&mut report, msg);
    }
    if report.gave_up > 0 {
        let msg = format!("{} requests gave up", report.gave_up);
        fail(&mut report, msg);
    }

    // Hash every complete result against the cold reference.
    for (client_idx, tally) in tallies.iter().enumerate() {
        let t = lock(tally);
        for obs in &t.observations {
            if !obs.complete {
                continue;
            }
            let spec = request_spec(&opts.spec, client_idx, obs.seq);
            match reference_hash(&spec) {
                Some(expected) if expected != obs.hash => {
                    report.hash_mismatches += 1;
                    fail(
                        &mut report,
                        format!("key {} hash mismatch vs cold reference of {spec}", obs.key),
                    );
                }
                _ => {}
            }
        }
    }

    // Journal audit: exactly one completed entry per key, hashes
    // matching what clients saw, nothing lost, nothing double-run.
    match journal::audit(&opts.journal_dir) {
        Err(e) => fail(&mut report, format!("journal audit failed: {e}")),
        Ok(audit) => {
            report.journal_completed = u64::try_from(audit.completed.len()).unwrap_or(u64::MAX);
            report.journal_unfinished = u64::try_from(audit.unfinished.len()).unwrap_or(u64::MAX);
            report.journal_orphans = audit.orphans;
            report.journal_duplicates = audit.duplicate_completions;
            if !audit.unfinished.is_empty() {
                fail(
                    &mut report,
                    format!("{} journal keys left unfinished", audit.unfinished.len()),
                );
            }
            if audit.orphans > 0 {
                fail(
                    &mut report,
                    format!("{} orphan journal entries", audit.orphans),
                );
            }
            if audit.duplicate_completions > 0 {
                fail(
                    &mut report,
                    format!(
                        "{} duplicate completions (double execution)",
                        audit.duplicate_completions
                    ),
                );
            }
            for (key, obs) in &observed {
                match audit.completed.get(key) {
                    None => fail(&mut report, format!("key {key} missing from journal")),
                    Some(rec) if rec.hash != obs.hash => fail(
                        &mut report,
                        format!("key {key}: journaled hash differs from client-held result"),
                    ),
                    Some(_) => {}
                }
            }
        }
    }

    if report.kills < opts.cycles {
        let msg = format!("only {} of {} kill cycles ran", report.kills, opts.cycles);
        fail(&mut report, msg);
    }
    report.passed = report.failures.is_empty();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_one_parseable_line() {
        let r = ChaosReport {
            kills: 5,
            restarts: 5,
            requests: 12,
            results: 12,
            complete: 11,
            degraded: 1,
            recovered_seen: 3,
            retries: 9,
            passed: true,
            final_balanced: true,
            ..ChaosReport::default()
        };
        let json = r.to_json();
        assert!(!json.contains('\n'));
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("kills").and_then(crate::json::Json::as_u64), Some(5));
        assert_eq!(
            v.get("passed").and_then(crate::json::Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn request_specs_are_distinct_per_key() {
        let a = request_spec("random:9:1", 0, 1);
        let b = request_spec("random:9:1", 0, 2);
        let c = request_spec("random:9:1", 1, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn counter_scrape_requires_exact_names() {
        let text =
            "ttserve_accepted_total 41\nttserve_accepted_total_oops 9\nttserve_shed_total 3\n";
        assert_eq!(counter_value(text, "ttserve_accepted_total"), 41);
        assert_eq!(counter_value(text, "ttserve_shed_total"), 3);
        assert_eq!(counter_value(text, "ttserve_missing"), 0);
    }
}
