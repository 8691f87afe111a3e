//! `ttserve` — the overload-safe solve service and its load bencher.
//!
//! ```text
//! USAGE:
//!   ttserve serve [--addr <host:port>] [--workers <n>] [--queue <n>]
//!                 [--read-timeout-ms <ms>] [--default-timeout-ms <ms>]
//!                 [--max-timeout-ms <ms>] [--drain-ms <ms>]
//!                 [--journal <dir>] [--journal-rotate-bytes <n>]
//!                 [--cache <dir>] [--cache-capacity <n>]
//!   ttserve bench [--addr <host:port>] [--clients <n>] [--faults <n>]
//!                 [--duration-ms <ms>] [--spec <domain:k:seed>]
//!                 [--timeout-ms <ms>] [--open-ms <ms>] [--retries <n>]
//!   ttserve bench --chaos [--addr <host:port>] [--journal <dir>]
//!                 [--cycles <n>] [--clients <n>] [--requests <n>]
//!                 [--spec <domain:k:seed>] [--timeout-ms <ms>]
//!                 [--kill-ms <ms>] [--workers <n>]
//!   ttserve scrape  [--addr <host:port>]   # print /metrics
//!   ttserve healthz [--addr <host:port>]   # print serving|draining
//!   ttserve drain   [--addr <host:port>]   # begin a graceful drain
//!   ttserve ping    [--addr <host:port>]
//! ```
//!
//! The wire protocol is length-prefixed JSON: a 4-byte big-endian
//! payload length (≤ 1 MiB, validated before allocation) followed by
//! one JSON object. See the README's "Serving" section for the grammar
//! and `tt_serve::proto` for the types.
//!
//! `serve` runs until SIGTERM or a wire `drain` op, then drains
//! gracefully: admissions stop, queued and in-flight solves get the
//! drain window to finish — complete, or degraded to their anytime
//! incumbents via the cancel token — and the process exits 0 on a
//! clean drain, 13 when threads had to be abandoned.
//!
//! With `--journal <dir>`, `serve` keeps a checksummed, fsync'd
//! write-ahead journal of every solve carrying an idempotency key:
//! completed keys are deduplicated across restarts (retries get the
//! journaled answer back, marked `recovered`), unfinished keys are
//! re-executed on startup warm from their newest level-boundary
//! checkpoint, and the journal compacts via atomic segment rotation.
//! A journal that fails to replay exits 16 — the server refuses to
//! serve from durable state it cannot trust.
//!
//! With `--cache <dir>` (or `--cache-capacity <n>` alone for a purely
//! in-memory cache), unkeyed solves are answered from the
//! content-addressed solution cache when their canonical form has been
//! solved before: the response carries `"cached":true` and settles
//! under the `cached` accounting term. The directory holds the cache's
//! segment log, replayed on restart for a warm start and compacted to
//! the live entries once it has grown by 1 MiB.
//!
//! `bench --chaos` spawns its *own* `ttserve serve --journal <dir>
//! --cache <dir>/cache` child on `--addr`, SIGKILLs and restarts it
//! `--cycles` times at jittered instants (mid-frame, mid-solve, every
//! third cycle mid-drain) while keyed closed-loop clients retry, then
//! audits the journal and the final life's books for the
//! exactly-once-equivalent invariant and checks that an unkeyed repeat
//! of a solved spec is a cache hit. It prints one JSON report line and
//! exits 0 only if every invariant held (16 otherwise).
//!
//! `bench` is the closed/open-loop load generator: concurrent solve
//! clients (retrying typed `overloaded` sheds with capped, jittered
//! exponential backoff) plus optional fault-injecting clients cycling
//! through dropped, half-closed, and stalled connections, truncated
//! frames, garbage bytes, and hostile length claims. It prints one
//! JSON report line with counts and p50/p95/p99 latencies.
//!
//! Exit codes: `0` success, `2` usage error, `12` bind failure,
//! `13` drain timeout (threads leaked past the window), `14` client
//! request failed (bench/scrape/healthz/drain/ping could not reach or
//! parse the server), `16` recovery failure (journal replay failed, or
//! the chaos harness caught an invariant violation). Codes below 12
//! are owned by `ttsolve`, and 15 by `ttcheck`; all share this
//! exit-code space.

use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use tt_serve::bench::{BenchOptions, LoadMode};
use tt_serve::chaos::{self, ChaosOptions};
use tt_serve::client::Client;
use tt_serve::proto::{Request, Response};
use tt_serve::server::{self, ServerOptions};

const EXIT_USAGE: i32 = 2;
const EXIT_BIND: i32 = 12;
const EXIT_DRAIN_TIMEOUT: i32 = 13;
const EXIT_CLIENT: i32 = 14;
const EXIT_RECOVER: i32 = 16;

fn usage() -> ! {
    eprintln!(
        "usage: ttserve serve [--addr <host:port>] [--workers <n>] [--queue <n>]\n\
         \x20                    [--read-timeout-ms <ms>] [--default-timeout-ms <ms>]\n\
         \x20                    [--max-timeout-ms <ms>] [--drain-ms <ms>]\n\
         \x20                    [--journal <dir>] [--journal-rotate-bytes <n>]\n\
         \x20                    [--cache <dir>] [--cache-capacity <n>]\n\
         \x20      ttserve bench [--addr <host:port>] [--clients <n>] [--faults <n>]\n\
         \x20                    [--duration-ms <ms>] [--spec <domain:k:seed>]\n\
         \x20                    [--timeout-ms <ms>] [--open-ms <ms>] [--retries <n>]\n\
         \x20      ttserve bench --chaos [--addr <host:port>] [--journal <dir>]\n\
         \x20                    [--cycles <n>] [--clients <n>] [--requests <n>]\n\
         \x20                    [--spec <domain:k:seed>] [--timeout-ms <ms>]\n\
         \x20                    [--kill-ms <ms>] [--workers <n>]\n\
         \x20      ttserve scrape|healthz|drain|ping [--addr <host:port>]\n\
         exit codes: 0 ok, 2 usage, 12 bind failure, 13 drain timeout,\n\
         \x20           14 client request failed, 16 recovery failed"
    );
    exit(EXIT_USAGE)
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

const DEFAULT_ADDR: &str = "127.0.0.1:7433";

// -------------------------------------------------------------------
// SIGTERM → drain. The handler only flips an atomic; the main loop
// does the actual draining outside signal context.
// -------------------------------------------------------------------

static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" fn on_term(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    const SIGINT: i32 = 2;
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

// -------------------------------------------------------------------
// Subcommands.
// -------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> ! {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut opts = ServerOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--workers" => opts.workers = parse_number("--workers", it.next()),
            "--queue" => opts.queue_depth = parse_number("--queue", it.next()),
            "--read-timeout-ms" => {
                opts.read_timeout =
                    Duration::from_millis(parse_number("--read-timeout-ms", it.next()));
                opts.write_timeout = opts.read_timeout;
            }
            "--default-timeout-ms" => {
                opts.default_deadline =
                    Duration::from_millis(parse_number("--default-timeout-ms", it.next()));
            }
            "--max-timeout-ms" => {
                opts.max_deadline =
                    Duration::from_millis(parse_number("--max-timeout-ms", it.next()));
            }
            "--drain-ms" => {
                opts.drain_window = Duration::from_millis(parse_number("--drain-ms", it.next()));
            }
            "--journal" => {
                opts.journal_dir = Some(std::path::PathBuf::from(
                    it.next().cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--journal-rotate-bytes" => {
                opts.journal_rotate_bytes = parse_number("--journal-rotate-bytes", it.next());
            }
            "--cache" => {
                opts.cache_dir = Some(std::path::PathBuf::from(
                    it.next().cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--cache-capacity" => {
                opts.cache_capacity = parse_number("--cache-capacity", it.next());
            }
            _ => usage(),
        }
    }
    install_sigterm_handler();
    let handle = match server::start(&addr, opts) {
        Ok(h) => h,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            // `start` types a failed journal replay as InvalidData;
            // refusing to serve beats serving from state we distrust.
            eprintln!("ttserve: recovery failed: {e}");
            exit(EXIT_RECOVER)
        }
        Err(e) => {
            eprintln!("ttserve: cannot bind {addr}: {e}");
            exit(EXIT_BIND)
        }
    };
    println!("ttserve: serving on {}", handle.addr());
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if SIGNALLED.load(Ordering::SeqCst) || handle.is_draining() {
            break;
        }
    }
    eprintln!("ttserve: draining");
    let outcome = handle.wait();
    let s = outcome.stats;
    eprintln!(
        "ttserve: drained accepted={} completed={} degraded={} shed={} faulted={} \
         recovered={} cached={} queue_peak={} leaked_workers={}",
        s.accepted,
        s.completed,
        s.degraded,
        s.shed,
        s.faulted,
        s.recovered,
        s.cached,
        s.queue_peak,
        outcome.leaked_workers
    );
    if outcome.clean {
        exit(0)
    }
    exit(EXIT_DRAIN_TIMEOUT)
}

fn cmd_bench(args: &[String]) -> ! {
    if args.iter().any(|a| a == "--chaos") {
        cmd_chaos(args)
    }
    let mut addr = DEFAULT_ADDR.to_string();
    let mut opts = BenchOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--clients" => opts.clients = parse_number("--clients", it.next()),
            "--faults" => opts.fault_clients = parse_number("--faults", it.next()),
            "--duration-ms" => {
                opts.duration = Duration::from_millis(parse_number("--duration-ms", it.next()));
            }
            "--spec" => opts.spec = it.next().cloned().unwrap_or_else(|| usage()),
            "--timeout-ms" => opts.timeout_ms = Some(parse_number("--timeout-ms", it.next())),
            "--open-ms" => {
                opts.mode = LoadMode::Open {
                    interval: Duration::from_millis(parse_number("--open-ms", it.next())),
                };
            }
            "--retries" => opts.max_retries = parse_number("--retries", it.next()),
            _ => usage(),
        }
    }
    let resolved = match resolve(&addr) {
        Some(a) => a,
        None => client_fail(&addr, "cannot resolve address"),
    };
    // Confirm the server is there before unleashing the load.
    match one_request(&addr, &Request::Ping) {
        Response::Pong => {}
        other => client_fail(&addr, &format!("unexpected ping response: {other:?}")),
    }
    let report = tt_serve::bench::run(resolved, &opts);
    println!("{}", report.to_json());
    exit(0)
}

fn cmd_chaos(args: &[String]) -> ! {
    let mut opts = ChaosOptions::default();
    match std::env::current_exe() {
        Ok(exe) => opts.server_exe = exe,
        Err(e) => {
            eprintln!("ttserve: cannot locate own binary for chaos child: {e}");
            exit(EXIT_CLIENT)
        }
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chaos" => {}
            "--addr" => opts.addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--journal" => {
                opts.journal_dir =
                    std::path::PathBuf::from(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--cycles" => opts.cycles = parse_number("--cycles", it.next()),
            "--clients" => opts.clients = parse_number("--clients", it.next()),
            "--requests" => {
                opts.requests_per_client = parse_number("--requests", it.next());
            }
            "--spec" => opts.spec = it.next().cloned().unwrap_or_else(|| usage()),
            "--timeout-ms" => opts.timeout_ms = parse_number("--timeout-ms", it.next()),
            "--kill-ms" => {
                opts.kill_after = Duration::from_millis(parse_number("--kill-ms", it.next()));
            }
            "--workers" => opts.workers = parse_number("--workers", it.next()),
            _ => usage(),
        }
    }
    let report = match chaos::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ttserve: chaos harness failed to run: {e}");
            exit(EXIT_CLIENT)
        }
    };
    println!("{}", report.to_json());
    for f in &report.failures {
        eprintln!("ttserve: chaos invariant failed: {f}");
    }
    if report.passed {
        exit(0)
    }
    exit(EXIT_RECOVER)
}

fn resolve(addr: &str) -> Option<std::net::SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs().ok()?.next()
}

fn client_fail(addr: &str, why: &str) -> ! {
    eprintln!("ttserve: request to {addr} failed: {why}");
    exit(EXIT_CLIENT)
}

/// One request with a few retries for `overloaded` sheds (control ops
/// share the admission queue with solves).
fn one_request(addr: &str, req: &Request) -> Response {
    let mut last = String::new();
    for _ in 0..5 {
        match Client::connect_str(addr, Duration::from_secs(5)).and_then(|mut c| c.request(req)) {
            Ok(Response::Error {
                kind: tt_serve::proto::ErrorKind::Overloaded,
                message,
            }) => {
                last = message;
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(resp) => return resp,
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    client_fail(addr, &last)
}

fn addr_arg(args: &[String]) -> String {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    addr
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "serve" => cmd_serve(rest),
        "bench" => cmd_bench(rest),
        "scrape" => {
            let addr = addr_arg(rest);
            match one_request(&addr, &Request::Metrics) {
                Response::Metrics(body) => print!("{body}"),
                other => client_fail(&addr, &format!("unexpected response: {other:?}")),
            }
        }
        "healthz" => {
            let addr = addr_arg(rest);
            match one_request(&addr, &Request::Healthz) {
                Response::Health { draining } => {
                    println!("{}", if draining { "draining" } else { "serving" });
                }
                other => client_fail(&addr, &format!("unexpected response: {other:?}")),
            }
        }
        "drain" => {
            let addr = addr_arg(rest);
            match one_request(&addr, &Request::Drain) {
                Response::Draining => println!("draining"),
                other => client_fail(&addr, &format!("unexpected response: {other:?}")),
            }
        }
        "ping" => {
            let addr = addr_arg(rest);
            match one_request(&addr, &Request::Ping) {
                Response::Pong => println!("pong"),
                other => client_fail(&addr, &format!("unexpected response: {other:?}")),
            }
        }
        _ => usage(),
    }
}
