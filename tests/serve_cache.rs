//! Integration tests for the solution cache behind `ttserve`: repeat
//! unkeyed solves of one instance are answered from the cache with
//! `cached: true` and settle under the `cached` accounting term (the
//! books still balance), the cache's on-disk segments survive a server
//! restart, and the `/metrics` scrape renders counters that were
//! registered only after the server started — the cache counters are
//! exactly such late registrations.

use std::path::PathBuf;
use std::time::Duration;
use tt_serve::client::Client;
use tt_serve::proto::{Request, Response, SolveParams, Source};
use tt_serve::server::{start, ServerHandle, ServerOptions};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tt-cache-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cache_server(dir: Option<PathBuf>) -> ServerHandle {
    start(
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            queue_depth: 8,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            default_deadline: Duration::from_secs(5),
            max_deadline: Duration::from_secs(10),
            drain_window: Duration::from_secs(10),
            journal_dir: None,
            journal_rotate_bytes: 1 << 20,
            cache_capacity: 32,
            cache_dir: dir,
        },
    )
    .expect("bind an ephemeral port")
}

fn solve_req(spec: &str) -> Request {
    Request::Solve(SolveParams {
        id: None,
        source: Source::Demo(spec.to_string()),
        solver: None,
        timeout_ms: Some(5_000),
        key: None,
    })
}

fn solve(addr: std::net::SocketAddr, spec: &str) -> tt_serve::proto::SolveResult {
    let resp = Client::connect(addr, Duration::from_secs(10))
        .and_then(|mut c| c.request(&solve_req(spec)))
        .expect("transport");
    match resp {
        Response::Solved(r) => r,
        other => panic!("unexpected response: {other:?}"),
    }
}

/// The same unkeyed instance solved three times: the first answer is
/// computed, the rest come from the cache — same exact cost, marked
/// `cached: true`, attributed to the cache engine — and after a drain
/// the `cached` term keeps the accounting identity balanced.
#[test]
fn repeat_solves_hit_the_cache_and_the_books_balance() {
    let handle = cache_server(None);
    let addr = handle.addr();

    let cold = solve(addr, "random:10:7");
    assert!(!cold.cached, "first solve cannot be a cache hit");
    assert!(cold.complete);
    let cost = cold.cost.expect("complete solve carries a cost");

    for _ in 0..2 {
        let warm = solve(addr, "random:10:7");
        assert!(warm.cached, "repeat of an identical instance must hit");
        assert!(warm.complete, "cache hits are complete answers");
        assert_eq!(warm.engine, "cache");
        assert_eq!(warm.cost, Some(cost), "cached cost must be bit-identical");
    }
    // A different instance is not confused with the cached one.
    let other = solve(addr, "random:10:8");
    assert!(!other.cached);

    handle.drain();
    let outcome = handle.wait();
    assert!(outcome.clean);
    let s = outcome.stats;
    assert_eq!(s.cached, 2, "exactly the two repeats settle as cached");
    assert!(
        s.balanced(),
        "accounting imbalance with cache enabled: accepted={} completed={} cached={}",
        s.accepted,
        s.completed,
        s.cached
    );
}

/// One server life populates the cache directory; the next life replays
/// its segments and answers the very first request from the cache.
#[test]
fn cache_segments_survive_a_server_restart() {
    let dir = tmp_dir("restart");

    let first = cache_server(Some(dir.clone()));
    let cold = solve(first.addr(), "random:9:3");
    assert!(!cold.cached);
    first.drain();
    assert!(first.wait().clean);

    let second = cache_server(Some(dir.clone()));
    let warm = solve(second.addr(), "random:9:3");
    assert!(
        warm.cached,
        "restarted server must answer from the replayed cache segments"
    );
    assert_eq!(warm.cost, cold.cost);
    second.drain();
    assert!(second.wait().clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression guard for the scrape path: `render_prometheus` must read
/// the live registry on every call, so a counter registered *after* the
/// server started still shows up in a later scrape. The cache counters
/// (`ttcache_hits` et al.) are registered lazily on first touch, which
/// is exactly this shape.
#[test]
fn scrape_renders_counters_registered_after_startup() {
    let handle = cache_server(None);
    let addr = handle.addr();

    let before = match Client::connect(addr, Duration::from_secs(5))
        .and_then(|mut c| c.request(&Request::Metrics))
        .expect("transport")
    {
        Response::Metrics(body) => body,
        other => panic!("unexpected response: {other:?}"),
    };
    assert!(
        !before.contains("ttserve_late_registration_probe_total"),
        "probe counter must not exist yet"
    );
    // The cache's pressure counters are registered with the cache, so
    // a scrape shows them before the first eviction or rejection.
    for name in ["ttcache_evictions", "ttcache_rejected"] {
        assert!(
            before.lines().any(|l| l.starts_with(&format!("{name} "))),
            "a cache server exports {name} from the start"
        );
    }

    // Register and bump a brand-new counter only now, while the server
    // is already serving scrapes.
    tt_obs::metrics::counter("ttserve_late_registration_probe_total").add(3);

    let after = match Client::connect(addr, Duration::from_secs(5))
        .and_then(|mut c| c.request(&Request::Metrics))
        .expect("transport")
    {
        Response::Metrics(body) => body,
        other => panic!("unexpected response: {other:?}"),
    };
    let line = after
        .lines()
        .find(|l| l.starts_with("ttserve_late_registration_probe_total"))
        .expect("late-registered counter must render in a later scrape");
    assert!(line.ends_with(" 3"), "scrape shows the live value: {line}");

    handle.drain();
    assert!(handle.wait().clean);
}
