//! Integration tests for `tt-serve` under hostility: a synchronized
//! flood against a deliberately tiny server must produce typed
//! `overloaded` sheds (bounded queue, never unbounded buffering),
//! deadline-degraded answers with a valid bound sandwich, and — after
//! a drain — a books-balance accounting invariant with zero leaked
//! worker threads. A separate fault barrage (stalls longer than the
//! read timeout, truncated frames, hostile length claims, garbage)
//! must leave the server answering pings as if nothing happened.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tt_serve::client::Client;
use tt_serve::fault::{self, ALL_FAULTS};
use tt_serve::proto::{ErrorKind, Request, Response, SolveParams, Source};
use tt_serve::server::{start, ServerOptions};

const WORKERS: usize = 2;
const QUEUE: usize = 2;
const FLOOD: usize = 16;

/// Polls `cond` until it holds or `limit` elapses. Deadline-based, not
/// iteration-counted: a slow CI box gets the full window instead of a
/// fixed number of fixed-length sleeps.
fn poll_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn tiny_server() -> tt_serve::server::ServerHandle {
    start(
        "127.0.0.1:0",
        ServerOptions {
            workers: WORKERS,
            queue_depth: QUEUE,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(1),
            default_deadline: Duration::from_millis(150),
            max_deadline: Duration::from_millis(500),
            drain_window: Duration::from_secs(10),
            journal_dir: None,
            journal_rotate_bytes: 1 << 20,
            cache_capacity: 0,
            cache_dir: None,
        },
    )
    .expect("bind an ephemeral port")
}

fn solve_req(tag: usize, domain: &str, k: u32, timeout_ms: u64) -> Request {
    Request::Solve(SolveParams {
        id: Some(format!("flood-{tag}")),
        source: Source::Demo(format!("{domain}:{k}:{}", 7 + tag)),
        solver: None,
        timeout_ms: Some(timeout_ms),
        key: None,
    })
}

fn ping(addr: std::net::SocketAddr) -> bool {
    // The control op shares the admission queue, so ride out stragglers
    // for a full wall-clock window rather than a fixed retry count.
    poll_until(Duration::from_secs(5), || {
        matches!(
            Client::connect(addr, Duration::from_secs(2))
                .and_then(|mut c| c.request(&Request::Ping)),
            Ok(Response::Pong)
        )
    })
}

/// The tentpole acceptance test: flood a 2-worker, depth-2 server with
/// 16 simultaneous slow solves.
#[test]
fn flood_sheds_typed_degrades_deadlined_and_balances_the_books() {
    let handle = tiny_server();
    let addr = handle.addr();

    let barrier = Arc::new(Barrier::new(FLOOD));
    let mut threads = Vec::new();
    for tag in 0..FLOOD {
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            barrier.wait();
            // A dense k = 21 closure is far too big to finish exactly in
            // 150 ms, so every admitted request must come back
            // deadline-degraded.
            let outcome = Client::connect(addr, Duration::from_secs(10))
                .and_then(|mut c| c.request(&solve_req(tag, "medical", 21, 150)));
            match outcome {
                Ok(resp) => resp,
                Err(e) => panic!("client {tag} transport error: {e:?}"),
            }
        }));
    }

    let mut shed = 0u64;
    let mut degraded = 0u64;
    let mut complete = 0u64;
    for t in threads {
        match t.join().expect("client thread") {
            Response::Solved(r) => {
                if r.complete {
                    complete += 1;
                } else {
                    degraded += 1;
                    // The bound sandwich must be coherent: a lower bound
                    // always, and any finite incumbent above it.
                    let lower = r.lower.expect("degraded answers carry a lower bound");
                    if let Some(upper) = r.upper {
                        assert!(
                            lower <= upper,
                            "bound sandwich inverted: lower={lower} upper={upper}"
                        );
                    }
                    assert!(r.reason.is_some(), "degraded answers say why");
                }
            }
            Response::Error { kind, .. } => {
                assert_eq!(
                    kind,
                    ErrorKind::Overloaded,
                    "only typed sheds are acceptable"
                );
                shed += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    // With 2 workers + 2 queue slots and 16 simultaneous arrivals, the
    // server must have shed, and must have degraded what it admitted.
    assert!(
        shed >= 1,
        "no overload sheds out of {FLOOD} simultaneous clients"
    );
    assert!(
        degraded >= 1,
        "no deadline-degraded answers (complete={complete})"
    );
    assert_eq!(shed + degraded + complete, FLOOD as u64);

    // The queue stayed bounded. Peak may transiently exceed the depth
    // by up to `workers` (the accept thread raises the length before
    // the send; dequeues lag), but never by more.
    let mid = handle.stats();
    assert!(
        mid.queue_peak <= (QUEUE + WORKERS) as u64,
        "queue peak {} breached the bound {}",
        mid.queue_peak,
        QUEUE + WORKERS
    );

    // The flood is absorbed, not fatal: the server still answers.
    assert!(ping(addr), "server stopped answering after the flood");

    handle.drain();
    let outcome = handle.wait();
    assert!(
        outcome.clean,
        "drain leaked {} workers",
        outcome.leaked_workers
    );
    assert_eq!(outcome.leaked_workers, 0);
    let s = outcome.stats;
    assert_eq!(s.live_workers, 0, "workers survived the drain");
    assert_eq!(s.in_flight, 0, "requests survived the drain");
    assert!(
        s.balanced(),
        "accounting imbalance: accepted={} completed={} degraded={} shed={} faulted={} recovered={}",
        s.accepted,
        s.completed,
        s.degraded,
        s.shed,
        s.faulted,
        s.recovered
    );
    assert!(s.shed >= shed, "server books fewer sheds than clients saw");
    assert!(s.degraded >= degraded);
    assert_eq!(s.panics, 0);
}

/// Every adversarial peer in the fault catalogue — including a stall
/// held past the read timeout — costs the server at most one typed
/// fault, never a worker or a queue slot.
#[test]
fn fault_barrage_leaves_no_wreckage() {
    let handle = tiny_server();
    let addr = handle.addr();

    let mut injectors = Vec::new();
    for (i, f) in ALL_FAULTS.iter().copied().enumerate() {
        injectors.push(std::thread::spawn(move || {
            for round in 0..3 {
                // Hold stalls past the 250 ms read timeout.
                let _ = fault::inject(addr, f, Duration::from_millis(400));
                std::thread::sleep(Duration::from_millis(10 * (i as u64 + round)));
            }
        }));
    }
    for t in injectors {
        t.join().expect("fault injector");
    }
    // Stalled peers time out on the server's read clock; wait for the
    // faulted count to absorb them instead of sleeping a fixed amount.
    poll_until(Duration::from_secs(5), || handle.stats().in_flight == 0);

    // The server shrugs it off and still does real work.
    assert!(ping(addr), "server wedged by fault barrage");
    let resp = Client::connect(addr, Duration::from_secs(10))
        .and_then(|mut c| c.request(&solve_req(0, "random", 6, 400)))
        .expect("post-barrage solve");
    match resp {
        Response::Solved(r) => assert!(r.complete || r.lower.is_some()),
        other => panic!("post-barrage solve got {other:?}"),
    }

    handle.drain();
    let outcome = handle.wait();
    assert!(
        outcome.clean,
        "drain leaked {} workers",
        outcome.leaked_workers
    );
    let s = outcome.stats;
    assert!(s.balanced(), "fault accounting imbalance: {s:?}");
    assert_eq!(s.live_workers, 0);
    assert_eq!(s.in_flight, 0);
}

/// The health probe flips to draining, a wire `drain` op is honored,
/// and admissions stop — all on one connection.
#[test]
fn healthz_flips_and_wire_drain_is_honored() {
    let handle = tiny_server();
    let addr = handle.addr();

    let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    match c.request(&Request::Healthz).expect("healthz") {
        Response::Health { draining } => assert!(!draining, "fresh server reports draining"),
        other => panic!("healthz got {other:?}"),
    }
    match c.request(&Request::Drain).expect("drain op") {
        Response::Draining => {}
        other => panic!("drain got {other:?}"),
    }
    assert!(handle.is_draining(), "wire drain did not flip the server");

    let outcome = handle.wait();
    assert!(outcome.clean);
    assert!(outcome.stats.balanced());
    assert_eq!(outcome.stats.live_workers, 0);
}

/// The bencher end to end against a small healthy server: closed-loop
/// load plus a fault thread, with every issued request accounted for.
#[test]
fn bench_accounts_for_every_request() {
    let handle = start(
        "127.0.0.1:0",
        ServerOptions {
            workers: 4,
            queue_depth: 16,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(1),
            default_deadline: Duration::from_millis(200),
            max_deadline: Duration::from_millis(500),
            drain_window: Duration::from_secs(10),
            journal_dir: None,
            journal_rotate_bytes: 1 << 20,
            cache_capacity: 0,
            cache_dir: None,
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let report = tt_serve::bench::run(
        addr,
        &tt_serve::bench::BenchOptions {
            clients: 3,
            fault_clients: 1,
            duration: Duration::from_millis(700),
            spec: "random:8:1".to_string(),
            timeout_ms: Some(100),
            max_retries: 2,
            ..tt_serve::bench::BenchOptions::default()
        },
    );

    // Every sent request resolved exactly one way.
    assert!(report.sent >= 1, "bench sent nothing");
    assert_eq!(
        report.complete + report.degraded + report.gave_up + report.errors,
        report.sent,
        "bench lost track of requests: {report:?}"
    );
    assert!(report.faults_injected >= 1, "fault thread injected nothing");
    assert!(report.samples == report.complete + report.degraded);
    assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);

    handle.drain();
    let outcome = handle.wait();
    assert!(
        outcome.clean,
        "drain leaked {} workers",
        outcome.leaked_workers
    );
    assert!(
        outcome.stats.balanced(),
        "bench left imbalanced books: {:?}",
        outcome.stats
    );
}
