//! Integration tests for the crash-durability layer in-process: keyed
//! dedup with `recovered: true` replies, restart replay across server
//! lives on one journal directory, recovery of crafted unfinished work,
//! segment rotation under load, and refusal to start on a corrupt
//! journal. The process-level SIGKILL story lives in the chaos harness
//! (`ttserve bench --chaos`); these tests pin the same semantics at the
//! library layer where every step is observable.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tt_serve::client::Client;
use tt_serve::journal::{Journal, JournalEntry};
use tt_serve::proto::{Request, Response, SolveParams, Source};
use tt_serve::server::{start, ServerOptions};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tt-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(dir: &Path) -> ServerOptions {
    ServerOptions {
        workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        default_deadline: Duration::from_secs(2),
        max_deadline: Duration::from_secs(5),
        drain_window: Duration::from_secs(10),
        journal_dir: Some(dir.to_path_buf()),
        journal_rotate_bytes: 1 << 20,
        cache_capacity: 0,
        cache_dir: None,
    }
}

fn keyed(key: &str, spec: &str) -> Request {
    Request::Solve(SolveParams {
        id: Some(format!("id-{key}")),
        source: Source::Demo(spec.to_string()),
        solver: None,
        timeout_ms: Some(2_000),
        key: Some(key.to_string()),
    })
}

fn solve(addr: std::net::SocketAddr, req: &Request) -> Response {
    Client::connect(addr, Duration::from_secs(5))
        .and_then(|mut c| c.request(req))
        .expect("transport")
}

/// Retries a keyed request until the server answers `Solved` (a key
/// still executing comes back as a typed retryable fault).
fn solve_until_settled(addr: std::net::SocketAddr, req: &Request) -> tt_serve::proto::SolveResult {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match solve(addr, req) {
            Response::Solved(r) => return r,
            Response::Error { .. } if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            other => panic!("keyed solve never settled: {other:?}"),
        }
    }
}

fn segments(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("seg-") && n.strip_suffix(".wal").is_some())
        .collect();
    names.sort();
    names
}

/// A retry of a completed idempotency key is answered from the journal:
/// same semantic result, `recovered: true`, and the `recovered` stat —
/// never a second execution.
#[test]
fn keyed_retry_is_answered_from_the_journal() {
    let dir = tmp_dir("dedup");
    let handle = start("127.0.0.1:0", opts(&dir)).expect("bind");
    let addr = handle.addr();

    let first = solve_until_settled(addr, &keyed("k1", "random:6:1"));
    assert!(!first.recovered, "a first execution is not a recovery");
    assert!(first.complete, "random:6:1 solves exactly in 2s");

    let retry = solve_until_settled(addr, &keyed("k1", "random:6:1"));
    assert!(retry.recovered, "retry of a done key must be a dedup hit");
    assert_eq!(retry.cost, first.cost);
    assert_eq!(retry.complete, first.complete);

    // An unrelated key is a fresh execution, not a dedup hit.
    let other = solve_until_settled(addr, &keyed("k2", "random:6:2"));
    assert!(!other.recovered);

    handle.drain();
    let outcome = handle.wait();
    assert!(outcome.clean);
    let s = outcome.stats;
    assert_eq!(s.recovered, 1, "exactly one journaled replay");
    assert!(s.balanced(), "books imbalanced: {s:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A keyed solve the `auto` engine hands to `memo` (random k = 15 has
/// a sparse reachable closure, and no machine fits k = 15) has no level
/// boundaries: it journals `admitted`, `started` and `completed` and no
/// `checkpoint` — a crash mid-solve would re-solve it cold. The dedup
/// contract is unchanged: a resend gets the stored response back.
#[test]
fn a_keyed_memo_solve_journals_no_checkpoints() {
    let dir = tmp_dir("memo");
    let handle = start("127.0.0.1:0", opts(&dir)).expect("bind");
    let addr = handle.addr();
    let req = keyed("sparse", "random:15:1");
    let first = solve_until_settled(addr, &req);
    assert_eq!(first.engine, "memo", "{first:?}");
    assert!(first.complete && !first.recovered, "{first:?}");
    let retry = solve_until_settled(addr, &req);
    handle.drain();
    assert!(handle.wait().clean);

    let mut kinds = Vec::new();
    let mut stored = None;
    for seg in segments(&dir) {
        let text = std::fs::read_to_string(dir.join(seg)).unwrap();
        for line in text.lines() {
            let entry = tt_serve::journal::decode_line(line).expect("valid journal line");
            assert_eq!(entry.key(), "sparse");
            kinds.push(match entry {
                JournalEntry::Admitted { .. } => "admitted",
                JournalEntry::Started { .. } => "started",
                JournalEntry::Checkpoint { .. } => "checkpoint",
                JournalEntry::Completed { response, .. } => {
                    stored = Some(response);
                    "completed"
                }
            });
        }
    }
    assert_eq!(kinds, ["admitted", "started", "completed"]);
    let Ok(Response::Solved(mut want)) = Response::decode(&stored.unwrap()) else {
        panic!("the journaled response is not a solve");
    };
    assert_eq!(want, first, "the journal stores the answer sent");
    want.recovered = true;
    assert_eq!(retry, want, "a resend returns the stored response");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The journal outlives the process: a second server life on the same
/// directory answers a retried key from the replayed dedup index with
/// the first life's result, verbatim.
#[test]
fn restart_replays_the_dedup_index() {
    let dir = tmp_dir("restart");
    let first = {
        let handle = start("127.0.0.1:0", opts(&dir)).expect("bind life 1");
        let r = solve_until_settled(handle.addr(), &keyed("persist", "random:6:3"));
        handle.drain();
        assert!(handle.wait().clean);
        r
    };
    assert!(!first.recovered);

    let handle = start("127.0.0.1:0", opts(&dir)).expect("bind life 2");
    let retry = solve_until_settled(handle.addr(), &keyed("persist", "random:6:3"));
    assert!(retry.recovered, "second life lost the dedup index");
    assert_eq!(retry.cost, first.cost);
    assert_eq!(retry.complete, first.complete);

    handle.drain();
    let outcome = handle.wait();
    let s = outcome.stats;
    assert_eq!(s.recovered, 1);
    assert!(s.balanced(), "books imbalanced: {s:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An admitted-but-never-completed journal entry — the on-disk state a
/// SIGKILL mid-solve leaves behind — is re-enqueued and executed at
/// startup; a client retry of the key then gets the recovered answer,
/// matching a cold solve of the same instance.
#[test]
fn unfinished_journal_work_is_recovered_at_startup() {
    let dir = tmp_dir("requeue");
    let spec = "random:6:4";
    {
        let (mut j, _) = Journal::open(&dir).expect("craft journal");
        j.append(&JournalEntry::Admitted {
            key: "lost".to_string(),
            request: keyed("lost", spec).encode(),
        })
        .expect("append");
    }

    let handle = start("127.0.0.1:0", opts(&dir)).expect("bind over unfinished work");
    let addr = handle.addr();
    // The retry either hits the result a recovery worker already
    // journaled (`recovered: true`) or claims the re-enqueued work and
    // executes it inline — both are legal, and exactly-once-equivalent.
    let first_retry = solve_until_settled(addr, &keyed("lost", spec));
    // Once settled, every further retry is a dedup hit with the same
    // semantics.
    let second_retry = solve_until_settled(addr, &keyed("lost", spec));
    assert!(second_retry.recovered, "settled key must dedup");
    assert_eq!(second_retry.cost, first_retry.cost);
    assert_eq!(second_retry.complete, first_retry.complete);

    // The recovered answer matches a fresh execution of the same spec.
    let cold = solve_until_settled(addr, &keyed("cold", spec));
    assert_eq!(first_retry.cost, cold.cost);
    assert_eq!(first_retry.complete, cold.complete);

    handle.drain();
    let outcome = handle.wait();
    assert!(
        outcome.stats.balanced(),
        "books imbalanced: {:?}",
        outcome.stats
    );

    // The journal agrees: the crafted key completed exactly once, and
    // nothing is left unfinished.
    let audit = tt_serve::journal::audit(&dir).expect("audit");
    assert!(audit.completed.contains_key("lost"));
    assert!(audit.unfinished.is_empty(), "{:?}", audit.unfinished);
    assert_eq!(audit.duplicate_completions, 0);
    assert_eq!(audit.orphans, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tiny rotation threshold forces compaction under keyed load: the
/// directory ends at exactly one higher-numbered segment, and the
/// compacted journal still dedups — in the same life and the next one.
#[test]
fn rotation_compacts_without_losing_the_dedup_window() {
    let dir = tmp_dir("rotate");
    let mut o = opts(&dir);
    o.journal_rotate_bytes = 256;
    let handle = start("127.0.0.1:0", o.clone()).expect("bind");
    let addr = handle.addr();

    let mut costs = Vec::new();
    for n in 0..5 {
        let r = solve_until_settled(addr, &keyed(&format!("r{n}"), &format!("random:5:{n}")));
        assert!(!r.recovered);
        costs.push(r.cost);
    }
    let segs = segments(&dir);
    assert_eq!(segs.len(), 1, "rotation left stale segments: {segs:?}");
    assert!(
        segs[0].as_str() > "seg-000001.wal",
        "no rotation happened: {segs:?}"
    );

    let retry = solve_until_settled(addr, &keyed("r0", "random:5:0"));
    assert!(retry.recovered, "compaction dropped a completed key");
    assert_eq!(retry.cost, costs[0]);
    handle.drain();
    assert!(handle.wait().clean);

    // The compacted segment alone carries the dedup window into the
    // next life.
    let handle = start("127.0.0.1:0", o).expect("bind life 2");
    let retry = solve_until_settled(handle.addr(), &keyed("r3", "random:5:3"));
    assert!(retry.recovered, "compacted journal lost a key across lives");
    assert_eq!(retry.cost, costs[3]);
    handle.drain();
    assert!(handle.wait().clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt journal is refused at startup with `InvalidData` (the
/// binary maps this to its dedicated recovery-failure exit code): a
/// server that cannot trust its durable state must not take traffic.
#[test]
fn corrupt_journal_refuses_to_serve() {
    let dir = tmp_dir("corrupt");
    {
        let handle = start("127.0.0.1:0", opts(&dir)).expect("bind life 1");
        solve_until_settled(handle.addr(), &keyed("c1", "random:5:9"));
        handle.drain();
        assert!(handle.wait().clean);
    }
    let seg = dir.join(segments(&dir).pop().expect("one segment"));
    let mut bytes = std::fs::read(&seg).unwrap();
    // Flip a byte of the first record: a complete-but-corrupt line is
    // fatal (only an unterminated newest-segment tail is tolerated).
    bytes[10] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();

    match start("127.0.0.1:0", opts(&dir)) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        Ok(_) => panic!("server started over a corrupt journal"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
