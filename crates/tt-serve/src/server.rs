//! The overload-safe solve server.
//!
//! Architecture: one accept thread plus a bounded worker pool, joined
//! by a bounded admission queue.
//!
//! * **Admission control.** The accept thread never blocks and never
//!   solves: it accepts a connection and `try_send`s it into a
//!   `sync_channel` of depth [`ServerOptions::queue_depth`]. When the
//!   queue is full the connection is refused *immediately* with a typed
//!   [`ErrorKind::Overloaded`] response — load sheds at the door
//!   instead of building an unbounded backlog.
//! * **Graceful degradation.** Every solve runs under a [`Budget`]
//!   whose deadline is the client's request clamped to the server cap,
//!   with the server's drain token wired in as the cancel signal. A
//!   solve that overruns returns the engine's anytime incumbent as a
//!   `Degraded` result with a valid `[lower, upper]` sandwich — the
//!   service degrades in answer quality, never in availability.
//! * **Fault containment.** Workers set read/write socket timeouts (a
//!   stalled peer costs one timeout, not a wedged worker), run each
//!   solve under `catch_unwind` (a panicking engine costs one typed
//!   `panic` response, not a dead worker), and account every outcome.
//! * **Drain.** [`ServerHandle::drain`] (or the wire `drain` op, or
//!   SIGTERM in the binary) stops admissions; queued and in-flight
//!   solves get their deadlines capped to the remaining drain window,
//!   so they finish — complete or checkpoint-priced degraded — before
//!   the window closes. [`ServerHandle::wait`] fires the cancel token
//!   at the window boundary and reports whether shutdown was clean.
//!
//! * **Durability.** With [`ServerOptions::journal_dir`] set, every
//!   solve carrying an idempotency key is recorded in the write-ahead
//!   [`journal`] before execution and its result is
//!   journaled before the answer goes on the wire. On startup the
//!   server replays the journal: completed keys populate the dedup
//!   index (a retry of the same key gets the journaled answer back
//!   with `recovered: true`), unfinished keys are re-enqueued as
//!   recovery jobs that resume from their newest level-boundary
//!   checkpoint. A SIGKILL therefore costs wall-clock, never answers.
//!   A solve answered by `memo` (the `auto` engine's pick for a sparse
//!   reachable closure) emits no level boundaries: it journals no
//!   checkpoint and, if interrupted, its recovery job re-solves cold.
//!
//! * **Caching.** With a cache enabled ([`ServerOptions::cache_capacity`]
//!   / [`ServerOptions::cache_dir`]), an unkeyed solve first consults
//!   the cross-solve solution cache (`tt-cache`): an exact
//!   canonical-form hit answers immediately with `cached: true` and
//!   never touches an engine; completed solves on every path populate
//!   the cache. Each request's instance is parsed once and canonicalized
//!   once, before the cache lock is taken; the lookup and the insert
//!   share that one canonical form.
//!
//! Accounting invariant, checked by the integration tests and the CI
//! smoke job: `accepted == completed + degraded + shed + faulted +
//! recovered + cached`. Every unit of work that enters the system
//! leaves through exactly one of those six doors, and the identity holds
//! *per process life* — a crashed in-flight solve settled nothing, so
//! its re-execution (settled in the next life) and its client's dedup
//! retry (settled as `recovered`) keep every life balanced.

use crate::journal::{self, Journal, JournalEntry};
use crate::proto::{
    self, read_frame, write_frame, ErrorKind, FrameError, Request, Response, SolveParams,
    SolveResult, Source,
};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tt_core::instance::TtInstance;
use tt_core::solver::checkpoint::{Checkpoint, LevelView};
use tt_core::solver::{supervise, Budget, CancelToken, SolveOutcome, Solver, SuperviseOptions};
use tt_parallel::orchestrate;

/// Tunables for one server.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Bounded admission queue depth; a full queue sheds.
    pub queue_depth: usize,
    /// Socket read timeout: the longest a peer may stall mid-frame or
    /// idle between frames before the connection is dropped.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Deadline applied to a solve that requests none.
    pub default_deadline: Duration,
    /// Ceiling on any client-requested deadline.
    pub max_deadline: Duration,
    /// How long a drain lets queued/in-flight work finish before the
    /// cancel token fires.
    pub drain_window: Duration,
    /// Directory of the write-ahead solve journal. `None` disables
    /// durability (keyed requests are served but not journaled).
    pub journal_dir: Option<PathBuf>,
    /// Rotate (compact) the active journal segment once it exceeds
    /// this many bytes.
    pub journal_rotate_bytes: u64,
    /// Entries the content-addressed solution cache may hold. `0`
    /// disables the cache entirely (unless [`cache_dir`](ServerOptions::cache_dir)
    /// is set, which enables it at a default capacity).
    pub cache_capacity: usize,
    /// Directory for the cache's on-disk segments (warm restarts).
    /// `None` keeps an enabled cache purely in memory.
    pub cache_dir: Option<PathBuf>,
}

/// Capacity used when a cache directory is given without an explicit
/// capacity.
const DEFAULT_CACHE_CAPACITY: usize = 1024;

impl Default for ServerOptions {
    // `Duration::from_mins` would trip MSRV 1.85.
    #[allow(clippy::duration_suboptimal_units)]
    fn default() -> ServerOptions {
        ServerOptions {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            drain_window: Duration::from_secs(5),
            journal_dir: None,
            journal_rotate_bytes: 1 << 20,
            cache_capacity: 0,
            cache_dir: None,
        }
    }
}

/// Per-server counters. These are *per instance* (not the process-wide
/// `tt-obs` registry, which is shared by every server in the process —
/// the integration tests run several). The server mirrors them into
/// `tt-obs` under `ttserve_*` names for the `/metrics` endpoint.
#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    faulted: AtomicU64,
    recovered: AtomicU64,
    cached: AtomicU64,
    panics: AtomicU64,
    queue_len: AtomicU64,
    queue_peak: AtomicU64,
    in_flight: AtomicU64,
    live_workers: AtomicU64,
}

/// A point-in-time reading of a server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Work units that entered the system (admitted connections'
    /// requests, plus refused connections, each counted once).
    pub accepted: u64,
    /// Requests answered in full (solves run to completion, control
    /// ops).
    pub completed: u64,
    /// Solves answered with an anytime incumbent and bound sandwich.
    pub degraded: u64,
    /// Work refused by admission control or the closed drain window.
    pub shed: u64,
    /// Work lost to peer faults (bad frames, stalls, disconnects) or
    /// engine panics.
    pub faulted: u64,
    /// Keyed retries answered from the write-ahead journal instead of
    /// executed again.
    pub recovered: u64,
    /// Solves answered from the content-addressed solution cache (an
    /// exact canonical-form hit) instead of dispatched to an engine.
    pub cached: u64,
    /// Solve panics contained by `catch_unwind` (a subset of
    /// `faulted`).
    pub panics: u64,
    /// Current admission queue length.
    pub queue_len: u64,
    /// High-water mark of the admission queue.
    pub queue_peak: u64,
    /// Requests currently being served.
    pub in_flight: u64,
    /// Worker threads currently alive.
    pub live_workers: u64,
}

impl StatsSnapshot {
    /// The conservation law: every accepted unit left through exactly
    /// one terminal counter.
    pub fn balanced(&self) -> bool {
        self.accepted
            == self.completed
                + self.degraded
                + self.shed
                + self.faulted
                + self.recovered
                + self.cached
    }
}

/// In-memory state of one idempotency key, mirrored from the journal.
enum KeyState {
    /// Admitted (journaled) but not yet completed. `executing` is true
    /// while some worker owns the solve; false means the key sits in
    /// the recovery queue and an arriving retry may claim it.
    InFlight {
        request: String,
        started: bool,
        executing: bool,
        checkpoint: Option<String>,
    },
    /// Completed: the journaled response, replayed verbatim to retries.
    Done { response: String },
}

/// The durability layer: the journal plus the key index it mirrors.
///
/// Lock order: `index` before `journal`; the condvar pairs with
/// `index`. Recovery keys move `pending` → executing → `Done`; an
/// arriving retry either claims a pending key (executing it inline,
/// warm from its checkpoint) or waits on the condvar for the owner.
struct Durability {
    journal: Mutex<Journal>,
    index: Mutex<HashMap<String, KeyState>>,
    done_cv: Condvar,
    /// Keys replayed as unfinished, awaiting a worker (or a retry).
    pending: Mutex<VecDeque<String>>,
}

struct Inner {
    opts: ServerOptions,
    stats: Stats,
    draining: AtomicBool,
    drain_cancel: CancelToken,
    /// Set when drain begins: the instant the degrade window closes.
    drain_deadline: Mutex<Option<Instant>>,
    durability: Option<Durability>,
    /// The cross-solve solution cache: exact canonical-form hits answer
    /// before any engine dispatch; completed solves populate it.
    cache: Option<Mutex<tt_cache::SolutionCache>>,
}

impl Inner {
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let mut slot = lock(&self.drain_deadline);
            *slot = Some(Instant::now() + self.opts.drain_window);
        }
    }

    /// Time left in the drain window; `None` when not draining.
    fn drain_remaining(&self) -> Option<Duration> {
        if !self.draining.load(Ordering::SeqCst) {
            return None;
        }
        let slot = *lock(&self.drain_deadline);
        Some(slot.map_or(Duration::ZERO, |d| {
            d.saturating_duration_since(Instant::now())
        }))
    }

    fn snapshot(&self) -> StatsSnapshot {
        let s = &self.stats;
        StatsSnapshot {
            accepted: s.accepted.load(Ordering::SeqCst),
            completed: s.completed.load(Ordering::SeqCst),
            degraded: s.degraded.load(Ordering::SeqCst),
            shed: s.shed.load(Ordering::SeqCst),
            faulted: s.faulted.load(Ordering::SeqCst),
            recovered: s.recovered.load(Ordering::SeqCst),
            cached: s.cached.load(Ordering::SeqCst),
            panics: s.panics.load(Ordering::SeqCst),
            queue_len: s.queue_len.load(Ordering::SeqCst),
            queue_peak: s.queue_peak.load(Ordering::SeqCst),
            in_flight: s.in_flight.load(Ordering::SeqCst),
            live_workers: s.live_workers.load(Ordering::SeqCst),
        }
    }
}

/// Poison-proof lock: the guarded data are plain scalars.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// How one accepted unit of work left the system.
enum Terminal {
    Completed,
    Degraded,
    Shed,
    Faulted,
    Recovered,
    Cached,
}

fn settle(inner: &Inner, t: &Terminal) {
    inner.stats.accepted.fetch_add(1, Ordering::SeqCst);
    tt_obs::metrics::counter("ttserve_accepted_total").inc();
    let (counter, name) = match t {
        Terminal::Completed => (&inner.stats.completed, "ttserve_completed_total"),
        Terminal::Degraded => (&inner.stats.degraded, "ttserve_degraded_total"),
        Terminal::Shed => (&inner.stats.shed, "ttserve_shed_total"),
        Terminal::Faulted => (&inner.stats.faulted, "ttserve_faulted_total"),
        Terminal::Recovered => (&inner.stats.recovered, "ttserve_recovered_total"),
        Terminal::Cached => (&inner.stats.cached, "ttserve_cached_total"),
    };
    counter.fetch_add(1, Ordering::SeqCst);
    tt_obs::metrics::counter(name).inc();
}

/// A running server. Dropping the handle without calling
/// [`wait`](ServerHandle::wait) begins an implicit drain.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// How a drain ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Every thread exited within the drain window plus grace.
    pub clean: bool,
    /// Worker threads still alive when the wait gave up.
    pub leaked_workers: usize,
    /// The final counter reading.
    pub stats: StatsSnapshot,
}

/// Builds and starts a server on `addr` (use port 0 for an ephemeral
/// port; read it back from [`ServerHandle::addr`]).
pub fn start(addr: &str, opts: ServerOptions) -> io::Result<ServerHandle> {
    // Replay the journal *before* binding: a server that cannot trust
    // its durable state must not take traffic. Recovery failures carry
    // `InvalidData` so the binary can map them to their own exit code.
    let durability = match &opts.journal_dir {
        None => None,
        Some(dir) => {
            let (journal, replay) = Journal::open(dir).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("journal recovery: {e}"))
            })?;
            let mut index = HashMap::new();
            let mut pending = VecDeque::new();
            for (key, rec) in replay.completed {
                index.insert(
                    key,
                    KeyState::Done {
                        response: rec.response,
                    },
                );
            }
            for u in replay.unfinished {
                pending.push_back(u.key.clone());
                index.insert(
                    u.key,
                    KeyState::InFlight {
                        request: u.request,
                        started: u.started,
                        executing: false,
                        checkpoint: u.checkpoint,
                    },
                );
            }
            tt_obs::metrics::counter("ttserve_journal_requeued_total")
                .add(u64::try_from(pending.len()).unwrap_or(u64::MAX));
            Some(Durability {
                journal: Mutex::new(journal),
                index: Mutex::new(index),
                done_cv: Condvar::new(),
                pending: Mutex::new(pending),
            })
        }
    };
    let cache = match (&opts.cache_dir, opts.cache_capacity) {
        (None, 0) => None,
        (None, cap) => Some(Mutex::new(tt_cache::SolutionCache::in_memory(cap))),
        (Some(dir), cap) => {
            let cap = if cap == 0 {
                DEFAULT_CACHE_CAPACITY
            } else {
                cap
            };
            Some(Mutex::new(tt_cache::SolutionCache::open(dir, cap)?))
        }
    };
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let inner = Arc::new(Inner {
        opts: opts.clone(),
        stats: Stats::default(),
        draining: AtomicBool::new(false),
        drain_cancel: CancelToken::new(),
        drain_deadline: Mutex::new(None),
        durability,
        cache,
    });
    let workers = opts.workers.max(1);
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(opts.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let mut handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let inner = Arc::clone(&inner);
        let rx = Arc::clone(&rx);
        handles.push(
            std::thread::Builder::new()
                .name(format!("ttserve-worker-{i}"))
                .spawn(move || worker_loop(&inner, &rx))
                .expect("spawn worker"),
        );
    }
    tt_obs::metrics::gauge("ttserve_workers").set(i64::try_from(workers).unwrap_or(i64::MAX));
    let accept = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("ttserve-accept".to_string())
            .spawn(move || accept_loop(&listener, &inner, &tx))
            .expect("spawn accept thread")
    };
    Ok(ServerHandle {
        addr: local,
        inner,
        accept: Some(accept),
        workers: handles,
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// Is the server draining?
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: admissions stop, queued and in-flight
    /// work gets the drain window to finish or degrade.
    pub fn drain(&self) {
        self.inner.begin_drain();
    }

    /// Drains (if not already draining) and waits for every thread to
    /// exit. Fires the cancel token when the drain window closes, then
    /// allows a short grace for engines to observe it.
    pub fn wait(mut self) -> DrainOutcome {
        self.inner.begin_drain();
        let deadline = (*lock(&self.inner.drain_deadline)).unwrap_or_else(Instant::now);
        // Past the window, every still-running solve is told to stop;
        // budget polls observe the token within microseconds of work.
        let grace = deadline + Duration::from_secs(2);
        let mut cancelled = false;
        loop {
            let now = Instant::now();
            if !cancelled && now >= deadline {
                self.inner.drain_cancel.cancel();
                cancelled = true;
            }
            let accept_done = match &self.accept {
                None => true,
                Some(h) => h.is_finished(),
            };
            let workers_done = self.workers.iter().all(JoinHandle::is_finished);
            if accept_done && workers_done {
                break;
            }
            if now >= grace {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(h) = self.accept.take() {
            if h.is_finished() {
                let _ = h.join();
            }
        }
        let mut leaked = 0usize;
        for h in self.workers.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                leaked += 1;
            }
        }
        let stats = self.inner.snapshot();
        DrainOutcome {
            clean: leaked == 0 && stats.in_flight == 0,
            leaked_workers: leaked,
            stats,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A handle abandoned without wait() still stops the threads.
        self.inner.begin_drain();
        self.inner.drain_cancel.cancel();
    }
}

// ---------------------------------------------------------------------
// Accept thread.
// ---------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, inner: &Inner, tx: &SyncSender<TcpStream>) {
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            // Dropping the sender is the workers' end-of-input signal:
            // they drain what is queued, then see Disconnected.
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                // The length is raised *before* the send so a worker
                // dequeuing immediately cannot underflow the counter;
                // a refused send lowers it right back.
                let len = inner.stats.queue_len.fetch_add(1, Ordering::SeqCst) + 1;
                match tx.try_send(stream) {
                    Ok(()) => {
                        inner.stats.queue_peak.fetch_max(len, Ordering::SeqCst);
                        tt_obs::metrics::gauge("ttserve_queue_depth")
                            .set(i64::try_from(len).unwrap_or(i64::MAX));
                    }
                    Err(TrySendError::Full(stream)) => {
                        inner.stats.queue_len.fetch_sub(1, Ordering::SeqCst);
                        shed_connection(inner, stream);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        inner.stats.queue_len.fetch_sub(1, Ordering::SeqCst);
                        return;
                    }
                }
            }
            Err(e) if proto_would_block(&e) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                // Transient accept errors (ECONNABORTED under SYN
                // floods); back off briefly and keep accepting.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn proto_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The queue is full: refuse at the door, from the accept thread, with
/// a typed response the client can back off on. Every step is under a
/// short timeout, so even a hostile peer costs the accept thread tens
/// of milliseconds, never a block.
///
/// The shed is decided at accept time, so the peer's request bytes are
/// usually already in the kernel buffer — and closing a socket with
/// unread data sends an RST that can destroy the queued response
/// before the peer reads it. So: drain what has arrived, answer,
/// half-close, and drain briefly until the peer's EOF confirms
/// delivery, turning the close into a clean FIN.
fn shed_connection(inner: &Inner, mut stream: TcpStream) {
    settle(inner, &Terminal::Shed);
    const DRAIN_STEP: Duration = Duration::from_millis(25);
    const DRAIN_CAP: Duration = Duration::from_millis(100);
    let _ = proto::set_timeouts(&stream, DRAIN_STEP, inner.opts.write_timeout);
    let mut scratch = [0u8; 4096];
    let started = Instant::now();
    loop {
        // A short read means everything in flight has arrived; only a
        // full buffer suggests more is coming and is worth another read.
        match stream.read(&mut scratch) {
            Ok(n) if n == scratch.len() && started.elapsed() < DRAIN_CAP => {}
            _ => break,
        }
    }
    let resp = Response::Error {
        kind: ErrorKind::Overloaded,
        message: "admission queue full; retry with backoff".to_string(),
    };
    if write_frame(&mut stream, &resp.encode()).is_ok() {
        let _ = stream.shutdown(Shutdown::Write);
        let started = Instant::now();
        loop {
            match stream.read(&mut scratch) {
                Ok(n) if n > 0 && started.elapsed() < DRAIN_CAP => {}
                _ => break, // EOF, timeout, or cap: stop waiting
            }
        }
    }
}

// ---------------------------------------------------------------------
// Workers.
// ---------------------------------------------------------------------

fn worker_loop(inner: &Inner, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    inner.stats.live_workers.fetch_add(1, Ordering::SeqCst);
    loop {
        // Replayed recovery jobs take priority over new connections:
        // they are the oldest admitted work in the system.
        if let Some(d) = &inner.durability {
            if !inner.drain_cancel.is_cancelled() {
                // Two statements on purpose: the pending guard must drop
                // before `claim_pending` takes the index lock (the keyed
                // path acquires them in index → pending order).
                let popped = lock(&d.pending).pop_front();
                let claimed = popped.and_then(|key| {
                    claim_pending(d, &key).map(|(request, checkpoint)| (key, request, checkpoint))
                });
                if let Some((key, request, checkpoint)) = claimed {
                    inner.stats.in_flight.fetch_add(1, Ordering::SeqCst);
                    run_recovery(inner, d, &key, &request, checkpoint);
                    inner.stats.in_flight.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
            }
        }
        // Hold the receiver lock only for the dequeue itself.
        let next = {
            let guard = lock(rx);
            guard.recv_timeout(Duration::from_millis(50))
        };
        match next {
            Ok(stream) => {
                let len = inner
                    .stats
                    .queue_len
                    .fetch_sub(1, Ordering::SeqCst)
                    .saturating_sub(1);
                tt_obs::metrics::gauge("ttserve_queue_depth")
                    .set(i64::try_from(len).unwrap_or(i64::MAX));
                serve_connection(inner, stream);
            }
            Err(RecvTimeoutError::Timeout) => {
                // Draining with an empty queue: accept has stopped, so
                // nothing new can arrive once the sender is dropped.
                // Keep polling until Disconnected confirms that.
                if inner.drain_cancel.is_cancelled() {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    inner.stats.live_workers.fetch_sub(1, Ordering::SeqCst);
}

/// Serves one admitted connection: a sequence of frames until the peer
/// closes, faults, or the server drains.
fn serve_connection(inner: &Inner, mut stream: TcpStream) {
    if proto::set_timeouts(&stream, inner.opts.read_timeout, inner.opts.write_timeout).is_err() {
        settle(inner, &Terminal::Faulted);
        return;
    }
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            // Benign ends: the peer closed at a boundary, or idled past
            // the timeout without starting a frame. Nothing entered the
            // system, so nothing is counted.
            Err(FrameError::Closed | FrameError::TimedOut { mid_frame: false }) => return,
            Err(e) => {
                // A malformed or stalled frame is a fault by the peer:
                // one unit in, one unit out through the faulted door.
                settle(inner, &Terminal::Faulted);
                let resp = Response::Error {
                    kind: ErrorKind::BadFrame,
                    message: e.to_string(),
                };
                let _ = write_frame(&mut stream, &resp.encode());
                return;
            }
        };
        let request_timer = tt_obs::metrics::histogram("ttserve_request_nanos").time();
        inner.stats.in_flight.fetch_add(1, Ordering::SeqCst);
        let keep_going = serve_request(inner, &mut stream, &payload);
        inner.stats.in_flight.fetch_sub(1, Ordering::SeqCst);
        drop(request_timer);
        if !keep_going || inner.draining.load(Ordering::SeqCst) {
            // Finish the request in hand, then release the worker so a
            // drain converges instead of tailing a chatty peer.
            return;
        }
    }
}

/// Serves one decoded frame; returns whether the connection should stay
/// open for another request.
fn serve_request(inner: &Inner, stream: &mut TcpStream, payload: &str) -> bool {
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => {
            // The framing held, the content did not: typed refusal, and
            // the connection survives — the peer can retry the request.
            settle(inner, &Terminal::Faulted);
            let resp = Response::Error {
                kind: ErrorKind::BadRequest,
                message: e.to_string(),
            };
            return write_frame(stream, &resp.encode()).is_ok();
        }
    };
    let (response, terminal) = match request {
        Request::Ping => (Response::Pong, Terminal::Completed),
        Request::Healthz => (
            Response::Health {
                draining: inner.draining.load(Ordering::SeqCst),
            },
            Terminal::Completed,
        ),
        Request::Metrics => (
            Response::Metrics(tt_obs::metrics::render_prometheus()),
            Terminal::Completed,
        ),
        Request::Drain => {
            inner.begin_drain();
            (Response::Draining, Terminal::Completed)
        }
        Request::Solve(params) => {
            if inner.durability.is_some() && params.key.is_some() {
                run_keyed_solve(inner, params)
            } else {
                run_solve(inner, params)
            }
        }
    };
    let wrote = write_frame(stream, &response.encode());
    // Exactly one terminal per accepted unit: a response we failed to
    // deliver is a fault regardless of how the solve went.
    match wrote {
        Ok(()) => settle(inner, &terminal),
        Err(_) => settle(inner, &Terminal::Faulted),
    }
    wrote.is_ok()
}

// ---------------------------------------------------------------------
// The solve path.
// ---------------------------------------------------------------------

fn load_instance(params: &SolveParams) -> Result<TtInstance, String> {
    match &params.source {
        Source::Instance(text) => {
            tt_core::io::from_text(text).map_err(|e| format!("cannot parse instance: {e}"))
        }
        Source::Demo(spec) => {
            // Reuse the batch driver's `demo:<domain>:<k>:<seed>` loader
            // so the wire grammar and the manifest grammar cannot drift.
            let item = orchestrate::BatchItem {
                source: format!("demo:{spec}"),
                id: None,
                solver: None,
                timeout_ms: None,
                max_candidates: None,
                faults: None,
            };
            item.load()
        }
    }
}

/// An omitted solver and `"auto"` both get the default chain, headed by
/// the `auto` engine, which makes the same solve-time decision as
/// `ttsolve --solver auto`.
fn build_chain(params: &SolveParams, inst: &TtInstance) -> Result<Vec<Box<dyn Solver>>, String> {
    match params.solver.as_deref() {
        None | Some("auto") => Ok(orchestrate::default_chain(inst)),
        Some(name) => orchestrate::named_chain(inst, name),
    }
}

/// The deadline for one solve: the client's ask clamped to the server
/// cap, further capped to the drain window when one is closing.
fn solve_deadline(inner: &Inner, params: &SolveParams) -> Duration {
    let asked = params
        .timeout_ms
        .map_or(inner.opts.default_deadline, Duration::from_millis);
    let mut deadline = asked.min(inner.opts.max_deadline);
    if let Some(remaining) = inner.drain_remaining() {
        deadline = deadline.min(remaining);
    }
    deadline
}

/// A drain whose window has closed sheds instead of solving.
fn drain_shed(inner: &Inner) -> Option<(Response, Terminal)> {
    let remaining = inner.drain_remaining()?;
    if !remaining.is_zero() {
        return None;
    }
    Some((
        Response::Error {
            kind: ErrorKind::Draining,
            message: "server draining; window closed".to_string(),
        },
        Terminal::Shed,
    ))
}

/// A request's instance, parsed once, and — with a cache enabled — its
/// canonical form, computed once. Both are built before any lock is
/// taken; the cache lookup and the insert after a solve share them.
struct Prepared {
    inst: TtInstance,
    canonical: Option<tt_cache::Canonical>,
}

/// Parses the request's instance and canonicalizes it for the cache.
/// An unparseable instance is refused as a bad request; a panic is
/// contained like an engine panic. The refusal is boxed: it is the cold
/// path, and a `Response` is large.
fn prepare(inner: &Inner, params: &SolveParams) -> Result<Prepared, Box<(Response, Terminal)>> {
    let prepared = catch_unwind(AssertUnwindSafe(|| -> Result<Prepared, String> {
        let inst = load_instance(params)?;
        let canonical = inner.cache.is_some().then(|| tt_cache::canonicalize(&inst));
        Ok(Prepared { inst, canonical })
    }));
    match prepared {
        Ok(Ok(prepared)) => Ok(prepared),
        Ok(Err(message)) => Err(Box::new(bad_request(message))),
        Err(payload) => Err(Box::new(panic_response(inner, payload.as_ref()))),
    }
}

fn bad_request(message: String) -> (Response, Terminal) {
    (
        Response::Error {
            kind: ErrorKind::BadRequest,
            message,
        },
        Terminal::Faulted,
    )
}

/// The typed `panic` refusal for a contained panic, counted in
/// `ttserve_panics_total`.
fn panic_response(inner: &Inner, payload: &(dyn std::any::Any + Send)) -> (Response, Terminal) {
    inner.stats.panics.fetch_add(1, Ordering::SeqCst);
    tt_obs::metrics::counter("ttserve_panics_total").inc();
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    (
        Response::Error {
            kind: ErrorKind::Panic,
            message,
        },
        Terminal::Faulted,
    )
}

fn run_solve(inner: &Inner, params: SolveParams) -> (Response, Terminal) {
    if let Some(shed) = drain_shed(inner) {
        return shed;
    }
    let prepared = match prepare(inner, &params) {
        Ok(prepared) => prepared,
        Err(refused) => return *refused,
    };
    if let Some(hit) = cache_lookup(inner, &params, &prepared) {
        return hit;
    }
    execute_solve(inner, &params, prepared, None, &mut |_| {})
}

/// Consults the solution cache before any engine dispatch: an exact
/// canonical-form hit is answered immediately (`cached: true`,
/// `engine: "cache"`), settling the `cached` terminal. Misses return
/// `None`. The lock is held for the map probe only: the instance was
/// canonicalized beforehand, in [`prepare`]. Only the *unkeyed* path looks
/// up: keyed requests belong to the journal's exactly-once contract,
/// where a dedup replay must return the journaled bytes, not a
/// cache-translated equivalent (they still populate the cache when
/// they complete).
fn cache_lookup(
    inner: &Inner,
    params: &SolveParams,
    prepared: &Prepared,
) -> Option<(Response, Terminal)> {
    let (cache, canonical) = (inner.cache.as_ref()?, prepared.canonical.as_ref()?);
    let report = lock(cache).lookup_canonical(canonical)?;
    let result = SolveResult {
        id: params.id.clone(),
        engine: "cache".to_string(),
        complete: true,
        cost: report.cost.finite(),
        upper: None,
        lower: None,
        reason: None,
        recovered: false,
        cached: true,
        failovers: 0,
        retries: 0,
        wall_us: u64::try_from(report.wall.as_micros()).unwrap_or(u64::MAX),
    };
    Some((Response::Solved(result), Terminal::Cached))
}

/// The solve execution core shared by the plain, keyed, and recovery
/// paths: budget/deadline policy, panic containment, anytime
/// degradation, and the cache insert of the prepared canonical form.
/// `resume` warm-starts the chain from a journaled
/// checkpoint; `on_ckpt` observes every level boundary any
/// engine emits (the journaling hook). Neither settles — the caller
/// owns the terminal.
fn execute_solve(
    inner: &Inner,
    params: &SolveParams,
    prepared: Prepared,
    resume: Option<Checkpoint>,
    on_ckpt: &mut dyn FnMut(&LevelView<'_>),
) -> (Response, Terminal) {
    let deadline = solve_deadline(inner, params);
    let budget = Budget {
        deadline: Some(deadline),
        cancel: Some(inner.drain_cancel.clone()),
        ..Budget::default()
    };
    let id = params.id.clone();
    let solved = catch_unwind(AssertUnwindSafe(|| -> Result<SolveResult, String> {
        let Prepared { inst, canonical } = prepared;
        let chain = build_chain(params, &inst)?;
        let opts = SuperviseOptions {
            resume,
            ..SuperviseOptions::default()
        };
        let timer = tt_obs::metrics::histogram("ttserve_solve_nanos").time();
        let sup = supervise::supervise_with_observer(&inst, &chain, &budget, &opts, on_ckpt);
        drop(timer);
        let report = &sup.report;
        if let (Some(cache), Some(canonical)) = (&inner.cache, canonical) {
            // Completed solves feed the cache regardless of path
            // (plain, keyed, recovery); `insert_canonical` ignores
            // degraded answers itself.
            lock(cache).insert_canonical(canonical, report);
        }
        let cost = report.cost.is_finite().then_some(report.cost.0);
        let (complete, upper, lower, reason) = match report.outcome {
            SolveOutcome::Complete => (true, None, None, None),
            SolveOutcome::Degraded {
                upper_bound,
                lower_bound,
                reason,
            } => (
                false,
                upper_bound.is_finite().then_some(upper_bound.0),
                Some(lower_bound.0),
                Some(reason.to_string()),
            ),
        };
        Ok(SolveResult {
            id: id.clone(),
            engine: sup.engine.clone(),
            complete,
            cost,
            upper,
            lower,
            reason,
            recovered: false,
            cached: false,
            failovers: u64::from(sup.failovers),
            retries: u64::from(sup.retries),
            wall_us: u64::try_from(report.wall.as_micros()).unwrap_or(u64::MAX),
        })
    }));
    match solved {
        Ok(Ok(result)) => {
            let terminal = if result.complete {
                Terminal::Completed
            } else {
                Terminal::Degraded
            };
            (Response::Solved(result), terminal)
        }
        Ok(Err(message)) => bad_request(message),
        Err(payload) => panic_response(inner, payload.as_ref()),
    }
}

// ---------------------------------------------------------------------
// The durable (keyed) solve path.
// ---------------------------------------------------------------------

/// Marks a replayed key as executing and hands back what the executor
/// needs; `None` if the key is gone or someone else claimed it first.
fn claim_pending(d: &Durability, key: &str) -> Option<(String, Option<String>)> {
    let mut index = lock(&d.index);
    match index.get_mut(key) {
        Some(KeyState::InFlight {
            request,
            executing,
            checkpoint,
            ..
        }) if !*executing => {
            *executing = true;
            Some((request.clone(), checkpoint.clone()))
        }
        _ => None,
    }
}

/// Drops a key whose execution failed before a durable result existed,
/// and wakes waiters so they can retry fresh.
fn abandon_key(d: &Durability, key: &str) {
    lock(&d.index).remove(key);
    d.done_cv.notify_all();
}

/// Builds the `recovered: true` reply for a dedup hit from the
/// journaled response payload.
fn recovered_response(id: Option<&str>, stored: &str) -> (Response, Terminal) {
    match Response::decode(stored) {
        Ok(Response::Solved(mut r)) => {
            r.recovered = true;
            if let Some(id) = id {
                r.id = Some(id.to_string());
            }
            (Response::Solved(r), Terminal::Recovered)
        }
        _ => (
            Response::Error {
                kind: ErrorKind::Internal,
                message: "journaled result is not a solve response".to_string(),
            },
            Terminal::Faulted,
        ),
    }
}

/// A solve carrying an idempotency key on a journal-enabled server.
///
/// * Key already completed → the journaled response, `recovered: true`.
/// * Key replayed-but-unclaimed → this request claims it and executes,
///   warm from the journaled checkpoint.
/// * Key executing elsewhere → wait (bounded by the request deadline)
///   for the owner's result.
/// * Key unknown → journal `admitted`, execute, journal `completed`
///   *before* answering — the exactly-once-equivalent contract.
fn run_keyed_solve(inner: &Inner, params: SolveParams) -> (Response, Terminal) {
    let d = inner
        .durability
        .as_ref()
        .expect("keyed path requires a journal");
    let key = params.key.clone().expect("keyed path requires a key");
    if let Some(shed) = drain_shed(inner) {
        return shed;
    }
    let deadline = Instant::now() + solve_deadline(inner, &params);
    let mut index = lock(&d.index);
    loop {
        match index.get(&key) {
            Some(KeyState::Done { response, .. }) => {
                return recovered_response(params.id.as_deref(), response);
            }
            Some(KeyState::InFlight { executing, .. }) => {
                if !*executing {
                    // The key sits in the recovery queue: claim it and
                    // execute inline rather than waiting for a worker.
                    let mut pending = lock(&d.pending);
                    if let Some(pos) = pending.iter().position(|k| k == &key) {
                        pending.remove(pos);
                        drop(pending);
                        drop(index);
                        let Some((_, checkpoint)) = claim_pending(d, &key) else {
                            index = lock(&d.index);
                            continue;
                        };
                        return execute_keyed(inner, d, &key, &params, checkpoint, true);
                    }
                }
                // Another owner is executing this key: wait for its
                // durable result, bounded by this request's deadline.
                let now = Instant::now();
                if now >= deadline {
                    return (
                        Response::Error {
                            kind: ErrorKind::Internal,
                            message: "idempotency key still in flight; retry".to_string(),
                        },
                        Terminal::Faulted,
                    );
                }
                index = d
                    .done_cv
                    .wait_timeout(index, deadline - now)
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            None => {
                index.insert(
                    key.clone(),
                    KeyState::InFlight {
                        request: Request::Solve(params.clone()).encode(),
                        started: false,
                        executing: true,
                        checkpoint: None,
                    },
                );
                drop(index);
                let admitted = JournalEntry::Admitted {
                    key: key.clone(),
                    request: Request::Solve(params.clone()).encode(),
                };
                if lock(&d.journal).append(&admitted).is_err() {
                    abandon_key(d, &key);
                    return (
                        Response::Error {
                            kind: ErrorKind::Internal,
                            message: "journal append failed".to_string(),
                        },
                        Terminal::Faulted,
                    );
                }
                return execute_keyed(inner, d, &key, &params, None, false);
            }
        }
    }
}

/// Executes an admitted keyed solve: journals `started` and every
/// checkpoint, executes (warm from `resume_text` if any), journals
/// `completed` before returning the answer, and wakes key waiters.
/// Does not settle — callers own the terminal.
fn execute_keyed(
    inner: &Inner,
    d: &Durability,
    key: &str,
    params: &SolveParams,
    resume_text: Option<String>,
    already_started: bool,
) -> (Response, Terminal) {
    if !already_started {
        let started = JournalEntry::Started {
            key: key.to_string(),
        };
        if lock(&d.journal).append(&started).is_err() {
            abandon_key(d, key);
            return (
                Response::Error {
                    kind: ErrorKind::Internal,
                    message: "journal append failed".to_string(),
                },
                Terminal::Faulted,
            );
        }
        if let Some(KeyState::InFlight { started, .. }) = lock(&d.index).get_mut(key) {
            *started = true;
        }
    }
    // A checkpoint that fails validation costs a cold start, not an
    // error: resume is an optimization, correctness lives in the
    // admitted/completed pair.
    let resume = resume_text.and_then(|t| Checkpoint::from_text(&t).ok());
    let mut on_ckpt = |view: &LevelView<'_>| {
        // Runs inside the supervised region: must not panic, and a
        // failed append only widens the redo window after a crash.
        let text = view.to_checkpoint().to_text();
        let entry = JournalEntry::Checkpoint {
            key: key.to_string(),
            text: text.clone(),
        };
        if lock(&d.journal).append(&entry).is_ok() {
            if let Some(KeyState::InFlight { checkpoint, .. }) = lock(&d.index).get_mut(key) {
                *checkpoint = Some(text);
            }
        }
    };
    let (response, terminal) = match prepare(inner, params) {
        Ok(prepared) => execute_solve(inner, params, prepared, resume, &mut on_ckpt),
        Err(refused) => *refused,
    };
    match &response {
        Response::Solved(result) => {
            let payload = response.encode();
            let entry = JournalEntry::Completed {
                key: key.to_string(),
                hash: journal::result_hash(result),
                response: payload.clone(),
            };
            if lock(&d.journal).append(&entry).is_err() {
                // The result exists but is not durable: refuse rather
                // than acknowledge an answer a crash could double-run.
                abandon_key(d, key);
                return (
                    Response::Error {
                        kind: ErrorKind::Internal,
                        message: "journal append failed".to_string(),
                    },
                    Terminal::Faulted,
                );
            }
            lock(&d.index).insert(key.to_string(), KeyState::Done { response: payload });
            d.done_cv.notify_all();
            maybe_rotate(inner, d);
            (response, terminal)
        }
        Response::Error { .. } => {
            // Errors are not durable results: the key stays unfinished
            // in the journal (one re-execution per process life) and
            // leaves the index so a retry runs fresh.
            abandon_key(d, key);
            (response, terminal)
        }
        _ => (response, terminal),
    }
}

/// Re-executes one replayed unfinished key with no client attached.
/// Settles directly (completed/degraded/faulted) — there is no
/// response to deliver; the client's retry settles separately as
/// `recovered` when it deduplicates against the journaled result.
fn run_recovery(inner: &Inner, d: &Durability, key: &str, request: &str, ckpt: Option<String>) {
    tt_obs::metrics::counter("ttserve_journal_recovery_runs_total").inc();
    let params = match Request::decode(request) {
        Ok(Request::Solve(p)) => p,
        _ => {
            abandon_key(d, key);
            settle(inner, &Terminal::Faulted);
            return;
        }
    };
    let (_, terminal) = execute_keyed(inner, d, key, &params, ckpt, true);
    settle(inner, &terminal);
}

/// Compacts the journal once the active segment outgrows the rotation
/// threshold: the live state (dedup window + unfinished work with
/// checkpoints) becomes the next segment, older segments are removed.
fn maybe_rotate(inner: &Inner, d: &Durability) {
    let index = lock(&d.index);
    let mut journal = lock(&d.journal);
    if journal.segment_bytes() <= inner.opts.journal_rotate_bytes {
        return;
    }
    let mut live = Vec::new();
    for (key, state) in index.iter() {
        match state {
            KeyState::Done { response } => {
                let hash = match Response::decode(response) {
                    Ok(Response::Solved(r)) => journal::result_hash(&r),
                    _ => 0,
                };
                live.push(JournalEntry::Completed {
                    key: key.clone(),
                    hash,
                    response: response.clone(),
                });
            }
            KeyState::InFlight {
                request,
                started,
                checkpoint,
                ..
            } => {
                live.push(JournalEntry::Admitted {
                    key: key.clone(),
                    request: request.clone(),
                });
                if *started {
                    live.push(JournalEntry::Started { key: key.clone() });
                }
                if let Some(text) = checkpoint {
                    live.push(JournalEntry::Checkpoint {
                        key: key.clone(),
                        text: text.clone(),
                    });
                }
            }
        }
    }
    let _ = journal.rotate(&live);
}
