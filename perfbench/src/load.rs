//! The benchmark's load generator: one process, at most `clients`
//! threads, each holding at most one connection at a time.
//!
//! The open loop sends request `i` when it is due, at `start + i/rate`,
//! whether or not earlier requests have been answered by then, and
//! times each request from its due time. When every client thread is
//! still busy at a due time, the request goes out late, and the wait
//! counts in its latency. The lateness itself is recorded separately.
//! The closed loop sends each client's next request as soon as the
//! previous one is answered.

use crate::gen::{Kind, Req};
use crate::server::REQUEST_TIMEOUT;
use crate::stats::{median, WINDOWS};
use crate::trace::Tracer;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tt_serve::proto::{self, read_frame, write_frame, Response};

/// How one request ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// The exact optimum, verified against the reference.
    Exact,
    /// An anytime answer with a bound sandwich around the reference.
    Degraded,
    /// A typed error response or a transport failure.
    Error(String),
    /// A resend of a completed key that was executed again.
    NotRecovered,
    /// A wrong exact cost or a sandwich that excludes the reference.
    Wrong(String),
}

/// One request as the generator saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub index: usize,
    /// From due time (open loop) or send time (closed loop) to answer.
    pub latency_ms: f64,
    /// From send time to answer.
    pub service_ms: f64,
    /// How late the request went out.
    pub lateness_ms: f64,
    /// When the answer arrived, in seconds from the phase start.
    pub done_s: f64,
    pub status: Status,
    pub engine: String,
    pub failovers: u64,
    pub retries: u64,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// Checks a response against the request's reference optimum.
pub fn verify(req: &Req, resp: &Response) -> Status {
    let r = match resp {
        Response::Solved(r) => r,
        Response::Error { kind, message } => {
            return Status::Error(format!("{}: {message}", kind.as_str()))
        }
        other => return Status::Error(format!("unexpected {other:?}")),
    };
    if r.complete {
        if r.cost != Some(req.expect) {
            Status::Wrong(format!(
                "{}: cost {:?}, reference {}",
                req.draft.id, r.cost, req.expect
            ))
        } else if req.draft.kind == Kind::Retry && !r.recovered {
            Status::NotRecovered
        } else {
            Status::Exact
        }
    } else {
        let lo = r.lower.unwrap_or(0);
        let hi = r.upper.unwrap_or(u64::MAX);
        if lo <= req.expect && req.expect <= hi {
            Status::Degraded
        } else {
            Status::Wrong(format!(
                "{}: sandwich [{lo}, {hi}] excludes {}",
                req.draft.id, req.expect
            ))
        }
    }
}

fn enter(t: &mut Option<Tracer>, name: &str, rid: u64) {
    if let Some(t) = t {
        t.enter(name, rid);
    }
}

fn exit(t: &mut Option<Tracer>) {
    if let Some(t) = t {
        t.exit();
    }
}

/// One round trip on a fresh connection, with optional client spans.
/// Returns the answer and the request and response payload sizes.
fn round_trip(
    addr: SocketAddr,
    req: &Req,
    t: &mut Option<Tracer>,
    rid: u64,
) -> (Result<Response, String>, usize, usize) {
    enter(t, "client.request", rid);
    enter(t, "client.encode", rid);
    let payload = req.draft.request().encode();
    exit(t);
    enter(t, "client.wire", rid);
    let answer = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut s| {
            proto::set_timeouts(&s, REQUEST_TIMEOUT, REQUEST_TIMEOUT).map_err(|e| e.to_string())?;
            write_frame(&mut s, &payload).map_err(|e| format!("send: {e}"))?;
            read_frame(&mut s).map_err(|e| format!("receive: {e}"))
        });
    exit(t);
    let out = match answer {
        Ok(text) => {
            enter(t, "client.decode", rid);
            let r = Response::decode(&text).map_err(|e| format!("decode: {e}"));
            exit(t);
            (r, payload.len(), text.len())
        }
        Err(e) => (Err(e), payload.len(), 0),
    };
    exit(t);
    out
}

fn sample(
    index: usize,
    req: &Req,
    answer: (Result<Response, String>, usize, usize),
    start: Instant,
    due: Instant,
    sent: Instant,
    done: Instant,
) -> Sample {
    let (resp, request_bytes, response_bytes) = answer;
    let (status, engine, failovers, retries) = match &resp {
        Ok(r @ Response::Solved(s)) => (verify(req, r), s.engine.clone(), s.failovers, s.retries),
        Ok(r) => (verify(req, r), String::new(), 0, 0),
        Err(e) => (Status::Error(e.clone()), String::new(), 0, 0),
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Sample {
        index,
        latency_ms: ms(done - due),
        service_ms: ms(done - sent),
        lateness_ms: ms(sent.saturating_duration_since(due)),
        done_s: (done - start).as_secs_f64(),
        status,
        engine,
        failovers,
        retries,
        request_bytes,
        response_bytes,
    }
}

/// Sends `reqs` open-loop at `rate` per second from `clients` threads.
/// With `trace`, each thread records client spans, merged on return.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    rate: f64,
    clients: usize,
    trace: Option<Instant>,
) -> (Vec<Sample>, Option<Tracer>) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(reqs.len()));
    let merged = Mutex::new(trace.map(Tracer::new));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut tracer = trace.map(Tracer::new);
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = reqs.get(i) else { break };
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let answer = round_trip(addr, req, &mut tracer, i as u64);
                    mine.push(sample(i, req, answer, start, due, sent, Instant::now()));
                }
                out.lock().expect("no panics while held").extend(mine);
                if let (Some(t), Some(m)) = (
                    tracer,
                    merged.lock().expect("no panics while held").as_mut(),
                ) {
                    m.merge(t);
                }
            });
        }
    });
    let mut v = out.into_inner().expect("threads joined");
    v.sort_by_key(|s| s.index);
    (v, merged.into_inner().expect("threads joined"))
}

/// Sends `reqs` closed-loop from `clients` threads until `limit` has
/// passed (or the list runs out). Returns the samples and the time
/// from start to the last answer.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    clients: usize,
    limit: Option<Duration>,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(reqs.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut mine = Vec::new();
                while limit.is_none_or(|l| start.elapsed() < l) {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = reqs.get(i) else { break };
                    let sent = Instant::now();
                    let answer = round_trip(addr, req, &mut None, i as u64);
                    mine.push(sample(i, req, answer, start, sent, sent, Instant::now()));
                }
                out.lock().expect("no panics while held").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed();
    let mut v = out.into_inner().expect("threads joined");
    v.sort_by_key(|s| s.index);
    (v, elapsed)
}

/// Exact answers per second: the exact answers, in the order they
/// arrived, cut into [`WINDOWS`] consecutive blocks; each block's rate
/// is its answers over the time from the previous block's last answer
/// (the loop's start for the first) to its own last one. The result is
/// the median rate, which, unlike a count in a fixed time window, is
/// not rounded to whole answers.
pub fn capacity(samples: &[Sample]) -> f64 {
    let mut done: Vec<f64> = samples
        .iter()
        .filter(|s| s.status == Status::Exact)
        .map(|s| s.done_s)
        .collect();
    done.sort_by(f64::total_cmp);
    let per = done.len().div_ceil(WINDOWS).max(1);
    let mut prev = 0.0;
    let rates: Vec<f64> = done
        .chunks(per)
        .map(|c| {
            let end = c[c.len() - 1];
            let rate = c.len() as f64 / (end - prev).max(1e-9);
            prev = end;
            rate
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(done_s: f64, status: Status) -> Sample {
        Sample {
            index: 0,
            latency_ms: 0.0,
            service_ms: 0.0,
            lateness_ms: 0.0,
            done_s,
            status,
            engine: String::new(),
            failovers: 0,
            retries: 0,
            request_bytes: 0,
            response_bytes: 0,
        }
    }

    #[test]
    fn capacity_is_the_median_block_rate_of_exact_answers() {
        // 60 exact answers, one every 0.1 s, and a stall of 2 s after
        // the tenth; failures do not count.
        let mut v: Vec<Sample> = (1..=60)
            .map(|i| {
                answer(
                    f64::from(i) * 0.1 + if i > 10 { 2.0 } else { 0.0 },
                    Status::Exact,
                )
            })
            .collect();
        v.push(answer(0.05, Status::Degraded));
        let c = capacity(&v);
        assert!((c - 10.0).abs() < 1e-9, "{c}");
        assert_eq!(capacity(&[]), 0.0);
    }
}
