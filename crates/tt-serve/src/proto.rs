//! The wire protocol: length-prefixed JSON frames.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The length is validated against [`MAX_FRAME`]
//! **before** any allocation, so a peer claiming a 4 GiB payload costs
//! four bytes of header, not memory. Every way a peer can misbehave —
//! truncated header, truncated payload, oversized claim, non-UTF-8
//! bytes, a stall past the socket timeout — maps to a typed
//! [`FrameError`]; the reader never panics and never over-allocates.
//!
//! Above the framing sit [`Request`] / [`Response`]: the JSON shapes
//! both ends speak. Decoding is tolerant of unknown fields (forward
//! compatibility) but strict about the ones it uses.

use crate::json::{self, Json, JsonError};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Hard ceiling on one frame's payload (1 MiB). Instance text for
/// `k = 25` is well under 100 KiB; anything bigger is hostile.
pub const MAX_FRAME: usize = 1 << 20;

/// Why reading a frame failed. Every variant is a *peer* or *socket*
/// condition — the reader itself has no failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Clean EOF at a frame boundary: the peer closed, no fault.
    Closed,
    /// EOF inside the 4-byte length header.
    ShortHeader,
    /// The header claimed more than [`MAX_FRAME`] bytes.
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// EOF inside the payload: the peer quit mid-frame.
    Truncated,
    /// The socket read/write timeout fired. `mid_frame` distinguishes a
    /// peer idling between requests (benign) from one stalling inside a
    /// frame (a slow-loris).
    TimedOut {
        /// Had the frame already started when the timer fired?
        mid_frame: bool,
    },
    /// The payload was not UTF-8.
    NotUtf8,
    /// Any other socket error, by kind.
    Io(io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::ShortHeader => write!(f, "eof inside frame header"),
            FrameError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Truncated => write!(f, "eof inside frame payload"),
            FrameError::TimedOut { mid_frame: true } => write!(f, "peer stalled mid-frame"),
            FrameError::TimedOut { mid_frame: false } => write!(f, "idle timeout"),
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads exactly `buf.len()` bytes; `mid_frame` seeds the timeout
/// classification (true once any byte of the frame has arrived).
fn read_full(r: &mut dyn Read, buf: &mut [u8], mut mid_frame: bool) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if mid_frame {
                    if got == 0 {
                        FrameError::Truncated
                    } else {
                        FrameError::ShortHeader
                    }
                } else {
                    FrameError::Closed
                })
            }
            Ok(n) => {
                got += n;
                mid_frame = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => return Err(FrameError::TimedOut { mid_frame }),
            Err(e) => return Err(FrameError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Reads one frame and returns its payload.
pub fn read_frame(r: &mut dyn Read) -> Result<String, FrameError> {
    let mut header = [0u8; 4];
    // A clean close before the first header byte is `Closed`; an EOF
    // after 1–3 bytes is `ShortHeader`. `read_full` distinguishes via
    // its mid_frame seed: false here means "frame not started yet".
    match read_full(r, &mut header, false) {
        Ok(()) => {}
        Err(FrameError::Truncated) => return Err(FrameError::ShortHeader),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len: len as u64 });
    }
    let mut buf = vec![0u8; len];
    match read_full(r, &mut buf, true) {
        Ok(()) => {}
        Err(FrameError::ShortHeader) => return Err(FrameError::Truncated),
        Err(e) => return Err(e),
    }
    String::from_utf8(buf).map_err(|_| FrameError::NotUtf8)
}

/// Writes one frame. Fails with `InvalidInput` if the payload exceeds
/// [`MAX_FRAME`] — the cap is symmetric so a compliant peer never has
/// to read an oversized frame from us either.
pub fn write_frame(w: &mut dyn Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "payload exceeds MAX_FRAME",
        ));
    }
    #[allow(clippy::cast_possible_truncation)]
    let len = (bytes.len() as u32).to_be_bytes();
    w.write_all(&len)?;
    w.write_all(bytes)?;
    w.flush()
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// Where a solve request's instance comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// Inline instance text in the repo's `tt 1` format.
    Instance(String),
    /// A workload-catalog spec, `<domain>:<k>:<seed>`.
    Demo(String),
}

/// Parameters of one solve request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveParams {
    /// Caller-chosen request id, echoed back in the response.
    pub id: Option<String>,
    /// The instance.
    pub source: Source,
    /// Engine to pin the chain head to. Absent or `auto` → the default
    /// chain, whose `auto` engine decides at solve time exactly as
    /// `ttsolve --solver auto` does; the response's `engine` names the
    /// engine that ran, never `auto`.
    pub solver: Option<String>,
    /// Wall-clock budget in milliseconds (server clamps to its cap).
    pub timeout_ms: Option<u64>,
    /// Client-supplied idempotency key. On a journal-enabled server a
    /// keyed solve is journaled before execution and a retry of the
    /// same key returns the journaled result (`recovered: true`)
    /// instead of executing twice.
    pub key: Option<String>,
}

/// One decoded request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Solve an instance.
    Solve(SolveParams),
    /// Return the Prometheus metrics text.
    Metrics,
    /// Liveness/readiness probe.
    Healthz,
    /// Begin a graceful drain.
    Drain,
    /// No-op round trip.
    Ping,
}

/// Why a well-framed payload was not a valid request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The payload was not valid JSON.
    Json(JsonError),
    /// The top-level value was not an object.
    NotObject,
    /// No `op` field.
    MissingOp,
    /// An `op` outside the protocol.
    UnknownOp(String),
    /// A known field with the wrong type or an unparseable value.
    BadField(&'static str),
    /// A solve with neither `instance` nor `demo`.
    NoSource,
    /// A solve with both `instance` and `demo`.
    TwoSources,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Json(e) => write!(f, "invalid JSON: {e}"),
            RequestError::NotObject => write!(f, "request must be a JSON object"),
            RequestError::MissingOp => write!(f, "missing 'op'"),
            RequestError::UnknownOp(op) => write!(f, "unknown op '{op}'"),
            RequestError::BadField(name) => write!(f, "bad field '{name}'"),
            RequestError::NoSource => write!(f, "solve needs 'instance' or 'demo'"),
            RequestError::TwoSources => write!(f, "solve takes 'instance' or 'demo', not both"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<JsonError> for RequestError {
    fn from(e: JsonError) -> RequestError {
        RequestError::Json(e)
    }
}

fn opt_str(obj: &Json, key: &'static str) -> Result<Option<String>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or(RequestError::BadField(key)),
    }
}

fn opt_u64(obj: &Json, key: &'static str) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(RequestError::BadField(key)),
    }
}

impl Request {
    /// Decodes a frame payload.
    pub fn decode(payload: &str) -> Result<Request, RequestError> {
        let v = json::parse(payload)?;
        if !matches!(v, Json::Obj(_)) {
            return Err(RequestError::NotObject);
        }
        let op = v
            .get("op")
            .ok_or(RequestError::MissingOp)?
            .as_str()
            .ok_or(RequestError::BadField("op"))?;
        match op {
            "metrics" => Ok(Request::Metrics),
            "healthz" => Ok(Request::Healthz),
            "drain" => Ok(Request::Drain),
            "ping" => Ok(Request::Ping),
            "solve" => {
                let instance = opt_str(&v, "instance")?;
                let demo = opt_str(&v, "demo")?;
                let source = match (instance, demo) {
                    (Some(_), Some(_)) => return Err(RequestError::TwoSources),
                    (Some(text), None) => Source::Instance(text),
                    (None, Some(spec)) => Source::Demo(spec),
                    (None, None) => return Err(RequestError::NoSource),
                };
                Ok(Request::Solve(SolveParams {
                    id: opt_str(&v, "id")?,
                    source,
                    solver: opt_str(&v, "solver")?,
                    timeout_ms: opt_u64(&v, "timeout_ms")?,
                    key: opt_str(&v, "key")?,
                }))
            }
            other => Err(RequestError::UnknownOp(other.to_string())),
        }
    }

    /// Encodes this request as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Metrics => r#"{"op":"metrics"}"#.to_string(),
            Request::Healthz => r#"{"op":"healthz"}"#.to_string(),
            Request::Drain => r#"{"op":"drain"}"#.to_string(),
            Request::Ping => r#"{"op":"ping"}"#.to_string(),
            Request::Solve(p) => {
                let mut s = String::from(r#"{"op":"solve""#);
                match &p.source {
                    Source::Instance(text) => {
                        s.push_str(",\"instance\":");
                        s.push_str(&tt_obs::json::string(text));
                    }
                    Source::Demo(spec) => {
                        s.push_str(",\"demo\":");
                        s.push_str(&tt_obs::json::string(spec));
                    }
                }
                if let Some(id) = &p.id {
                    s.push_str(",\"id\":");
                    s.push_str(&tt_obs::json::string(id));
                }
                if let Some(solver) = &p.solver {
                    s.push_str(",\"solver\":");
                    s.push_str(&tt_obs::json::string(solver));
                }
                if let Some(ms) = p.timeout_ms {
                    let _ = write!(s, ",\"timeout_ms\":{ms}");
                }
                if let Some(key) = &p.key {
                    s.push_str(",\"key\":");
                    s.push_str(&tt_obs::json::string(key));
                }
                s.push('}');
                s
            }
        }
    }
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

/// The typed error classes a server can return. Each maps 1:1 to a
/// wire string, so clients can branch without string matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Admission control shed the request: the bounded queue was full.
    /// Retry with backoff.
    Overloaded,
    /// The server is draining and its degrade window has closed.
    Draining,
    /// The frame itself was malformed (truncated, oversized, not UTF-8).
    BadFrame,
    /// The frame was fine but the request was not.
    BadRequest,
    /// The solve panicked; the request was consumed, the worker
    /// survived.
    Panic,
    /// Any other server-side failure.
    Internal,
}

impl ErrorKind {
    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Draining => "draining",
            ErrorKind::BadFrame => "bad-frame",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Panic => "panic",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses the wire string.
    pub fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "overloaded" => ErrorKind::Overloaded,
            "draining" => ErrorKind::Draining,
            "bad-frame" => ErrorKind::BadFrame,
            "bad-request" => ErrorKind::BadRequest,
            "panic" => ErrorKind::Panic,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// The result of a completed or degraded solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveResult {
    /// The request id, echoed.
    pub id: Option<String>,
    /// Engine that produced the answer.
    pub engine: String,
    /// Ran to completion (`cost` is the engine's full promise)?
    pub complete: bool,
    /// The achieved cost; `None` encodes INF.
    pub cost: Option<u64>,
    /// Degraded only: the incumbent's upper bound (`None` = INF).
    pub upper: Option<u64>,
    /// Degraded only: admissible lower bound on the optimum.
    pub lower: Option<u64>,
    /// Degraded only: why the solve stopped early.
    pub reason: Option<String>,
    /// This answer was replayed from the write-ahead journal (the
    /// request's idempotency key had already completed) rather than
    /// executed fresh.
    pub recovered: bool,
    /// This answer came from the content-addressed solution cache
    /// (exact canonical-form hit) — no solve was dispatched.
    pub cached: bool,
    /// Engines abandoned by supervision before the answer.
    pub failovers: u64,
    /// Retries across the chain.
    pub retries: u64,
    /// Wall-clock of the supervised solve, microseconds.
    pub wall_us: u64,
}

/// One decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A solve finished (possibly degraded — see
    /// [`SolveResult::complete`]).
    Solved(SolveResult),
    /// A typed refusal or failure.
    Error {
        /// The error class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The Prometheus metrics text.
    Metrics(String),
    /// Health probe result.
    Health {
        /// Is the server draining?
        draining: bool,
    },
    /// Drain acknowledged.
    Draining,
    /// Ping acknowledged.
    Pong,
}

impl Response {
    /// Encodes this response as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Response::Pong => r#"{"ok":true,"pong":true}"#.to_string(),
            Response::Draining => r#"{"ok":true,"draining":true}"#.to_string(),
            Response::Health { draining } => format!(
                r#"{{"ok":true,"health":"{}"}}"#,
                if *draining { "draining" } else { "serving" }
            ),
            Response::Metrics(body) => {
                format!(r#"{{"ok":true,"metrics":{}}}"#, tt_obs::json::string(body))
            }
            Response::Error { kind, message } => format!(
                r#"{{"ok":false,"error":"{}","message":{}}}"#,
                kind.as_str(),
                tt_obs::json::string(message)
            ),
            Response::Solved(r) => {
                let mut s = String::from(r#"{"ok":true"#);
                if let Some(id) = &r.id {
                    s.push_str(",\"id\":");
                    s.push_str(&tt_obs::json::string(id));
                }
                s.push_str(",\"engine\":");
                s.push_str(&tt_obs::json::string(&r.engine));
                let _ = write!(s, ",\"complete\":{}", r.complete);
                let num = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
                let _ = write!(s, ",\"cost\":{}", num(r.cost));
                if !r.complete {
                    let _ = write!(s, ",\"upper\":{}", num(r.upper));
                    let _ = write!(s, ",\"lower\":{}", num(r.lower));
                    if let Some(reason) = &r.reason {
                        s.push_str(",\"reason\":");
                        s.push_str(&tt_obs::json::string(reason));
                    }
                }
                if r.recovered {
                    s.push_str(",\"recovered\":true");
                }
                if r.cached {
                    s.push_str(",\"cached\":true");
                }
                let _ = write!(
                    s,
                    ",\"failovers\":{},\"retries\":{},\"wall_us\":{}}}",
                    r.failovers, r.retries, r.wall_us
                );
                s
            }
        }
    }

    /// Maps this response to the server's terminal accounting class —
    /// the counter [`server::settle`](crate::server) charges when it
    /// sends this answer — or `None` for control responses
    /// (metrics/health/drain/ping), which are never settled. This is
    /// the bridge the model-conformance tests use: a real server's
    /// client-observed outcome multiset, classified this way, must be
    /// one the `tt-analyze` lifecycle model reaches.
    pub fn terminal_class(&self) -> Option<&'static str> {
        match self {
            Response::Solved(r) if r.recovered => Some("recovered"),
            Response::Solved(r) if r.cached => Some("cached"),
            Response::Solved(r) if r.complete => Some("completed"),
            Response::Solved(_) => Some("degraded"),
            Response::Error {
                kind: ErrorKind::Overloaded | ErrorKind::Draining,
                ..
            } => Some("shed"),
            Response::Error { .. } => Some("faulted"),
            Response::Metrics(_)
            | Response::Health { .. }
            | Response::Draining
            | Response::Pong => None,
        }
    }

    /// Decodes a frame payload. [`RequestError`] doubles as the decode
    /// error for responses — the failure classes are identical.
    pub fn decode(payload: &str) -> Result<Response, RequestError> {
        let v = json::parse(payload)?;
        if !matches!(v, Json::Obj(_)) {
            return Err(RequestError::NotObject);
        }
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or(RequestError::BadField("ok"))?;
        if !ok {
            let kind = v
                .get("error")
                .and_then(Json::as_str)
                .and_then(ErrorKind::parse)
                .ok_or(RequestError::BadField("error"))?;
            let message = v
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            return Ok(Response::Error { kind, message });
        }
        if v.get("pong").is_some() {
            return Ok(Response::Pong);
        }
        if v.get("draining").is_some() {
            return Ok(Response::Draining);
        }
        if let Some(h) = v.get("health").and_then(Json::as_str) {
            return Ok(Response::Health {
                draining: h == "draining",
            });
        }
        if let Some(m) = v.get("metrics").and_then(Json::as_str) {
            return Ok(Response::Metrics(m.to_string()));
        }
        if v.get("engine").is_some() {
            let field_u64 = |key: &'static str| -> Result<Option<u64>, RequestError> {
                match v.get(key) {
                    None | Some(Json::Null) => Ok(None),
                    Some(n) => n.as_u64().map(Some).ok_or(RequestError::BadField(key)),
                }
            };
            return Ok(Response::Solved(SolveResult {
                id: v.get("id").and_then(Json::as_str).map(str::to_string),
                engine: v
                    .get("engine")
                    .and_then(Json::as_str)
                    .ok_or(RequestError::BadField("engine"))?
                    .to_string(),
                complete: v
                    .get("complete")
                    .and_then(Json::as_bool)
                    .ok_or(RequestError::BadField("complete"))?,
                cost: field_u64("cost")?,
                upper: field_u64("upper")?,
                lower: field_u64("lower")?,
                reason: v.get("reason").and_then(Json::as_str).map(str::to_string),
                recovered: v.get("recovered").and_then(Json::as_bool).unwrap_or(false),
                cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
                failovers: field_u64("failovers")?.unwrap_or(0),
                retries: field_u64("retries")?.unwrap_or(0),
                wall_us: field_u64("wall_us")?.unwrap_or(0),
            }));
        }
        Err(RequestError::MissingOp)
    }
}

/// Sets both socket timeouts, mapping the zero-duration footgun away
/// (`set_read_timeout(Some(ZERO))` is an error on std sockets).
pub fn set_timeouts(
    stream: &std::net::TcpStream,
    read: Duration,
    write: Duration,
) -> io::Result<()> {
    stream.set_read_timeout(Some(read.max(Duration::from_millis(1))))?;
    stream.set_write_timeout(Some(write.max(Duration::from_millis(1))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"op":"ping"}"#).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), r#"{"op":"ping"}"#);
        // A second read at the boundary is a clean close.
        assert_eq!(read_frame(&mut r), Err(FrameError::Closed));
    }

    #[test]
    fn oversized_claim_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r),
            Err(FrameError::Oversized {
                len: u64::from(u32::MAX)
            })
        );
    }

    #[test]
    fn truncation_is_typed_by_phase() {
        let mut r: &[u8] = &[0, 0];
        assert_eq!(read_frame(&mut r), Err(FrameError::ShortHeader));
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r), Err(FrameError::Truncated));
    }

    #[test]
    fn non_utf8_payload_is_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r), Err(FrameError::NotUtf8));
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Metrics,
            Request::Healthz,
            Request::Drain,
            Request::Solve(SolveParams {
                id: Some("r1".to_string()),
                source: Source::Demo("random:8:1".to_string()),
                solver: Some("seq".to_string()),
                timeout_ms: Some(250),
                key: Some("client-7/seq-3".to_string()),
            }),
            Request::Solve(SolveParams {
                id: None,
                source: Source::Instance("tt 1\nobjects 2\n".to_string()),
                solver: None,
                timeout_ms: None,
                key: None,
            }),
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn request_validation_is_typed() {
        assert_eq!(
            Request::decode(r#"{"op":"solve"}"#),
            Err(RequestError::NoSource)
        );
        assert_eq!(
            Request::decode(r#"{"op":"solve","demo":"a:1:2","instance":"x"}"#),
            Err(RequestError::TwoSources)
        );
        assert_eq!(
            Request::decode(r#"{"op":"warp"}"#),
            Err(RequestError::UnknownOp("warp".to_string()))
        );
        assert_eq!(Request::decode(r#"{"a":1}"#), Err(RequestError::MissingOp));
        assert_eq!(Request::decode("[1]"), Err(RequestError::NotObject));
        assert_eq!(
            Request::decode(r#"{"op":"solve","demo":"a:1:2","timeout_ms":"soon"}"#),
            Err(RequestError::BadField("timeout_ms"))
        );
        assert!(matches!(
            Request::decode("{"),
            Err(RequestError::Json(JsonError::Truncated))
        ));
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Pong,
            Response::Draining,
            Response::Health { draining: false },
            Response::Health { draining: true },
            Response::Metrics("# TYPE a counter\na 1\n".to_string()),
            Response::Error {
                kind: ErrorKind::Overloaded,
                message: "queue full".to_string(),
            },
            Response::Solved(SolveResult {
                id: Some("r1".to_string()),
                engine: "seq".to_string(),
                complete: true,
                cost: Some(42),
                upper: None,
                lower: None,
                reason: None,
                recovered: false,
                cached: false,
                failovers: 0,
                retries: 1,
                wall_us: 1234,
            }),
            Response::Solved(SolveResult {
                id: None,
                engine: "supervisor".to_string(),
                complete: false,
                cost: Some(90),
                upper: Some(90),
                lower: Some(17),
                reason: Some("deadline exceeded".to_string()),
                recovered: false,
                cached: false,
                failovers: 2,
                retries: 3,
                wall_us: 77,
            }),
            Response::Solved(SolveResult {
                id: Some("c0-4".to_string()),
                engine: "seq".to_string(),
                complete: true,
                cost: Some(11),
                upper: None,
                lower: None,
                reason: None,
                recovered: true,
                cached: false,
                failovers: 0,
                retries: 0,
                wall_us: 9,
            }),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    }

    #[test]
    fn cached_results_roundtrip_and_have_their_own_terminal_class() {
        let r = SolveResult {
            id: Some("warm-1".to_string()),
            engine: "cache".to_string(),
            complete: true,
            cost: Some(42),
            upper: None,
            lower: None,
            reason: None,
            recovered: false,
            cached: true,
            failovers: 0,
            retries: 0,
            wall_us: 3,
        };
        let resp = Response::Solved(r.clone());
        // `cached` is encoded only when true (wire stays byte-identical
        // for non-cached results) and decodes back.
        assert!(resp.encode().contains(r#""cached":true"#));
        assert_eq!(Response::decode(&resp.encode()), Ok(resp.clone()));
        assert_eq!(resp.terminal_class(), Some("cached"));
        let mut cold = r;
        cold.cached = false;
        assert!(!Response::Solved(cold.clone()).encode().contains("cached"));
        assert_eq!(Response::Solved(cold).terminal_class(), Some("completed"));
    }

    #[test]
    fn recovered_results_have_their_own_terminal_class() {
        let mut r = SolveResult {
            id: None,
            engine: "seq".to_string(),
            complete: true,
            cost: Some(5),
            upper: None,
            lower: None,
            reason: None,
            recovered: true,
            cached: false,
            failovers: 0,
            retries: 0,
            wall_us: 1,
        };
        assert_eq!(
            Response::Solved(r.clone()).terminal_class(),
            Some("recovered")
        );
        r.recovered = false;
        assert_eq!(
            Response::Solved(r.clone()).terminal_class(),
            Some("completed")
        );
        r.complete = false;
        assert_eq!(Response::Solved(r).terminal_class(), Some("degraded"));
    }

    #[test]
    fn every_error_kind_roundtrips() {
        for kind in [
            ErrorKind::Overloaded,
            ErrorKind::Draining,
            ErrorKind::BadFrame,
            ErrorKind::BadRequest,
            ErrorKind::Panic,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::parse("nope"), None);
    }
}
