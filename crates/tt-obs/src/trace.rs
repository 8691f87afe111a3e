//! Span-style tracing into a bounded ring buffer.
//!
//! Off by default: the hot-path cost of a disabled tracer is one
//! relaxed atomic load. When enabled (with a capacity), events append
//! to a ring buffer that drops its **oldest** entries on overflow and
//! counts what it dropped — capture is bounded, never blocking,
//! never reallocating past the cap.
//!
//! Events are drained as JSON lines, one object per event:
//!
//! ```json
//! {"ts":1234,"kind":"span_begin","name":"solve","fields":{"engine":"seq"}}
//! {"ts":5678,"kind":"instant","name":"dp_level","fields":{"level":2,"cells":6,"candidates":30,"nanos":880}}
//! {"ts":9012,"kind":"span_end","name":"solve","fields":{"elapsed_nanos":7778}}
//! ```
//!
//! `ts` is nanoseconds since the first event of the process; `kind` is
//! one of `span_begin` / `span_end` / `instant`; `fields` values are
//! unsigned integers or strings.

use crate::json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity used by [`enable`].
pub const DEFAULT_CAPACITY: usize = 65_536;

/// A field value on a trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer field.
    U64(u64),
    /// A string field.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

/// The kind of a trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    SpanBegin,
    /// A span closed (carries `elapsed_nanos`).
    SpanEnd,
    /// A point event.
    Instant,
}

impl EventKind {
    /// The `kind` string used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Instant => "instant",
        }
    }
}

/// One captured event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch.
    pub ts: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name (e.g. `solve`, `dp_level`, `checkpoint_save`).
    pub name: String,
    /// Named fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// Renders the event as one line of the documented JSONL schema
    /// (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"ts\":{},\"kind\":{},\"name\":{},\"fields\":{{",
            self.ts,
            json::string(self.kind.as_str()),
            json::string(&self.name)
        );
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::string(k));
            out.push(':');
            match v {
                FieldValue::U64(n) => out.push_str(&n.to_string()),
                FieldValue::Str(s) => out.push_str(&json::string(s)),
            }
        }
        out.push_str("}}");
        out
    }
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING: Mutex<Option<Ring>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (first use wins the epoch).
pub fn now_nanos() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns capture on with [`DEFAULT_CAPACITY`].
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Turns capture on with an explicit ring capacity (≥ 1). Re-enabling
/// keeps already-captured events but adopts the new capacity.
pub fn enable_with_capacity(capacity: usize) {
    let capacity = capacity.max(1);
    let mut guard = ring();
    match guard.as_mut() {
        Some(r) => r.capacity = capacity,
        None => {
            *guard = Some(Ring {
                events: VecDeque::new(),
                capacity,
                dropped: 0,
            })
        }
    }
    ENABLED.store(true, Ordering::Release);
}

/// Turns capture off (captured events remain drainable).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Is capture currently on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn ring() -> std::sync::MutexGuard<'static, Option<Ring>> {
    RING.lock().unwrap_or_else(|p| p.into_inner())
}

/// Records an event (no-op while disabled).
pub fn emit(kind: EventKind, name: &str, fields: Vec<(String, FieldValue)>) {
    if !enabled() {
        return;
    }
    let ev = TraceEvent {
        ts: now_nanos(),
        kind,
        name: name.to_string(),
        fields,
    };
    let mut guard = ring();
    if let Some(r) = guard.as_mut() {
        while r.events.len() >= r.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(ev);
    }
}

/// Records a point event.
pub fn instant(name: &str, fields: Vec<(String, FieldValue)>) {
    emit(EventKind::Instant, name, fields);
}

/// Opens a span: emits `span_begin` now and `span_end` (with an
/// `elapsed_nanos` field) when the returned guard drops. Cheap when
/// tracing is disabled — no events, one atomic load per end.
pub fn span(name: &str, fields: Vec<(String, FieldValue)>) -> Span {
    emit(EventKind::SpanBegin, name, fields);
    Span {
        name: name.to_string(),
        start: Instant::now(),
    }
}

/// Guard returned by [`span`].
pub struct Span {
    name: String,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        emit(
            EventKind::SpanEnd,
            &self.name,
            vec![("elapsed_nanos".to_string(), FieldValue::U64(elapsed))],
        );
    }
}

/// Takes every captured event out of the ring (oldest first).
pub fn drain() -> Vec<TraceEvent> {
    let mut guard = ring();
    match guard.as_mut() {
        Some(r) => r.events.drain(..).collect(),
        None => Vec::new(),
    }
}

/// How many events the ring has discarded to stay within capacity.
pub fn dropped() -> u64 {
    ring().as_ref().map_or(0, |r| r.dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is global: each test that touches it holds `TRACER`
    // for its whole body, so none can swap the ring's capacity, toggle
    // it or drain it under another. Each still uses distinct event
    // names and asserts only on its own events.
    static TRACER: Mutex<()> = Mutex::new(());

    fn tracer() -> std::sync::MutexGuard<'static, ()> {
        // A test that failed while holding the lock poisons it; the
        // tracer state is reset by the next test anyway.
        TRACER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_tracer_captures_nothing() {
        let _tracer = tracer();
        disable();
        instant("test_disabled_event", vec![]);
        assert!(!drain().iter().any(|e| e.name == "test_disabled_event"));
    }

    #[test]
    fn spans_emit_begin_and_end_with_elapsed() {
        let _tracer = tracer();
        enable();
        {
            let _s = span(
                "test_span_a",
                vec![("engine".to_string(), FieldValue::from("seq"))],
            );
            instant("test_span_a_inner", vec![("x".to_string(), 7u64.into())]);
        }
        disable();
        let evs: Vec<TraceEvent> = drain()
            .into_iter()
            .filter(|e| e.name.starts_with("test_span_a"))
            .collect();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::SpanBegin);
        assert_eq!(evs[1].kind, EventKind::Instant);
        assert_eq!(evs[2].kind, EventKind::SpanEnd);
        assert!(evs[2].fields.iter().any(|(k, _)| k == "elapsed_nanos"));
        assert!(evs[0].ts <= evs[2].ts, "timestamps are monotone");
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let _tracer = tracer();
        enable_with_capacity(4);
        let before = dropped();
        for i in 0..10u64 {
            instant("test_overflow", vec![("i".to_string(), i.into())]);
        }
        disable();
        let evs: Vec<TraceEvent> = drain()
            .into_iter()
            .filter(|e| e.name == "test_overflow")
            .collect();
        assert!(evs.len() <= 4);
        assert!(dropped() > before, "drops are counted");
        // The survivors are the newest events.
        if let Some(last) = evs.last() {
            assert_eq!(last.fields[0].1, FieldValue::U64(9));
        }
        enable_with_capacity(DEFAULT_CAPACITY);
        disable();
    }

    #[test]
    fn json_lines_are_well_formed() {
        let ev = TraceEvent {
            ts: 42,
            kind: EventKind::Instant,
            name: "dp_level".to_string(),
            fields: vec![
                ("level".to_string(), FieldValue::U64(3)),
                ("engine".to_string(), FieldValue::Str("se\"q".to_string())),
            ],
        };
        assert_eq!(
            ev.to_json(),
            "{\"ts\":42,\"kind\":\"instant\",\"name\":\"dp_level\",\"fields\":{\"level\":3,\"engine\":\"se\\\"q\"}}"
        );
    }
}
