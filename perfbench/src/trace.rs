//! The benchmark's own spans, recorded around calls into each layer's
//! public functions. Spans live in memory and are written out as JSON
//! lines when the run ends. A layer's self time is its span's duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub req: u64,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// A tracer that is off records nothing, so the same code path runs
    /// untraced for the overhead comparison.
    on: bool,
}

/// Per-layer totals over a trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str, req: u64) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let r = f();
        self.exit();
        r
    }

    /// Number of spans recorded so far: the index the next span gets.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Records a closed span `[start, start + dur_ns]` as a child of the
    /// span recorded at `parent` and moves under it every child of
    /// `parent` that lies inside it. Used for an engine run whose wall
    /// time the layer returns but whose start it does not expose.
    pub fn adopt(&mut self, name: &str, req: u64, start: Instant, dur_ns: u64, parent: usize) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(start);
        let end_ns = start_ns + dur_ns;
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            req,
        });
        for s in &mut self.spans[parent + 1..idx] {
            if s.parent == Some(parent) && s.start_ns >= start_ns && s.end_ns <= end_ns {
                s.parent = Some(idx);
            }
        }
    }

    /// Appends another thread's spans (same time origin).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Calls, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        self.layers_of(|_| true)
    }

    /// Requests that have a span named `with` and none named `without`.
    pub fn requests(&self, with: &str, without: &str) -> std::collections::HashSet<u64> {
        let has = |name: &str| -> std::collections::HashSet<u64> {
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.req)
                .collect()
        };
        let no = has(without);
        has(with).into_iter().filter(|r| !no.contains(r)).collect()
    }

    /// As [`Tracer::layers`], over the spans of requests `keep` accepts.
    pub fn layers_of(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<String, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            if !keep(s.req) {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name.clone()).or_default();
            e.calls += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(kids);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.req
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.enter("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let l = t.layers();
        let (outer, inner) = (l["outer"], l["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let mark = t.len();
        t.span("outer", 1, || ());
        t.adopt("engine", 1, Instant::now(), 10, mark);
        assert_eq!(t.len(), 0);
        assert!(t.layers().is_empty());
    }

    #[test]
    fn adopted_span_takes_the_children_inside_it() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        let mark = t.len();
        t.enter("supervise", 1);
        let inner_start = Instant::now();
        t.span("journal", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let dur = u64::try_from(inner_start.elapsed().as_nanos()).unwrap() + 1_000_000;
        t.adopt("engine", 1, inner_start, dur, mark);
        let l = t.layers();
        assert_eq!(
            l["engine"].self_ns,
            l["engine"].total_ns - l["journal"].total_ns
        );
        assert_eq!(
            l["supervise"].self_ns,
            l["supervise"].total_ns.saturating_sub(l["engine"].total_ns)
        );
    }
}
