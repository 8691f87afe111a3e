//! The metric lists and the result line.
//!
//! `BENCHMARK.json` names the same metrics; `METRICS.md` says what
//! each one measures and which end-to-end metric it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] =
    &[("cpu_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Engines of the same-instance matrix.
pub const MATRIX: &[&str] = &["seq", "seq-frontier", "rayon", "rayon-frontier", "memo"];
/// Engines whose share of answers the chain reports.
pub const ANSWERED: &[&str] = &["ccc", "hyper", "rayon", "seq", "cache"];
/// Engines `auto_select` may pick.
pub const PICKS: &[&str] = &["memo", "seq", "rayon-frontier", "rayon"];
/// Deepest DP level reported.
pub const MAX_LEVEL: usize = 20;
/// Layers whose self time per request the traced run reports.
pub const SELF_LAYERS: &[&str] = &[
    "proto",
    "io",
    "canon",
    "store",
    "server",
    "orchestrate",
    "supervise",
    "engine",
    "journal",
    "checkpoint",
    "select",
];

/// Per-layer metrics, reported by every workload in the traced run
/// (0 where the workload does not reach the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for e in MATRIX {
        v.push((format!("engine.{e}.solve_ms"), "ms"));
        v.push((format!("engine.{e}.peak_rss_mb"), "MB"));
        v.push((format!("engine.{e}.cells_per_s"), "1/s"));
    }
    v.push(("engine.hyper.solve_ms".into(), "ms"));
    v.push(("engine.ccc.solve_ms".into(), "ms"));
    for e in ANSWERED {
        v.push((format!("chain.answered.{e}"), "share"));
    }
    for j in 1..=MAX_LEVEL {
        v.push((format!("dp.level_ms.{j}"), "ms"));
    }
    v.push(("select.probe_ms".into(), "ms"));
    for e in PICKS {
        v.push((format!("select.pick.{e}"), "count"));
    }
    for (n, u) in [
        ("supervise.failovers", "count"),
        ("supervise.retries", "count"),
        ("orchestrate.overhead_ms", "ms"),
        ("io.parse_us", "us"),
        ("proto.decode_us", "us"),
        ("proto.encode_us", "us"),
        ("proto.request_bytes", "B"),
        ("proto.response_bytes", "B"),
        ("canon.canonicalize_us", "us"),
        ("canon.decanonicalize_us", "us"),
        ("store.lookup_us", "us"),
        ("store.insert_us", "us"),
        ("store.hit_ratio", "share"),
        ("store.evictions", "count"),
        ("store.segment_bytes", "B"),
        ("store.replay_s", "s"),
        ("server.admit_wait_ms", "ms"),
        ("server.request_ms", "ms"),
        ("server.solve_ms", "ms"),
        ("server.queue_peak", "count"),
        ("server.shed", "count"),
        ("server.degraded", "count"),
        ("journal.append_us", "us"),
        ("journal.appends_per_request", "count"),
        ("journal.bytes_per_request", "B"),
        ("journal.rotations", "count"),
        ("journal.rotate_ms", "ms"),
        ("journal.replay_s", "s"),
        ("checkpoint.to_text_us", "us"),
        ("checkpoint.bytes", "B"),
        ("gen.lateness_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ] {
        v.push((n.into(), u));
    }
    for l in SELF_LAYERS {
        v.push((format!("self_ms.{l}"), "ms"));
    }
    v
}

/// What one run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers, engine disagreements, unbalanced books.
    pub problems: Vec<String>,
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.values.insert(name.into(), v);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones. Missing end-to-end metrics are a bug; per-layer
    /// metrics of layers the workload never reaches read 0.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let list: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut m = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        ))
    }
}
