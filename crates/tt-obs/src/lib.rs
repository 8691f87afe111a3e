//! Observability primitives for the TT workspace: metrics, tracing,
//! and per-solve telemetry.
//!
//! This crate is deliberately **zero-dependency** so every other crate
//! in the workspace (including `tt-core`, which is otherwise
//! dependency-free) can instrument itself without pulling anything in.
//! Three layers, lowest first:
//!
//! * [`metrics`] — a global, lock-free registry of named
//!   [`Counter`](metrics::Counter)s, [`Gauge`](metrics::Gauge)s, and
//!   power-of-two-bucket [`Histogram`](metrics::Histogram)s. Recording
//!   is a relaxed atomic add; registration is a CAS into a fixed probe
//!   table. The whole registry renders as a Prometheus-style text
//!   snapshot (`ttsolve --metrics`).
//! * [`trace`] — a span-style tracer writing into a bounded ring
//!   buffer. Off by default (a single relaxed load on the hot path);
//!   when enabled, events drain as JSON lines (`ttsolve --trace`).
//! * [`telemetry`] — a thread-local collector that engines feed with
//!   per-DP-level samples (wall time, cells, candidate evaluations)
//!   and named counters while a solve runs; `tt-core` attaches the
//!   collected [`Telemetry`] to every
//!   `SolveReport`.
//!
//! The split matters: metrics are *cumulative across the process*
//! (regression harnesses scrape them), telemetry is *per solve*
//! (reports carry it), and trace events are *per moment* (tools replay
//! them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod telemetry;
pub mod trace;

pub use metrics::{counter, gauge, histogram, render_prometheus, snapshot};
pub use telemetry::{LevelSample, Telemetry};
pub use trace::{span, TraceEvent};

/// The workspace's one 64-bit hash: FNV-1a's offset basis and
/// xor-multiply loop, with multiplier `0x1000001b3` where 64-bit FNV-1a
/// has the prime `0x100000001b3`. Checkpoint and segment-log checksums,
/// instance fingerprints, cache keys and the metrics registry's slot
/// hash all use it, and the checkpoint and segment-log formats are
/// pinned to it. The two multipliers share their low 32 bits, so the
/// low 32 bits of the hash are standard FNV-1a's. Not cryptographic —
/// it guards against truncation, bit rot, and editing mistakes, not
/// adversaries.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}
