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

pub use metrics::{counter, fnv1a, gauge, histogram, render_prometheus, snapshot};
pub use telemetry::{LevelSample, Telemetry};
pub use trace::{span, TraceEvent};
