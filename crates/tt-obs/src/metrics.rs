//! The global metrics registry.
//!
//! Metrics are process-wide cumulative instruments identified by name.
//! Handles are `&'static` — look one up once (a hash + linear probe
//! into a fixed slot table on first use) and record with relaxed
//! atomic operations; the recording path is lock-free and
//! allocation-free.
//!
//! Three instrument kinds:
//!
//! * [`Counter`] — monotonically increasing `u64`.
//! * [`Gauge`] — an `i64` that can move both ways.
//! * [`Histogram`] — counts values into power-of-two buckets
//!   (bucket `b` holds values `v` with `2^(b-1) < v ≤ 2^b`), plus an
//!   exact running count and sum. [`Histogram::time`] returns a guard
//!   that records elapsed nanoseconds on drop.
//!
//! Names should be Prometheus-compatible (`[a-z0-9_]`, e.g.
//! `tt_dp_levels_total`) because [`render_prometheus`] emits them
//! verbatim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of power-of-two buckets per histogram: bucket 63 absorbs
/// everything above `2^62`.
pub const BUCKETS: usize = 64;

/// Registry capacity. A fixed probe table keeps registration simple
/// and handles `'static`; the workspace defines a few dozen metrics,
/// so 512 slots is comfortably oversized. Registration panics if the
/// table ever fills.
const SLOTS: usize = 512;

/// What a registered metric is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic counter.
    Counter,
    /// Bidirectional gauge.
    Gauge,
    /// Power-of-two-bucket histogram.
    Histogram,
}

/// One registered metric. All instruments share this layout; the
/// `kind` decides which fields render.
struct Entry {
    name: String,
    kind: Kind,
    /// Counter value / gauge value (gauges store the `i64` as bits).
    value: AtomicU64,
    /// Histogram running sum and count.
    sum: AtomicU64,
    count: AtomicU64,
    /// Histogram buckets (empty for the scalar kinds).
    buckets: Vec<AtomicU64>,
}

impl Entry {
    fn new(name: &str, kind: Kind) -> Entry {
        let buckets = match kind {
            Kind::Histogram => (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            _ => Vec::new(),
        };
        Entry {
            name: name.to_string(),
            kind,
            value: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            buckets,
        }
    }
}

/// The probe table. A slot is claimed exactly once (`OnceLock`); after
/// that, lookups are a load and a name compare, and the entries live
/// for the life of the process, so handles are truly `'static`.
static TABLE: [OnceLock<Entry>; SLOTS] = [const { OnceLock::new() }; SLOTS];

/// Finds or creates the entry for `name`. The first registration fixes
/// the kind; later lookups under a different kind get the existing
/// entry unchanged (recordings through the wrong handle only touch
/// fields the renderer ignores for that kind).
fn entry(name: &str, kind: Kind) -> &'static Entry {
    let start = (crate::fnv1a(name.as_bytes()) as usize) % SLOTS;
    for i in 0..SLOTS {
        let slot = &TABLE[(start + i) % SLOTS];
        let e = slot.get_or_init(|| Entry::new(name, kind));
        if e.name == name {
            return e;
        }
        // Collision (or lost an init race to a different name): probe on.
    }
    panic!("tt-obs metric table full ({SLOTS} slots): too many distinct metric names");
}

/// A monotonically increasing counter handle.
#[derive(Clone, Copy)]
pub struct Counter(&'static Entry);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a value that can move both ways).
#[derive(Clone, Copy)]
pub struct Gauge(&'static Entry);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.value.store(v as u64, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed) as i64
    }
}

/// A histogram handle over power-of-two buckets.
#[derive(Clone, Copy)]
pub struct Histogram(&'static Entry);

/// Bucket index for a recorded value: 0 holds `v ≤ 1`, bucket `b`
/// holds `2^(b-1) < v ≤ 2^b`, bucket 63 absorbs the rest.
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        usize::min(64 - (v - 1).leading_zeros() as usize, BUCKETS - 1)
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Starts a timer that records elapsed **nanoseconds** into this
    /// histogram when dropped.
    pub fn time(&self) -> HistTimer {
        HistTimer {
            hist: *self,
            start: Instant::now(),
        }
    }
}

/// Guard returned by [`Histogram::time`].
pub struct HistTimer {
    hist: Histogram,
    start: Instant,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(nanos);
    }
}

/// Looks up (registering on first use) the counter `name`.
pub fn counter(name: &str) -> Counter {
    Counter(entry(name, Kind::Counter))
}

/// Looks up (registering on first use) the gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    Gauge(entry(name, Kind::Gauge))
}

/// Looks up (registering on first use) the histogram `name`.
pub fn histogram(name: &str) -> Histogram {
    Histogram(entry(name, Kind::Histogram))
}

/// A point-in-time reading of one metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The metric's registered name.
    pub name: String,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram reading.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Non-empty buckets as `(upper_bound, count)`, ascending;
        /// the last bucket's bound is `u64::MAX` (the overflow bucket).
        buckets: Vec<(u64, u64)>,
    },
}

/// Reads every registered metric, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let mut out = Vec::new();
    for slot in &TABLE {
        let Some(e) = slot.get() else { continue };
        let value = match e.kind {
            Kind::Counter => MetricValue::Counter(e.value.load(Ordering::Relaxed)),
            Kind::Gauge => MetricValue::Gauge(e.value.load(Ordering::Relaxed) as i64),
            Kind::Histogram => {
                let buckets = e
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(b, c)| {
                        let c = c.load(Ordering::Relaxed);
                        (c != 0).then_some((upper_bound(b), c))
                    })
                    .collect();
                MetricValue::Histogram {
                    count: e.count.load(Ordering::Relaxed),
                    sum: e.sum.load(Ordering::Relaxed),
                    buckets,
                }
            }
        };
        out.push(MetricSnapshot {
            name: e.name.clone(),
            value,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Upper bound of bucket `b` (`u64::MAX` for the overflow bucket).
fn upper_bound(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        1u64 << b
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format: a `# TYPE` line per metric, cumulative `_bucket{le="..."}`
/// series plus `_sum`/`_count` for histograms.
pub fn render_prometheus() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for m in snapshot() {
        match m.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "# TYPE {} counter\n{} {}\n", m.name, m.name, v);
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "# TYPE {} gauge\n{} {}\n", m.name, m.name, v);
            }
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                let _ = writeln!(out, "# TYPE {} histogram", m.name);
                let mut cum = 0u64;
                for (le, c) in &buckets {
                    cum += c;
                    if *le == u64::MAX {
                        continue; // folded into +Inf below
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"{}\"}} {}", m.name, le, cum);
                }
                let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", m.name, count);
                let _ = writeln!(out, "{}_sum {}", m.name, sum);
                let _ = writeln!(out, "{}_count {}", m.name, count);
            }
        }
    }
    out
}

/// Zeroes every registered metric (names stay registered). For tests
/// and the bench harness; racing recorders may land on either side of
/// the reset.
pub fn reset() {
    for slot in &TABLE {
        let Some(e) = slot.get() else { continue };
        e.value.store(0, Ordering::Relaxed);
        e.sum.store(0, Ordering::Relaxed);
        e.count.store(0, Ordering::Relaxed);
        for b in &e.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_survive_relookup() {
        let c = counter("test_counter_basic");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(counter("test_counter_basic").get(), before + 5);
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = gauge("test_gauge_basic");
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(-3);
        assert_eq!(gauge("test_gauge_basic").get(), -3);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_records_count_sum_and_buckets() {
        let h = histogram("test_hist_basic");
        h.record(1);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1004);
        let snap = snapshot()
            .into_iter()
            .find(|m| m.name == "test_hist_basic")
            .unwrap();
        match snap.value {
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                assert_eq!(count, 3);
                assert_eq!(sum, 1004);
                assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 3);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn timer_records_nanoseconds() {
        let h = histogram("test_hist_timer");
        {
            let _t = h.time();
            std::hint::black_box(42);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        counter("test_prom_counter").add(2);
        gauge("test_prom_gauge").set(-1);
        let h = histogram("test_prom_hist");
        h.record(3);
        h.record(500);
        let text = render_prometheus();
        assert!(text.contains("# TYPE test_prom_counter counter"));
        assert!(text.contains("# TYPE test_prom_gauge gauge"));
        assert!(text.contains("test_prom_gauge -1"));
        assert!(text.contains("# TYPE test_prom_hist histogram"));
        assert!(text.contains("test_prom_hist_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("test_prom_hist_sum 503"));
        assert!(text.contains("test_prom_hist_count 2"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("test_prom_hist_bucket{le=\"") {
                let v: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(v >= last, "bucket counts must be cumulative");
                last = v;
            }
        }
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        counter("test_sorted_b").inc();
        counter("test_sorted_a").inc();
        let names: Vec<String> = snapshot().into_iter().map(|m| m.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn concurrent_registration_and_recording_is_safe() {
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..100 {
                        counter(&format!("test_race_{}", i % 4)).inc();
                    }
                });
            }
        });
        let total: u64 = (0..4)
            .map(|i| counter(&format!("test_race_{i}")).get())
            .sum();
        assert_eq!(total, 800);
    }
}
