//! Content-addressed solution store: bounded LRU over canonical forms,
//! with an optional on-disk segment log for warm restarts.
//!
//! Keys are the FNV-1a hash of the canonical text form ([`crate::canon`]),
//! so every relabeling/rescaling/dominated-action variant of an instance
//! lands on one entry. A 64-bit FNV key can collide, so a key only
//! nominates an entry: each entry keeps its canonical instance, and a
//! hit is served only when that instance equals the request's. A
//! mismatch is a miss; an insert or replayed segment line whose key is
//! held by a different instance is skipped and never overwrites the
//! entry. `ttcache_collisions` counts these events, not requests: a
//! colliding lookup is one, a skipped insert or replay line another,
//! so a request that misses on a collision and then inserts its solved
//! answer counts two. A lookup settles exactly one of three ways:
//!
//! - **Hit**: the canonical form is present — the stored cost and tree
//!   are translated back through the caller's [`CanonMap`] with no DP
//!   work at all.
//! - **Partial**: no exact entry, but the instance embeds as an object
//!   subset of a cached superset that still holds its cost slab — the
//!   slab is projected down ([`crate::memo`]) and the level kernel
//!   starts with every level pre-filled.
//! - **Miss**: a cold level-kernel solve of the canonical instance,
//!   whose result (and, for small `k`, its slab) is inserted for next
//!   time.
//!
//! On disk the cache is a [`SegmentLog`] in [`Mode::Lenient`]: inserts
//! are appended, unsynced, to `cache-NNNNNN.seg` segments in the same
//! checksummed line codec as the solve journal, and replay reads each
//! line as bytes and skips any line that fails verification without
//! stopping — for a cache, dropping an entry is always safe, so the
//! strict fail-stop rules of the solve journal do not apply here. Once
//! the active segment has grown by [`SEGMENT_BYTES`] since it was
//! opened or last rotated, the log rotates to the live entries, written
//! in LRU order, coldest first: the directory holds at most that
//! threshold plus one live set, and a reopened cache ranks its entries
//! as the live one did at the rotation (lookups are not logged, so
//! only the inserts since then add to that order) and evicts the same
//! key next. A directory written in the older layout (checksum first)
//! replays as empty once: its lines fail verification and are skipped,
//! and the first rotation removes them. Cost slabs are not persisted
//! (they are large and cheap to regrow), so sub-lattice seeding only
//! draws on entries solved in-process.
//!
//! The serve path canonicalizes once per request, outside the lock that
//! guards the cache, and hands the same [`Canonical`] to
//! [`SolutionCache::lookup_canonical`] and, after a miss is solved, to
//! [`SolutionCache::insert_canonical`].
//!
//! Observability: `ttcache_hits` / `ttcache_partial_hits` /
//! `ttcache_misses` / `ttcache_evictions` / `ttcache_collisions`
//! counters, `ttcache_bytes` gauge, all in the process-global `tt-obs`
//! registry.

use std::collections::HashMap;
use std::path::Path;

use crate::canon::{canonicalize, CanonMap, Canonical, CanonicalForm};
use crate::memo;
use tt_core::cost::Cost;
use tt_core::durable::{Mode, SegmentLog, Segments};
use tt_core::instance::TtInstance;
use tt_core::io as tt_io;
use tt_core::solver::budget::Budget;
use tt_core::solver::checkpoint::{instance_fingerprint, Checkpoint};
use tt_core::solver::engine::{self, SolveOutcome, SolveReport, WorkStats};
use tt_core::solver::kernel;
use tt_core::tree::TtTree;
use tt_core::tree_io;

/// How a cache-mediated solve was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Exact canonical-form hit: no DP work.
    Hit,
    /// Sub-lattice seed from a cached superset: DP levels skipped.
    Partial,
    /// Cold solve (now cached).
    Miss,
}

impl CacheStatus {
    /// Stable lowercase label (wire format, logs).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Partial => "partial",
            CacheStatus::Miss => "miss",
        }
    }
}

/// One cached canonical solution.
struct Entry {
    /// The canonical instance (kept for embedding checks).
    instance: TtInstance,
    /// `C(U)` at canonical scale.
    cost: Cost,
    /// An optimal tree in canonical action indices.
    tree: Option<TtTree>,
    /// The complete cost slab, kept for small instances solved
    /// in-process so later subsets can seed from it.
    table: Option<Vec<Cost>>,
    /// Approximate resident bytes, for the byte bound and gauge.
    bytes: u64,
    /// LRU clock value of the last touch.
    tick: u64,
}

/// A solved canonical form on its way into the store.
struct Solved {
    /// The canonical form: key, text and instance.
    form: CanonicalForm,
    /// `C(U)` at canonical scale.
    cost: Cost,
    /// An optimal tree in canonical action indices.
    tree: Option<TtTree>,
    /// The complete cost slab, when worth keeping.
    table: Option<Vec<Cost>>,
}

/// Largest `k` whose complete cost slab is retained for
/// sub-lattice seeding (2^18 cells ≈ 2 MiB; bigger tables are regrown
/// on demand instead of held).
const MAX_MEMO_K: usize = 18;

/// Bytes the active segment may grow by, past what it held when it was
/// opened or last rotated, before the log rotates to the live entries.
pub const SEGMENT_BYTES: u64 = 1 << 20;

/// Bounded, optionally disk-backed cache of solved canonical forms.
pub struct SolutionCache {
    capacity: usize,
    max_bytes: u64,
    map: HashMap<String, Entry>,
    bytes: u64,
    tick: u64,
    /// The on-disk log, for a disk-backed cache.
    log: Option<SegmentLog>,
    /// The active segment's size when it was opened or last rotated.
    rotated_bytes: u64,
}

impl SolutionCache {
    /// A purely in-memory cache holding at most `capacity` entries.
    #[must_use]
    pub fn in_memory(capacity: usize) -> SolutionCache {
        SolutionCache {
            capacity,
            max_bytes: 64 << 20,
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            log: None,
            rotated_bytes: 0,
        }
    }

    /// Opens (or creates) a disk-backed cache at `dir`: existing
    /// segments are replayed — lines that fail verification skipped —
    /// and new inserts append to the newest segment.
    pub fn open(dir: &Path, capacity: usize) -> std::io::Result<SolutionCache> {
        let mut cache = SolutionCache::in_memory(capacity);
        let segments = Segments {
            dir: dir.to_path_buf(),
            prefix: "cache-",
            suffix: ".seg",
            mode: Mode::Lenient,
        };
        let (log, _) = segments.open(&mut |line| {
            cache.replay_line(line);
            Ok(())
        })?;
        cache.rotated_bytes = log.segment_bytes();
        cache.log = Some(log);
        tt_obs::metrics::gauge("ttcache_bytes").set(bytes_gauge(cache.bytes));
        Ok(cache)
    }

    /// Caps resident bytes (default 64 MiB).
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> SolutionCache {
        self.max_bytes = max_bytes;
        self
    }

    /// Number of cached canonical forms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Solves `inst` through the cache. Returns the report (already in
    /// the caller's numbering and weight scale) and how it was found.
    /// Degraded (budget-cut) solves are returned but never cached.
    pub fn solve(&mut self, inst: &TtInstance, budget: &Budget) -> (SolveReport, CacheStatus) {
        let canonical = canonicalize(inst);
        if let Some(e) = self.find(&canonical.form) {
            tt_obs::metrics::counter("ttcache_hits").inc();
            return (
                hit_report(e.cost, e.tree.as_ref(), &canonical.map),
                CacheStatus::Hit,
            );
        }

        // No exact entry: try to seed from a cached superset lattice.
        let seed = self.find_seed(&canonical.form.instance);
        let status = if seed.is_some() {
            tt_obs::metrics::counter("ttcache_partial_hits").inc();
            CacheStatus::Partial
        } else {
            tt_obs::metrics::counter("ttcache_misses").inc();
            CacheStatus::Miss
        };

        let mut kept: Option<Vec<Cost>> = None;
        let canon_inst = &canonical.form.instance;
        let report = engine::timed_report_with(|| {
            let mut meter = budget.start();
            let fingerprint = instance_fingerprint(canon_inst);
            let mut wave = match seed {
                Some(cost) => Checkpoint::from_slab(fingerprint, canon_inst.k(), cost),
                None => Checkpoint::cold(canon_inst.k(), fingerprint),
            };
            let stats = kernel::sweep(
                canon_inst,
                &mut meter,
                &kernel::Serial,
                &mut wave,
                &mut |_| {},
            );
            let report = kernel::report(canon_inst, &meter, &wave, stats, None);
            if meter.exhausted().is_none() {
                kept = Some(wave.cost);
            }
            report
        });

        let Canonical { form, map } = canonical;
        if let Some(table) = kept {
            let keep_table = form.instance.k() <= MAX_MEMO_K;
            self.insert_entry(
                Solved {
                    form,
                    cost: report.cost,
                    tree: report.tree.clone(),
                    table: keep_table.then_some(table),
                },
                true,
            );
        }
        (decanonicalize_report(&map, report), status)
    }

    /// Exact-hit-only lookup (the fast path in front of a solve queue).
    /// Settles `ttcache_hits` or `ttcache_misses`.
    pub fn lookup_report(&mut self, inst: &TtInstance) -> Option<SolveReport> {
        self.lookup_canonical(&canonicalize(inst))
    }

    /// [`lookup_report`](SolutionCache::lookup_report) for an instance
    /// the caller has already canonicalized, so the canonicalization can
    /// run outside whatever lock guards the cache. A key held by a
    /// different canonical instance is a miss (and a collision).
    pub fn lookup_canonical(&mut self, canonical: &Canonical) -> Option<SolveReport> {
        let Some(e) = self.find(&canonical.form) else {
            tt_obs::metrics::counter("ttcache_misses").inc();
            return None;
        };
        tt_obs::metrics::counter("ttcache_hits").inc();
        Some(hit_report(e.cost, e.tree.as_ref(), &canonical.map))
    }

    /// Inserts a completed report solved elsewhere (e.g. by a serve
    /// worker through the engine registry). Degraded reports, and trees
    /// that use actions the canonicalizer's reduction removed, are
    /// skipped — the cache only ever stores exact canonical optima.
    pub fn insert_report(&mut self, inst: &TtInstance, report: &SolveReport) {
        self.insert_canonical(canonicalize(inst), report);
    }

    /// [`insert_report`](SolutionCache::insert_report) for an instance
    /// the caller has already canonicalized; `report` is in the
    /// original instance's numbering and weight scale.
    pub fn insert_canonical(&mut self, canonical: Canonical, report: &SolveReport) {
        if !report.outcome.is_complete() {
            return;
        }
        // Original cost = scale × canonical cost, exactly.
        let Some(cost) = crate::canon::rescale_cost(report.cost, 1, canonical.map.scale) else {
            return;
        };
        let tree = match &report.tree {
            Some(t) => match canonical.map.canonicalize_tree(t) {
                Some(t) => Some(t),
                None => return,
            },
            None => None,
        };
        self.insert_entry(
            Solved {
                form: canonical.form,
                cost,
                tree,
                table: None,
            },
            true,
        );
    }

    /// The entry holding exactly `form`, touched as most recently used.
    /// A key held by a different canonical instance is a collision: it
    /// counts in `ttcache_collisions` and finds nothing.
    fn find(&mut self, form: &CanonicalForm) -> Option<&Entry> {
        self.tick += 1;
        let e = self.map.get_mut(&form.key)?;
        if e.instance != form.instance {
            tt_obs::metrics::counter("ttcache_collisions").inc();
            return None;
        }
        e.tick = self.tick;
        Some(e)
    }

    /// Looks for a cached superset lattice that embeds `sub` and
    /// projects its table down into a complete seed.
    fn find_seed(&self, sub: &TtInstance) -> Option<Vec<Cost>> {
        for e in self.map.values() {
            let Some(table) = &e.table else { continue };
            let Some(emb) = memo::find_embedding(sub, &e.instance) else {
                continue;
            };
            if let Some(seed) = memo::seed_table(table, &emb, sub.k()) {
                return Some(seed);
            }
        }
        None
    }

    /// Stores `new` unless its key is taken. A key held by the same
    /// canonical instance only refreshes that entry's LRU position; one
    /// held by a different instance is a collision, counted and
    /// skipped, so a forged or colliding key never displaces an entry.
    fn insert_entry(&mut self, new: Solved, journal: bool) {
        let Solved {
            form,
            cost,
            tree,
            table,
        } = new;
        if self.capacity == 0 || (cost.is_inf() && tree.is_some()) {
            return; // capacity-zero cache, or an inconsistent answer
        }
        self.tick += 1;
        if let Some(held) = self.map.get_mut(&form.key) {
            if held.instance == form.instance {
                held.tick = self.tick;
            } else {
                tt_obs::metrics::counter("ttcache_collisions").inc();
            }
            return;
        }
        let tree_text = tree.as_ref().map(tree_io::tree_to_text);
        let bytes = entry_bytes(&form.text, tree_text.as_deref(), table.as_deref());
        let line = (journal && self.log.is_some())
            .then(|| entry_line(&form.key, cost, tree_text.as_deref(), &form.text));
        self.map.insert(
            form.key,
            Entry {
                instance: form.instance,
                cost,
                tree,
                table,
                bytes,
                tick: self.tick,
            },
        );
        self.bytes += bytes;
        self.evict_to_bounds();
        if let Some(line) = line {
            self.persist(&line);
        }
        tt_obs::metrics::gauge("ttcache_bytes").set(bytes_gauge(self.bytes));
    }

    fn evict_to_bounds(&mut self) {
        while self.map.len() > self.capacity || self.bytes > self.max_bytes {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                tt_obs::metrics::counter("ttcache_evictions").inc();
            }
        }
    }

    // -- disk segments --------------------------------------------------

    /// Appends one entry line, then rotates to the live entries once the
    /// active segment has grown by [`SEGMENT_BYTES`]. Best-effort: a
    /// failed write only costs warm-restart coverage, never correctness.
    fn persist(&mut self, line: &str) {
        let Some(log) = &mut self.log else { return };
        if log.append(line).is_ok() && log.segment_bytes() > self.rotated_bytes + SEGMENT_BYTES {
            self.rotate();
        }
    }

    /// Rotates the log to the live entries, coldest first, so a replay
    /// rebuilds the LRU order.
    fn rotate(&mut self) {
        let Some(log) = &mut self.log else { return };
        let mut live: Vec<(&String, &Entry)> = self.map.iter().collect();
        live.sort_unstable_by_key(|(_, e)| e.tick);
        let lines: Vec<String> = live
            .into_iter()
            .map(|(key, e)| {
                let tree = e.tree.as_ref().map(tree_io::tree_to_text);
                entry_line(key, e.cost, tree.as_deref(), &tt_io::to_text(&e.instance))
            })
            .collect();
        if log.rotate(&lines).is_ok() {
            self.rotated_bytes = log.segment_bytes();
        }
    }

    /// Replays one verified segment line; anything malformed is skipped.
    fn replay_line(&mut self, line: &str) {
        let mut fields = line.splitn(4, '\t');
        let (Some(key), Some(cost), Some(tree), Some(text)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return;
        };
        let cost = if cost == "inf" {
            Cost::INF
        } else {
            match cost.parse::<u64>() {
                Ok(v) if v != u64::MAX => Cost::new(v),
                _ => return,
            }
        };
        let text = unescape(text);
        if crate::fnv1a_hex(text.as_bytes()) != key {
            return;
        }
        let Ok(instance) = tt_io::from_text(&text) else {
            return;
        };
        let tree = if tree == "-" {
            None
        } else {
            match tree_io::tree_from_text(&unescape(tree)) {
                Ok(t) if t.validate(&instance).is_ok() => Some(t),
                _ => return,
            }
        };
        self.insert_entry(
            Solved {
                form: CanonicalForm {
                    instance,
                    text,
                    key: key.to_string(),
                },
                cost,
                tree,
                table: None,
            },
            false,
        );
    }
}

/// `bytes` as the (i64) gauge value, saturating.
fn bytes_gauge(bytes: u64) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

fn entry_bytes(text: &str, tree: Option<&str>, table: Option<&[Cost]>) -> u64 {
    let table_cells = table.map_or(0, |t| t.len() as u64);
    64 + text.len() as u64 + tree.map_or(0, |t| t.len() as u64) + table_cells * 8
}

/// One entry's segment-line payload: key, cost, tree and canonical
/// text, tab-separated, the last two escaped.
fn entry_line(key: &str, cost: Cost, tree: Option<&str>, text: &str) -> String {
    format!(
        "{key}\t{}\t{}\t{}",
        cost.finite()
            .map_or_else(|| "inf".into(), |v| v.to_string()),
        tree.map_or_else(|| "-".into(), escape),
        escape(text),
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Assembles the zero-work [`SolveReport`] for an exact hit: the stored
/// canonical answer translated through the caller's map. Goes through
/// [`engine::timed_report_with`] so hits are timed, telemetry-scoped,
/// and counted in `tt_solves_total` like every other solve.
fn hit_report(cost: Cost, tree: Option<&TtTree>, map: &CanonMap) -> SolveReport {
    engine::timed_report_with(|| {
        let mut work = WorkStats::default();
        work.push_extra("cache_hit", 1);
        (
            map.decanonicalize_cost(cost),
            tree.map(|t| map.decanonicalize_tree(t)),
            work,
            SolveOutcome::Complete,
        )
    })
}

/// Translates a report over the canonical instance back to the caller's
/// action numbering and weight scale.
fn decanonicalize_report(map: &CanonMap, report: SolveReport) -> SolveReport {
    let SolveReport {
        cost,
        tree,
        outcome,
        work,
        wall,
        telemetry,
        selection,
    } = report;
    let outcome = match outcome {
        SolveOutcome::Complete => SolveOutcome::Complete,
        SolveOutcome::Degraded {
            upper_bound,
            lower_bound,
            reason,
        } => SolveOutcome::Degraded {
            upper_bound: map.decanonicalize_cost(upper_bound),
            lower_bound: map.decanonicalize_cost(lower_bound),
            reason,
        },
    };
    SolveReport {
        cost: map.decanonicalize_cost(cost),
        tree: tree.map(|t| map.decanonicalize_tree(&t)),
        outcome,
        work,
        wall,
        telemetry,
        selection,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::subset::Subset;

    fn unique_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tt-cache-{tag}-{}-{n}", std::process::id()))
    }

    fn inst_with_weights(w: [u64; 4]) -> TtInstance {
        TtInstanceBuilder::new(4)
            .weights(w)
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2]), 2)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .treatment(Subset::from_iter([3]), 2)
            .build()
            .unwrap()
    }

    #[test]
    fn miss_then_hit_returns_the_identical_report() {
        let mut cache = SolutionCache::in_memory(16);
        let inst = inst_with_weights([4, 3, 2, 1]);
        let (cold, s1) = cache.solve(&inst, &Budget::unlimited());
        assert_eq!(s1, CacheStatus::Miss);
        let (warm, s2) = cache.solve(&inst, &Budget::unlimited());
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(warm.cost, cold.cost);
        assert_eq!(warm.tree, cold.tree);
        assert_eq!(warm.work.extra("cache_hit"), Some(1));
        assert!(warm.outcome.is_complete());
        warm.tree.unwrap().validate(&inst).unwrap();
    }

    #[test]
    fn relabeled_and_rescaled_variants_share_one_entry() {
        let mut cache = SolutionCache::in_memory(16);
        let inst = inst_with_weights([4, 3, 2, 1]);
        cache.solve(&inst, &Budget::unlimited());
        assert_eq!(cache.len(), 1);
        // Uniform ×3 rescale of every weight: same canonical form.
        let scaled = inst_with_weights([12, 9, 6, 3]);
        let (rep, status) = cache.solve(&scaled, &Budget::unlimited());
        assert_eq!(status, CacheStatus::Hit);
        assert_eq!(cache.len(), 1);
        let (cold, _) = SolutionCache::in_memory(1).solve(&scaled, &Budget::unlimited());
        assert_eq!(rep.cost, cold.cost);
        assert_eq!(
            rep.tree.unwrap().expected_cost(&scaled),
            cold.tree.unwrap().expected_cost(&scaled)
        );
    }

    #[test]
    fn subset_instance_partial_hits_and_skips_every_level() {
        let mut cache = SolutionCache::in_memory(16);
        let sup = TtInstanceBuilder::new(5)
            .weights([8, 4, 2, 6, 5])
            .test(Subset::from_iter([0, 1]), 1)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .test(Subset::from_iter([3]), 2)
            .treatment(Subset::from_iter([3, 4]), 5)
            .build()
            .unwrap();
        let (_, s) = cache.solve(&sup, &Budget::unlimited());
        assert_eq!(s, CacheStatus::Miss);

        let sub = TtInstanceBuilder::new(3)
            .weights([4, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .build()
            .unwrap();
        let (rep, s) = cache.solve(&sub, &Budget::unlimited());
        assert_eq!(s, CacheStatus::Partial);
        assert_eq!(
            rep.work.extra("frontier_cells_allocated"),
            Some(0),
            "seeded solve allocates no slab"
        );
        let (cold, _) = SolutionCache::in_memory(1).solve(&sub, &Budget::unlimited());
        assert_eq!(rep.cost, cold.cost);
        assert_eq!(rep.tree, cold.tree);
        // The partial hit inserted the sub's own form: now an exact hit.
        let (_, s) = cache.solve(&sub, &Budget::unlimited());
        assert_eq!(s, CacheStatus::Hit);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let before = tt_obs::metrics::counter("ttcache_evictions").get();
        let mut cache = SolutionCache::in_memory(2);
        let a = inst_with_weights([4, 3, 2, 1]);
        let b = inst_with_weights([7, 5, 3, 2]);
        let c = inst_with_weights([9, 8, 6, 5]);
        cache.solve(&a, &Budget::unlimited());
        cache.solve(&b, &Budget::unlimited());
        cache.solve(&a, &Budget::unlimited()); // touch a: b is now coldest
        cache.solve(&c, &Budget::unlimited());
        assert_eq!(cache.len(), 2);
        assert!(tt_obs::metrics::counter("ttcache_evictions").get() > before);
        assert_eq!(cache.solve(&a, &Budget::unlimited()).1, CacheStatus::Hit);
        assert_eq!(cache.solve(&b, &Budget::unlimited()).1, CacheStatus::Miss);
    }

    #[test]
    fn disk_segments_survive_a_restart_and_skip_corruption() {
        let dir = unique_dir("restart");
        let inst = inst_with_weights([4, 3, 2, 1]);
        let cold_cost;
        {
            let mut cache = SolutionCache::open(&dir, 16).unwrap();
            let (rep, s) = cache.solve(&inst, &Budget::unlimited());
            assert_eq!(s, CacheStatus::Miss);
            cold_cost = rep.cost;
        }
        // Corrupt the log with garbage plus a bad-checksum line.
        let seg = dir.join("cache-000001.seg");
        let mut existing = fs::read_to_string(&seg).unwrap();
        existing.push_str("not a cache line\n");
        existing.push_str("deadbeefdeadbeef\tkey\t1\t-\ttext\n");
        fs::write(&seg, existing).unwrap();

        let mut cache = SolutionCache::open(&dir, 16).unwrap();
        assert_eq!(cache.len(), 1, "good line replayed, corrupt lines skipped");
        let (rep, s) = cache.solve(&inst, &Budget::unlimited());
        assert_eq!(s, CacheStatus::Hit);
        assert_eq!(rep.cost, cold_cost);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_line_keyed_by_the_standard_fnv_prime_is_a_miss() {
        // Builds before the workspace's one hash keyed entries with
        // 64-bit FNV-1a's standard prime.
        fn standard_fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        }
        let dir = unique_dir("old-key");
        let inst = inst_with_weights([4, 3, 2, 1]);
        SolutionCache::open(&dir, 16)
            .unwrap()
            .solve(&inst, &Budget::unlimited());
        let seg = dir.join("cache-000001.seg");
        let line = fs::read_to_string(&seg).unwrap();
        let payload = tt_core::durable::decode_line(line.trim_end().as_bytes()).unwrap();
        let (key, rest) = payload.split_once('\t').unwrap();
        let form = canonicalize(&inst).form;
        assert_eq!(key, form.key);
        let old_key = format!("{:016x}", standard_fnv1a(form.text.as_bytes()));
        assert_ne!(old_key, key);
        assert_eq!(old_key[8..], key[8..], "the low 32 bits agree");
        let old_line = tt_core::durable::encode_line(&format!("{old_key}\t{rest}"));
        fs::write(&seg, old_line).unwrap();

        let mut cache = SolutionCache::open(&dir, 16).unwrap();
        assert_eq!(cache.len(), 0, "the old-keyed line is skipped");
        assert_eq!(
            cache.solve(&inst, &Budget::unlimited()).1,
            CacheStatus::Miss
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replayed_entries_survive_a_rotation() {
        let dir = unique_dir("rotate");
        let insts: Vec<TtInstance> = [[4, 3, 2, 1], [7, 5, 3, 2], [9, 8, 6, 5]]
            .into_iter()
            .map(inst_with_weights)
            .collect();
        let mut cache = SolutionCache::open(&dir, 16).unwrap();
        let costs: Vec<Cost> = insts
            .iter()
            .map(|i| cache.solve(i, &Budget::unlimited()).0.cost)
            .collect();
        drop(cache);
        // Re-rendered from replayed instances, the lines must still
        // verify and key-match at the next open.
        let mut cache = SolutionCache::open(&dir, 16).unwrap();
        cache.rotate();
        drop(cache);
        let segs: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(segs.len(), 1, "older segments removed");
        let mut cache = SolutionCache::open(&dir, 16).unwrap();
        assert_eq!(cache.len(), insts.len());
        for (inst, cost) in insts.iter().zip(costs) {
            assert_eq!(cache.lookup_report(inst).expect("replayed").cost, cost);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_forged_colliding_key_never_serves_or_displaces_an_entry() {
        let collisions = || tt_obs::metrics::counter("ttcache_collisions").get();
        let mut cache = SolutionCache::in_memory(16);
        let original = inst_with_weights([4, 3, 2, 1]);
        let (cold, _) = cache.solve(&original, &Budget::unlimited());
        let held_key = canonicalize(&original).form.key;

        // A different instance whose canonical form claims the same key.
        let other = inst_with_weights([9, 7, 5, 2]);
        let mut forged = canonicalize(&other);
        assert_ne!(forged.form.text, canonicalize(&original).form.text);
        forged.form.key = held_key;

        let before = collisions();
        cache.insert_entry(
            Solved {
                form: forged.form.clone(),
                cost: Cost::new(1),
                tree: None,
                table: None,
            },
            false,
        );
        assert_eq!(collisions(), before + 1, "the skipped insert counts once");
        assert_eq!(cache.len(), 1, "the colliding insert is skipped");

        let before = collisions();
        assert!(
            cache.lookup_canonical(&forged).is_none(),
            "a key held by a different instance is a miss"
        );
        assert_eq!(collisions(), before + 1, "the missed lookup counts once");

        let hit = cache.lookup_report(&original).expect("original still hits");
        assert_eq!(hit.cost, cold.cost);
        assert_eq!(hit.tree, cold.tree);
    }

    #[test]
    fn lookup_and_insert_report_round_trip() {
        let mut cache = SolutionCache::in_memory(16);
        let inst = inst_with_weights([4, 3, 2, 1]);
        assert!(cache.lookup_report(&inst).is_none());
        let report = tt_core::solver::engine::lookup("seq").unwrap().solve(&inst);
        cache.insert_report(&inst, &report);
        let hit = cache.lookup_report(&inst).expect("inserted");
        assert_eq!(hit.cost, report.cost);
        let tree = hit.tree.unwrap();
        tree.validate(&inst).unwrap();
        assert_eq!(tree.expected_cost(&inst), report.cost);
        // A rescaled variant hits the same entry.
        let hit2 = cache
            .lookup_report(&inst_with_weights([8, 6, 4, 2]))
            .unwrap();
        assert_eq!(hit2.cost, Cost::new(report.cost.0 * 2));
    }
}
