//! Content-addressed solution store: a bounded cache of canonical forms
//! with LRU eviction and frequency-gated admission, and an optional
//! on-disk segment log for warm restarts.
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
//! answer counts two. A lookup settles exactly one of two ways:
//!
//! - **Hit**: the canonical form is present — the stored cost and tree
//!   are translated back through the caller's [`CanonMap`] with no DP
//!   work at all.
//! - **Miss**: the caller solves the instance with whatever engine it
//!   runs and offers the report to
//!   [`insert_canonical`](SolutionCache::insert_canonical), which keeps
//!   it only when it is complete.
//!
//! Admission: the store counts each key's sightings. Every lookup, hit
//! or miss, is one; an insert that no missed lookup announced (a keyed
//! serve completion, say) is one too. The counts live in a history of
//! at most `HISTORY_PER_ENTRY` (4) × capacity keys, which, when full,
//! forgets the least recently sighted key that is not resident; every
//! `AGING_PER_ENTRY` (10) × capacity lookups, every count is halved. Below
//! capacity every answer is admitted. At capacity an answer is admitted
//! only if its key's count is strictly greater than the LRU victim's,
//! which it then evicts; otherwise it is dropped and counted in
//! `ttcache_rejected`. So a one-off instance cannot push out an
//! archetype that keeps coming back. Eviction stays LRU, and the byte
//! bound evicts as before.
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
//! as the live one did at the rotation and evicts the same key next.
//! Replayed lines bypass admission, and a dropped answer appends no
//! line. A reopen loses two things. Lookups are not logged, so the
//! lookups made since the last rotation are lost: only the inserts
//! since then add to the rotation's order. Sighting counts are not
//! logged either, so every replayed entry starts at zero, and until
//! the counts rebuild the reopened cache admits like plain LRU. A
//! directory written in the older layout (checksum first)
//! replays as empty once: its lines fail verification and are skipped,
//! and the first rotation removes them. A replayed line is checked
//! before it is served: its key must hash its canonical text, its tree
//! must be valid on that instance and must price to the stored cost. A
//! line that fails the last check is skipped and counted in
//! `ttcache_collisions`, like a line whose key another instance holds.
//!
//! Both ttserve and `ttsolve --cache` canonicalize once per request
//! (ttserve outside the lock that guards the cache) and hand the same
//! [`Canonical`] to [`SolutionCache::lookup_canonical`] and, after a
//! miss is solved, to [`SolutionCache::insert_canonical`].
//!
//! Observability: `ttcache_hits` / `ttcache_misses` /
//! `ttcache_evictions` / `ttcache_rejected` /
//! `ttcache_collisions` counters, `ttcache_bytes` gauge, all in the
//! process-global `tt-obs` registry. The eviction and rejection
//! counters are registered when a cache is made, so a scrape shows
//! the pair from the start.

use std::collections::HashMap;
use std::path::Path;

use crate::canon::{canonicalize, CanonMap, Canonical, CanonicalForm};
use tt_core::cost::Cost;
use tt_core::durable::{Mode, SegmentLog, Segments};
use tt_core::instance::TtInstance;
use tt_core::io as tt_io;
use tt_core::solver::engine::{self, SolveOutcome, SolveReport, WorkStats};
use tt_core::tree::TtTree;
use tt_core::tree_io;

/// One cached canonical solution.
struct Entry {
    /// The canonical instance, compared on every key match.
    instance: TtInstance,
    /// `C(U)` at canonical scale.
    cost: Cost,
    /// An optimal tree in canonical action indices.
    tree: Option<TtTree>,
    /// Approximate resident bytes, for the byte bound and gauge.
    bytes: u64,
    /// LRU clock value of the last touch.
    tick: u64,
}

/// How often a canonical key has been sighted, for admission.
struct Seen {
    /// Sightings, halved every [`AGING_PER_ENTRY`] × capacity lookups.
    count: u32,
    /// Clock value of the last sighting.
    tick: u64,
    /// The last lookup missed and no answer has arrived since: the next
    /// insert is that lookup's answer, not a new sighting.
    awaiting: bool,
}

/// Where a completed answer landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Landing {
    /// Its canonical form was resident: only its LRU position moved.
    Refreshed,
    /// Stored, evicting the LRU victim if the cache was full.
    Admitted,
    /// The cache was full and the key was sighted no more often than
    /// the LRU victim: dropped, counted in `ttcache_rejected`.
    Rejected,
    /// The key is held by a different canonical instance: skipped,
    /// counted in `ttcache_collisions`.
    Collision,
}

/// A solved canonical form on its way into the store.
struct Solved {
    /// The canonical form: key, text and instance.
    form: CanonicalForm,
    /// `C(U)` at canonical scale.
    cost: Cost,
    /// An optimal tree in canonical action indices.
    tree: Option<TtTree>,
}

/// Bytes the active segment may grow by, past what it held when it was
/// opened or last rotated, before the log rotates to the live entries.
pub const SEGMENT_BYTES: u64 = 1 << 20;

/// Keys the admission history remembers, per entry of capacity.
const HISTORY_PER_ENTRY: usize = 4;

/// Lookups, per entry of capacity, between two halvings of every
/// sighting count.
const AGING_PER_ENTRY: u64 = 10;

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
    /// Sighting counts per key, resident or not, for admission.
    seen: HashMap<String, Seen>,
    /// Lookups since the counts were last halved.
    lookups: u64,
}

impl SolutionCache {
    /// A purely in-memory cache holding at most `capacity` entries.
    #[must_use]
    pub fn in_memory(capacity: usize) -> SolutionCache {
        tt_obs::metrics::counter("ttcache_evictions");
        tt_obs::metrics::counter("ttcache_rejected");
        SolutionCache {
            capacity,
            max_bytes: 64 << 20,
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            log: None,
            rotated_bytes: 0,
            seen: HashMap::new(),
            lookups: 0,
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
        self.insert_completed(canonical, report);
    }

    /// [`insert_canonical`](SolutionCache::insert_canonical), saying
    /// where the answer landed; `None` when it was not offered at all.
    fn insert_completed(&mut self, canonical: Canonical, report: &SolveReport) -> Option<Landing> {
        if !report.outcome.is_complete() {
            return None;
        }
        // Original cost = scale × canonical cost, exactly.
        let cost = crate::canon::rescale_cost(report.cost, 1, canonical.map.scale)?;
        let tree = match &report.tree {
            Some(t) => Some(canonical.map.canonicalize_tree(t)?),
            None => None,
        };
        self.insert_entry(
            Solved {
                form: canonical.form,
                cost,
                tree,
            },
            false,
        )
    }

    /// The entry holding exactly `form`, touched as most recently used.
    /// A key held by a different canonical instance is a collision: it
    /// counts in `ttcache_collisions` and finds nothing. Hit or miss,
    /// the lookup is one sighting of the key.
    fn find(&mut self, form: &CanonicalForm) -> Option<&Entry> {
        self.tick += 1;
        let held = self.map.get(&form.key).map(|e| e.instance == form.instance);
        if held == Some(false) {
            tt_obs::metrics::counter("ttcache_collisions").inc();
        }
        let hit = held == Some(true);
        self.sight(&form.key, !hit);
        self.lookups += 1;
        if self.lookups >= AGING_PER_ENTRY * self.capacity as u64 {
            self.lookups = 0;
            for s in self.seen.values_mut() {
                s.count /= 2;
            }
        }
        if !hit {
            return None;
        }
        let e = self.map.get_mut(&form.key)?;
        e.tick = self.tick;
        Some(e)
    }

    /// Counts one sighting of `key`; `missed` marks it as awaiting the
    /// answer its lookup did not find. A new key makes room in a full
    /// history by forgetting the least recently sighted key that is not
    /// resident.
    fn sight(&mut self, key: &str, missed: bool) {
        if self.capacity == 0 {
            return;
        }
        let tick = self.tick;
        if let Some(s) = self.seen.get_mut(key) {
            s.count = s.count.saturating_add(1);
            s.tick = tick;
            s.awaiting = missed;
            return;
        }
        if self.seen.len() >= HISTORY_PER_ENTRY * self.capacity {
            let forgotten = self
                .seen
                .iter()
                .filter(|(k, _)| !self.map.contains_key(*k))
                .min_by_key(|(_, s)| s.tick)
                .map(|(k, _)| k.clone());
            if let Some(k) = forgotten {
                self.seen.remove(&k);
            }
        }
        self.seen.insert(
            key.to_string(),
            Seen {
                count: 1,
                tick,
                awaiting: missed,
            },
        );
    }

    /// The sighting count of `key`, 0 when the history has none.
    fn sightings(&self, key: &str) -> u32 {
        self.seen.get(key).map_or(0, |s| s.count)
    }

    /// The least recently used entry's key.
    fn lru_victim(&self) -> Option<&String> {
        self.map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k)
    }

    /// Stores `new` unless its key is taken. A key held by the same
    /// canonical instance only refreshes that entry's LRU position; one
    /// held by a different instance is a collision, counted and
    /// skipped, so a forged or colliding key never displaces an entry.
    /// At a full cache a solved answer is admitted only when its key has
    /// been sighted strictly more often than the LRU victim's; an
    /// insert no lookup announced counts as one sighting. A `replay`
    /// line bypasses admission, is not sighted, and is not re-logged.
    /// `None` for a capacity-zero cache or an inconsistent answer.
    fn insert_entry(&mut self, new: Solved, replay: bool) -> Option<Landing> {
        let Solved { form, cost, tree } = new;
        if self.capacity == 0 || (cost.is_inf() && tree.is_some()) {
            return None;
        }
        self.tick += 1;
        if !replay {
            let announced = self
                .seen
                .get_mut(&form.key)
                .is_some_and(|s| std::mem::take(&mut s.awaiting));
            if !announced {
                self.sight(&form.key, false);
            }
        }
        if let Some(held) = self.map.get_mut(&form.key) {
            if held.instance == form.instance {
                held.tick = self.tick;
                return Some(Landing::Refreshed);
            }
            tt_obs::metrics::counter("ttcache_collisions").inc();
            return Some(Landing::Collision);
        }
        if !replay && self.map.len() >= self.capacity {
            let victim = self.lru_victim().map_or(0, |k| self.sightings(k));
            if self.sightings(&form.key) <= victim {
                tt_obs::metrics::counter("ttcache_rejected").inc();
                return Some(Landing::Rejected);
            }
        }
        let tree_text = tree.as_ref().map(tree_io::tree_to_text);
        let bytes = entry_bytes(&form.text, tree_text.as_deref());
        let line = (!replay && self.log.is_some())
            .then(|| entry_line(&form.key, cost, tree_text.as_deref(), &form.text));
        self.map.insert(
            form.key,
            Entry {
                instance: form.instance,
                cost,
                tree,
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
        Some(Landing::Admitted)
    }

    fn evict_to_bounds(&mut self) {
        while self.map.len() > self.capacity || self.bytes > self.max_bytes {
            let Some(victim) = self.lru_victim().cloned() else {
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
    /// A tree that does not price to the stored cost is skipped too, and
    /// counted in `ttcache_collisions`: the line is well formed but its
    /// answer is not the one its key promises.
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
        if tree
            .as_ref()
            .is_some_and(|t| t.expected_cost(&instance) != cost)
        {
            tt_obs::metrics::counter("ttcache_collisions").inc();
            return;
        }
        self.insert_entry(
            Solved {
                form: CanonicalForm {
                    instance,
                    text,
                    key: key.to_string(),
                },
                cost,
                tree,
            },
            true,
        );
    }
}

/// `bytes` as the (i64) gauge value, saturating.
fn bytes_gauge(bytes: u64) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

fn entry_bytes(text: &str, tree: Option<&str>) -> u64 {
    64 + text.len() as u64 + tree.map_or(0, |t| t.len() as u64)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::subset::Subset;

    /// One request as both binaries serve it: look the canonical form
    /// up and, on a miss, solve with `seq` and offer the report. Returns
    /// the report and whether it was a hit.
    fn serve(cache: &mut SolutionCache, inst: &TtInstance) -> (SolveReport, bool) {
        let canonical = canonicalize(inst);
        if let Some(hit) = cache.lookup_canonical(&canonical) {
            return (hit, true);
        }
        let report = engine::lookup("seq").unwrap().solve(inst);
        cache.insert_canonical(canonical, &report);
        (report, false)
    }

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
        let (cold, hit) = serve(&mut cache, &inst);
        assert!(!hit);
        let (warm, hit) = serve(&mut cache, &inst);
        assert!(hit);
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
        serve(&mut cache, &inst);
        assert_eq!(cache.len(), 1);
        // Uniform ×3 rescale of every weight: same canonical form.
        let scaled = inst_with_weights([12, 9, 6, 3]);
        let (rep, hit) = serve(&mut cache, &scaled);
        assert!(hit);
        assert_eq!(cache.len(), 1);
        let cold = engine::lookup("seq").unwrap().solve(&scaled);
        assert_eq!(rep.cost, cold.cost);
        assert_eq!(
            rep.tree.unwrap().expected_cost(&scaled),
            cold.tree.unwrap().expected_cost(&scaled)
        );
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let evictions = || tt_obs::metrics::counter("ttcache_evictions").get();
        let resident = |cache: &SolutionCache, inst: &TtInstance| {
            cache.map.contains_key(&canonicalize(inst).form.key)
        };
        let mut cache = SolutionCache::in_memory(2);
        let a = inst_with_weights([4, 3, 2, 1]);
        let b = inst_with_weights([7, 5, 3, 2]);
        let c = inst_with_weights([9, 8, 6, 5]);
        let once = inst_with_weights([11, 8, 6, 5]);
        serve(&mut cache, &a);
        serve(&mut cache, &b);
        serve(&mut cache, &a); // touch a: b is now coldest

        // A one-off key, sighted once like the coldest entry, is
        // rejected and evicts nothing.
        let before = evictions();
        assert!(!serve(&mut cache, &once).1);
        assert_eq!(cache.len(), 2);
        assert!(!resident(&cache, &once));
        assert!(
            resident(&cache, &a) && resident(&cache, &b),
            "a rejected answer evicts nothing"
        );

        // A key looked up more often than the coldest entry evicts
        // exactly that entry.
        assert!(cache.lookup_report(&c).is_none());
        serve(&mut cache, &c);
        assert_eq!(cache.len(), 2);
        assert!(evictions() > before);
        assert!(!resident(&cache, &b), "the coldest entry is the victim");
        assert!(serve(&mut cache, &a).1);
        assert!(serve(&mut cache, &c).1);
    }

    #[test]
    fn every_completed_insert_lands_exactly_one_way() {
        let rejected = || tt_obs::metrics::counter("ttcache_rejected").get();
        let seq = engine::lookup("seq").unwrap();
        let insts: Vec<TtInstance> = (0..6)
            .map(|i| inst_with_weights([10 + i, 3, 2, 1]))
            .collect();
        let mut cache = SolutionCache::in_memory(3);
        let (mut tally, mut rejections) = ([0usize; 4], 0);
        let before = rejected();
        let mut state = 7u64;
        for step in 0..200 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (state >> 33) as usize % insts.len();
            let inst = &insts[i];
            if state >> 62 == 0 {
                cache.lookup_report(inst);
                continue;
            }
            let mut canonical = canonicalize(inst);
            if step % 17 == 0 {
                // Forge the key of some resident entry.
                if let Some(k) = cache.map.keys().find(|k| **k != canonical.form.key) {
                    canonical.form.key = k.clone();
                }
            }
            let key = canonical.form.key.clone();
            let held = cache
                .map
                .get(&key)
                .map(|e| e.instance == canonical.form.instance);
            let (len, full) = (cache.len(), cache.len() == cache.capacity);
            let landing = cache
                .insert_completed(canonical, &seq.solve(inst))
                .expect("a complete report is offered");
            let same = cache
                .map
                .get(&key)
                .map(|e| e.instance == canonicalize(inst).form.instance);
            match landing {
                Landing::Refreshed => assert_eq!((held, same), (Some(true), Some(true))),
                Landing::Collision => assert_eq!((held, same), (Some(false), Some(false))),
                Landing::Admitted => {
                    assert_eq!((held, same), (None, Some(true)));
                    assert_eq!(cache.len(), len + usize::from(!full));
                }
                Landing::Rejected => {
                    assert!(full && held.is_none() && same.is_none());
                    assert_eq!(cache.len(), len);
                    rejections += 1;
                }
            }
            tally[landing as usize] += 1;
        }
        assert!(
            tally.iter().all(|&n| n > 0),
            "every landing occurs: {tally:?}"
        );
        assert!(rejected() - before >= rejections);
    }

    #[test]
    fn disk_segments_survive_a_restart_and_skip_corruption() {
        let dir = unique_dir("restart");
        let inst = inst_with_weights([4, 3, 2, 1]);
        let cold_cost;
        {
            let mut cache = SolutionCache::open(&dir, 16).unwrap();
            let (rep, hit) = serve(&mut cache, &inst);
            assert!(!hit);
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
        let (rep, hit) = serve(&mut cache, &inst);
        assert!(hit);
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
        serve(&mut SolutionCache::open(&dir, 16).unwrap(), &inst);
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
        assert!(!serve(&mut cache, &inst).1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_line_whose_tree_does_not_price_to_its_cost_is_skipped() {
        let collisions = || tt_obs::metrics::counter("ttcache_collisions").get();
        let dir = unique_dir("wrong-cost");
        let inst = inst_with_weights([4, 3, 2, 1]);
        serve(&mut SolutionCache::open(&dir, 16).unwrap(), &inst);
        let seg = dir.join("cache-000001.seg");
        let line = fs::read_to_string(&seg).unwrap();
        let payload = tt_core::durable::decode_line(line.trim_end().as_bytes()).unwrap();
        let mut fields: Vec<&str> = payload.splitn(4, '\t').collect();
        let cost: u64 = fields[1].parse().unwrap();
        let wrong = (cost + 1).to_string();
        fields[1] = &wrong;
        // The checksum covers the rewritten payload: only the cost check
        // can reject this line.
        fs::write(&seg, tt_core::durable::encode_line(&fields.join("\t"))).unwrap();

        let before = collisions();
        let mut cache = SolutionCache::open(&dir, 16).unwrap();
        assert_eq!(cache.len(), 0, "the mispriced line is skipped");
        assert!(collisions() > before, "the skipped line is counted");
        assert!(!serve(&mut cache, &inst).1);
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
        let costs: Vec<Cost> = insts.iter().map(|i| serve(&mut cache, i).0.cost).collect();
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
        let (cold, _) = serve(&mut cache, &original);
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
            },
            true,
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
        let report = engine::lookup("seq").unwrap().solve(&inst);
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
