//! The solution cache's on-disk segments: damage costs only the entries
//! it touches, and the directory stays bounded.
//!
//! A flipped byte anywhere in a segment, or a cut at any byte, must
//! never panic a reopen, never serve an entry whose line changed, and
//! still replay every entry whose line the fault left alone. Inserting
//! far more distinct instances than the cache holds must rotate the
//! segments to the live entries, so the directory stays within the
//! rotation threshold plus one live set, and a reopened cache must hold
//! the same keys and evict the same one first as the live cache did at
//! the last rotation; a lookup made after it is lost.

use proptest::prelude::*;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use tt_cache::SolutionCache;
use tt_core::cost::Cost;
use tt_core::instance::{TtInstance, TtInstanceBuilder};
use tt_core::subset::Subset;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tt-cache-segments-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Instance `i`: one structure, a distinct canonical form per `i`.
fn instance(i: u64) -> TtInstance {
    TtInstanceBuilder::new(4)
        .weights([10_000 + i, 3, 2, 1])
        .test(Subset::from_iter([0, 1]), 1)
        .test(Subset::from_iter([0, 2]), 2)
        .treatment(Subset::from_iter([0]), 3)
        .treatment(Subset::from_iter([1, 2]), 4)
        .treatment(Subset::from_iter([3]), 2)
        .build()
        .unwrap()
}

/// Serves `inst` as both binaries do: looks its canonical form up and,
/// on a miss, solves with `seq` and offers the report. Returns the cost.
fn serve(cache: &mut SolutionCache, inst: &TtInstance) -> Cost {
    let canonical = tt_cache::canonicalize(inst);
    if let Some(hit) = cache.lookup_canonical(&canonical) {
        return hit.cost;
    }
    let report = tt_core::solver::engine::lookup("seq").unwrap().solve(inst);
    cache.insert_canonical(canonical, &report);
    report.cost
}

/// The files in `dir`, by name.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
}

fn dir_bytes(dir: &Path) -> u64 {
    files(dir)
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum()
}

/// Writes `n` entries to a fresh disk cache, one segment line each, and
/// returns their costs and the segment's bytes.
fn populated(dir: &Path, n: u64) -> (Vec<Cost>, PathBuf, Vec<u8>) {
    let mut cache = SolutionCache::open(dir, 64).unwrap();
    let costs = (0..n).map(|i| serve(&mut cache, &instance(i))).collect();
    drop(cache);
    let segments = files(dir);
    assert_eq!(segments.len(), 1, "one segment: {segments:?}");
    let bytes = std::fs::read(&segments[0]).unwrap();
    (costs, segments[0].clone(), bytes)
}

/// Each line's byte span `[start, end]`, `end` being its newline.
fn line_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut start = 0;
    let mut spans = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    spans
}

/// Reopens the damaged cache and checks every entry: an untouched line
/// is served with its cost, a touched one is not served at all.
fn check_replay(dir: &Path, costs: &[Cost], touched: &dyn Fn(usize) -> bool) {
    let mut cache = SolutionCache::open(dir, 64).unwrap();
    for (i, cost) in costs.iter().enumerate() {
        let hit = cache.lookup_report(&instance(i as u64));
        if touched(i) {
            assert!(
                hit.is_none(),
                "entry {i}: its line changed but it was served"
            );
        } else {
            let hit = hit.unwrap_or_else(|| panic!("entry {i}: untouched line not replayed"));
            assert_eq!(hit.cost, *cost, "entry {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// XOR-ing any byte with any nonzero mask loses only the line it
    /// lands in. A flipped newline joins its line to the next one, so
    /// it touches both.
    #[test]
    fn a_flipped_byte_drops_only_the_lines_it_touches(
        pos_frac in 0u32..=1_000_000,
        flip in 1u8..=0xff,
    ) {
        let dir = temp_dir("flip");
        let (costs, segment, mut bytes) = populated(&dir, 6);
        let spans = line_spans(&bytes);
        prop_assert_eq!(spans.len(), costs.len());
        let pos = (pos_frac as usize * (bytes.len() - 1)) / 1_000_000;
        bytes[pos] ^= flip;
        std::fs::write(&segment, &bytes).unwrap();
        let hit = spans.iter().position(|&(s, e)| (s..=e).contains(&pos)).unwrap();
        let joined = spans[hit].1 == pos;
        check_replay(&dir, &costs, &|i| i == hit || (joined && i == hit + 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cutting the segment at any byte keeps every line that ends
    /// before the cut.
    #[test]
    fn a_cut_at_any_byte_keeps_every_complete_line(cut_frac in 0u32..=1_000_000) {
        let dir = temp_dir("cut");
        let (costs, segment, bytes) = populated(&dir, 6);
        let spans = line_spans(&bytes);
        let cut = (cut_frac as usize * bytes.len()) / 1_000_000;
        std::fs::write(&segment, &bytes[..cut]).unwrap();
        check_replay(&dir, &costs, &|i| spans[i].1 >= cut);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Capacity `C`, three rotations' worth of distinct inserts, with
/// lookups mixed in so the LRU order is not the insertion order. Each
/// new key is looked up [`HOT`] times before it is solved, so the cache
/// admits it: its count beats the coldest entry's, which has been
/// halved (every `10 × C` lookups) at least twice since that entry was
/// last touched. After the third rotation one more lookup warms the
/// coldest key. Lookups are not logged, so the live cache then evicts
/// the next key while a reopened one, ranking its entries as the
/// rotation's snapshot did, still evicts the warmed one.
#[test]
fn cache_disk_stays_bounded_and_a_reopened_cache_evicts_the_same_key() {
    const C: usize = 8;
    const HOT: usize = 24;
    let dir = temp_dir("bounded");
    let mut cache = SolutionCache::open(&dir, C).unwrap();
    let heat = |cache: &mut SolutionCache, inst: &TtInstance| {
        let canonical = tt_cache::canonicalize(inst);
        for _ in 0..HOT {
            assert!(cache.lookup_canonical(&canonical).is_none());
        }
    };
    // The LRU order the live cache must hold, coldest first.
    let mut lru: VecDeque<u64> = VecDeque::new();
    let mut segments = files(&dir);
    let (mut rotations, mut peak) = (0, 0);
    for i in 0.. {
        heat(&mut cache, &instance(i));
        serve(&mut cache, &instance(i));
        lru.push_back(i);
        if lru.len() > C {
            lru.pop_front();
        }
        if i % 5 == 4 {
            let warm = i - 3;
            assert!(cache.lookup_report(&instance(warm)).is_some());
            lru.retain(|&j| j != warm);
            lru.push_back(warm);
        }
        peak = peak.max(dir_bytes(&dir));
        let now = files(&dir);
        if now != segments {
            rotations += 1;
            segments = now;
            if rotations == 3 {
                break;
            }
        }
    }
    // The snapshot the last rotation wrote is one live set.
    assert_eq!(segments.len(), 1, "older segments removed: {segments:?}");
    let snapshot = std::fs::read_to_string(&segments[0]).unwrap();
    assert_eq!(snapshot.lines().count(), C);
    let line = snapshot.lines().map(|l| l.len() as u64 + 1).max().unwrap();
    // The threshold, one live set, and the line that crossed it.
    let bound = tt_cache::store::SEGMENT_BYTES + (C as u64 + 1) * line;
    assert!(peak <= bound, "directory reached {peak} B, bound {bound} B");

    // A lookup after the rotation: the live cache ranks the warmed key
    // last, the snapshot still ranks it first.
    let snapshot_order = lru.clone();
    let warmed = lru.pop_front().unwrap();
    assert!(cache.lookup_report(&instance(warmed)).is_some());
    lru.push_back(warmed);

    // A reopened cache holds the same C keys...
    let mut reopened = SolutionCache::open(&dir, C).unwrap();
    assert_eq!(reopened.len(), C);
    for &j in &lru {
        assert!(
            reopened.lookup_report(&instance(j)).is_some(),
            "key {j} lost"
        );
    }
    // ...and, opened afresh, evicts the snapshot's coldest key first,
    // while the live cache evicts its own coldest.
    let fresh = instance(1 << 40);
    for (mut c, order) in [
        (SolutionCache::open(&dir, C).unwrap(), &snapshot_order),
        (cache, &lru),
    ] {
        heat(&mut c, &fresh);
        serve(&mut c, &fresh);
        assert!(
            c.lookup_report(&instance(order[0])).is_none(),
            "evicted another key"
        );
        for &j in order.iter().skip(1) {
            assert!(c.lookup_report(&instance(j)).is_some(), "key {j} evicted");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
