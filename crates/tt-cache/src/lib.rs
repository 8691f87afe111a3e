//! Cross-solve canonicalization and a content-addressed solution cache.
//!
//! At fleet traffic most served instances are near-duplicates —
//! relabelings, reorderings, and uniformly rescaled weights of a few
//! archetypes — so the `Θ(N·2^k)` DP keeps re-solving instances it has
//! already solved. This crate removes that waste in two layers:
//!
//! 1. **Canonicalization** ([`canon`]): objects are relabeled to sorted
//!    weight order, ties broken by colour refinement so that relabeling
//!    an instance does not change the result, weights are normalized by
//!    their gcd, and dominated
//!    or duplicate actions are dropped by
//!    [`tt_core::preprocess::reduce`]. The result is a
//!    [`canon::CanonicalForm`] — a canonical instance plus its exact
//!    text rendering — together with the permutation/scale/index maps
//!    needed to translate a cached answer (cost *and* tree) back into
//!    the caller's numbering.
//! 2. **Content-addressed store** ([`store`]): solved canonical forms
//!    are kept in a bounded cache keyed by the FNV-1a hash of the
//!    canonical text. It evicts the least recently used entry, and once
//!    full it admits a new answer only if its key has been looked up
//!    more often than that victim's. It has byte accounting and an optional
//!    on-disk segment log for warm restarts (`tt_core::durable`, the
//!    solve journal's format in its lenient mode). A key match
//!    is only a candidate: the stored canonical instance must equal the
//!    request's before a hit is served.
//!
//! The cache does not solve. A caller canonicalizes once, looks the
//! form up, and on a miss runs its own solve and offers the report
//! back with the same [`Canonical`]; ttserve and `ttsolve --cache` both
//! work this way.
//!
//! Observability: every lookup settles exactly one of the
//! `ttcache_hits` / `ttcache_misses` counters,
//! residency is exported as the `ttcache_bytes` gauge, evictions as
//! `ttcache_evictions`, answers a full cache declined to admit as
//! `ttcache_rejected`, and key-collision events (each lookup, insert
//! or replayed line whose key is held by a different canonical
//! instance, or whose replayed tree does not price to its stored cost,
//! counts one) as `ttcache_collisions` — all through the process-global `tt-obs`
//! registry, so they render in `ttsolve --metrics` and `ttserve scrape`
//! without extra wiring.

pub mod canon;
pub mod store;

pub use canon::{canonicalize, CanonMap, Canonical, CanonicalForm};
pub use store::SolutionCache;

/// Entries a disk-backed cache holds when its user names no capacity
/// (`ttsolve --cache`, `ttserve serve --cache` without
/// `--cache-capacity`).
pub const DEFAULT_CAPACITY: usize = 1024;

/// [`tt_obs::fnv1a`] over a byte string, rendered in the canonical
/// 16-lowercase-hex-digit form that checkpoint and journal checksums
/// also use.
#[must_use]
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", tt_obs::fnv1a(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_hex_shaped() {
        let h = fnv1a_hex(b"tt 1\nobjects 2\n");
        assert_eq!(h.len(), 16);
        assert!(h.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(h, fnv1a_hex(b"tt 1\nobjects 2\n"));
        assert_ne!(h, fnv1a_hex(b"tt 1\nobjects 3\n"));
        // The empty string hashes to the FNV offset basis.
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
    }
}
