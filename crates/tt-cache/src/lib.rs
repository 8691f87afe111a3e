//! Cross-solve canonicalization and a content-addressed solution cache.
//!
//! At fleet traffic most served instances are near-duplicates —
//! relabelings, reorderings, and uniformly rescaled weights of a few
//! archetypes — so the `Θ(N·2^k)` DP keeps recomputing sub-lattices it
//! has already priced. This crate removes that waste in three layers:
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
//! 3. **Sub-lattice memo** ([`memo`]): when a new instance embeds as an
//!    object-subset of an already-solved superset instance, the cached
//!    cost slab is projected into a complete seed slab for the level
//!    kernel ([`tt_core::solver::kernel`]), so even a partial hit skips
//!    every DP level.
//!
//! Observability: every lookup settles exactly one of the
//! `ttcache_hits` / `ttcache_partial_hits` / `ttcache_misses` counters,
//! residency is exported as the `ttcache_bytes` gauge, evictions as
//! `ttcache_evictions`, answers a full cache declined to admit as
//! `ttcache_rejected`, and key-collision events (each lookup, insert
//! or replayed line whose key is held by a different canonical
//! instance counts one) as `ttcache_collisions` — all through the process-global `tt-obs`
//! registry, so they render in `ttsolve --metrics` and `ttserve scrape`
//! without extra wiring.

pub mod canon;
pub mod memo;
pub mod store;

pub use canon::{canonicalize, CanonMap, Canonical, CanonicalForm};
pub use store::{CacheStatus, SolutionCache};

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
