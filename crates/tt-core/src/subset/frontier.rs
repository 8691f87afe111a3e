//! Combinatorial-number-system (CNS) indexing of the `#S = j`
//! wavefronts.
//!
//! The paper's DP sweeps the subset lattice level by level: the `j`-th
//! outer iteration touches exactly the `C(k, j)` subsets with `#S = j`.
//! The combinatorial number system numbers them `0..C(k, j)`:
//!
//! ```text
//! rank(S) = Σ_{i=1..j} C(c_i, i)      where S = {c_1 < c_2 < … < c_j}
//! ```
//!
//! `rank` is a bijection between the level-`j` subsets and `0..C(k, j)`,
//! and it enumerates the level in **colex order, which for fixed
//! popcount is exactly increasing mask order**, i.e. the order Gosper's
//! hack ([`Subset::of_size`]) emits. The level kernel
//! (`solver::kernel`) leans on that: it computes a level into a
//! rank-ordered buffer in chunks that each start from one [`unrank`],
//! and the v2 checkpoint format addresses cells by rank.
//!
//! The module also holds the [`CostLookup`] seam the candidate kernel
//! gathers through and the [`FrontierStats`] counters the engines
//! report.

use crate::cost::Cost;
use crate::subset::Subset;

/// Rows of the binomial table: enough for every `n ≤ 32`, one more than
/// the 32-bit mask width so `C(32, ·)` itself is addressable.
const TABLE_N: usize = 33;

/// Pascal's triangle `C(n, r)` for `n, r < TABLE_N`, built at compile
/// time. Entries with `r > n` are zero. All values fit comfortably in
/// `u64` (`C(32, 16) = 601 080 390`).
const PASCAL: [[u64; TABLE_N]; TABLE_N] = {
    let mut t = [[0u64; TABLE_N]; TABLE_N];
    let mut n = 0;
    while n < TABLE_N {
        t[n][0] = 1;
        let mut r = 1;
        while r <= n {
            t[n][r] = t[n - 1][r - 1] + if r < n { t[n - 1][r] } else { 0 };
            r += 1;
        }
        n += 1;
    }
    t
};

/// The binomial coefficient `C(n, r)` for `n < 33` (zero when `r > n`).
#[inline]
#[must_use]
pub fn binomial(n: usize, r: usize) -> u64 {
    debug_assert!(n < TABLE_N, "binomial table covers n < {TABLE_N}");
    if r > n {
        0
    } else {
        PASCAL[n][r]
    }
}

/// The widest level of a `k`-object universe, `C(k, ⌊k/2⌋)` — the
/// quantity auto-selection thresholds on, and the level kernel's rank
/// buffer size below its window cap.
#[inline]
#[must_use]
pub fn max_frontier(k: usize) -> u64 {
    binomial(k, k / 2)
}

/// The combinatorial-number-system rank of `S` within its `#S = j`
/// level: `Σ C(c_i, i)` over the elements `c_1 < … < c_j` of `S`.
///
/// Ranks run `0..C(k, j)` and increase with the numeric mask, so the
/// `r`-th cell of a level buffer is the `r`-th mask Gosper's hack emits.
#[inline]
#[must_use]
pub fn rank(s: Subset) -> u64 {
    let mut r = 0u64;
    let mut seen = 0usize;
    let mut rest = s.0;
    while rest != 0 {
        let c = rest.trailing_zeros() as usize;
        seen += 1;
        r += PASCAL[c][seen];
        rest &= rest - 1;
    }
    r
}

/// The inverse of [`rank`]: the level-`j` subset with rank `r`.
///
/// Standard CNS unranking, largest element first: the top element is
/// the greatest `c` with `C(c, j) ≤ r`, then recurse on `r − C(c, j)`
/// at size `j − 1`.
#[must_use]
pub fn unrank(j: usize, r: u64) -> Subset {
    debug_assert!(j < TABLE_N);
    let mut mask = 0u32;
    let mut rem = r;
    let mut size = j;
    while size > 0 {
        // `C(size − 1, size) = 0 ≤ rem` always holds, so the scan
        // starts in range and moves up while the next coefficient fits.
        let mut c = size - 1;
        while c + 1 < TABLE_N - 1 && PASCAL[c + 1][size] <= rem {
            c += 1;
        }
        rem -= PASCAL[c][size];
        mask |= 1u32 << c;
        size -= 1;
    }
    debug_assert_eq!(rem, 0, "rank out of range for level {j}");
    Subset(mask)
}

/// A table of `C(·)` values the DP candidate kernel can gather from —
/// the seam that lets one kernel serve the mask-indexed slab and the
/// memoized DP's sparse closure.
pub trait CostLookup {
    /// `C(S)` for a set whose value is already available.
    fn cost_of(&self, s: Subset) -> Cost;
}

/// The mask-indexed `2^k` cost slab: `cost_of` is a plain load.
pub struct DenseSlab<'a>(pub &'a [Cost]);

impl CostLookup for DenseSlab<'_> {
    #[inline]
    fn cost_of(&self, s: Subset) -> Cost {
        self.0[s.index()]
    }
}

/// Table-accounting counters, surfaced through `tt-obs` telemetry and
/// `WorkStats` extras by the level kernel and the memoized DP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Total cost cells allocated over the solve (the `2^k` slab for a
    /// cold kernel sweep, the reachable-closure size for the live-set
    /// memo).
    pub cells_allocated: u64,
    /// Peak number of cells resident at once.
    pub peak_resident_cells: u64,
    /// Number of closure-table gathers of the memo's useful pairs (two
    /// per test pair, one per treatment pair): an upper bound on the
    /// gathers its chunk pass ran, since the pairs the bound skips
    /// gather nothing.
    pub rank_calls: u64,
    /// Number of [`unrank`] evaluations (one per kernel chunk and window).
    pub unrank_calls: u64,
    /// `(S, i)` pairs the chunk pass's treatment-charge bound skipped,
    /// one per skipped cell and action of a group, useful or not (see
    /// `tt_core::solver::kernel`).
    pub bound_skipped: u64,
    resident: u64,
}

impl FrontierStats {
    /// Accounts `cells` newly allocated resident cells.
    pub fn on_alloc(&mut self, cells: u64) {
        self.cells_allocated += cells;
        self.resident += cells;
        self.peak_resident_cells = self.peak_resident_cells.max(self.resident);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pascal_matches_multiplicative_formula() {
        for n in 0..TABLE_N {
            for r in 0..=n {
                let direct = (0..r).fold(1u128, |acc, x| acc * (n - x) as u128 / (x as u128 + 1));
                assert_eq!(u128::from(binomial(n, r)), direct, "C({n},{r})");
            }
            assert_eq!(binomial(n, n + 1), 0);
        }
    }

    #[test]
    fn rank_is_the_gosper_enumeration_index() {
        for k in 0..=10usize {
            for j in 0..=k {
                for (i, s) in Subset::of_size(k, j).enumerate() {
                    assert_eq!(rank(s), i as u64, "k={k} j={j} s={s}");
                    assert_eq!(unrank(j, i as u64), s, "k={k} j={j} r={i}");
                }
            }
        }
    }

    #[test]
    fn rank_unrank_roundtrip_at_full_width() {
        // Spot checks at the top of the supported range (k = 24).
        for j in [1usize, 7, 12, 24] {
            let cells = binomial(24, j);
            for r in [0, 1, cells / 2, cells - 1] {
                if r >= cells {
                    continue;
                }
                let s = unrank(j, r);
                assert_eq!(s.len(), j);
                assert!(s.is_subset_of(Subset::universe(24)));
                assert_eq!(rank(s), r, "j={j} r={r}");
            }
        }
    }

    #[test]
    fn max_frontier_is_the_central_binomial() {
        assert_eq!(max_frontier(12), 924);
        assert_eq!(max_frontier(16), 12870);
        assert_eq!(max_frontier(20), 184_756);
    }
}
