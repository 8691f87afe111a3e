//! Combinatorial-number-system (CNS) frontier indexing for the `#S = j`
//! wavefronts.
//!
//! The paper's DP sweeps the subset lattice level by level: the `j`-th
//! outer iteration touches exactly the `C(k, j)` subsets with `#S = j`.
//! A dense table indexed by mask wastes `2^k − C(k, j)` slots per level;
//! this module gives every level its own contiguous buffer of exactly
//! `C(k, j)` cells, addressed by the combinatorial number system:
//!
//! ```text
//! rank(S) = Σ_{i=1..j} C(c_i, i)      where S = {c_1 < c_2 < … < c_j}
//! ```
//!
//! `rank` is a bijection between the level-`j` subsets and `0..C(k, j)`,
//! and — the property every determinism anchor in ttbench leans on — it
//! enumerates the level in **colex order, which for fixed popcount is
//! exactly increasing mask order**, i.e. the order Gosper's hack
//! ([`Subset::of_size`]) emits. A frontier sweep therefore visits cells
//! in the same order as the dense mask-order DP and picks identical
//! first-minimizer argmins.
//!
//! The `C(S ∩ T_i)` / `C(S − T_i)` gathers of the recurrence become
//! [`rank`] lookups into the lower frontiers ([`FrontierTable`]), which
//! keeps each level's working set at `C(k, j)` cells — contiguous,
//! cache-blockable, and splittable across rayon workers by rank range.

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

/// The largest level buffer of a `k`-object universe, `C(k, ⌊k/2⌋)` —
/// the frontier engines' peak *per-level* working set, and the quantity
/// auto-selection thresholds on.
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
/// the seam that lets one kernel serve both the dense mask-indexed
/// solvers and the frontier-compressed ones.
pub trait CostLookup {
    /// `C(S)` for a set whose value is already available.
    fn cost_of(&self, s: Subset) -> Cost;
}

/// The dense `2^k` slab view: `cost_of` is a plain mask-indexed load,
/// exactly what the pre-frontier solvers did.
pub struct DenseSlab<'a>(pub &'a [Cost]);

impl CostLookup for DenseSlab<'_> {
    #[inline]
    fn cost_of(&self, s: Subset) -> Cost {
        self.0[s.index()]
    }
}

/// One level's frontier: the `C(k, j)` costs of the `#S = j` subsets,
/// indexed by [`rank`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frontier {
    level: usize,
    cost: Vec<Cost>,
}

impl Frontier {
    /// An all-`INF` frontier for level `level` of a `k`-object universe
    /// (`C(k, level)` cells). Level 0 is initialized to `C(∅) = 0`.
    #[must_use]
    pub fn new(k: usize, level: usize) -> Frontier {
        let cells = usize::try_from(binomial(k, level)).expect("C(k,j) fits usize");
        let mut cost = vec![Cost::INF; cells];
        if level == 0 {
            cost[0] = Cost::ZERO;
        }
        Frontier { level, cost }
    }

    /// The level (`#S`) this frontier holds.
    #[must_use]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of cells, `C(k, level)`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cost.len()
    }

    /// Is the frontier empty? (Never true for a valid level.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cost.is_empty()
    }

    /// The cost at rank `r`.
    #[inline]
    #[must_use]
    pub fn get(&self, r: u64) -> Cost {
        self.cost[usize::try_from(r).expect("rank fits usize")]
    }

    /// The raw cell buffer, rank-indexed.
    #[must_use]
    pub fn cells(&self) -> &[Cost] {
        &self.cost
    }

    /// The raw cell buffer, mutable — the write side of a level sweep.
    pub fn cells_mut(&mut self) -> &mut [Cost] {
        &mut self.cost
    }
}

/// Frontier-accounting counters, surfaced through `tt-obs` telemetry
/// and `WorkStats` extras by the frontier engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Total frontier cells allocated over the solve (`Σ_j C(k, j)` for
    /// a full sweep, the reachable-closure size for the live-set memo).
    pub cells_allocated: u64,
    /// Peak number of cells resident at once.
    pub peak_resident_cells: u64,
    /// Number of [`rank`] evaluations (one per child gather).
    pub rank_calls: u64,
    /// Number of [`unrank`] evaluations (chunk seeding and readback).
    pub unrank_calls: u64,
    resident: u64,
}

impl FrontierStats {
    /// Accounts `cells` newly allocated resident cells.
    pub fn on_alloc(&mut self, cells: u64) {
        self.cells_allocated += cells;
        self.resident += cells;
        self.peak_resident_cells = self.peak_resident_cells.max(self.resident);
    }

    /// Accounts `cells` retired (freed) resident cells.
    pub fn on_retire(&mut self, cells: u64) {
        self.resident = self.resident.saturating_sub(cells);
    }

    /// Current resident cells (allocated minus retired).
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.resident
    }
}

/// The lower-level view a sweep gathers from while writing level `j`:
/// frontiers `0..j`, immutably borrowed so the current level can be
/// written in parallel.
pub struct LowerLevels<'a> {
    levels: &'a [Frontier],
}

impl CostLookup for LowerLevels<'_> {
    #[inline]
    fn cost_of(&self, s: Subset) -> Cost {
        self.levels[s.len()].get(rank(s))
    }
}

/// The per-level frontier buffers of one solve: levels `0..=done`, each
/// exactly `C(k, j)` cells, plus the accounting counters.
#[derive(Clone, Debug)]
pub struct FrontierTable {
    k: usize,
    levels: Vec<Frontier>,
    stats: FrontierStats,
}

impl FrontierTable {
    /// A table holding only the level-0 frontier (`C(∅) = 0`).
    #[must_use]
    pub fn new(k: usize) -> FrontierTable {
        let mut t = FrontierTable {
            k,
            levels: Vec::with_capacity(k + 1),
            stats: FrontierStats::default(),
        };
        t.push_level();
        t
    }

    /// Universe size `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of completed levels present (levels `0..len_levels()`).
    #[must_use]
    pub fn len_levels(&self) -> usize {
        self.levels.len()
    }

    /// The accounting counters so far.
    #[must_use]
    pub fn stats(&self) -> FrontierStats {
        self.stats
    }

    /// Mutable access to the counters, for sweeps that account their
    /// own rank/unrank traffic.
    pub fn stats_mut(&mut self) -> &mut FrontierStats {
        &mut self.stats
    }

    /// Allocates the next level's frontier (all `INF`) and returns its
    /// level number.
    pub fn push_level(&mut self) -> usize {
        let j = self.levels.len();
        let f = Frontier::new(self.k, j);
        self.stats.on_alloc(f.len() as u64);
        self.levels.push(f);
        j
    }

    /// Splits the table into the lower-level read view and the top
    /// level's writable cell buffer — the borrow shape of one level
    /// sweep (a level only reads strictly smaller sets).
    pub fn split_top(&mut self) -> (LowerLevels<'_>, &mut [Cost]) {
        let at = self.levels.len().checked_sub(1).expect("non-empty");
        let (lower, top) = self.levels.split_at_mut(at);
        (LowerLevels { levels: lower }, top[0].cells_mut())
    }

    /// The frontier of level `j`, if present.
    #[must_use]
    pub fn level(&self, j: usize) -> Option<&Frontier> {
        self.levels.get(j)
    }

    /// `C(S)` from the completed levels; `INF` for sets above the
    /// completed wavefront.
    #[must_use]
    pub fn cost_of_checked(&self, s: Subset) -> Option<Cost> {
        self.levels.get(s.len()).map(|f| f.get(rank(s)))
    }

    /// Imports the `#S ≤ level` entries of a dense mask-indexed slab —
    /// the warm-start path from a v1 (dense) checkpoint.
    #[must_use]
    pub fn from_dense(k: usize, level: usize, dense: &[Cost]) -> FrontierTable {
        assert_eq!(dense.len(), 1usize << k, "dense slab size");
        let mut t = FrontierTable::new(k);
        t.levels[0].cost[0] = dense[0];
        for j in 1..=level.min(k) {
            t.push_level();
            let f = &mut t.levels[j];
            for (r, s) in Subset::of_size(k, j).enumerate() {
                f.cost[r] = dense[s.index()];
            }
        }
        t
    }

    /// Scatters every completed level into a dense mask-indexed slab
    /// (`INF` above the wavefront).
    #[must_use]
    pub fn to_dense(&self) -> Vec<Cost> {
        let mut dense = vec![Cost::INF; 1usize << self.k];
        for (j, f) in self.levels.iter().enumerate() {
            for (r, s) in Subset::of_size(self.k, j).enumerate() {
                dense[s.index()] = f.cost[r];
            }
        }
        dense
    }
}

impl CostLookup for FrontierTable {
    /// Read-only post-solve lookup over every completed level (panics
    /// on levels never computed — callers gate on the watermark).
    #[inline]
    fn cost_of(&self, s: Subset) -> Cost {
        self.levels[s.len()].get(rank(s))
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
    fn frontier_levels_have_binomial_sizes() {
        let k = 7;
        let mut t = FrontierTable::new(k);
        for _ in 1..=k {
            t.push_level();
        }
        for j in 0..=k {
            assert_eq!(t.level(j).unwrap().len() as u64, binomial(k, j));
        }
        assert_eq!(t.stats().cells_allocated, 1 << k);
        assert_eq!(t.stats().peak_resident_cells, 1 << k);
    }

    #[test]
    fn dense_roundtrip_preserves_every_completed_entry() {
        let k = 5;
        let size = 1usize << k;
        let dense: Vec<Cost> = (0..size).map(|m| Cost::new(m as u64 * 3 + 1)).collect();
        let t = FrontierTable::from_dense(k, k, &dense);
        for s in Subset::all(k) {
            assert_eq!(t.cost_of(s), dense[s.index()], "S={s}");
        }
        let back = t.to_dense();
        assert_eq!(back, dense);
    }

    #[test]
    fn partial_import_stops_at_the_level() {
        let k = 4;
        let dense: Vec<Cost> = (0..1usize << k).map(|m| Cost::new(m as u64)).collect();
        let t = FrontierTable::from_dense(k, 2, &dense);
        assert_eq!(t.len_levels(), 3);
        assert_eq!(
            t.cost_of_checked(Subset::from_iter([0, 1])),
            Some(Cost::new(3))
        );
        assert_eq!(t.cost_of_checked(Subset::from_iter([0, 1, 2])), None);
    }

    #[test]
    fn max_frontier_is_the_central_binomial() {
        assert_eq!(max_frontier(12), 924);
        assert_eq!(max_frontier(16), 12870);
        assert_eq!(max_frontier(20), 184_756);
    }
}
