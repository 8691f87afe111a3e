//! The `(S, i) ↔ PE address` mapping of Section 7.
//!
//! "On the BVM each PE will stand for a pair `(i, j)` … the concatenation
//! … is the address of the PE": the set `S` occupies the high `k` bits,
//! the action index `i` the low `⌈log₂ N⌉` bits. The action count is
//! padded to a power of two exactly as the paper does ("otherwise we let
//! `T_N = … = T_{2^p − 1} = U` and all of them will be treatments with
//! cost INF"), so that the minimization is a clean ASCEND over the `i`
//! dimensions.

use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::subset::Subset;

/// One action in padded form: the real ones plus INF-cost dummy
/// treatments on `U`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PadAction {
    /// The action's set `T_i` as a bitmask.
    pub set: Subset,
    /// The execution cost; `Cost::INF` marks a padding dummy.
    pub cost: Cost,
    /// Tests add `C(S ∩ T_i)`; treatments don't.
    pub is_test: bool,
}

/// The PE-address layout for an instance: `addr = (S << log_n) | i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Universe size `k` (number of `S` address bits).
    pub k: usize,
    /// Number of `i` address bits, `⌈log₂ N⌉` (at least 1).
    pub log_n: usize,
}

impl Layout {
    /// The layout for a `k`-object instance with `n_actions` actions.
    pub fn new(k: usize, n_actions: usize) -> Layout {
        assert!(n_actions >= 1);
        let log_n = usize::BITS as usize - (n_actions - 1).max(1).leading_zeros() as usize;
        Layout { k, log_n }
    }

    /// Number of action slots after padding, `2^log_n`.
    pub fn n_pad(&self) -> usize {
        1 << self.log_n
    }

    /// Total hypercube dimensions, `k + log_n`.
    pub fn dims(&self) -> usize {
        self.k + self.log_n
    }

    /// Total PE count, `2^(k + log N)` — the paper's `O(N·2^k)`.
    pub fn pes(&self) -> usize {
        1 << self.dims()
    }

    /// The PE address of pair `(S, i)`.
    #[inline]
    pub fn addr(&self, s: Subset, i: usize) -> usize {
        debug_assert!(i < self.n_pad());
        (s.index() << self.log_n) | i
    }

    /// Splits a PE address into `(S, i)`.
    #[inline]
    pub fn split(&self, addr: usize) -> (Subset, usize) {
        (
            Subset((addr >> self.log_n) as u32),
            addr & (self.n_pad() - 1),
        )
    }

    /// The action index encoded in an address.
    #[inline]
    pub fn action_of(&self, addr: usize) -> usize {
        addr & (self.n_pad() - 1)
    }

    /// The set encoded in an address.
    #[inline]
    pub fn set_of(&self, addr: usize) -> Subset {
        Subset((addr >> self.log_n) as u32)
    }

    /// The hypercube dimension carrying element `e` of `S`.
    #[inline]
    pub fn s_dim(&self, e: usize) -> usize {
        self.log_n + e
    }

    /// The hypercube dimensions of the `i` part (the minimization ASCEND).
    pub fn i_dims(&self) -> std::ops::Range<usize> {
        0..self.log_n
    }

    /// The hypercube dimensions of the `S` part (the `R`/`Q` loops).
    pub fn s_dims(&self) -> std::ops::Range<usize> {
        self.log_n..self.dims()
    }

    /// The `i = 0` column addresses of the `#S = level` wavefront,
    /// paired with their sets, in CNS rank order (increasing mask —
    /// the same order the level kernel's rank buffer uses). This is the
    /// incremental readback walk: after wavefront `j` only these
    /// `C(k, j)` PEs hold fresh values, so reading them — instead of
    /// the full `2^k` column — makes the total readback over a run
    /// `Σ_j C(k, j) = 2^k` instead of `k · 2^k`.
    pub fn wavefront_addrs(&self, level: usize) -> impl Iterator<Item = (Subset, usize)> {
        let lay = *self;
        Subset::of_size(self.k, level).map(move |s| (s, lay.addr(s, 0)))
    }

    /// Number of addresses [`wavefront_addrs`](Layout::wavefront_addrs)
    /// yields: `C(k, level)`.
    pub fn wavefront_len(&self, level: usize) -> u64 {
        tt_core::subset::frontier::binomial(self.k, level)
    }
}

/// The padded action table for an instance (tests keep their positions
/// `0..m`, then treatments, then INF dummies up to `2^log_n`).
pub fn padded_actions(inst: &TtInstance, layout: &Layout) -> Vec<PadAction> {
    let mut out: Vec<PadAction> = inst
        .actions()
        .iter()
        .map(|a| PadAction {
            set: a.set,
            cost: Cost::new(a.cost),
            is_test: a.is_test(),
        })
        .collect();
    out.resize(
        layout.n_pad(),
        PadAction {
            set: inst.universe(),
            cost: Cost::INF,
            is_test: false,
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;

    #[test]
    fn log_n_rounds_up() {
        assert_eq!(Layout::new(3, 1).log_n, 1);
        assert_eq!(Layout::new(3, 2).log_n, 1);
        assert_eq!(Layout::new(3, 3).log_n, 2);
        assert_eq!(Layout::new(3, 4).log_n, 2);
        assert_eq!(Layout::new(3, 5).log_n, 3);
        assert_eq!(Layout::new(3, 8).log_n, 3);
    }

    #[test]
    fn addr_roundtrip() {
        let l = Layout::new(4, 5);
        assert_eq!(l.dims(), 7);
        assert_eq!(l.pes(), 128);
        for s in Subset::all(4) {
            for i in 0..l.n_pad() {
                let a = l.addr(s, i);
                assert_eq!(l.split(a), (s, i));
                assert_eq!(l.set_of(a), s);
                assert_eq!(l.action_of(a), i);
            }
        }
    }

    #[test]
    fn dims_partition() {
        let l = Layout::new(5, 6);
        assert_eq!(l.i_dims(), 0..3);
        assert_eq!(l.s_dims(), 3..8);
        assert_eq!(l.s_dim(0), 3);
        assert_eq!(l.s_dim(4), 7);
    }

    #[test]
    fn wavefront_addrs_cover_each_level_in_rank_order() {
        let l = Layout::new(5, 6);
        let mut seen = [false; 1 << 5];
        for j in 0..=5 {
            let addrs: Vec<(Subset, usize)> = l.wavefront_addrs(j).collect();
            assert_eq!(addrs.len() as u64, l.wavefront_len(j), "level {j}");
            let mut prev = None;
            for (s, a) in addrs {
                assert_eq!(s.len(), j);
                assert_eq!(l.split(a), (s, 0));
                assert!(prev.is_none_or(|p| p < s.0), "rank order broken");
                prev = Some(s.0);
                assert!(!seen[s.index()]);
                seen[s.index()] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "wavefronts partition the lattice");
    }

    #[test]
    fn padding_adds_inf_dummies() {
        let inst = TtInstanceBuilder::new(3)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::universe(3), 2)
            .treatment(Subset::singleton(1), 3)
            .build()
            .unwrap();
        let l = Layout::new(3, inst.n_actions());
        let pad = padded_actions(&inst, &l);
        assert_eq!(pad.len(), 4);
        assert!(pad[0].is_test);
        assert_eq!(pad[0].cost, Cost::new(1));
        assert!(!pad[3].is_test);
        assert!(pad[3].cost.is_inf());
        assert_eq!(pad[3].set, Subset::universe(3));
    }
}
