//! CCC addressing and neighbour maps for the BVM.
//!
//! A complete CCC with cycle length `Q = 2^r` has `2^Q` cycles; PE
//! `Q·i + j` is written `(i, j)` — cycle number `i`, position `j` within
//! the cycle. Within cycle `i`, PE `(i, j)` is connected to its successor
//! `(i, (j+1) mod Q)` and predecessor `(i, (j+Q−1) mod Q)`; laterally it is
//! connected to `(i ⊕ 2^j, j)`, which ties the cycles together
//! (Section 2 of the paper).

use crate::isa::Neighbor;

/// The largest machine the simulator builds: `Q + r ≤ MAX_DIMS`, that is
/// at most `2^30` PEs.
pub const MAX_DIMS: usize = 30;

/// The machine geometry: cycle length `Q = 2^r`, `2^Q` cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CccTopology {
    r: usize,
    q: usize,
    n: usize,
}

impl CccTopology {
    /// Builds the complete CCC for cycle-length exponent `r`.
    pub fn new(r: usize) -> CccTopology {
        assert!(r >= 1, "cycle length must be at least 2");
        let q = 1usize << r;
        assert!(
            q + r <= MAX_DIMS,
            "machine with 2^{} PEs is too large to simulate",
            q + r
        );
        let n = q << q;
        CccTopology { r, q, n }
    }

    /// Cycle-length exponent `r` (positions are `r`-bit numbers).
    pub fn r(&self) -> usize {
        self.r
    }

    /// Cycle length `Q = 2^r`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of cycles, `2^Q`.
    pub fn cycles(&self) -> usize {
        1 << self.q
    }

    /// Total PE count `Q · 2^Q`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Hypercube dimensions the machine simulates, `Q + r`.
    pub fn dims(&self) -> usize {
        self.q + self.r
    }

    /// Number of physical links, `3n/2`.
    pub fn links(&self) -> usize {
        3 * self.n / 2
    }

    /// Splits a PE index into `(cycle, position)`.
    #[inline]
    pub fn split(&self, pe: usize) -> (usize, usize) {
        (pe >> self.r, pe & (self.q - 1))
    }

    /// Joins `(cycle, position)` into a PE index.
    #[inline]
    pub fn join(&self, cycle: usize, pos: usize) -> usize {
        (cycle << self.r) | pos
    }

    /// The position-within-cycle of PE `pe`.
    #[inline]
    pub fn pos(&self, pe: usize) -> usize {
        pe & (self.q - 1)
    }

    /// The PE a datum at `dst` is fetched **from** when the `D` operand
    /// names `neighbor` — i.e. `src_of(dst, S)` is `dst`'s successor, whose
    /// value `dst` reads in `A = A.S`.
    ///
    /// For [`Neighbor::I`] the chain predecessor is returned; PE `(0,0)`
    /// (index 0) maps to itself and is special-cased by the machine, which
    /// feeds it from the input stream.
    pub fn src_of(&self, dst: usize, neighbor: Neighbor) -> usize {
        let (c, p) = self.split(dst);
        match neighbor {
            Neighbor::S => self.join(c, (p + 1) % self.q),
            Neighbor::P => self.join(c, (p + self.q - 1) % self.q),
            Neighbor::L => self.join(c ^ (1 << p), p),
            Neighbor::XS => self.join(c, p ^ 1),
            Neighbor::XP => {
                // Pairs (1,2), (3,4), …, (Q−1, 0): predecessor when even,
                // successor when odd.
                if p % 2 == 0 {
                    self.join(c, (p + self.q - 1) % self.q)
                } else {
                    self.join(c, (p + 1) % self.q)
                }
            }
            Neighbor::I => {
                if dst == 0 {
                    0
                } else {
                    dst - 1
                }
            }
        }
    }

    /// Precomputes the whole `src_of` map for a neighbour kind.
    pub fn src_map(&self, neighbor: Neighbor) -> Vec<u32> {
        (0..self.n)
            .map(|pe| self.src_of(pe, neighbor) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_r2() {
        let t = CccTopology::new(2);
        assert_eq!(t.q(), 4);
        assert_eq!(t.cycles(), 16);
        assert_eq!(t.n(), 64);
        assert_eq!(t.dims(), 6);
        assert_eq!(t.links(), 96);
    }

    #[test]
    fn split_join_roundtrip() {
        let t = CccTopology::new(3);
        for pe in 0..t.n() {
            let (c, p) = t.split(pe);
            assert_eq!(t.join(c, p), pe);
            assert!(p < t.q());
            assert!(c < t.cycles());
        }
    }

    #[test]
    fn successor_predecessor_are_inverse() {
        let t = CccTopology::new(2);
        for pe in 0..t.n() {
            let s = t.src_of(pe, Neighbor::S);
            assert_eq!(t.src_of(s, Neighbor::P), pe);
        }
    }

    #[test]
    fn lateral_is_an_involution_linking_cycles() {
        let t = CccTopology::new(2);
        for pe in 0..t.n() {
            let l = t.src_of(pe, Neighbor::L);
            assert_eq!(t.src_of(l, Neighbor::L), pe);
            let (c, p) = t.split(pe);
            let (lc, lp) = t.split(l);
            assert_eq!(p, lp);
            assert_eq!(c ^ lc, 1 << p);
        }
    }

    #[test]
    fn xs_pairs_even_with_next() {
        let t = CccTopology::new(2);
        for pe in 0..t.n() {
            let x = t.src_of(pe, Neighbor::XS);
            assert_eq!(t.src_of(x, Neighbor::XS), pe);
            let (c, p) = t.split(pe);
            let (xc, xp) = t.split(x);
            assert_eq!(c, xc);
            assert_eq!(p ^ 1, xp);
        }
    }

    #[test]
    fn xp_pairs_odd_with_next() {
        let t = CccTopology::new(2); // Q = 4: pairs (1,2), (3,0)
        assert_eq!(t.src_of(t.join(5, 1), Neighbor::XP), t.join(5, 2));
        assert_eq!(t.src_of(t.join(5, 2), Neighbor::XP), t.join(5, 1));
        assert_eq!(t.src_of(t.join(5, 3), Neighbor::XP), t.join(5, 0));
        assert_eq!(t.src_of(t.join(5, 0), Neighbor::XP), t.join(5, 3));
        // XP is an involution everywhere.
        for pe in 0..t.n() {
            let x = t.src_of(pe, Neighbor::XP);
            assert_eq!(t.src_of(x, Neighbor::XP), pe);
        }
    }

    #[test]
    fn io_chain_is_a_hamiltonian_path() {
        let t = CccTopology::new(2);
        for pe in 1..t.n() {
            assert_eq!(t.src_of(pe, Neighbor::I), pe - 1);
        }
        assert_eq!(t.src_of(0, Neighbor::I), 0);
    }
}
