//! The calibration kernel that the gated CPU times are scaled by.
//!
//! On a shared machine the other tenants slow a memory-bound program
//! down without taking its CPUs away: they share the last-level cache
//! and the memory bus, so the same DP takes more CPU time while they
//! are busy, and how busy they are changes from one minute to the next.
//! On an otherwise idle 2-vCPU guest the fastest CPU time of the same
//! `seq` k = 20 solves, taken over 45 s windows, ranged from 300 to
//! 435 ms within six minutes. A fixed subset DP of the same size, timed
//! just before each answer, slows down with them: the ratio of the two
//! moved about an eighth as much (interquartile range over the median
//! of the windows, 0.03 against 0.25).
//!
//! Each answer's CPU time is therefore reported at calibrated speed:
//! times the kernel's nominal CPU time at the answer's size over the
//! kernel's CPU time measured just before the answer. The kernel is the
//! benchmark's own code and never changes with the program, so a faster
//! program still reads faster by the same factor.

use crate::cpu;

/// Smallest and largest sizes (objects) the kernel is timed at.
pub const MIN_K: usize = 15;
pub const MAX_K: usize = 20;

/// The kernel's CPU time in ms at `MIN_K..=MAX_K`: medians of 200 runs
/// per size (20 at k = 20) on a 2-vCPU Intel Xeon guest, rounded. Only
/// the ratio of an answer to the kernel matters for a comparison; these
/// put the figures in milliseconds.
const NOMINAL_MS: [f64; MAX_K - MIN_K + 1] = [0.55, 1.25, 2.5, 5.0, 11.5, 24.0];

/// The kernel's table, allocated and touched once so that its pages
/// are resident for the life of the process.
pub struct Calibrator {
    table: Vec<u64>,
    /// Resident memory the table added, kB; a child process reports its
    /// peak without it.
    pub resident_kb: u64,
}

impl Calibrator {
    /// A table for sizes up to `max_k` (at most [`MAX_K`]).
    pub fn new(max_k: usize) -> Calibrator {
        let max_k = max_k.clamp(MIN_K, MAX_K);
        let mut table = vec![0u64; 1 << max_k];
        // Write every entry: calloc'd pages are not resident until used.
        for (i, v) in table.iter_mut().enumerate() {
            *v = i as u64;
        }
        std::hint::black_box(&mut table);
        let resident_kb = (table.len() as u64 * 8).div_ceil(4096) * 4;
        Calibrator { table, resident_kb }
    }

    /// Runs the kernel at size `k` (clamped to the table and to
    /// `MIN_K..=MAX_K`) and returns the scale for an answer measured
    /// next to it: nominal over measured CPU time. Multiply an answer's
    /// CPU time by it to get its CPU time at calibrated speed.
    pub fn scale(&mut self, k: usize) -> f64 {
        let k = k.clamp(MIN_K, MAX_K.min(self.table.len().trailing_zeros() as usize));
        NOMINAL_MS[k - MIN_K] * 1e6 / self.time_ns(k) as f64
    }

    /// The kernel's CPU time at size `k`, ns.
    fn time_ns(&mut self, k: usize) -> u64 {
        let start = cpu::thread_ns();
        std::hint::black_box(kernel(std::hint::black_box(&mut self.table[..1 << k])));
        (cpu::thread_ns() - start).max(1)
    }
}

/// A subset DP over all `2^k` subsets of `k` objects: each subset's
/// value is the best over removing one of its objects, so it reads and
/// writes a table of `2^k` entries in the pattern of the levelwise
/// `C(S)` recurrence.
fn kernel(t: &mut [u64]) -> u64 {
    t[0] = 0;
    for s in 1..t.len() {
        let mut best = u64::MAX;
        let mut rest = s;
        while rest != 0 {
            let bit = rest & rest.wrapping_neg();
            rest ^= bit;
            let step = u64::from(bit.trailing_zeros()) * 7 + 1 + (s as u64 & 3);
            best = best.min(t[s ^ bit] + step);
        }
        t[s] = best;
    }
    t[t.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recurrence written directly, for comparison.
    fn cheapest(s: usize) -> u64 {
        (0..usize::BITS)
            .filter(|b| s >> b & 1 == 1)
            .map(|b| cheapest(s ^ 1 << b) + u64::from(b) * 7 + 1 + (s as u64 & 3))
            .min()
            .unwrap_or(0)
    }

    #[test]
    fn kernel_is_the_cheapest_removal_path() {
        let mut t = vec![0u64; 1 << 5];
        kernel(&mut t);
        for (s, v) in t.iter().enumerate() {
            assert_eq!(*v, cheapest(s), "subset {s:b}");
        }
    }

    #[test]
    fn table_size_and_scale() {
        let mut r = Calibrator::new(MIN_K);
        assert_eq!(r.resident_kb, 8 << MIN_K >> 10);
        assert!(r.scale(MIN_K) > 0.0);
    }
}
