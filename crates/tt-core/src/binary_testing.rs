//! The classic binary testing (binary identification) special case.
//!
//! Binary testing — studied by Garey and others, and the problem the TT
//! problem generalizes — asks for a minimum expected-cost *test* tree that
//! identifies the faulty object exactly (every leaf a singleton); no
//! treatments exist, identification itself is the goal.
//!
//! ## Reduction to TT
//!
//! Treating "identify `j`" as a singleton treatment of uniform cost `c`
//! embeds binary testing into TT, but only if `c` is large enough that the
//! TT optimum never "guesses" (applies a treatment before the candidate set
//! is a singleton). Guessing at a live set `S` with `#S ≥ 2` overcharges at
//! least `c · (p(S) − P_j) ≥ c` (weights ≥ 1), while identify-first costs
//! at most `c·p(U) + p(U)·Σᵢtᵢ` in total; so any
//! `c > p(U)·Σᵢtᵢ` makes premature treatment strictly suboptimal, and
//!
//! ```text
//! binary_testing_optimum = C(U) − c·p(U)
//! ```
//!
//! exactly, in integer arithmetic.
//!
//! ## Huffman oracle
//!
//! When *every* nonempty proper subset is available as a unit-cost test,
//! the optimal identification tree is exactly the Huffman tree over the
//! weights (any binary code tree is realizable by testing the leaf set
//! under each internal node). [`huffman_cost`] computes that closed form,
//! giving an independent oracle for the DP on complete test sets.

use crate::cost::Cost;
use crate::error::TtError;
use crate::instance::{TtInstance, TtInstanceBuilder};
use crate::subset::Subset;
use crate::tree::TtTree;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A binary testing instance: weights (each ≥ 1) plus tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinaryTesting {
    k: usize,
    weights: Vec<u64>,
    tests: Vec<(Subset, u64)>,
}

/// Result of solving a binary testing instance via the TT reduction.
#[derive(Clone, Debug)]
pub struct BinaryTestingSolution {
    /// Minimum expected test cost (the binary-testing objective).
    pub cost: Cost,
    /// The identification tree, expressed as a TT tree over the embedded
    /// instance (treatment leaves are the "name the object" actions).
    pub tree: Option<TtTree>,
    /// The embedded TT instance the tree indexes into.
    pub embedded: TtInstance,
}

impl BinaryTesting {
    /// Creates an instance. Weights must all be ≥ 1 (required by the
    /// reduction's gap argument). The instance is validated by building
    /// its embedding, so the errors are the builder's; the embedding adds
    /// the tests first, so an action index is the test's own. The
    /// embedding's treatment cost `p(U)·Σᵢtᵢ + 1` can put an instance
    /// whose tests look valid past the builder's cost bound.
    pub fn new(
        k: usize,
        weights: Vec<u64>,
        tests: Vec<(Subset, u64)>,
    ) -> Result<BinaryTesting, TtError> {
        assert!(
            weights.iter().all(|&w| w >= 1),
            "binary testing weights must be >= 1"
        );
        let bt = BinaryTesting { k, weights, tests };
        bt.embedding()?;
        Ok(bt)
    }

    /// Universe size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The available tests.
    pub fn tests(&self) -> &[(Subset, u64)] {
        &self.tests
    }

    /// Can the tests distinguish every pair of objects? (Necessary and
    /// sufficient for an identification tree to exist.)
    pub fn separates_all_pairs(&self) -> bool {
        for a in 0..self.k {
            for b in (a + 1)..self.k {
                let separated = self
                    .tests
                    .iter()
                    .any(|(s, _)| s.contains(a) != s.contains(b));
                if !separated {
                    return false;
                }
            }
        }
        true
    }

    /// The treatment cost `c` used by the embedding: `p(U)·Σᵢtᵢ + 1`,
    /// saturating at the largest finite cost.
    pub fn embedding_treatment_cost(&self) -> u64 {
        let total_w: u64 = self.weights.iter().fold(0, |a, &b| a.saturating_add(b));
        let total_t: u64 = self.tests.iter().fold(0, |a, &(_, t)| a.saturating_add(t));
        total_w
            .saturating_mul(total_t)
            .saturating_add(1)
            .min(u64::MAX - 1)
    }

    /// Embeds into a TT instance: the original tests plus one singleton
    /// treatment of cost `c` per object.
    pub fn embed(&self) -> TtInstance {
        self.embedding()
            .expect("new() built this embedding once already")
    }

    fn embedding(&self) -> Result<TtInstance, TtError> {
        let c = self.embedding_treatment_cost();
        let mut b = TtInstanceBuilder::new(self.k).weights(self.weights.iter().copied());
        for &(s, t) in &self.tests {
            b = b.test(s, t);
        }
        for j in 0..self.k {
            b = b.treatment(Subset::singleton(j), c);
        }
        b.build()
    }

    /// Solves via the TT reduction: returns the minimum expected **test**
    /// cost, or `INF` when the tests cannot identify every object.
    pub fn solve(&self) -> BinaryTestingSolution {
        let embedded = self.embed();
        let sol = crate::solver::sequential::solve(&embedded);
        let c = self.embedding_treatment_cost();
        let total_w = embedded.total_weight();
        let cost = match sol.cost.finite() {
            Some(v) => {
                if self.separates_all_pairs() {
                    Cost::new(v - c * total_w)
                } else {
                    Cost::INF
                }
            }
            None => Cost::INF,
        };
        BinaryTestingSolution {
            cost,
            tree: sol.tree,
            embedded,
        }
    }
}

/// Weighted Huffman cost: the minimum of `Σ_j w_j · depth_j` over all
/// binary trees with the given leaf weights — equivalently, the optimal
/// expected number of unit-cost tests when every subset is testable.
///
/// Returns 0 for zero or one weight (nothing to distinguish).
pub fn huffman_cost(weights: &[u64]) -> u64 {
    if weights.len() <= 1 {
        return 0;
    }
    let mut heap: BinaryHeap<Reverse<u64>> = weights.iter().map(|&w| Reverse(w)).collect();
    let mut total = 0u64;
    while heap.len() > 1 {
        let Reverse(a) = heap.pop().unwrap();
        let Reverse(b) = heap.pop().unwrap();
        let merged = a.saturating_add(b);
        total = total.saturating_add(merged);
        heap.push(Reverse(merged));
    }
    total
}

/// Builds the complete unit-cost test set over `k` objects: every subset
/// containing object 0... no — every nonempty proper subset, deduplicated
/// by complement (a test and its complement give identical information, so
/// only subsets containing object 0 are emitted).
pub fn complete_unit_tests(k: usize) -> Vec<(Subset, u64)> {
    let mut out = Vec::new();
    for s in Subset::all(k) {
        if !s.is_empty() && s != Subset::universe(k) && s.contains(0) {
            out.push((s, 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huffman_known_values() {
        // Classic: weights 1,1,2,3,5 → Huffman cost 2+4+7+12 = 25.
        assert_eq!(huffman_cost(&[1, 1, 2, 3, 5]), 25);
        // Uniform 4: complete binary tree, depth 2 each: 4·2 = 8.
        assert_eq!(huffman_cost(&[1, 1, 1, 1]), 8);
        assert_eq!(huffman_cost(&[7]), 0);
        assert_eq!(huffman_cost(&[]), 0);
    }

    #[test]
    fn dp_matches_huffman_on_complete_test_sets() {
        for (k, weights) in [
            (3usize, vec![1u64, 1, 1]),
            (3, vec![5, 2, 1]),
            (4, vec![1, 1, 1, 1]),
            (4, vec![9, 3, 3, 1]),
        ] {
            let bt = BinaryTesting::new(k, weights.clone(), complete_unit_tests(k)).unwrap();
            let sol = bt.solve();
            assert_eq!(
                sol.cost,
                Cost::new(huffman_cost(&weights)),
                "k={k} weights={weights:?}"
            );
        }
    }

    #[test]
    fn separation_detection() {
        // Tests {0},{1} cannot distinguish 2 from 3 in a 4-universe.
        let bt = BinaryTesting::new(
            4,
            vec![1, 1, 1, 1],
            vec![(Subset::singleton(0), 1), (Subset::singleton(1), 1)],
        )
        .unwrap();
        assert!(!bt.separates_all_pairs());
        assert!(bt.solve().cost.is_inf());

        let ok = BinaryTesting::new(
            4,
            vec![1, 1, 1, 1],
            vec![
                (Subset::from_iter([0, 1]), 1),
                (Subset::from_iter([0, 2]), 1),
            ],
        )
        .unwrap();
        assert!(ok.separates_all_pairs());
        assert!(ok.solve().cost.is_finite());
    }

    #[test]
    fn infinite_test_costs_are_refused_and_the_embedding_cost_stays_finite() {
        let tests = |t| vec![(Subset::singleton(0), 1), (Subset::singleton(1), t)];
        assert_eq!(
            BinaryTesting::new(2, vec![1, 1], tests(u64::MAX)),
            Err(TtError::CostIsInf { action: 1 })
        );
        // The embedding's treatment cost saturates below INF, and the
        // builder refuses the embedding by its cost bound.
        let huge = BinaryTesting {
            k: 2,
            weights: vec![u64::MAX / 2, 3],
            tests: tests(u64::MAX - 1),
        };
        assert_eq!(huge.embedding_treatment_cost(), u64::MAX - 1);
        assert_eq!(
            BinaryTesting::new(2, huge.weights, huge.tests),
            Err(TtError::CostBoundTooLarge)
        );
    }

    #[test]
    fn the_builder_validates_through_the_embedding() {
        let tests = vec![(Subset::singleton(0), 1), (Subset::singleton(2), 1)];
        assert_eq!(
            BinaryTesting::new(0, vec![], vec![]),
            Err(TtError::BadUniverseSize { k: 0 })
        );
        assert_eq!(
            BinaryTesting::new(2, vec![1], tests.clone()),
            Err(TtError::WeightCountMismatch { k: 2, got: 1 })
        );
        assert_eq!(
            BinaryTesting::new(2, vec![1, 1], tests.clone()),
            Err(TtError::ActionOutOfUniverse { action: 1 })
        );
        assert_eq!(
            BinaryTesting::new(2, vec![1, 1], vec![(Subset::EMPTY, 1)]),
            Err(TtError::EmptyAction { action: 0 })
        );
        // Weights 1, 1 and tests [1, t]: the embedding's treatments cost
        // c = 2(1 + t) + 1, so Σt = 5(1 + t) + 2 and its bound is
        // 2·6·Σt + 1 = 60(1 + t) + 25, below 2^63 up to the largest t.
        let t = ((1u64 << 63) - 26) / 60 - 1;
        let edge = |t| {
            BinaryTesting::new(
                2,
                vec![1, 1],
                vec![(Subset::singleton(0), 1), (Subset::singleton(1), t)],
            )
        };
        assert_eq!(
            edge(t).unwrap().embed().finite_cost_bound(),
            60 * (1 + t) + 25
        );
        assert_eq!(edge(t + 1), Err(TtError::CostBoundTooLarge));
    }

    #[test]
    fn costs_steer_test_selection() {
        // Two ways to split {0,1} from {2,3}: cost 1 vs cost 10.
        let bt = BinaryTesting::new(
            4,
            vec![1, 1, 1, 1],
            vec![
                (Subset::from_iter([0, 1]), 10),
                (Subset::from_iter([0, 1]), 1),
                (Subset::from_iter([0, 2]), 1),
            ],
        )
        .unwrap();
        let sol = bt.solve();
        // Perfect split with cheap tests: 1·4 (first split) + 1·2 + 1·2 = 8.
        assert_eq!(sol.cost, Cost::new(8));
    }

    #[test]
    fn embedding_tree_validates() {
        let bt = BinaryTesting::new(3, vec![3, 2, 1], complete_unit_tests(3)).unwrap();
        let sol = bt.solve();
        let tree = sol.tree.unwrap();
        tree.validate(&sol.embedded).unwrap();
    }

    #[test]
    fn skewed_weights_prefer_unbalanced_trees() {
        // Weights 8,1,1: Huffman puts the heavy leaf at depth 1:
        // cost = (1+1)·2 + ... merges: 1+1=2, 2+8=10 → 2+10 = 12.
        assert_eq!(huffman_cost(&[8, 1, 1]), 12);
        let bt = BinaryTesting::new(3, vec![8, 1, 1], complete_unit_tests(3)).unwrap();
        assert_eq!(bt.solve().cost, Cost::new(12));
    }
}
