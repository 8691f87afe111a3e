//! # tt-core — the test-and-treatment problem
//!
//! Core library for the NP-hard **test-and-treatment (TT) problem** of
//! Loveland, as formulated in *"Finding Test-and-Treatment Procedures Using
//! Parallel Computation"* (Duval, Wagner, Han, Loveland; Duke University,
//! 1985 / ICPP 1986).
//!
//! ## The problem
//!
//! A universe `U = {0, …, k−1}` of objects, exactly one of which is faulty,
//! with a-priori weights `P_j` (unnormalized likelihoods). A set of `N`
//! actions `T_i`, each a subset of `U` with execution cost `t_i`:
//!
//! * a **test** responds positively iff the faulty object lies in `T_i`;
//!   a positive response restricts the live set `S` to `S ∩ T_i`, a negative
//!   one to `S − T_i`;
//! * a **treatment** succeeds iff the faulty object lies in `T_i`; success
//!   ends the procedure, failure restricts the live set to `S − T_i`.
//!
//! A TT *procedure* is a binary decision tree in which every branch
//! terminates in a treatment covering the remaining candidates. Its expected
//! cost charges each object the total cost of the actions encountered on its
//! path, weighted by `P_j`. The TT problem asks for the minimum
//! expected-cost procedure; it generalizes binary testing and is NP-hard.
//!
//! ## The dynamic program
//!
//! With `p(S) = Σ_{j∈S} P_j` and `C(∅) = 0`:
//!
//! ```text
//! C(S) = min_i M[S, i]
//! M[S, i] = t_i·p(S) + C(S ∩ T_i) + C(S − T_i)     (tests)
//! M[S, i] = t_i·p(S) + C(S − T_i)                  (treatments)
//! ```
//!
//! Useless actions (`S ∩ T_i = ∅` or, for tests, `S − T_i = ∅`) are excluded
//! by `INF` saturation exactly as in the paper.
//!
//! ## What lives where
//!
//! * [`subset`] — bitmask subsets of the universe and lattice utilities.
//! * [`cost`] — saturating fixed-point cost arithmetic with an `INF`
//!   sentinel, shared by every solver in the workspace so results are
//!   bit-identical across sequential, hypercube, CCC and BVM executions.
//! * [`instance`] — problem instances, validation, adequacy.
//! * [`tree`] — decision trees, first-principles evaluation, rendering.
//! * [`solver`] — exhaustive, sequential-DP, memoized-DP and greedy solvers.
//! * [`binary_testing`] — the classic binary-testing special case.
//! * [`durable`] — crash-safe files: atomic whole-file writes and the
//!   checksummed segment log under the solve journal and the cache.
//!
//! ## Quick example
//!
//! ```
//! use tt_core::instance::TtInstanceBuilder;
//! use tt_core::solver::sequential::solve;
//! use tt_core::subset::Subset;
//!
//! let inst = TtInstanceBuilder::new(3)
//!     .weights([3, 2, 1])
//!     .test(Subset::from_iter([0]), 1)
//!     .treatment(Subset::from_iter([0, 1]), 2)
//!     .treatment(Subset::from_iter([2]), 1)
//!     .build()
//!     .unwrap();
//! let sol = solve(&inst);
//! assert!(sol.cost.is_finite());
//! let tree = sol.tree.expect("adequate instance has a tree");
//! assert_eq!(tree.expected_cost(&inst), sol.cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary_testing;
pub mod cost;
pub mod durable;
pub mod error;
pub mod instance;
pub mod io;
pub mod lint;
pub mod preprocess;
pub mod solver;
pub mod stats;
pub mod subset;
pub mod tree;
pub mod tree_io;

pub use cost::Cost;
pub use error::TtError;
pub use instance::{Action, ActionKind, TtInstance, TtInstanceBuilder};
pub use subset::Subset;
pub use tree::TtTree;

/// Maximum universe size supported by the bitmask subset representation.
///
/// The sequential DP allocates `2^k` entries, and the parallel algorithm
/// `N·2^k` simulated PEs, so this bound is generous for anything that can
/// actually be solved.
pub const MAX_K: usize = 25;
