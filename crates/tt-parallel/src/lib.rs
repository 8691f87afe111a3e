//! # tt-parallel — the paper's parallel TT algorithm, four ways
//!
//! The dynamic program of `tt-core` is transformed into the
//! ASCEND/DESCEND form of Section 6 of the paper and executed on every
//! machine model in the workspace:
//!
//! * [`hyper`] — the word-level hypercube execution: one PE per `(S, i)`
//!   pair, the `R`/`Q` subset-lattice broadcasts, and the `log N` ASCEND
//!   minimization, with parallel-step counts.
//! * [`ccc`] — the same program driven through the cube-connected-cycles
//!   machine (`hypercube::CccMachine`), demonstrating the constant-factor
//!   slowdown on `3n/2` links.
//! * [`bvm`] — the full bit-serial realization on the Boolean Vector
//!   Machine: control bits generated from the processor-ID, `#S = j`
//!   wavefront by propagation, `w`-bit vertical arithmetic; instruction
//!   counts reproduce the paper's `O(k·w·(k + log N))` headline bound (up
//!   to the machine's fixed cycle length — see DESIGN.md on the
//!   turn-taking schedule).
//! * [`rayon_solver`] — a modern shared-memory realization: the rayon
//!   executor of `tt-core`'s level kernel, each level's chunks on worker
//!   threads.
//!
//! All four produce **bit-identical** `C(·)` tables to
//! `tt_core::solver::sequential` — verified by the cross-crate test
//! suite — because everything computes in the same saturating integer
//! cost algebra.
//!
//! [`layout`] defines the PE-address encoding shared by the machine
//! models, and [`complexity`] the closed-form step-count models and the
//! paper's speedup arithmetic (including the `2^30`-PE headline claim).
//!
//! [`engines`] wraps all of the above as `tt_core::solver::Solver`
//! engines; call [`register_engines`] once and the uniform registry
//! lists them next to the core solvers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bvm;
pub mod ccc;
pub mod complexity;
pub mod engines;
pub mod hyper;
pub mod layout;
pub mod orchestrate;
pub mod rayon_solver;
pub mod resilient;
pub mod sweep;

pub use engines::register_engines;
pub use layout::Layout;
