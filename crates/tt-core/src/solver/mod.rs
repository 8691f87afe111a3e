//! Solvers for the TT problem.
//!
//! * [`sequential`] — bottom-up dynamic programming over the full subset
//!   lattice, `O(N·2^k)`: the paper's sequential baseline (`T_1`), obtained
//!   by "modifying the backward induction algorithm given by Garey". Its
//!   mask-order form with a stored argmin plane is the test reference.
//! * [`kernel`] — the one levelwise `#S = j` sweep over a cost-only slab
//!   that every host engine (`seq`, `rayon`, the cache) runs.
//! * [`memo`] — top-down memoized DP over *reachable* subsets only; an
//!   ablation of the full-lattice scheme (the parallel algorithm cannot
//!   exploit reachability, a sequential solver can).
//! * [`exhaustive`] — explicit enumeration of every valid procedure tree,
//!   costed by the first-principles tree evaluator; ground truth for small
//!   instances.
//! * [`greedy`] — classic one-step heuristics from the binary-testing
//!   literature, as approximation baselines.
//! * [`bounds`] — admissible lower bounds on `C(S)`.
//! * [`branch_and_bound`] — the memoized DP with bound-ordered candidate
//!   pruning; exact, often far cheaper than the full recurrence.
//! * [`depth_bounded`] — the best procedure within a path-length budget,
//!   with the anytime curve `d ↦ C_d(U)`.
//! * [`engine`] — the uniform [`Solver`] trait, [`SolveReport`] result,
//!   and engine [`registry`] every consumer dispatches through.
//! * [`budget`] — wall-clock/work/cancellation limits on a solve.
//! * [`anytime`] — completion of partial DP tables into valid
//!   procedures, for bounded-suboptimality degraded results.
//! * [`checkpoint`] — checksummed level-boundary snapshots of the DP
//!   wavefront, for warm failover and `--resume` restarts.
//! * [`supervise`][mod@supervise] — health-aware fallback chains over
//!   the engine registry: retry, back off, fail over, resume.
//! * [`select`] — engine auto-selection from the instance's shape
//!   (`--solver auto`).

pub mod anytime;
pub mod bounds;
pub mod branch_and_bound;
pub mod budget;
pub mod checkpoint;
pub mod depth_bounded;
pub mod engine;
pub mod exhaustive;
pub mod greedy;
pub mod kernel;
pub mod memo;
pub mod select;
pub mod sequential;
pub mod supervise;

pub use budget::{Budget, BudgetMeter, CancelToken, ExhaustReason};
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointLoadError, LevelView};
pub use engine::{
    lookup, registry, DegradeReason, EngineKind, SolveOutcome, SolveReport, Solver, WorkStats,
};
pub use select::{auto_select, Selection};
pub use sequential::{solve, DpStats, DpTables, Solution};
pub use supervise::{
    jitter_seed, jittered_backoff, supervise, AttemptFailure, FailureKind, SuperviseOptions,
    SuperviseReport,
};
