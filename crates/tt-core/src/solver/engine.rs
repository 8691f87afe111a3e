//! The unified solver engine layer.
//!
//! Every backend in this workspace — the sequential DP, its ablations,
//! the heuristics, and the machine simulations in `tt-parallel` — solves
//! the same problem: given a [`TtInstance`], produce `C(U)` and
//! (when finite) an optimal procedure tree. This module gives them one
//! face: the [`Solver`] trait, the uniform [`SolveReport`] /
//! [`WorkStats`] result, and a [`registry`] with name-based [`lookup`].
//!
//! `tt-core` registers its own engines; crates downstream (e.g.
//! `tt-parallel`) contribute theirs through [`register_extension`], so
//! this crate needs no backend dependencies while consumers see a
//! single list.
//!
//! Every run is observable: [`timed_report_with`] opens a
//! `tt-obs` telemetry scope around the engine body, so per-level
//! samples and named counters recorded anywhere below land on the
//! report's [`telemetry`](SolveReport::telemetry) field.
//!
//! Adding a backend is one file: implement [`Solver`], append the
//! engine to your crate's provider function, and every consumer — the
//! `ttsolve` CLI, the experiments harness, the agreement tests — picks
//! it up without further wiring.

use crate::cost::Cost;
use crate::instance::TtInstance;
use crate::solver::anytime;
use crate::solver::budget::{Budget, ExhaustReason};
use crate::solver::checkpoint::{instance_fingerprint, Checkpoint, LevelView};
use crate::solver::select::{AutoEngine, Selection};
use crate::solver::{branch_and_bound, exhaustive, greedy, kernel, memo};
use crate::subset::frontier::FrontierStats;
use crate::subset::Subset;
use crate::tree::TtTree;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What kind of algorithm an engine is — determines which correctness
/// promises consumers may rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Sequential and exact: the reported cost is the optimum.
    Exact,
    /// Shared-memory parallel and exact.
    Parallel,
    /// A simulated parallel machine (hypercube, CCC, BVM); exact, and
    /// the report carries simulated step counts.
    Machine,
    /// A polynomial-time heuristic: the cost is an upper bound only.
    Heuristic,
}

impl EngineKind {
    /// Whether engines of this kind report the exact optimum.
    pub fn is_exact(self) -> bool {
        !matches!(self, EngineKind::Heuristic)
    }
}

/// Work accounting common to every engine.
///
/// Fields an engine has nothing to say about stay zero; counters that
/// exist only on one backend go in [`extras`](WorkStats::extras) under a
/// stable name. The scalar fields are the superset of what the
/// individual result structs exposed before this layer existed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Subsets whose `C(S)` was computed (≤ `2^k`; for the full-lattice
    /// solvers exactly `2^k`, for `memo`/`bnb` the reachable count).
    pub subsets: u64,
    /// `(S, i)` candidate evaluations performed (for `bnb`, candidates
    /// expanded past the bound; for `exhaustive`, trees costed).
    pub candidates: u64,
    /// Candidates skipped by an admissible bound (branch and bound).
    pub pruned: u64,
    /// Simulated parallel machine steps (exchange + local for the
    /// hypercube, link steps for the CCC, instructions for the BVM).
    pub machine_steps: u64,
    /// Processing elements the backend used (simulated PEs for the
    /// machines, worker threads for `rayon`).
    pub pes: u64,
    /// Backend-specific counters under stable names.
    pub extras: Vec<(String, u64)>,
}

impl WorkStats {
    /// Looks up a backend-specific counter by name.
    pub fn extra(&self, name: &str) -> Option<u64> {
        self.extras.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Adds a backend-specific counter.
    pub fn push_extra(&mut self, name: impl Into<String>, value: u64) {
        self.extras.push((name.into(), value));
    }
}

impl std::fmt::Display for WorkStats {
    /// One line, only the populated counters: the uniform `--stats`
    /// output of `ttsolve`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for (name, v) in [
            ("subsets", self.subsets),
            ("candidates", self.candidates),
            ("pruned", self.pruned),
            ("machine_steps", self.machine_steps),
            ("pes", self.pes),
        ] {
            if v != 0 {
                parts.push(format!("{name}={v}"));
            }
        }
        for (name, v) in &self.extras {
            parts.push(format!("{name}={v}"));
        }
        if parts.is_empty() {
            parts.push("no counters".to_string());
        }
        write!(f, "{}", parts.join(" "))
    }
}

/// Why a solve had to degrade instead of running to completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// The budget's wall-clock deadline passed.
    Deadline,
    /// The budget's subset-evaluation ceiling was hit.
    SubsetLimit,
    /// The budget's candidate-evaluation ceiling was hit.
    CandidateLimit,
    /// The budget's cancel token fired.
    Cancelled,
    /// The instance exceeds what the backend can represent (e.g. `k`
    /// above a machine simulator's address space) and the caller set a
    /// budget, so the engine degraded instead of attempting the
    /// impossible.
    Capacity,
    /// A machine simulator detected faults it could not repair within
    /// its retry budget.
    FaultEscalation,
}

impl From<ExhaustReason> for DegradeReason {
    fn from(r: ExhaustReason) -> DegradeReason {
        match r {
            ExhaustReason::Deadline => DegradeReason::Deadline,
            ExhaustReason::SubsetLimit => DegradeReason::SubsetLimit,
            ExhaustReason::CandidateLimit => DegradeReason::CandidateLimit,
            ExhaustReason::Cancelled => DegradeReason::Cancelled,
        }
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Deadline => write!(f, "deadline exceeded"),
            DegradeReason::SubsetLimit => write!(f, "subset limit exceeded"),
            DegradeReason::CandidateLimit => write!(f, "candidate limit exceeded"),
            DegradeReason::Cancelled => write!(f, "cancelled"),
            DegradeReason::Capacity => write!(f, "instance exceeds backend capacity"),
            DegradeReason::FaultEscalation => write!(f, "unrecovered machine faults"),
        }
    }
}

/// Did the engine run to completion, or did it stop early with a
/// bounded-suboptimality answer?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The engine finished: the report's `cost` carries the engine's
    /// full promise (the optimum for exact engines).
    Complete,
    /// The engine stopped early. The report's `cost` equals
    /// `upper_bound` — the expected cost of a real, valid procedure the
    /// engine can still hand out — and the optimum is guaranteed to lie
    /// in `[lower_bound, upper_bound]`.
    Degraded {
        /// Expected cost of the anytime incumbent (INF when even a
        /// heuristic procedure could not be built).
        upper_bound: Cost,
        /// An admissible lower bound on the optimum.
        lower_bound: Cost,
        /// Why the engine stopped.
        reason: DegradeReason,
    },
}

impl SolveOutcome {
    /// Did the engine run to completion?
    pub fn is_complete(&self) -> bool {
        matches!(self, SolveOutcome::Complete)
    }

    /// Did the engine stop early?
    pub fn is_degraded(&self) -> bool {
        !self.is_complete()
    }
}

/// The uniform result of one engine run.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The procedure cost the engine achieved: the optimum `C(U)` for
    /// exact engines, an upper bound for heuristics, `INF` iff no
    /// successful procedure exists (heuristics included). For a
    /// [`Degraded`](SolveOutcome::Degraded) outcome this is the
    /// incumbent's upper bound.
    pub cost: Cost,
    /// A procedure tree achieving `cost`, or `None` when `cost` is INF.
    pub tree: Option<TtTree>,
    /// Complete, or degraded with a bound sandwich.
    pub outcome: SolveOutcome,
    /// Work accounting.
    pub work: WorkStats,
    /// Wall-clock time of the solve (including tree extraction).
    pub wall: Duration,
    /// Per-solve telemetry collected while the engine ran: per-DP-level
    /// wall time / cells / candidate counts, plus named counters
    /// (checkpoint latencies, machine counters). Empty for engines that
    /// record nothing.
    pub telemetry: tt_obs::Telemetry,
    /// Set only by the `auto` engine: the engine it delegated to and
    /// why. Consumers that name the engine behind an answer
    /// (supervision, `ttsolve`) read the delegate from here.
    pub selection: Option<Selection>,
}

/// A solver backend under the uniform interface.
///
/// Implementations must be self-contained values (`Send + Sync`) so the
/// registry can hand them out freely.
pub trait Solver: Send + Sync {
    /// The engine's registry name (lower-case, stable).
    fn name(&self) -> &'static str;

    /// What kind of algorithm this is.
    fn kind(&self) -> EngineKind;

    /// Solves the instance under a [`Budget`], timing the run.
    ///
    /// Engines must honor the budget cooperatively: on exhaustion they
    /// stop, return their anytime incumbent, and mark the report
    /// [`Degraded`](SolveOutcome::Degraded) — never hang, never panic,
    /// never report a bound-violating answer. With
    /// [`Budget::unlimited`] this must behave exactly like
    /// [`solve`](Solver::solve).
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport;

    /// Solves the instance without limits, timing the run.
    fn solve(&self, inst: &TtInstance) -> SolveReport {
        self.solve_with(inst, &Budget::unlimited())
    }

    /// The largest `k` this engine can handle in reasonable time and
    /// memory; consumers iterating the registry should skip larger
    /// instances.
    fn max_k(&self) -> usize {
        crate::MAX_K
    }

    /// Alternative names accepted by [`lookup`].
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line human description for listings.
    fn description(&self) -> &'static str {
        ""
    }

    /// Whether [`solve_resumable`](Solver::solve_resumable) honors the
    /// wavefront: resumes a completed one and advances it at every level
    /// boundary. Engines without a level-synchronous structure (memo,
    /// bnb, exhaustive, the heuristics, the bit-serial BVM) report
    /// `false` and always start cold. The delegating `auto` engine
    /// reports `true`: handed a wavefront it picks a resumable engine,
    /// but a cold solve it answers with `memo` advances none at all.
    fn resumable(&self) -> bool {
        false
    }

    /// Solves over the caller's wavefront `wave`, which is both the warm
    /// start and the live DP state, with a sink receiving a borrowed
    /// [`LevelView`] of it after every completed DP level. The view
    /// copies nothing; a sink that keeps the level builds the owned
    /// checkpoint with [`LevelView::to_checkpoint`].
    ///
    /// A resumable engine resumes from `wave` when it is `Some` and
    /// belongs to `inst` (a wavefront of another instance is dropped and
    /// the engine starts cold), puts its own wavefront there otherwise,
    /// and leaves it at its last completed level, whether it returns or
    /// panics: a caller that catches the panic can hand the same `wave`
    /// to the next engine. The level kernel advances `wave`'s slab in
    /// place; the machine simulators copy each level they read back into
    /// it. A level cut short by a panic may have written cells above
    /// `wave.level` ([`Checkpoint::forget_above`] clears them).
    ///
    /// The default ignores both — a cold
    /// [`solve_with`](Solver::solve_with) that emits nothing and leaves
    /// `wave` as it was — so non-resumable engines are still safe members
    /// of a supervision chain: handed a wavefront they recompute from
    /// scratch, which is slower but never wrong. Views are only emitted
    /// at completed-wavefront boundaries, so every viewed slab is exact
    /// below its level.
    fn solve_resumable(
        &self,
        inst: &TtInstance,
        budget: &Budget,
        wave: &mut Option<Checkpoint>,
        sink: &mut dyn FnMut(&LevelView<'_>),
    ) -> SolveReport {
        let _ = (wave, sink);
        self.solve_with(inst, budget)
    }
}

/// Threads the frontier accounting counters into both a report's
/// [`WorkStats::extras`] and the active telemetry scope, under the
/// stable names the observability layer and the tests read, and the
/// chunk pass's `bound_skipped` into the report's extras.
pub fn record_frontier_stats(work: &mut WorkStats, stats: FrontierStats) {
    // The extras get their room at once, and `bound_skipped` stays out
    // of the telemetry scope, whose counter list it would grow past
    // four. With glibc, either reallocation moved where the report's
    // small blocks land, and on some perfbench solve-large seeds one
    // split the freed `2^k` slab so that the next `k = 20` slab no
    // longer fit in it: peak RSS +1.9 MB (seeds 80 and 123, 2-vCPU
    // guest).
    work.extras.reserve(5);
    for (name, v) in [
        ("frontier_cells_allocated", stats.cells_allocated),
        ("frontier_peak_resident_cells", stats.peak_resident_cells),
        ("frontier_rank_calls", stats.rank_calls),
        ("frontier_unrank_calls", stats.unrank_calls),
    ] {
        work.push_extra(name, v);
        tt_obs::telemetry::add_counter(name, v);
    }
    work.push_extra("bound_skipped", stats.bound_skipped);
}

/// Admits the caller's wavefront for an engine: kept when it belongs to
/// `inst`, dropped — start cold — when it belongs to another instance.
/// Returns `inst`'s fingerprint, computed once per solve, for the
/// engine's own wavefront and its views.
pub fn admit_wave(inst: &TtInstance, wave: &mut Option<Checkpoint>) -> u64 {
    let fingerprint = instance_fingerprint(inst);
    if wave
        .as_ref()
        .is_some_and(|ck| ck.k != inst.k() || ck.fingerprint != fingerprint)
    {
        *wave = None;
    }
    fingerprint
}

/// Times `f` and assembles its pieces into a
/// [`Complete`](SolveOutcome::Complete) [`SolveReport`].
pub fn timed_report(f: impl FnOnce() -> (Cost, Option<TtTree>, WorkStats)) -> SolveReport {
    timed_report_with(|| {
        let (cost, tree, work) = f();
        (cost, tree, work, SolveOutcome::Complete)
    })
}

/// As [`timed_report`], but `f` also chooses the [`SolveOutcome`].
///
/// This is the single assembly point for every [`SolveReport`] in the
/// workspace, which makes it the observability seam: it opens a
/// `tt-obs` telemetry collector scope around `f`, so whatever the
/// engine records (per-level samples, checkpoint timings, machine
/// counters) is attached to the report, and bumps the global
/// `tt_solves_total` counter.
pub fn timed_report_with(
    f: impl FnOnce() -> (Cost, Option<TtTree>, WorkStats, SolveOutcome),
) -> SolveReport {
    tt_obs::metrics::counter("tt_solves_total").inc();
    let scope = tt_obs::telemetry::begin();
    let span = tt_obs::trace::span("solve", Vec::new());
    let start = Instant::now();
    let (cost, tree, work, outcome) = f();
    let wall = start.elapsed();
    drop(span);
    let telemetry = scope.finish();
    SolveReport {
        cost,
        tree,
        outcome,
        work,
        wall,
        telemetry,
        selection: None,
    }
}

/// Assembles a degraded result from a partial exact cost table: builds
/// the anytime incumbent (argmins recomputed where `C(S)` is known,
/// greedy elsewhere) and the `[lower, upper]` sandwich. Shared by every engine's exhaustion
/// path, including the machine simulators in `tt-parallel`.
pub fn degraded_result(
    inst: &TtInstance,
    reason: DegradeReason,
    exact: &dyn Fn(Subset) -> Option<Cost>,
    work: WorkStats,
) -> (Cost, Option<TtTree>, WorkStats, SolveOutcome) {
    let tree = anytime::complete_tree(inst, exact);
    let (upper_bound, lower_bound) = anytime::degraded_bounds(inst, tree.as_ref());
    (
        upper_bound,
        tree,
        work,
        SolveOutcome::Degraded {
            upper_bound,
            lower_bound,
            reason,
        },
    )
}

/// The degraded result for an instance the backend cannot represent at
/// all (pure greedy incumbent, [`DegradeReason::Capacity`]).
pub fn capacity_result(
    inst: &TtInstance,
    work: WorkStats,
) -> (Cost, Option<TtTree>, WorkStats, SolveOutcome) {
    degraded_result(inst, DegradeReason::Capacity, &|_| None, work)
}

// ---------------------------------------------------------------------
// The tt-core engines.
// ---------------------------------------------------------------------

/// The level kernel on the calling thread (the paper's `T_1`
/// baseline). `seq-frontier` stays resolvable as an alias for callers
/// that name it.
struct SequentialEngine;

impl Solver for SequentialEngine {
    fn name(&self) -> &'static str {
        "seq"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Exact
    }
    fn aliases(&self) -> &'static [&'static str] {
        &[
            "sequential",
            "seq-frontier",
            "frontier",
            "sequential-frontier",
        ]
    }
    fn description(&self) -> &'static str {
        "levelwise DP over a cost-only 2^k slab (T_1 baseline)"
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        self.solve_resumable(inst, budget, &mut None, &mut |_| {})
    }
    fn resumable(&self) -> bool {
        true
    }
    fn solve_resumable(
        &self,
        inst: &TtInstance,
        budget: &Budget,
        wave: &mut Option<Checkpoint>,
        sink: &mut dyn FnMut(&LevelView<'_>),
    ) -> SolveReport {
        timed_report_with(|| kernel::solve(inst, budget, &kernel::Serial, wave, sink))
    }
}

/// The level kernel over the reachable closure only.
struct MemoEngine;

impl Solver for MemoEngine {
    fn name(&self) -> &'static str {
        "memo"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Exact
    }
    fn description(&self) -> &'static str {
        "level kernel over the reachable closure only"
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        memo_report(inst, budget, None)
    }
}

/// `memo`'s report under `budget`: the closure `walked` when a caller
/// (`auto`'s selection walk) has marked it already, else a fresh walk.
pub(crate) fn memo_report(
    inst: &TtInstance,
    budget: &Budget,
    walked: Option<memo::Closure>,
) -> SolveReport {
    timed_report_with(|| {
        let mut meter = budget.start();
        let s = match walked {
            Some(closure) => memo::solve_closure(inst, &mut meter, closure),
            None => memo::solve_with(inst, &mut meter),
        };
        tt_obs::telemetry::add_counter("reachable_subsets", s.reachable_subsets as u64);
        let mut work = WorkStats {
            subsets: s.reachable_subsets as u64,
            candidates: s.candidates,
            ..WorkStats::default()
        };
        record_frontier_stats(&mut work, s.frontier);
        match meter.exhausted() {
            None => (s.cost, s.tree, work, SolveOutcome::Complete),
            // The table holds only completed levels, so every entry is
            // exact.
            Some(r) => degraded_result(inst, r.into(), &|sub| s.table.get(sub), work),
        }
    })
}

/// Memoized DP with admissible bound-ordered pruning.
struct BnbEngine;

impl Solver for BnbEngine {
    fn name(&self) -> &'static str {
        "bnb"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Exact
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["branch-and-bound", "branch_and_bound"]
    }
    fn description(&self) -> &'static str {
        "memoized DP with bound-ordered candidate pruning"
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        timed_report_with(|| {
            let mut meter = budget.start();
            let s = branch_and_bound::solve_with(inst, &mut meter);
            tt_obs::telemetry::add_counter("pruned_candidates", s.stats.pruned);
            tt_obs::metrics::counter("tt_pruned_candidates_total").add(s.stats.pruned);
            let work = WorkStats {
                subsets: s.stats.subsets as u64,
                candidates: s.stats.expanded,
                pruned: s.stats.pruned,
                ..WorkStats::default()
            };
            match meter.exhausted() {
                None => (s.cost, s.tree, work, SolveOutcome::Complete),
                Some(r) => degraded_result(
                    inst,
                    r.into(),
                    &|sub| s.table.get(&sub.0).map(|&(c, _)| c),
                    work,
                ),
            }
        })
    }
}

/// Explicit enumeration of every valid procedure tree (ground truth).
struct ExhaustiveEngine;

impl Solver for ExhaustiveEngine {
    fn name(&self) -> &'static str {
        "exhaustive"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Exact
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["enum"]
    }
    fn description(&self) -> &'static str {
        "enumerates every valid procedure tree (tiny instances only)"
    }
    fn max_k(&self) -> usize {
        3
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        timed_report_with(|| {
            if !budget.is_unlimited() && inst.k() > self.max_k() {
                return capacity_result(inst, WorkStats::default());
            }
            let mut meter = budget.start();
            let trees = exhaustive::count_trees(inst, inst.universe());
            let mut work = WorkStats {
                candidates: trees,
                ..WorkStats::default()
            };
            work.push_extra("trees", trees);
            let enumerated = match exhaustive::enumerate_trees(inst, inst.universe()) {
                Some(ts) => ts,
                // Over the materialization ceiling: too big to
                // enumerate, not a budget question.
                None => return capacity_result(inst, work),
            };
            let mut best_cost = Cost::INF;
            let mut best: Option<TtTree> = None;
            for t in enumerated {
                if !meter.charge_candidates(1) {
                    break;
                }
                let c = t.expected_cost(inst);
                if c < best_cost {
                    best_cost = c;
                    best = Some(t);
                }
            }
            match meter.exhausted() {
                None => (best_cost, best, work, SolveOutcome::Complete),
                Some(r) => {
                    // The incumbent from the partial scan competes with
                    // the greedy completion; keep the cheaper one.
                    let (g_cost, g_tree, work, outcome) =
                        degraded_result(inst, r.into(), &|_| None, work);
                    if best_cost < g_cost {
                        let outcome = SolveOutcome::Degraded {
                            upper_bound: best_cost,
                            lower_bound: match outcome {
                                SolveOutcome::Degraded { lower_bound, .. } => lower_bound,
                                SolveOutcome::Complete => unreachable!(),
                            },
                            reason: r.into(),
                        };
                        (best_cost, best, work, outcome)
                    } else {
                        (g_cost, g_tree, work, outcome)
                    }
                }
            }
        })
    }
}

/// One myopic heuristic under the uniform interface.
struct GreedyEngine {
    heuristic: greedy::Heuristic,
    name: &'static str,
    description: &'static str,
}

impl Solver for GreedyEngine {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Heuristic
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        timed_report_with(|| {
            let mut meter = budget.start();
            match greedy::solve(inst, self.heuristic) {
                Some(s) => {
                    // Polynomial, so the heuristic always finishes; it
                    // charges its work afterwards and owns up to a
                    // blown budget by reporting the bound sandwich its
                    // own tree provides.
                    let nodes = s.tree.size() as u64;
                    meter.charge_subsets(nodes);
                    meter.charge_candidates(nodes * inst.n_actions() as u64);
                    meter.check();
                    let work = WorkStats {
                        subsets: nodes,
                        ..WorkStats::default()
                    };
                    match meter.exhausted() {
                        None => (s.cost, Some(s.tree), work, SolveOutcome::Complete),
                        Some(r) => {
                            let lower = crate::solver::bounds::Bounds::lower_bound_at(
                                inst,
                                inst.universe(),
                            );
                            let outcome = SolveOutcome::Degraded {
                                upper_bound: s.cost,
                                lower_bound: lower,
                                reason: r.into(),
                            };
                            (s.cost, Some(s.tree), work, outcome)
                        }
                    }
                }
                None => (
                    Cost::INF,
                    None,
                    WorkStats::default(),
                    SolveOutcome::Complete,
                ),
            }
        })
    }
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

/// A function contributing engines from a downstream crate.
pub type EngineProvider = fn() -> Vec<Box<dyn Solver>>;

static EXTENSIONS: Mutex<Vec<EngineProvider>> = Mutex::new(Vec::new());

/// The engines implemented inside `tt-core` itself.
pub fn core_engines() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(SequentialEngine),
        Box::new(MemoEngine),
        Box::new(BnbEngine),
        Box::new(ExhaustiveEngine),
        Box::new(GreedyEngine {
            heuristic: greedy::Heuristic::SplitBalance,
            name: "greedy",
            description: "split-balance heuristic (upper bound)",
        }),
        Box::new(GreedyEngine {
            heuristic: greedy::Heuristic::TreatOnlyCover,
            name: "greedy-cover",
            description: "treat-only set-cover heuristic (upper bound)",
        }),
        Box::new(GreedyEngine {
            heuristic: greedy::Heuristic::EntropyGain,
            name: "greedy-entropy",
            description: "entropy-gain heuristic (upper bound)",
        }),
        Box::new(AutoEngine),
    ]
}

/// Locks the extension list, recovering from poisoning: the list is a
/// plain `Vec` of fn pointers, always structurally valid, so a panic
/// while it was held (it never is during a provider call — providers
/// run outside the lock) cannot leave it corrupt.
fn extensions() -> std::sync::MutexGuard<'static, Vec<EngineProvider>> {
    EXTENSIONS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Registers a downstream engine provider. Registering the same
/// provider function twice is a no-op, so callers need no `Once` guard.
pub fn register_extension(provider: EngineProvider) {
    let mut ext = extensions();
    #[allow(unpredictable_function_pointer_comparisons)]
    if !ext.contains(&provider) {
        ext.push(provider);
    }
}

/// All registered engines: tt-core's own, then each extension's, in
/// registration order, deduplicated by name (first registration wins).
///
/// Providers are called *outside* the lock and behind `catch_unwind`: a
/// panicking extension contributes nothing but cannot poison the
/// registry or wedge later calls.
pub fn registry() -> Vec<Box<dyn Solver>> {
    let providers: Vec<EngineProvider> = extensions().clone();
    let mut engines = core_engines();
    for provider in providers {
        if let Ok(contributed) = std::panic::catch_unwind(provider) {
            engines.extend(contributed);
        }
    }
    let mut seen = std::collections::HashSet::new();
    engines.retain(|e| seen.insert(e.name()));
    engines
}

/// Finds an engine by name or alias (case-insensitive).
pub fn lookup(name: &str) -> Option<Box<dyn Solver>> {
    let want = name.to_ascii_lowercase();
    registry()
        .into_iter()
        .find(|e| e.name() == want || e.aliases().iter().any(|a| *a == want))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
    use crate::subset::Subset;

    fn small_instance() -> TtInstance {
        // Two objects; one test separating them, one treatment each.
        TtInstanceBuilder::new(2)
            .weights([1, 1])
            .test(Subset(0b01), 1)
            .treatment(Subset(0b01), 2)
            .treatment(Subset(0b10), 2)
            .build()
            .unwrap()
    }

    #[test]
    fn core_engines_have_unique_names_and_aliases() {
        let engines = core_engines();
        let mut names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        for e in &engines {
            names.extend(e.aliases());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate engine name or alias");
    }

    #[test]
    fn lookup_finds_names_and_aliases() {
        assert_eq!(lookup("seq").unwrap().name(), "seq");
        assert_eq!(lookup("sequential").unwrap().name(), "seq");
        assert_eq!(lookup("seq-frontier").unwrap().name(), "seq");
        assert_eq!(lookup("BnB").unwrap().name(), "bnb");
        assert!(lookup("no-such-engine").is_none());
    }

    #[test]
    fn exact_core_engines_agree_on_a_small_instance() {
        let inst = small_instance();
        let reports: Vec<(String, SolveReport)> = core_engines()
            .iter()
            .filter(|e| e.kind().is_exact())
            .map(|e| (e.name().to_string(), e.solve(&inst)))
            .collect();
        let (name0, first) = &reports[0];
        assert!(first.cost.is_finite());
        for (name, r) in &reports {
            assert_eq!(r.cost, first.cost, "{name} disagrees with {name0}");
            let t = r.tree.as_ref().expect("finite cost must carry a tree");
            t.validate(&inst).unwrap();
            assert_eq!(t.expected_cost(&inst), r.cost);
        }
    }

    #[test]
    fn heuristic_engines_upper_bound_the_optimum() {
        let inst = small_instance();
        let opt = lookup("seq").unwrap().solve(&inst).cost;
        for e in core_engines() {
            if e.kind() == EngineKind::Heuristic {
                let r = e.solve(&inst);
                assert!(r.cost >= opt, "{} beat the optimum", e.name());
                assert!(r.cost.is_finite());
            }
        }
    }

    #[test]
    fn work_stats_display_shows_only_populated_fields() {
        let mut w = WorkStats {
            subsets: 4,
            candidates: 12,
            ..WorkStats::default()
        };
        w.push_extra("trees", 7);
        assert_eq!(w.to_string(), "subsets=4 candidates=12 trees=7");
        assert_eq!(WorkStats::default().to_string(), "no counters");
        assert_eq!(w.extra("trees"), Some(7));
        assert_eq!(w.extra("absent"), None);
    }

    #[test]
    fn panicking_provider_does_not_wedge_the_registry() {
        fn explosive() -> Vec<Box<dyn Solver>> {
            panic!("provider exploded")
        }
        register_extension(explosive);
        // The panic is swallowed; the core engines still come through,
        // and later registrations still work (no poisoned lock).
        let engines = registry();
        assert!(engines.iter().any(|e| e.name() == "seq"));
        assert!(lookup("seq").is_some());
        register_extension(explosive);
    }

    #[test]
    fn zero_deadline_degrades_exact_engines_with_a_sound_sandwich() {
        let inst = small_instance();
        let optimum = crate::solver::sequential::solve(&inst).cost;
        let budget = Budget::with_deadline(Duration::ZERO);
        for e in core_engines() {
            let r = e.solve_with(&inst, &budget);
            match r.outcome {
                SolveOutcome::Complete => {} // finished before the first poll
                SolveOutcome::Degraded {
                    upper_bound,
                    lower_bound,
                    ..
                } => {
                    assert_eq!(r.cost, upper_bound, "{}", e.name());
                    assert!(lower_bound <= optimum, "{}", e.name());
                    if e.kind().is_exact() {
                        assert!(upper_bound >= optimum, "{}", e.name());
                    }
                    if let Some(t) = &r.tree {
                        t.validate(&inst).unwrap();
                        assert_eq!(t.expected_cost(&inst), upper_bound, "{}", e.name());
                    } else {
                        assert!(upper_bound.is_inf(), "{}", e.name());
                    }
                }
            }
        }
    }

    #[test]
    fn tight_candidate_budget_degrades_but_unlimited_matches() {
        let inst = small_instance();
        let optimum = crate::solver::sequential::solve(&inst).cost;
        for e in core_engines() {
            if !e.kind().is_exact() {
                continue;
            }
            let starved = e.solve_with(&inst, &Budget::with_max_candidates(1));
            if let SolveOutcome::Degraded {
                upper_bound,
                lower_bound,
                ..
            } = starved.outcome
            {
                assert!(lower_bound <= optimum, "{}", e.name());
                assert!(upper_bound >= optimum, "{}", e.name());
            }
            let free = e.solve(&inst);
            assert!(free.outcome.is_complete(), "{}", e.name());
            assert_eq!(free.cost, optimum, "{}", e.name());
        }
    }

    #[test]
    fn cancelled_budget_degrades_with_reason_cancelled() {
        let inst = small_instance();
        let token = crate::solver::budget::CancelToken::new();
        token.cancel();
        let budget = Budget {
            cancel: Some(token),
            ..Budget::default()
        };
        let r = SequentialEngine.solve_with(&inst, &budget);
        match r.outcome {
            SolveOutcome::Degraded { reason, .. } => {
                assert_eq!(reason, DegradeReason::Cancelled)
            }
            SolveOutcome::Complete => panic!("pre-cancelled budget must degrade"),
        }
    }

    #[test]
    fn capacity_gated_exhaustive_degrades_on_large_k() {
        // k = 5 exceeds exhaustive's max_k = 3; with a budget set it
        // must degrade immediately instead of enumerating.
        let inst = TtInstanceBuilder::new(5)
            .weights([1, 1, 1, 1, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .treatment(Subset::universe(5), 3)
            .build()
            .unwrap();
        let r = ExhaustiveEngine.solve_with(&inst, &Budget::with_max_candidates(1_000));
        match r.outcome {
            SolveOutcome::Degraded { reason, .. } => {
                assert_eq!(reason, DegradeReason::Capacity)
            }
            SolveOutcome::Complete => panic!("capacity gate must trigger"),
        }
        assert!(r.cost.is_finite(), "greedy incumbent exists");
    }

    #[test]
    fn registering_the_same_provider_twice_is_a_noop() {
        fn empty_provider() -> Vec<Box<dyn Solver>> {
            Vec::new()
        }
        // Go through the poison-proof helper: the panicking-provider
        // test above runs `register_extension(explosive)` in the same
        // process, and a raw `.lock().unwrap()` here would die on the
        // poisoned mutex depending on test order.
        let before = extensions().len();
        register_extension(empty_provider);
        register_extension(empty_provider);
        let after = extensions().len();
        assert_eq!(after, before + 1);
    }
}
