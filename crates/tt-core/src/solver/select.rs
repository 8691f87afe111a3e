//! Engine auto-selection: pick a backend from the instance's shape.
//!
//! The registry's `auto` engine lands here at solve time, on every
//! entry point: `ttsolve --solver auto`, the default supervision chain
//! it heads (batch items, ttserve misses), and a wire request's
//! `"solver": "auto"`. The decision costs one bounded walk per solve
//! and never runs while a chain is built. The choice is driven by these
//! observable facts, in priority order:
//!
//! 1. **Reachable-set sparsity.** The memoized DP touches only subsets
//!    reachable from `U` by test/treatment splits; when a cheap bounded
//!    walk shows that closure is a small fraction of the `2^k`
//!    lattice, `memo` does asymptotically less work than any
//!    full-lattice sweep. The walk is `memo`'s own marking pass
//!    (`memo::walk_closure`), top-down from `U`. It gives up as dense
//!    past [`PROBE_CAP`] or `2^k / SPARSE_DIVISOR` subsets, and exits
//!    early as dense at the first level `j ≥ k/2` of at least
//!    [`DENSE_LEVEL_CELLS`] cells that is at least half marked: a
//!    dense closure shows that within its top few levels, long before
//!    the cap. When the walk completes, its sorted levels go to `memo`,
//!    which evaluates them without walking again.
//! 2. **Lattice size.** Below [`SMALL_K`] the full table fits in cache
//!    and a solve is microseconds; thread fan-out or machine simulation
//!    only adds overhead, so plain `seq` wins.
//! 3. **Frontier width.** Parallel fan-out amortizes per level: a level
//!    of `C(k, j)` cells is split across worker threads, and when even
//!    the widest level `C(k, ⌈k/2⌉)` is below
//!    [`FRONTIER_PAR_THRESHOLD`] cells the per-level synchronization
//!    costs more than the work it distributes (measured 3.8× slower
//!    than `seq` at `k = 12`), so `seq` stays the pick up to `k = 15`.
//! 4. **Scale.** Past that, the wavefront is parallelized across real
//!    threads: `rayon`. Storage does not enter the decision: `seq` and
//!    `rayon` run the same level kernel over the same cost-only slab
//!    (`2^k` cells of 8 B — 8 MiB at `k = 20`, 256 MiB at `MAX_K = 25`),
//!    and `seq-frontier`/`rayon-frontier` are aliases of the two. The
//!    machine simulators (`hyper`, `ccc`, `bvm`) are *never* auto-picked: they simulate up to `2^(k + log N)` PEs in software,
//!    so their wall-clock is strictly worse than `seq` — they exist to
//!    measure step counts, not to race (and their `max_k` ceilings say
//!    so).
//!
//! The decision table itself ([`decide`]) is a pure function of
//! `(k, reachable, available engines)` so it can be unit-tested
//! exhaustively; [`auto_select`] feeds it the live registry (filtered
//! by each engine's `max_k`) and the selection walk's count.
//! [`probe_reachable`] is the same walk without the dense exit: it
//! counts the closure or reports it past a cap, for the lint and for
//! perfbench's `select.probe_ms`.
//!
//! A solve resumed from a checkpoint decides among the resumable
//! (level-synchronous) engines only, without probing: the checkpoint's
//! wavefront is only of use to them. A cold solve answered by `memo`
//! emits no level views, so nothing downstream can checkpoint it — a
//! keyed ttserve solve journals no `Checkpoint` records and
//! `ttsolve --checkpoint` writes no file; an interrupted one re-solves
//! cold.

use crate::instance::TtInstance;
use crate::solver::budget::Budget;
use crate::solver::checkpoint::{Checkpoint, LevelView};
use crate::solver::engine::{memo_report, registry, EngineKind, SolveReport, Solver};
use crate::solver::memo::{walk_closure, Closure};
use crate::subset::frontier;
use std::time::Instant;

/// Largest `k` for which plain sequential DP is preferred over thread
/// fan-out: at `k = 11` the full lattice is 2048 cells and a solve is
/// far cheaper than spinning up a thread pool.
pub const SMALL_K: usize = 11;

/// Minimum widest-level size `C(k, ⌈k/2⌉)` before a thread pool pays
/// for itself. Parallel sweeps synchronize at every level boundary, so
/// the fan-out must amortize over one level's cells, not the whole
/// lattice: at `k = 12` the widest level is only `C(12,6) = 924` cells
/// and `rayon` measured 3.8× *slower* than `seq`. `C(15,7) = 6435`
/// still loses. From `C(16,8) = 12870` on, whether `rayon` wins depends
/// on a second core being free. Measured on a 2-vCPU KVM guest over the
/// catalog draws of the solve-large benchmark, medians of 10
/// interleaved runs at `k = 16, 18, 20`:
/// - other vCPU idle: `rayon`'s wall time was 0.64–0.84× `seq`'s
///   (1.05× on random at `k = 16`), for 1.12–1.45× its process CPU;
/// - other vCPU running a busy loop (6 runs): `rayon`'s wall time
///   equalled its CPU time and was 0.97–1.26× `seq`'s.
///
/// So at this width `rayon` trades CPU for latency, and loses both when
/// the machine is busy; the threshold does not weigh that trade.
pub const FRONTIER_PAR_THRESHOLD: u64 = 8192;

/// `memo` is chosen when the reachable closure is at most
/// `2^k / SPARSE_DIVISOR` subsets.
pub const SPARSE_DIVISOR: usize = 8;

/// Upper bound on the reachability probe's exploration, so selection
/// stays cheap at any `k`. Instances whose closure is sparse but
/// larger than this are conservatively treated as dense.
pub const PROBE_CAP: usize = 1 << 16;

/// The selection walk's dense exit reads only levels of at least this
/// many cells: a small level says little about the closure.
pub const DENSE_LEVEL_CELLS: u64 = 1000;

/// The outcome of auto-selection: which engine, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Selection {
    /// Registry name of the chosen engine.
    pub engine: String,
    /// One human-readable sentence explaining the choice.
    pub reason: String,
}

/// Counts the subsets reachable from `U` by the instance's actions
/// (test splits `S ∩ T` / `S − T`, treatment remainders `S − T`),
/// following the same usefulness rules as the DP recurrence. Returns
/// `None` — "dense" — as soon as the closure exceeds `cap`.
///
/// This is `memo`'s marking pass, counted. The result does not depend
/// on the walk order (the closure is counted whole or found to exceed
/// `cap`), but on a dense closure the top-down level walk reaches `cap`
/// soon: it expands the large sets near `U`, whose splits are mostly
/// new, before the small ones, whose splits mostly repeat.
pub fn probe_reachable(inst: &TtInstance, cap: usize) -> Option<usize> {
    walk_closure(inst, cap, &mut |_, _| true).map(|closure| closure.cells)
}

/// `auto`'s selection walk: [`probe_reachable`] at the auto cap, which
/// also stops as dense at the first level `j ≥ k/2` of at least
/// [`DENSE_LEVEL_CELLS`] cells with at least half of them marked, and
/// keeps the closure for `memo` when it completes. The upper-half bound
/// matters: a sparse closure can mark most of a level far below `U`.
fn selection_walk(inst: &TtInstance) -> Option<Closure> {
    let k = inst.k();
    let cap = ((1usize << k) / SPARSE_DIVISOR).clamp(1, PROBE_CAP);
    walk_closure(inst, cap, &mut |j, marked| {
        let cells = frontier::binomial(k, j);
        !(2 * j >= k && cells >= DENSE_LEVEL_CELLS && 2 * marked as u64 >= cells)
    })
}

/// The pure decision table. `reachable` is the probe result (`None` =
/// dense or unprobed); `available` lists registry engine names whose
/// `max_k` admits the instance. Always returns *something* runnable
/// from `available` (or `"seq"` as a last resort).
pub fn decide(k: usize, reachable: Option<usize>, available: &[&str]) -> Selection {
    let lattice = 1u64 << k;
    let has = |name: &str| available.contains(&name);
    if let Some(r) = reachable {
        let threshold = (lattice / SPARSE_DIVISOR as u64).max(1);
        if k > 3 && (r as u64) <= threshold && has("memo") {
            return Selection {
                engine: "memo".to_string(),
                reason: format!(
                    "reachable closure is sparse ({r} of {lattice} subsets ≤ 1/{SPARSE_DIVISOR}): \
                     memoized DP skips the rest of the lattice"
                ),
            };
        }
    }
    if k <= SMALL_K && has("seq") {
        return Selection {
            engine: "seq".to_string(),
            reason: format!(
                "full lattice is small (2^{k} = {lattice} cells): sequential DP beats \
                 any parallel overhead"
            ),
        };
    }
    let widest = frontier::max_frontier(k);
    if widest < FRONTIER_PAR_THRESHOLD && has("seq") {
        return Selection {
            engine: "seq".to_string(),
            reason: format!(
                "widest frontier C({k},{}) = {widest} is below the parallel threshold \
                 {FRONTIER_PAR_THRESHOLD}: per-level fan-out overhead outweighs one \
                 level's work, sequential DP wins",
                k / 2
            ),
        };
    }
    if has("rayon") {
        return Selection {
            engine: "rayon".to_string(),
            reason: format!(
                "widest frontier C({k},{}) = {widest} cells amortizes thread fan-out: rayon \
                 sweeps each level on worker threads",
                k / 2
            ),
        };
    }
    if has("seq") {
        return Selection {
            engine: "seq".to_string(),
            reason: format!("k = {k}: no parallel backend registered, using the exact baseline"),
        };
    }
    Selection {
        engine: available.first().unwrap_or(&"seq").to_string(),
        reason: "no preferred engine available; using the first registered one".to_string(),
    }
}

/// Picks an engine for `inst` from the live registry: filters by
/// `max_k`, runs the selection walk, applies [`decide`].
pub fn auto_select(inst: &TtInstance) -> Selection {
    choose(inst, false).1
}

/// [`auto_select`], returning the chosen engine too, and the walked
/// closure when that engine is `memo`. With `resuming` only resumable
/// engines are candidates and the walk is skipped.
fn choose(inst: &TtInstance, resuming: bool) -> (Box<dyn Solver>, Selection, Option<Closure>) {
    let mut engines = registry();
    engines.retain(|e| e.name() != AUTO && e.max_k() >= inst.k() && (!resuming || e.resumable()));
    let available: Vec<&str> = engines.iter().map(|e| e.name()).collect();
    let closure = if resuming { None } else { selection_walk(inst) };
    let selection = decide(inst.k(), closure.as_ref().map(|c| c.cells), &available);
    // `seq` (always registered, resumable, `max_k` = MAX_K) keeps
    // `available` non-empty, so `decide` names one of its engines.
    let engine = engines
        .into_iter()
        .find(|e| e.name() == selection.engine)
        .expect("decide picks from the available engines");
    let closure = closure.filter(|_| engine.name() == "memo");
    (engine, selection, closure)
}

/// The `auto` engine's registry name.
const AUTO: &str = "auto";

/// The registry's `auto` engine: at solve time it runs the
/// [`auto_select`] decision (selection walk plus [`decide`]) and
/// delegates the whole solve to the chosen engine, handing `memo` the
/// closure the walk marked. The report is the delegate's,
/// with [`SolveReport::selection`] naming it and its `wall` including
/// the decision, so supervision and the CLIs report the engine that
/// ran, never `auto`.
///
/// Its `max_k` is the trait default, `MAX_K`: `seq` admits that, and no
/// engine admits more.
pub(crate) struct AutoEngine;

impl Solver for AutoEngine {
    fn name(&self) -> &'static str {
        AUTO
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Exact
    }
    fn description(&self) -> &'static str {
        "picks memo, seq or rayon at solve time from the instance's shape"
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
        let start = Instant::now();
        let (engine, selection, closure) = choose(inst, wave.is_some());
        let decided = start.elapsed();
        let mut report = match closure {
            Some(closure) => memo_report(inst, budget, Some(closure)),
            None => engine.solve_resumable(inst, budget, wave, sink),
        };
        report.wall += decided;
        report.selection = Some(selection);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
    use crate::subset::Subset;

    const FULL: &[&str] = &[
        "seq",
        "memo",
        "bnb",
        "exhaustive",
        "greedy",
        "rayon",
        "hyper",
        "ccc",
        "bvm",
    ];

    #[test]
    fn sparse_reachable_sets_pick_memo() {
        let s = decide(12, Some(100), FULL);
        assert_eq!(s.engine, "memo");
        assert!(s.reason.contains("sparse"));
    }

    #[test]
    fn small_k_picks_seq_even_when_dense() {
        let s = decide(8, None, FULL);
        assert_eq!(s.engine, "seq");
        // Dense and small: sparsity never considered.
        let s2 = decide(8, Some(256), FULL);
        assert_eq!(s2.engine, "seq");
    }

    #[test]
    fn narrow_frontiers_stay_sequential() {
        // k = 12..=15: past SMALL_K, but the widest level is under the
        // parallel threshold — the regime where rayon measured 3.8×
        // slower than seq. Auto must stay on seq, and say why.
        for k in 12..=15 {
            let s = decide(k, None, FULL);
            assert_eq!(s.engine, "seq", "k={k}: {}", s.reason);
            assert!(s.reason.contains("frontier"), "k={k}: {}", s.reason);
            assert!(
                s.reason.contains(&frontier::max_frontier(k).to_string()),
                "k={k}: {}",
                s.reason
            );
        }
    }

    #[test]
    fn wide_frontiers_pick_rayon_up_to_the_largest_k() {
        for k in 16..=crate::MAX_K {
            let s = decide(k, None, FULL);
            assert_eq!(s.engine, "rayon", "k={k}: {}", s.reason);
            assert!(
                s.reason.contains(&frontier::max_frontier(k).to_string()),
                "{}",
                s.reason
            );
        }
        // A dense probe result (above 2^k/8) lands there too.
        assert_eq!(decide(16, Some(60_000), FULL).engine, "rayon");
        // Without any parallel backend, seq.
        assert_eq!(decide(16, None, &["seq", "memo"]).engine, "seq");
    }

    #[test]
    fn machine_simulators_are_never_auto_picked() {
        for k in 1..=20 {
            for reachable in [None, Some(10), Some(1 << 14)] {
                let s = decide(k, reachable, FULL);
                assert!(
                    !["hyper", "hyper-blocked", "ccc", "bvm", "exhaustive"]
                        .contains(&s.engine.as_str()),
                    "k={k} picked {}",
                    s.engine
                );
            }
        }
    }

    #[test]
    fn missing_rayon_falls_back_to_seq() {
        let core_only = &["seq", "memo", "bnb", "exhaustive", "greedy"];
        let s = decide(16, None, core_only);
        assert_eq!(s.engine, "seq");
    }

    #[test]
    fn tiny_k_never_picks_memo() {
        // Below k=4 even a "sparse" closure is trivial; seq wins.
        let s = decide(3, Some(1), FULL);
        assert_eq!(s.engine, "seq");
    }

    #[test]
    fn empty_availability_degrades_to_seq() {
        let s = decide(10, None, &[]);
        assert_eq!(s.engine, "seq");
    }

    /// Nested prefix treatments `{0..=i}`: from `U` every difference is
    /// a suffix set, and suffixes are closed under further differences
    /// — the closure is just the `k` suffixes, very sparse.
    fn sparse_chain(k: usize) -> crate::instance::TtInstance {
        let mut b = TtInstanceBuilder::new(k).weights((0..k).map(|_| 1));
        for i in 0..k {
            b = b.treatment(Subset::from_iter(0..=i), 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn probe_counts_the_closure_of_a_chain_instance() {
        let k = 6;
        let inst = sparse_chain(k);
        let r = probe_reachable(&inst, 1 << k).unwrap();
        assert!(
            r < (1 << k) / SPARSE_DIVISOR,
            "chain closure is sparse, got {r}"
        );
    }

    #[test]
    fn probe_returns_none_past_the_cap() {
        // A universe-splitting test pair generates a dense closure.
        let k = 6;
        let mut b = TtInstanceBuilder::new(k).weights((0..k).map(|_| 1));
        for i in 0..k {
            b = b.test(Subset::singleton(i), 1);
        }
        b = b.treatment(Subset::universe(k), 5);
        let inst = b.build().unwrap();
        assert_eq!(probe_reachable(&inst, 4), None);
        // With room, the same instance reports its true (dense) count.
        let full = probe_reachable(&inst, 1 << k).unwrap();
        assert!(full > (1 << k) / SPARSE_DIVISOR);
    }

    #[test]
    fn auto_select_on_a_sparse_instance_prefers_memo() {
        let s = auto_select(&sparse_chain(7));
        assert_eq!(s.engine, "memo", "{}", s.reason);
    }

    #[test]
    fn the_auto_engine_runs_and_names_its_delegate() {
        let inst = sparse_chain(7);
        let r = AutoEngine.solve(&inst);
        assert_eq!(r.selection, Some(auto_select(&inst)));
        assert_eq!(r.selection.unwrap().engine, "memo");
        assert_eq!(r.cost, crate::solver::sequential::solve(&inst).cost);
        assert!(r.outcome.is_complete());
    }

    #[test]
    fn a_resumed_auto_solve_decides_among_resumable_engines_only() {
        let inst = sparse_chain(7);
        let sol = crate::solver::sequential::solve(&inst);
        let ck = LevelView::dense(&inst, 3, &sol.tables.cost).to_checkpoint();
        let mut levels = Vec::new();
        let mut wave = Some(ck);
        let r = AutoEngine.solve_resumable(&inst, &Budget::unlimited(), &mut wave, &mut |v| {
            levels.push(v.level());
        });
        assert_eq!(
            wave.map(|ck| ck.level),
            Some(7),
            "the delegate advanced the wave"
        );
        let picked = r.selection.expect("auto reports its selection").engine;
        assert_eq!(picked, "seq", "memo cannot use the checkpoint");
        assert_eq!(r.work.extra("resumed_level"), Some(3));
        assert_eq!(levels, (4..=7).collect::<Vec<_>>());
        assert_eq!(r.cost, sol.cost);
    }

    #[test]
    fn auto_admits_the_largest_k_any_delegate_does() {
        let most = registry()
            .iter()
            .filter(|e| e.name() != AUTO)
            .map(|e| e.max_k())
            .max();
        assert_eq!(Some(AutoEngine.max_k()), most);
    }
}
