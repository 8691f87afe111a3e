//! This crate's engines for the `tt-core` solver registry.
//!
//! `tt-core` cannot depend on `tt-parallel`, so the parallel and
//! machine-simulation backends join the registry through
//! [`engine::register_extension`]: call [`register_engines`] once (it is
//! idempotent) and `tt_core::solver::registry()` will list `rayon`,
//! `hyper`, `hyper-blocked`, `ccc`, and `bvm` next to the core engines.
//! `rayon-frontier` is an alias of `rayon`.

use crate::layout::Layout;
use crate::{bvm as bvm_tt, ccc as ccc_tt, hyper, rayon_solver};
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::solver::budget::{Budget, BudgetMeter};
use tt_core::solver::checkpoint::{Checkpoint, LevelView};
use tt_core::solver::engine::{
    self, timed_report_with, EngineKind, SolveOutcome, SolveReport, Solver, WorkStats,
};
use tt_core::solver::kernel;
use tt_core::solver::sequential::{extract_tree_costs, LevelSink, WavefrontSeed};
use tt_core::subset::frontier::binomial;
use tt_core::subset::Subset;

/// A per-level budget check for the machine simulators: charges the whole
/// machine's PE sweep for the upcoming level, then polls the deadline and
/// cancellation.
fn level_check(meter: &mut BudgetMeter, pes: u64) -> bool {
    meter.charge_subsets(1) & meter.charge_candidates(pes) & meter.check()
}

/// Absorbs a machine's level-`level` readback into the caller's
/// wavefront (started cold on the first level) and shows the sink the
/// wavefront.
pub(crate) fn absorb_and_emit(
    inst: &TtInstance,
    wave: &mut Option<Checkpoint>,
    fingerprint: u64,
    level: usize,
    cost: &[Cost],
    sink: &mut dyn FnMut(&LevelView<'_>),
) {
    let ck = wave.get_or_insert_with(|| Checkpoint::cold(inst.k(), fingerprint));
    ck.absorb_level(level, cost);
    sink(&LevelView::of(inst, ck));
}

/// What a machine simulator's run leaves behind: its cost table, its
/// completed levels, and its own counters (`machine_steps`, `pes`,
/// extras).
type MachineRun = (Vec<Cost>, usize, WorkStats);

/// One resumable solve on a word-level machine simulator (`hyper`,
/// `hyper-blocked`, `ccc`). Refuses an instance above `max_k` under a
/// limited budget; charges the budget `pes` candidates per level;
/// starts `run` warm from the caller's wavefront and absorbs every level
/// it completes back into it, with a telemetry sample per level. `run`
/// gets the per-level budget check, the warm-start seed and the level
/// sink. The tree is extracted from the cost table; an exhausted budget
/// yields the degraded sandwich over the completed levels.
fn solve_on_machine(
    inst: &TtInstance,
    budget: &Budget,
    max_k: usize,
    wave: &mut Option<Checkpoint>,
    sink: &mut dyn FnMut(&LevelView<'_>),
    pes: u64,
    run: impl FnOnce(
        &mut dyn FnMut() -> bool,
        Option<WavefrontSeed<'_>>,
        &mut LevelSink<'_>,
    ) -> MachineRun,
) -> SolveReport {
    timed_report_with(|| {
        if !budget.is_unlimited() && inst.k() > max_k {
            return engine::capacity_result(inst, WorkStats::default());
        }
        let mut meter = budget.start();
        let fingerprint = engine::admit_wave(inst, wave);
        // The machine's readbacks are absorbed into `wave`, so its
        // warm-start seed is a copy (`k ≤ 14`: at most 16 K cells).
        let prepared = wave.clone();
        let resumed = prepared.as_ref().map(|ck| ck.level);
        let mut last = std::time::Instant::now();
        let (c_table, done, mut work) = run(
            &mut || level_check(&mut meter, pes),
            prepared.as_ref().map(|ck| (ck.level, ck.cost.as_slice())),
            &mut |level, c| {
                record_level_boundary(level, binomial(inst.k(), level), pes, &mut last);
                absorb_and_emit(inst, wave, fingerprint, level, c, sink);
            },
        );
        work.subsets = recomputed_subsets(inst.k(), resumed, done);
        if let Some(level) = resumed {
            work.push_extra("resumed_level", level as u64);
        }
        if let Some(r) = meter.exhausted() {
            work.push_extra("completed_levels", done as u64);
            let exact = |sub: Subset| (sub.len() <= done).then(|| c_table[sub.index()]);
            return engine::degraded_result(inst, r.into(), &exact, work);
        }
        let u = inst.universe();
        let tree = extract_tree_costs(inst, &c_table, u);
        (c_table[u.index()], tree, work, SolveOutcome::Complete)
    })
}

/// PE count of the complete CCC with cycle-length exponent `r`
/// (`Q = 2^r` PEs per cycle, `2^Q` cycles).
fn ccc_pes(r: usize) -> u64 {
    1u64 << ((1usize << r) + r)
}

/// Lattice cells a machine run actually recomputed: the binomial levels
/// `resumed + 1 ..= done`, plus the level-0 initialization on a cold
/// start. A cold completed run is the full `2^k`; a warm resume must
/// NOT re-count the prefix replayed from the checkpoint overlay.
pub(crate) fn recomputed_subsets(k: usize, resumed: Option<usize>, done: usize) -> u64 {
    let start = resumed.map_or(0, |l| l + 1);
    (start..=done).map(|j| binomial(k, j)).sum()
}

/// Emits the telemetry sample for a finished DP level — `cells`
/// wavefront entries finalized, `candidates` (S, i) slots swept — timing
/// the gap since the previous level boundary.
pub(crate) fn record_level_boundary(
    level: usize,
    cells: u64,
    candidates: u64,
    last: &mut std::time::Instant,
) {
    let nanos = u64::try_from(last.elapsed().as_nanos()).unwrap_or(u64::MAX);
    *last = std::time::Instant::now();
    tt_obs::telemetry::record_level(level, cells, candidates, nanos);
}

/// The level kernel with each level's chunks on worker threads.
/// `rayon-frontier` stays resolvable as an alias for callers that name
/// it.
struct RayonEngine;

impl Solver for RayonEngine {
    fn name(&self) -> &'static str {
        "rayon"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Parallel
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["rayon-frontier", "par-frontier"]
    }
    fn description(&self) -> &'static str {
        "levelwise DP over a cost-only 2^k slab on worker threads"
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
        timed_report_with(|| {
            let threads = rayon::current_num_threads() as u64;
            let (cost, tree, mut work, outcome) =
                kernel::solve(inst, budget, &rayon_solver::Rayon, wave, sink);
            work.pes = threads;
            work.push_extra("threads", threads);
            (cost, tree, work, outcome)
        })
    }
}

/// Word-level hypercube simulation, one PE per `(S, i)` pair.
struct HyperEngine;

impl Solver for HyperEngine {
    fn name(&self) -> &'static str {
        "hyper"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Machine
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["hypercube"]
    }
    fn description(&self) -> &'static str {
        "hypercube simulation, one PE per (S, i) pair"
    }
    fn max_k(&self) -> usize {
        14
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
        let pes = Layout::new(inst.k(), inst.n_actions()).pes() as u64;
        solve_on_machine(
            inst,
            budget,
            self.max_k(),
            wave,
            sink,
            pes,
            |check, warm, on_level| {
                let (s, done) = hyper::solve_resumable(inst, check, warm, on_level);
                let mut work = WorkStats {
                    machine_steps: s.steps.exchange + s.steps.local,
                    pes: s.layout.pes() as u64,
                    ..WorkStats::default()
                };
                work.push_extra("exchange_steps", s.steps.exchange);
                work.push_extra("local_steps", s.steps.local);
                work.push_extra("wire_transits", s.steps.wire_transits);
                tt_obs::telemetry::add_counter("wire_transits", s.steps.wire_transits);
                tt_obs::metrics::counter("tt_wire_transits_total").add(s.steps.wire_transits);
                (s.c_table, done, work)
            },
        )
    }
}

/// Brent's-theorem blocked hypercube: many virtual PEs per physical PE.
struct HyperBlockedEngine;

impl HyperBlockedEngine {
    /// Default physical-dimension count: two below the virtual cube, so
    /// each physical PE hosts four virtual ones — enough to show the
    /// local/remote split without changing the schedule.
    fn phys(layout: &Layout) -> usize {
        layout.dims().saturating_sub(2)
    }
}

impl Solver for HyperBlockedEngine {
    fn name(&self) -> &'static str {
        "hyper-blocked"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Machine
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["hyper_blocked", "blocked"]
    }
    fn description(&self) -> &'static str {
        "blocked hypercube (Brent), 4 virtual PEs per physical PE"
    }
    fn max_k(&self) -> usize {
        14
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
        let layout = Layout::new(inst.k(), inst.n_actions());
        let phys = Self::phys(&layout);
        let pes = layout.pes() as u64;
        solve_on_machine(
            inst,
            budget,
            self.max_k(),
            wave,
            sink,
            pes,
            |check, warm, on_level| {
                let (s, done) = hyper::solve_blocked_resumable(inst, phys, check, warm, on_level);
                let mut work = WorkStats {
                    machine_steps: s.counts.virtual_steps,
                    pes: 1u64 << phys,
                    ..WorkStats::default()
                };
                work.push_extra("local_pair_ops", s.counts.local_pair_ops);
                work.push_extra("remote_pair_ops", s.counts.remote_pair_ops);
                work.push_extra("words_communicated", s.counts.words_communicated);
                tt_obs::telemetry::add_counter("words_communicated", s.counts.words_communicated);
                work.push_extra("block_size", s.block_size as u64);
                (s.c_table, done, work)
            },
        )
    }
}

/// Cube-connected-cycles simulation (constant-degree realization).
struct CccEngine;

impl Solver for CccEngine {
    fn name(&self) -> &'static str {
        "ccc"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Machine
    }
    fn description(&self) -> &'static str {
        "cube-connected-cycles simulation (constant-degree network)"
    }
    fn max_k(&self) -> usize {
        8
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
        let dims = Layout::new(inst.k(), inst.n_actions()).dims();
        let pes = ccc_pes(hypercube::ccc::min_r_for_dims(dims));
        solve_on_machine(
            inst,
            budget,
            self.max_k(),
            wave,
            sink,
            pes,
            |check, warm, on_level| {
                let (s, done) = ccc_tt::solve_resumable(inst, check, warm, on_level);
                let mut work = WorkStats {
                    machine_steps: s.steps.total_comm() + s.steps.local,
                    pes: ccc_pes(s.machine_r),
                    ..WorkStats::default()
                };
                work.push_extra("rotations", s.steps.rotations);
                work.push_extra("lateral_exchanges", s.steps.lateral_exchanges);
                work.push_extra("intra_cycle", s.steps.intra_cycle);
                work.push_extra("local_steps", s.steps.local);
                work.push_extra("wire_transits", s.steps.wire_transits);
                tt_obs::telemetry::add_counter("wire_transits", s.steps.wire_transits);
                tt_obs::metrics::counter("tt_wire_transits_total").add(s.steps.wire_transits);
                work.push_extra("machine_r", s.machine_r as u64);
                (s.c_table, done, work)
            },
        )
    }
}

/// Bit-serial Boolean Vector Machine simulation.
struct BvmEngine;

impl Solver for BvmEngine {
    fn name(&self) -> &'static str {
        "bvm"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Machine
    }
    fn description(&self) -> &'static str {
        "bit-serial Boolean Vector Machine simulation"
    }
    fn max_k(&self) -> usize {
        5
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        timed_report_with(|| {
            // Past `max_k` only under a budget; past the register file
            // always, since the program cannot be laid out at all.
            if !budget.is_unlimited() && inst.k() > self.max_k()
                || bvm_tt::registers_needed(inst, bvm_tt::required_width(inst)) > bvm::NUM_REGISTERS
            {
                return engine::capacity_result(inst, WorkStats::default());
            }
            let mut meter = budget.start();
            let pes = ccc_pes(bvm_tt::machine_for(inst).topo().r());
            // The BVM exposes no per-level sink; the budget check runs
            // once before each level, so the gap between consecutive
            // calls times the level in between.
            let mut last = std::time::Instant::now();
            let mut finished = 0usize;
            let mut recorded = 0usize;
            let (s, done) = bvm_tt::solve_budgeted(inst, &mut || {
                if finished > recorded {
                    record_level_boundary(finished, binomial(inst.k(), finished), pes, &mut last);
                    recorded = finished;
                }
                let ok = level_check(&mut meter, pes);
                if ok {
                    finished += 1;
                }
                ok
            });
            if done > recorded {
                record_level_boundary(done, binomial(inst.k(), done), pes, &mut last);
            }
            let mut work = WorkStats {
                subsets: recomputed_subsets(inst.k(), None, done),
                machine_steps: s.instructions,
                pes: ccc_pes(s.machine_r),
                ..WorkStats::default()
            };
            work.push_extra("host_loads", s.host_loads);
            work.push_extra("bit_ops", s.bit_ops);
            tt_obs::telemetry::add_counter("bit_ops", s.bit_ops);
            tt_obs::metrics::counter("tt_bit_ops_total").add(s.bit_ops);
            work.push_extra("width_bits", s.width as u64);
            work.push_extra("machine_r", s.machine_r as u64);
            for (phase, n) in &s.phase_breakdown {
                work.push_extra(format!("phase:{phase}"), *n);
            }
            if let Some(r) = meter.exhausted() {
                work.push_extra("completed_levels", done as u64);
                return engine::degraded_result(
                    inst,
                    r.into(),
                    &|sub| (sub.len() <= done).then(|| s.c_table[sub.index()]),
                    work,
                );
            }
            let tree = extract_tree_costs(inst, &s.c_table, inst.universe());
            (s.cost, tree, work, SolveOutcome::Complete)
        })
    }
}

/// The engines this crate contributes to the registry.
pub fn engines() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(RayonEngine),
        Box::new(HyperEngine),
        Box::new(HyperBlockedEngine),
        Box::new(CccEngine),
        Box::new(BvmEngine),
    ]
}

/// Adds this crate's engines to `tt_core::solver::registry()`.
/// Idempotent; call freely from binaries, tests, and examples.
pub fn register_engines() {
    engine::register_extension(engines);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::engine::DegradeReason;
    use tt_core::solver::sequential;

    fn small_instance() -> TtInstance {
        TtInstanceBuilder::new(3)
            .weights([2, 1, 1])
            .test(Subset(0b011), 1)
            .test(Subset(0b101), 2)
            .treatment(Subset(0b011), 3)
            .treatment(Subset(0b110), 2)
            .build()
            .unwrap()
    }

    #[test]
    fn registration_exposes_every_backend() {
        register_engines();
        register_engines(); // idempotent
        let names: Vec<&str> = tt_core::solver::registry()
            .iter()
            .map(|e| e.name())
            .collect();
        for want in [
            "exhaustive",
            "seq",
            "memo",
            "bnb",
            "greedy",
            "rayon",
            "hyper",
            "hyper-blocked",
            "ccc",
            "bvm",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate names in {names:?}");
        // The frontier names resolve to the kernel engines.
        for (alias, name) in [("seq-frontier", "seq"), ("rayon-frontier", "rayon")] {
            assert_eq!(tt_core::solver::lookup(alias).unwrap().name(), name);
        }
    }

    #[test]
    fn machine_engines_match_the_dp_and_extract_valid_trees() {
        let inst = small_instance();
        let opt = sequential::solve(&inst);
        for e in engines() {
            let r = e.solve(&inst);
            assert_eq!(r.cost, opt.cost, "{} cost mismatch", e.name());
            let t = r
                .tree
                .as_ref()
                .unwrap_or_else(|| panic!("{} lost the tree", e.name()));
            t.validate(&inst).unwrap();
            assert_eq!(t.expected_cost(&inst), r.cost, "{} tree cost", e.name());
            assert!(
                e.kind() != EngineKind::Machine || r.work.machine_steps > 0,
                "{} reported no machine steps",
                e.name()
            );
        }
    }

    #[test]
    fn resumable_engines_reproduce_the_cold_run_from_every_checkpoint() {
        let inst = small_instance();
        let opt = sequential::solve(&inst);
        let budget = Budget::unlimited();
        for e in engines() {
            if !e.resumable() {
                continue;
            }
            let mut cks = Vec::new();
            let mut wave = None;
            let cold = e.solve_resumable(&inst, &budget, &mut wave, &mut |v| {
                cks.push(v.to_checkpoint())
            });
            let (wave, last) = (wave.expect("a wavefront"), cks.last().unwrap());
            assert_eq!(
                (wave.level, &wave.cost),
                (last.level, &last.cost),
                "{} leaves its wavefront at the last level",
                e.name()
            );
            assert_eq!(cold.cost, opt.cost, "{} cold cost", e.name());
            let levels: Vec<usize> = cks.iter().map(|ck| ck.level).collect();
            assert_eq!(levels, vec![1, 2, 3], "{} checkpoint levels", e.name());
            for ck in &cks {
                let warm = e.solve_resumable(&inst, &budget, &mut Some(ck.clone()), &mut |_| {});
                assert_eq!(warm.cost, cold.cost, "{} resumed@{}", e.name(), ck.level);
                assert_eq!(
                    warm.work.extra("resumed_level"),
                    Some(ck.level as u64),
                    "{} resumed@{}",
                    e.name(),
                    ck.level
                );
                let tree = warm.tree.expect("warm run lost the tree");
                tree.validate(&inst).unwrap();
                assert_eq!(tree.expected_cost(&inst), opt.cost);
            }
        }
    }

    #[test]
    fn bvm_is_honestly_non_resumable() {
        // Bit-serial state cannot be reconstructed from a level slab; the
        // engine must advertise that and still answer correctly when
        // handed a checkpoint (cold restart).
        let inst = small_instance();
        let bvm = engines().into_iter().find(|e| e.name() == "bvm").unwrap();
        assert!(!bvm.resumable());
        let mut cks = Vec::new();
        let cold = bvm.solve_resumable(&inst, &Budget::unlimited(), &mut None, &mut |v| {
            cks.push(v.to_checkpoint());
        });
        assert!(cks.is_empty());
        assert_eq!(cold.cost, sequential::solve(&inst).cost);
    }

    #[test]
    fn bvm_refuses_by_register_capacity_and_answers_just_below_it() {
        // k = 2, three actions: a 6-dimension CCC (q = 4), so the program
        // needs 23 + 6·w rows — 251 at w = 38, 257 at w = 39.
        let with = |w: u64| {
            TtInstanceBuilder::new(2)
                .weights([w, w])
                .test(Subset::singleton(0), 3)
                .treatment(Subset::singleton(0), 3)
                .treatment(Subset::singleton(1), 3)
                .build()
                .unwrap()
        };
        let bvm = engines().into_iter().find(|e| e.name() == "bvm").unwrap();
        let fits = with(1_272_582_902);
        assert_eq!(bvm_tt::required_width(&fits), 38);
        let r = bvm.solve(&fits);
        assert!(r.outcome.is_complete());
        assert_eq!(r.cost, sequential::solve(&fits).cost);
        let wide = with(2_545_165_805);
        assert_eq!(bvm_tt::required_width(&wide), 39);
        for budget in [Budget::unlimited(), Budget::with_max_candidates(1 << 40)] {
            let r = bvm.solve_with(&wide, &budget);
            assert!(
                matches!(
                    r.outcome,
                    SolveOutcome::Degraded {
                        reason: DegradeReason::Capacity,
                        ..
                    }
                ),
                "{:?}",
                r.outcome
            );
        }
    }
}
