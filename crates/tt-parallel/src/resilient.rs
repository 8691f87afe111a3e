//! Fault tolerance for the machine simulations: detection, bounded
//! retry, quarantine, and escalation.
//!
//! The word-level CCC and the bit-serial BVM both admit injected
//! machine faults (see `hypercube::fault` and `bvm::fault`): dead PEs,
//! faulty links, and single-event transients. A fault plan is an input
//! of the machine's one driver — [`crate::ccc::solve_resumable`] and
//! [`crate::bvm::solve_budgeted`] take an optional [`Armed`] plan, and
//! the registry's `ccc`/`bvm` engines carry one when built with
//! `CccEngine::armed`/`BvmEngine::armed` (see [`crate::engines`]). With
//! a plan armed, the driver never returns a silently wrong answer:
//!
//! * **Detection.** Transients are caught by redundant execution — the
//!   same phase is run twice from a snapshot and the machines'
//!   order-sensitive checksums compared. Transient faults are armed
//!   against counters *shared* across snapshots (single-event-upset
//!   semantics), so a glitch fires in at most one of the two runs and
//!   the checksums disagree. Persistent faults are deterministic and
//!   invisible to redundancy, so they are found by probes instead: a
//!   marker local-step for dead CCC PEs, an all-enabled constant write
//!   for dead BVM columns, and a dual-pattern neighbour fetch for stuck
//!   BVM links (a healthy link returns 0 then 1; a stuck link returns
//!   the same bit twice).
//! * **Recovery.** A detected transient rolls the machine back to the
//!   pre-phase snapshot and re-runs, up to a retry budget. A dead CCC PE
//!   is *quarantined*: the TT program never exchanges across the address
//!   bits above `layout.dims()`, so the machine's surplus PEs form
//!   independent replicas and the result is read back from a replica
//!   block containing no dead PE.
//! * **Escalation.** When no clean replica exists, retries are
//!   exhausted, or the BVM (which routes across all cycle positions and
//!   has no replica to fall back on) has a persistent fault, the driver
//!   returns a [`FaultEscalation`] error — the engines surface it as a
//!   [`DegradeReason::FaultEscalation`] degraded report, never as a
//!   wrong answer.
//!
//! This module holds the probes, the report and escalation types, and
//! [`solve_ccc_resilient`]/[`solve_bvm_resilient`], the unbudgeted
//! one-shot form of an armed solve.

use crate::bvm as bvm_tt;
use crate::bvm::BvmTtSolution;
use crate::ccc::{CccDriver, CccSolution};
use crate::hyper::TtPe;
use bvm::fault::BvmFaultPlan;
use bvm::isa::{Dest, Instruction, Neighbor, RegSel};
use bvm::machine::Bvm;
use hypercube::ccc::CccMachine;
use hypercube::fault::CccFaultPlan;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::solver::engine::{self, DegradeReason, SolveOutcome, SolveReport, WorkStats};
use tt_core::tree::TtTree;

/// The marker value the dead-PE probe writes into `TtPe::arg`.
const PROBE_MARK: u16 = 0xBEEF;

/// Default bounded-retry budget for [`solve_ccc_resilient`],
/// [`solve_bvm_resilient`] and the fault-armed engines.
pub const DEFAULT_MAX_RETRIES: usize = 3;

/// A fault plan armed on a machine, with its retry budget: how many
/// times a phase whose two redundant runs disagree is re-run before the
/// driver escalates.
#[derive(Clone, Debug)]
pub struct Armed<P> {
    /// The fault plan, cloned into each solve (so every solve re-arms
    /// the plan's counters).
    pub plan: P,
    /// Re-runs allowed per phase before escalation.
    pub max_retries: usize,
}

/// What the resilient driver observed and did while solving.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Checksum mismatches observed (each one forced a rollback).
    pub glitches_detected: u64,
    /// Phase re-runs performed.
    pub retries: u64,
    /// Dead PEs found by the probe (CCC: quarantined; BVM: escalated).
    pub dead_pes: Vec<usize>,
    /// The replica block the answer was read from (CCC only; `0` when no
    /// quarantine was needed).
    pub replica_used: usize,
}

impl ResilienceReport {
    /// Adds the report to a solve's counters: the extras
    /// `glitches_detected`, `fault_retries`, `dead_pes` (a count) and
    /// `replica_used`, plus the telemetry and metrics counters.
    pub(crate) fn record(&self, work: &mut WorkStats) {
        work.push_extra("glitches_detected", self.glitches_detected);
        work.push_extra("fault_retries", self.retries);
        work.push_extra("dead_pes", self.dead_pes.len() as u64);
        work.push_extra("replica_used", self.replica_used as u64);
        tt_obs::telemetry::add_counter("glitches_detected", self.glitches_detected);
        tt_obs::telemetry::add_counter("exchange_retries", self.retries);
        tt_obs::metrics::counter("tt_exchange_retries_total").add(self.retries);
    }
}

/// A machine fault the driver could not mask within its budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEscalation {
    /// Redundant runs kept disagreeing past the retry budget.
    RetriesExhausted {
        /// Re-runs performed before giving up.
        retries: usize,
    },
    /// Every replica block of the CCC contains at least one dead PE, so
    /// no quarantine readback is possible.
    NoCleanReplica {
        /// The dead PE addresses found by the probe.
        dead: Vec<usize>,
    },
    /// The BVM has dead columns; it has no replica structure to
    /// quarantine them into.
    DeadPes {
        /// The dead PE indices found by the probe.
        dead: Vec<usize>,
    },
    /// The BVM has links stuck at a constant bit.
    StuckLinks {
        /// PEs whose neighbour fetch is stuck.
        pes: Vec<usize>,
    },
    /// Not a fault: the BVM cannot hold the instance at all (see
    /// [`bvm_tt::fits`]), so no fault plan was armed.
    Capacity,
}

impl std::fmt::Display for FaultEscalation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEscalation::RetriesExhausted { retries } => {
                write!(f, "redundant runs still disagree after {retries} retries")
            }
            FaultEscalation::NoCleanReplica { dead } => {
                write!(f, "every replica holds a dead PE (dead: {dead:?})")
            }
            FaultEscalation::DeadPes { dead } => {
                write!(
                    f,
                    "BVM has dead PEs {dead:?} and no replica to quarantine into"
                )
            }
            FaultEscalation::StuckLinks { pes } => {
                write!(f, "BVM neighbour links stuck at PEs {pes:?}")
            }
            FaultEscalation::Capacity => write!(f, "instance exceeds the BVM's capacity"),
        }
    }
}

impl std::error::Error for FaultEscalation {}

impl FaultEscalation {
    /// Packages the escalation as a degraded [`SolveReport`]: a greedy
    /// incumbent with the trivial admissible bound, tagged
    /// [`DegradeReason::FaultEscalation`] (a [`FaultEscalation::Capacity`]
    /// refusal is tagged [`DegradeReason::Capacity`]). This is what
    /// consumers print instead of a wrong answer.
    pub fn report(&self, inst: &TtInstance) -> SolveReport {
        engine::timed_report_with(|| self.result(inst))
    }

    /// The pieces of [`report`](FaultEscalation::report), for an engine
    /// that assembles its own report.
    pub(crate) fn result(
        &self,
        inst: &TtInstance,
    ) -> (Cost, Option<TtTree>, WorkStats, SolveOutcome) {
        if *self == FaultEscalation::Capacity {
            return engine::capacity_result(inst, WorkStats::default());
        }
        let mut work = WorkStats::default();
        work.push_extra("fault_escalation", 1);
        engine::degraded_result(inst, DegradeReason::FaultEscalation, &|_| None, work)
    }
}

/// Runs the TT program on a CCC with the given fault plan armed,
/// detecting and recovering from the faults: [`crate::ccc::solve_resumable`]
/// with `plan` armed, run to the end.
///
/// Every `#S = level` phase is executed **twice from a snapshot** and
/// committed only when the two runs' checksums agree; a mismatch rolls
/// back and retries (transients do not replay, so the retry runs clean).
/// Dead PEs are found up front by a marker probe and quarantined by
/// reading the answer from a replica block without any — valid because
/// the program's exchanges never leave the low `layout.dims()` address
/// bits, leaving the high-address blocks fully independent.
pub fn solve_ccc_resilient(
    inst: &TtInstance,
    plan: CccFaultPlan<TtPe>,
    max_retries: usize,
) -> Result<(CccSolution, ResilienceReport), FaultEscalation> {
    let armed = Armed { plan, max_retries };
    let (sol, _, report) =
        crate::ccc::solve_resumable(inst, Some(&armed), &mut || true, None, &mut |_, _| {})?;
    Ok((sol, report))
}

/// The CCC's dead-PE probe and quarantine: finds the PEs that do not
/// take a marker local step and picks the first replica block free of
/// them. Returns the dead addresses and the replica to read back from.
pub(crate) fn quarantine(
    driver: &CccDriver,
    m: &mut CccMachine<TtPe>,
) -> Result<(Vec<usize>, usize), FaultEscalation> {
    let dead = m.probe_dead(|_, pe| pe.arg = PROBE_MARK, |_, pe| pe.arg == PROBE_MARK);
    let dims = driver.layout.dims();
    // The legality checker is the selection predicate: a replica is
    // usable exactly when its quarantine remap verifies (in range and
    // free of dead addresses).
    match (0..driver.replicas(m))
        .find(|&rep| hypercube::verify::check_quarantine(dims, m.len(), rep, &dead).is_ok())
    {
        Some(replica) => Ok((dead, replica)),
        None => Err(FaultEscalation::NoCleanReplica { dead }),
    }
}

/// One dual-pattern stuck-link probe round: fetch an all-zeros plane and
/// an all-ones plane through the same neighbour link; a healthy PE sees
/// different bits, a stuck link the same bit twice. Returns the
/// per-PE "looked stuck" flags. Costs two fetch-counter ticks.
fn stuck_probe_round(probe: &mut Bvm) -> Vec<bool> {
    probe.exec(&Instruction::set_const(Dest::A, false));
    probe.exec(&Instruction::mov(Dest::R(0), RegSel::A, Some(Neighbor::S)));
    probe.exec(&Instruction::set_const(Dest::A, true));
    probe.exec(&Instruction::mov(Dest::R(1), RegSel::A, Some(Neighbor::S)));
    (0..probe.n())
        .map(|pe| probe.read_bit(RegSel::R(0), pe) == probe.read_bit(RegSel::R(1), pe))
        .collect()
}

/// Hunts the persistent faults of an armed BVM, on probe clones of it:
/// dead columns by an all-enabled constant write (a dead PE is the only
/// PE that cannot commit it — no fetches consumed), stuck links by two
/// dual-pattern fetch rounds intersected (a transient can glitch at most
/// one round, so only genuinely stuck PEs are flagged in both). Either
/// finding escalates — the BVM routes across all cycle positions, so
/// there is no replica to quarantine into. The probes consume four
/// fetch-counter ticks.
pub(crate) fn probe_bvm(template: &Bvm) -> Result<(), FaultEscalation> {
    let dead: Vec<usize> = {
        let mut probe = template.clone();
        probe.exec(&Instruction::set_const(Dest::A, true));
        (0..probe.n())
            .filter(|&pe| !probe.read_bit(RegSel::A, pe))
            .collect()
    };
    if !dead.is_empty() {
        return Err(FaultEscalation::DeadPes { dead });
    }
    let stuck: Vec<usize> = {
        let mut probe = template.clone();
        let first = stuck_probe_round(&mut probe);
        let second = stuck_probe_round(&mut probe);
        (0..probe.n())
            .filter(|&pe| first[pe] && second[pe])
            .collect()
    };
    if !stuck.is_empty() {
        return Err(FaultEscalation::StuckLinks { pes: stuck });
    }
    Ok(())
}

/// Runs the TT program on a BVM with the given fault plan armed:
/// [`crate::bvm::solve_budgeted`] with `plan` armed, run to the end.
///
/// An instance the BVM cannot hold ([`bvm_tt::fits`]) is refused with
/// [`FaultEscalation::Capacity`] before any machine is built. Then
/// persistent faults are hunted on probe clones of the armed machine —
/// dead columns by an all-enabled constant write, stuck links by two
/// dual-pattern fetch rounds intersected — and escalate. Transients are then masked by
/// whole-run redundancy: the program runs twice on clones of the armed
/// machine and the `C(·)` tables are compared, retrying up to
/// `max_retries` times. Note the probes consume four fetch-counter
/// ticks: `FlipBit` faults scheduled at `nth < 4` fire during probing
/// (and are consumed there) rather than during the solve.
pub fn solve_bvm_resilient(
    inst: &TtInstance,
    plan: BvmFaultPlan,
    max_retries: usize,
) -> Result<(BvmTtSolution, ResilienceReport), FaultEscalation> {
    let armed = Armed { plan, max_retries };
    let (sol, _, report) = bvm_tt::solve_budgeted(inst, Some(&armed), &mut || true, &mut |_| {})?;
    Ok((sol, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::TtPe;
    use bvm::fault::BvmFault;
    use hypercube::fault::{PairFault, PairFaultKind};
    use std::sync::Arc;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;
    use tt_core::subset::Subset;

    fn inst() -> TtInstance {
        TtInstanceBuilder::new(4)
            .weights([4, 3, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2]), 2)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .treatment(Subset::from_iter([3]), 2)
            .build()
            .unwrap()
    }

    fn small_inst() -> TtInstance {
        TtInstanceBuilder::new(3)
            .weights([2, 1, 1])
            .test(Subset(0b011), 1)
            .test(Subset(0b101), 2)
            .treatment(Subset(0b011), 3)
            .treatment(Subset(0b110), 2)
            .build()
            .unwrap()
    }

    fn corrupting_link(dim: usize, nth: u64) -> CccFaultPlan<TtPe> {
        CccFaultPlan {
            dead: vec![],
            links: vec![PairFault {
                dim,
                nth,
                // Flip a bit of the charged cost `TP`: `tp` is written
                // only at init, so the damage survives to the end of the
                // level and the checksum must see it.
                kind: PairFaultKind::Corrupt(Arc::new(|pe: &mut TtPe| {
                    pe.tp = tt_core::cost::Cost(pe.tp.0 ^ 1);
                })),
            }],
        }
    }

    #[test]
    fn ccc_transient_corrupt_fault_is_detected_retried_and_masked() {
        let i = inst();
        let seq = sequential::solve(&i);
        // dim 4 is an S-dimension of the layout (log_n = 3), so the
        // fault lands on the level-1 RQ broadcast of the committed path.
        let (sol, rep) =
            solve_ccc_resilient(&i, corrupting_link(4, 0), DEFAULT_MAX_RETRIES).unwrap();
        assert_eq!(sol.cost, seq.cost);
        assert_eq!(sol.c_table, seq.tables.cost);
        assert!(rep.glitches_detected >= 1, "glitch never observed");
        assert_eq!(rep.retries, rep.glitches_detected);
        assert!(rep.dead_pes.is_empty());
    }

    #[test]
    fn ccc_dropped_exchanges_never_go_silently_wrong() {
        // A dropped exchange on a pair whose operands happened to agree
        // leaves the state identical to a clean run — harmless by
        // construction. Sweep several drop sites: every result must
        // equal the DP, and at least one drop must actually perturb the
        // run and be caught by the checksum comparison.
        let i = inst();
        let seq = sequential::solve(&i);
        let mut total_glitches = 0;
        for nth in 0..6 {
            let plan = CccFaultPlan {
                dead: vec![],
                links: vec![PairFault {
                    dim: 4,
                    nth,
                    kind: PairFaultKind::Drop,
                }],
            };
            let (sol, rep) = solve_ccc_resilient(&i, plan, DEFAULT_MAX_RETRIES).unwrap();
            assert_eq!(sol.c_table, seq.tables.cost, "nth={nth}");
            total_glitches += rep.glitches_detected;
        }
        assert!(total_glitches >= 1, "no drop was ever observable");
    }

    #[test]
    fn ccc_dead_pe_is_quarantined_via_a_clean_replica() {
        let i = inst();
        let seq = sequential::solve(&i);
        // Address 3 sits in replica block 0 (dims = 7).
        let plan = CccFaultPlan {
            dead: vec![3],
            links: vec![],
        };
        let (sol, rep) = solve_ccc_resilient(&i, plan, DEFAULT_MAX_RETRIES).unwrap();
        assert_eq!(rep.dead_pes, vec![3]);
        assert_ne!(rep.replica_used, 0, "should have avoided replica 0");
        assert_eq!(sol.cost, seq.cost);
        assert_eq!(sol.c_table, seq.tables.cost);
        assert_eq!(rep.glitches_detected, 0, "dead PEs are deterministic");
    }

    #[test]
    fn ccc_escalates_when_every_replica_has_a_dead_pe() {
        let i = inst();
        let dims = CccDriver::new(&i).layout.dims();
        let replicas = {
            let d = CccDriver::new(&i);
            d.replicas(&d.fresh_machine())
        };
        let plan = CccFaultPlan {
            dead: (0..replicas).map(|rep| rep << dims).collect(),
            links: vec![],
        };
        match solve_ccc_resilient(&i, plan, DEFAULT_MAX_RETRIES) {
            Err(FaultEscalation::NoCleanReplica { dead }) => assert_eq!(dead.len(), replicas),
            other => panic!("expected NoCleanReplica, got {other:?}"),
        }
    }

    #[test]
    fn ccc_escalates_when_the_retry_budget_is_zero() {
        let i = inst();
        match solve_ccc_resilient(&i, corrupting_link(4, 0), 0) {
            Err(FaultEscalation::RetriesExhausted { retries: 0 }) => {}
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn escalation_reports_are_degraded_never_wrong() {
        use tt_core::solver::engine::SolveOutcome;
        let i = inst();
        let seq = sequential::solve(&i);
        let esc = FaultEscalation::RetriesExhausted { retries: 3 };
        let r = esc.report(&i);
        match r.outcome {
            SolveOutcome::Degraded {
                upper_bound,
                lower_bound,
                reason,
            } => {
                assert_eq!(reason, DegradeReason::FaultEscalation);
                assert!(lower_bound <= seq.cost);
                assert!(seq.cost <= upper_bound);
            }
            SolveOutcome::Complete => panic!("escalation must degrade"),
        }
    }

    #[test]
    fn bvm_flip_bit_transient_is_retried_to_the_exact_answer() {
        let i = small_inst();
        let seq = sequential::solve(&i);
        // nth ≥ 4: the dead/stuck probes consume the first four fetches.
        let plan = BvmFaultPlan::single(BvmFault::FlipBit { nth: 6, pe: 1 });
        let (sol, _rep) = solve_bvm_resilient(&i, plan, DEFAULT_MAX_RETRIES).unwrap();
        assert_eq!(sol.cost, seq.cost);
        assert_eq!(sol.c_table, seq.tables.cost);
    }

    #[test]
    fn bvm_dead_pe_escalates() {
        let plan = BvmFaultPlan::single(BvmFault::DeadPe { pe: 3 });
        match solve_bvm_resilient(&small_inst(), plan, DEFAULT_MAX_RETRIES) {
            Err(FaultEscalation::DeadPes { dead }) => assert_eq!(dead, vec![3]),
            other => panic!("expected DeadPes, got {other:?}"),
        }
    }

    #[test]
    fn bvm_stuck_link_escalates() {
        let plan = BvmFaultPlan::single(BvmFault::StuckLink { pe: 5, value: true });
        match solve_bvm_resilient(&small_inst(), plan, DEFAULT_MAX_RETRIES) {
            Err(FaultEscalation::StuckLinks { pes }) => assert_eq!(pes, vec![5]),
            other => panic!("expected StuckLinks, got {other:?}"),
        }
    }

    #[test]
    fn fault_free_plans_run_clean() {
        let i = inst();
        let seq = sequential::solve(&i);
        let (sol, rep) =
            solve_ccc_resilient(&i, CccFaultPlan::none(), DEFAULT_MAX_RETRIES).unwrap();
        assert_eq!(sol.c_table, seq.tables.cost);
        assert_eq!(rep, ResilienceReport::default());
    }
}
