//! The TT program on the cube-connected-cycles machine.
//!
//! Identical schedule to [`crate::hyper`], driven through
//! [`hypercube::CccMachine`]: every dimension exchange becomes ring
//! transport plus lateral hops on the `3n/2`-link network. When the
//! smallest complete CCC is larger than the `2^{k + log N}` PEs the
//! instance needs, the extra address bits simply replicate the
//! computation (every replica is initialized identically and the program
//! never exchanges across the unused dimensions).

use crate::hyper::{combine_pe, init_pe, min_op, rq_op, TtPe};
use crate::layout::{padded_actions, Layout};
use crate::resilient::{self, Armed, FaultEscalation, ResilienceReport};
use hypercube::ccc::{min_r_for_dims, CccMachine, CccStepCounts};
use hypercube::fault::CccFaultPlan;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::solver::sequential::{extract_tree_costs, LevelSink, WavefrontSeed};
use tt_core::subset::Subset;

/// Result of a CCC TT run.
#[derive(Clone, Debug)]
pub struct CccSolution {
    /// `C(U)`.
    pub cost: Cost,
    /// `c_table[S.index()] = C(S)`.
    pub c_table: Vec<Cost>,
    /// Minimizing action per subset (see `hyper::HyperSolution`): `None`
    /// at or below the level a warm start imported.
    pub best_table: Vec<Option<u16>>,
    /// CCC link-step counters.
    pub steps: CccStepCounts,
    /// The cycle-length exponent `r` of the machine used.
    pub machine_r: usize,
    /// The layout used.
    pub layout: Layout,
}

/// The TT program decomposed into machine phases, so budget checks,
/// snapshots, and fault recovery can happen *between* levels: a complete
/// CCC run is `init` followed by `run_level(1) .. run_level(k)` and a
/// readback. Addresses above `layout.pes()` form independent replicas —
/// the program never exchanges across the unused high dimensions — which
/// is what makes readback from any replica valid (and dead-PE quarantine
/// by replica possible, see `crate::resilient`).
pub struct CccDriver {
    /// The `(S, i)` address layout.
    pub layout: Layout,
    actions: Vec<crate::layout::PadAction>,
    weights: Vec<u64>,
    m_tests: usize,
    replica_mask: usize,
    /// Cycle-length exponent of the smallest complete CCC that fits.
    pub machine_r: usize,
}

impl CccDriver {
    /// Builds the driver (schedule constants only, no machine yet).
    pub fn new(inst: &TtInstance) -> CccDriver {
        let layout = Layout::new(inst.k(), inst.n_actions());
        CccDriver {
            layout,
            actions: padded_actions(inst, &layout),
            weights: inst.weight_table(),
            m_tests: inst.n_tests(),
            replica_mask: layout.pes() - 1,
            machine_r: min_r_for_dims(layout.dims()),
        }
    }

    /// A fresh machine of the right size, all PEs default-initialized.
    pub fn fresh_machine(&self) -> CccMachine<TtPe> {
        CccMachine::new(self.machine_r, |_| TtPe::default())
    }

    /// Number of independent replica blocks the machine holds.
    pub fn replicas(&self, m: &CccMachine<TtPe>) -> usize {
        m.len() >> self.layout.dims()
    }

    /// The init local step: `TP = t_i·p(S)`, `M[∅,i] = 0`, else `INF`.
    pub fn init(&self, m: &mut CccMachine<TtPe>) {
        let (layout, actions, weights) = (self.layout, &self.actions, &self.weights);
        let mask = self.replica_mask;
        m.local_step(|addr, pe| init_pe(addr & mask, pe, &layout, actions, weights));
    }

    /// One `#S = level` wavefront step of the schedule.
    pub fn run_level(&self, m: &mut CccMachine<TtPe>, level: usize) {
        let (layout, actions) = (self.layout, &self.actions);
        let (mask, m_tests) = (self.replica_mask, self.m_tests);
        m.local_step(|_, pe| {
            pe.r = pe.m;
            pe.q = pe.m;
        });
        m.ascend(layout.s_dims(), |dim, lo_addr, lo, hi| {
            let e = dim - layout.log_n;
            rq_op(e, lo_addr & mask, lo, hi, &layout, actions);
        });
        m.local_step(|addr, pe| combine_pe(addr & mask, pe, &layout, level, m_tests));
        m.ascend(layout.i_dims(), |_, _, lo, hi| min_op(lo, hi));
    }

    /// Imports a completed `#S ≤ level` wavefront (a checkpoint's cost
    /// slab) into *every* replica of the machine — the CCC twin of
    /// [`crate::hyper::warm_pe`]. Applied via `host_load`, so it counts
    /// no machine step and bypasses any armed fault plan: a dead PE's
    /// state is still written (quarantine happens at readback).
    pub fn import_wavefront(&self, m: &mut CccMachine<TtPe>, level: usize, cost: &[Cost]) {
        let (layout, mask) = (self.layout, self.replica_mask);
        let level = level.min(layout.k);
        m.host_load(|addr, pe| crate::hyper::warm_pe(addr & mask, pe, &layout, level, cost));
    }

    /// The `i = 0` PE of column `S` in replica block `replica`.
    fn column(&self, m: &CccMachine<TtPe>, replica: usize, s: Subset) -> TtPe {
        assert!(replica < self.replicas(m), "replica {replica} out of range");
        *m.pe((replica << self.layout.dims()) + self.layout.addr(s, 0))
    }

    /// Reads the `C(·)` table out of replica block `replica`.
    pub fn read_costs(&self, inst: &TtInstance, m: &CccMachine<TtPe>, replica: usize) -> Vec<Cost> {
        Subset::all(inst.k())
            .map(|s| self.column(m, replica, s).m)
            .collect()
    }

    /// Packages a finished machine's state as a [`CccSolution`], read
    /// from replica block `replica`. `resumed` is the level a warm start
    /// imported (`0` for a cold run): the machine computed no argmin at
    /// or below it.
    pub fn solution(
        &self,
        inst: &TtInstance,
        m: &CccMachine<TtPe>,
        replica: usize,
        resumed: usize,
    ) -> CccSolution {
        let c_table = self.read_costs(inst, m, replica);
        let best_table = Subset::all(inst.k())
            .map(|s| {
                let pe = self.column(m, replica, s);
                (s.len() > resumed && !pe.m.is_inf()).then_some(pe.arg)
            })
            .collect();
        let cost = c_table[inst.universe().index()];
        CccSolution {
            cost,
            c_table,
            best_table,
            steps: m.counts(),
            machine_r: self.machine_r,
            layout: self.layout,
        }
    }
}

/// Runs the TT program on the smallest complete CCC that fits the
/// instance.
pub fn solve(inst: &TtInstance) -> CccSolution {
    let (sol, _, _) = solve_resumable(inst, None, &mut || true, None, &mut |_, _| {})
        .expect("an unarmed machine never escalates");
    sol
}

/// The CCC driver's one level loop. `check` is consulted before each
/// level; a `false` stops the machine cleanly between levels.
/// `resume = (level, cost)` warm-starts every replica from a completed
/// wavefront (see [`CccDriver::import_wavefront`]), and `on_level`
/// receives the cost table read back after each completed level.
/// Returns the solution, the number of completed levels (entries for
/// `#S ≤` that count are exact, the rest still `INF` placeholders) and
/// what fault recovery did.
///
/// Unarmed (`faults` is `None`), each level runs once and the answer is
/// read from replica 0. With a plan armed, the machine is probed for
/// dead PEs first and read back from a replica block free of them; each
/// level then runs twice from the pre-level state and is committed only
/// when the two machines' checksums agree, a mismatch re-running both
/// up to `max_retries` times (see [`crate::resilient`]). `on_level` then
/// sees only committed levels, so an escalation mid-solve leaves the
/// caller a checkpoint of the last level that passed the check.
pub fn solve_resumable(
    inst: &TtInstance,
    faults: Option<&Armed<CccFaultPlan<TtPe>>>,
    check: &mut dyn FnMut() -> bool,
    resume: Option<WavefrontSeed<'_>>,
    on_level: &mut LevelSink<'_>,
) -> Result<(CccSolution, usize, ResilienceReport), FaultEscalation> {
    let driver = CccDriver::new(inst);
    let mut m = driver.fresh_machine();
    let mut report = ResilienceReport::default();
    if let Some(armed) = faults {
        m.inject_faults(armed.plan.clone());
        (report.dead_pes, report.replica_used) = resilient::quarantine(&driver, &mut m)?;
    }
    let replica = report.replica_used;
    driver.init(&mut m);
    let start = match resume {
        Some((level, cost)) => {
            let lvl = level.min(driver.layout.k);
            driver.import_wavefront(&mut m, lvl, cost);
            lvl
        }
        None => 0,
    };
    let mut done = driver.layout.k;
    for level in (start + 1)..=driver.layout.k {
        if !check() {
            done = level - 1;
            break;
        }
        match faults {
            None => driver.run_level(&mut m, level),
            Some(armed) => {
                let mut retries = 0;
                loop {
                    let mut first = m.clone();
                    driver.run_level(&mut first, level);
                    let mut second = m.clone();
                    driver.run_level(&mut second, level);
                    if first.checksum() == second.checksum() {
                        m = first;
                        break;
                    }
                    report.glitches_detected += 1;
                    if retries >= armed.max_retries {
                        return Err(FaultEscalation::RetriesExhausted { retries });
                    }
                    retries += 1;
                    report.retries += 1;
                }
            }
        }
        on_level(level, &driver.read_costs(inst, &m, replica));
    }
    Ok((driver.solution(inst, &m, replica, start), done, report))
}

impl CccSolution {
    /// Extracts an optimal procedure tree from the cost table.
    pub fn tree(&self, inst: &TtInstance) -> Option<tt_core::tree::TtTree> {
        extract_tree_costs(inst, &self.c_table, inst.universe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;

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

    #[test]
    fn matches_sequential_and_hypercube() {
        let i = inst();
        let seq = sequential::solve(&i);
        let hyp = hyper::solve(&i);
        let ccc = solve(&i);
        assert_eq!(ccc.cost, seq.cost);
        assert_eq!(ccc.c_table, seq.tables.cost);
        assert_eq!(ccc.c_table, hyp.c_table);
    }

    #[test]
    fn uses_the_smallest_complete_ccc() {
        let i = inst(); // dims = 4 + 3 = 7 → r = 3 (2^3 + 3 = 11 ≥ 7)
        let ccc = solve(&i);
        assert_eq!(ccc.machine_r, 3);
    }

    #[test]
    fn slowdown_against_hypercube_is_bounded() {
        let i = inst();
        let hyp = hyper::solve(&i);
        let ccc = solve(&i);
        let slowdown = ccc.steps.total_comm() as f64 / hyp.steps.exchange as f64;
        // The schedule always runs the machine's full 2Q−1 high-dim sweep,
        // so the ratio exceeds the asymptotic 4–6 band when the machine is
        // oversized for the instance; it must still be a small constant.
        assert!(slowdown < 20.0, "slowdown {slowdown}");
        assert!(slowdown > 1.0);
    }

    #[test]
    fn a_warm_start_imports_costs_and_argmins_only_above_it() {
        let i = inst();
        let seq = sequential::solve(&i);
        let warm = Some((2, &seq.tables.cost[..]));
        let (ccc, _, _) = solve_resumable(&i, None, &mut || true, warm, &mut |_, _| {}).unwrap();
        let (hyp, _) = hyper::solve_resumable(&i, &mut || true, warm, &mut |_, _| {});
        for (c_table, best_table) in [
            (&ccc.c_table, &ccc.best_table),
            (&hyp.c_table, &hyp.best_table),
        ] {
            assert_eq!(c_table, &seq.tables.cost);
            for s in Subset::all(i.k()) {
                let want = if s.len() <= 2 {
                    None
                } else {
                    seq.tables.best[s.index()]
                };
                assert_eq!(best_table[s.index()], want, "S={s}");
            }
        }
    }

    #[test]
    fn inadequate_instance_stays_inf() {
        let i = TtInstanceBuilder::new(3)
            .treatment(Subset::from_iter([0, 1]), 2)
            .build()
            .unwrap();
        let ccc = solve(&i);
        let seq = sequential::solve(&i);
        assert!(ccc.cost.is_inf());
        assert_eq!(ccc.c_table, seq.tables.cost);
    }
}

#[cfg(test)]
mod argmin_tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;

    #[test]
    fn ccc_argmin_and_tree_match_sequential() {
        let inst = TtInstanceBuilder::new(4)
            .weights([4, 3, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2]), 2)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .treatment(Subset::from_iter([3]), 2)
            .build()
            .unwrap();
        let sol = solve(&inst);
        let seq = sequential::solve(&inst);
        assert_eq!(sol.best_table, seq.tables.best);
        let tree = sol.tree(&inst).unwrap();
        tree.validate(&inst).unwrap();
        assert_eq!(tree.expected_cost(&inst), seq.cost);
    }
}
