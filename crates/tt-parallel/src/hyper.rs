//! The Section 6 ASCEND/DESCEND TT algorithm on the word-level hypercube.
//!
//! One PE per `(S, i)` pair holds four words — `M`, `R`, `Q`, `TP` — and
//! the whole dynamic program is a fixed schedule of local steps and
//! dimension exchanges:
//!
//! ```text
//! TP[S,i] = t_i · p(S);  M[∅,i] = 0;  M[S,i] = INF          (local)
//! for j = 1 .. k:
//!     Q[S,i] = R[S,i] = M[S,i]                              (local)
//!     for e = 0 .. k−1:                 // ASCEND over the S dimensions
//!         if e ∈ S ∩ T_i:  R[S,i] = R[S−{e}, i]
//!         if e ∈ S − T_i:  Q[S,i] = Q[S−{e}, i]
//!     if #S = j:                                            (local)
//!         M[S,i] = R[S,i] + TP[S,i]  (+ Q[S,i] if i is a test)
//!     for t = 0 .. log N − 1:           // ASCEND over the i dimensions
//!         M[S,i] = min(M[S,i], M[S, i#t])
//! ```
//!
//! After level `j = #S`, every PE of column `S` holds `C(S)`; the paper's
//! invariant proof (Section 6) shows the `e`-loop leaves
//! `R[S,i] = M[S−T_i, i]` and `Q[S,i] = M[S∩T_i, i]` for *every* `S`,
//! which is why the loop needs no `#S` gating — only the recombination
//! into `M` does.

use crate::layout::{padded_actions, Layout, PadAction};
use hypercube::cube::{SimdHypercube, StepCounts};
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::solver::sequential::{extract_tree_costs, LevelSink, WavefrontSeed};
use tt_core::subset::Subset;

/// Per-PE state: the four words of the paper's working set, plus an
/// argmin word (an extension: the paper computes only `C(·)`; the
/// minimizing action index rides through the ASCEND minimization at one
/// extra word of state and no extra steps, and is read back as
/// [`HyperSolution::best_table`]). Trees and checkpoints come from the
/// cost table alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TtPe {
    /// The candidate cost `M[S, i]`.
    pub m: Cost,
    /// The `R` broadcast register (carries `M[S − T_i, i]`).
    pub r: Cost,
    /// The `Q` broadcast register (carries `M[S ∩ T_i, i]`).
    pub q: Cost,
    /// The charged cost `TP[S, i] = t_i · p(S)`.
    pub tp: Cost,
    /// The action index whose candidate `m` currently carries.
    pub arg: u16,
}

/// Result of a hypercube TT run.
#[derive(Clone, Debug)]
pub struct HyperSolution {
    /// `C(U)`.
    pub cost: Cost,
    /// `c_table[S.index()] = C(S)` for every subset.
    pub c_table: Vec<Cost>,
    /// `best_table[S.index()]` = minimizing action at `S` (the smallest
    /// index among ties, matching the sequential solver), or `None` when
    /// `C(S) = INF`, `S = ∅`, or `#S` is at or below the level a warm
    /// start imported (the import carries costs only).
    pub best_table: Vec<Option<u16>>,
    /// Parallel step counts (exchange steps are the communication time).
    pub steps: StepCounts,
    /// The layout used.
    pub layout: Layout,
}

impl HyperSolution {
    /// Extracts an optimal procedure tree from the cost table (`None`
    /// when the instance is inadequate).
    pub fn tree(&self, inst: &TtInstance) -> Option<tt_core::tree::TtTree> {
        extract_tree_costs(inst, &self.c_table, inst.universe())
    }
}

/// Fig. 9 of the paper: the value of `R[S, i]` (as the *set* whose `M`
/// value it carries) after each iteration of the `e`-loop, for one action.
/// Returned as `trace[e][S.index()] = source set`, starting with the
/// initial state at `trace[0]`.
pub fn r_loop_trace(k: usize, t_i: Subset) -> Vec<Vec<Subset>> {
    let mut r: Vec<Subset> = Subset::all(k).collect();
    let mut out = vec![r.clone()];
    for e in 0..k {
        let prev = r.clone();
        for s in Subset::all(k) {
            if s.contains(e) && t_i.contains(e) {
                r[s.index()] = prev[s.without(e).index()];
            }
        }
        out.push(r.clone());
    }
    out
}

/// Runs the TT program on a fresh hypercube and extracts the cost table.
///
/// # Examples
/// ```
/// use tt_core::{instance::TtInstanceBuilder, subset::Subset};
/// let inst = TtInstanceBuilder::new(2)
///     .test(Subset::singleton(0), 1)
///     .treatment(Subset::singleton(0), 5)
///     .treatment(Subset::singleton(1), 5)
///     .build()
///     .unwrap();
/// let sol = tt_parallel::hyper::solve(&inst);
/// assert_eq!(sol.cost, tt_core::solver::sequential::solve(&inst).cost);
/// let tree = sol.tree(&inst).unwrap();
/// assert!(tree.validate(&inst).is_ok());
/// ```
pub fn solve(inst: &TtInstance) -> HyperSolution {
    solve_budgeted(inst, &mut || true).0
}

/// As [`solve`], but `check` is consulted before each level (wire a
/// [`tt_core::solver::BudgetMeter`] in). Returns the solution plus the
/// number of completed levels: table entries for `#S ≤` that count are
/// exact, the rest are still `INF` placeholders.
pub fn solve_budgeted(
    inst: &TtInstance,
    check: &mut dyn FnMut() -> bool,
) -> (HyperSolution, usize) {
    solve_resumable(inst, check, None, &mut |_, _| {})
}

/// As [`solve_budgeted`], but resumable: `resume = (level, cost)`
/// warm-starts the machine from a completed `#S ≤ level` wavefront (see
/// [`warm_pe`]), and `on_level` is called with the freshly read cost
/// table after every completed level — the checkpoint-export hook.
pub fn solve_resumable(
    inst: &TtInstance,
    check: &mut dyn FnMut() -> bool,
    resume: Option<WavefrontSeed<'_>>,
    on_level: &mut LevelSink<'_>,
) -> (HyperSolution, usize) {
    let layout = Layout::new(inst.k(), inst.n_actions());
    let actions = padded_actions(inst, &layout);
    let weights = inst.weight_table();
    let m_tests = inst.n_tests();
    let mut cube = SimdHypercube::new(layout.dims(), |_| TtPe::default());
    cube.local_step(|addr, pe| init_pe(addr, pe, &layout, &actions, &weights));
    let start = match resume {
        Some((level, cost)) => {
            let lvl = level.min(layout.k);
            cube.host_load(|addr, pe| warm_pe(addr, pe, &layout, lvl, cost));
            lvl
        }
        None => 0,
    };
    // Incremental wavefront readback: running host-side tables, updated
    // with only the `C(k, level)` freshly-written `i = 0` cells after
    // each level — `Σ_j C(k, j) = 2^k` reads over a whole run instead of
    // the `k · 2^k` the old full-table-per-level readback cost. Levels
    // at or below the warm start are read back once from the overlaid
    // machine state, costs only.
    let mut c_table = vec![Cost::INF; 1usize << inst.k()];
    let mut best_table: Vec<Option<u16>> = vec![None; c_table.len()];
    for level in 0..=start {
        for (s, addr) in layout.wavefront_addrs(level) {
            c_table[s.index()] = cube.pe(addr).m;
        }
    }
    let mut done = layout.k;
    for level in (start + 1)..=layout.k {
        if !check() {
            done = level - 1;
            break;
        }
        run_level_cube(&mut cube, &layout, &actions, level, m_tests);
        read_cube_wavefront(&cube, &layout, level, &mut c_table, &mut best_table);
        on_level(level, &c_table);
    }
    let cost = c_table[inst.universe().index()];
    (
        HyperSolution {
            cost,
            c_table,
            best_table,
            steps: cube.counts(),
            layout,
        },
        done,
    )
}

/// Reads the `#S = level` wavefront of the `i = 0` column into the
/// running host tables (see [`Layout::wavefront_addrs`]).
fn read_cube_wavefront(
    cube: &SimdHypercube<TtPe>,
    layout: &Layout,
    level: usize,
    c_table: &mut [Cost],
    best_table: &mut [Option<u16>],
) {
    for (s, addr) in layout.wavefront_addrs(level) {
        let pe = cube.pe(addr);
        c_table[s.index()] = pe.m;
        best_table[s.index()] = if s.is_empty() || pe.m.is_inf() {
            None
        } else {
            Some(pe.arg)
        };
    }
}

/// Warm-start overlay for a resumed checkpoint: writes the exact
/// `C(S)` into every `i`-column of each subset at or below the
/// completed wavefront `level`. Sound because after level `#S` the
/// min-reduction leaves *every* PE of column `S` holding `C(S)` (the
/// `every_i_column_agrees_after_the_run` invariant), and `R`/`Q` are
/// re-seeded from `M` at the start of each level — so a machine
/// overlaid at level `j` computes the same costs as one that computed
/// levels `1..j` itself. Costs never read the argmin word, so the
/// overlay leaves it alone. Apply via `host_load`, not `local_step`:
/// the import is host intervention, not machine work.
pub fn warm_pe(addr: usize, pe: &mut TtPe, layout: &Layout, level: usize, cost: &[Cost]) {
    let (s, _) = layout.split(addr);
    if !s.is_empty() && s.len() <= level {
        pe.m = cost[s.index()];
    }
}

/// The TT schedule itself, reusable by the CCC driver through the shared
/// closures below.
pub fn run_tt(
    cube: &mut SimdHypercube<TtPe>,
    layout: &Layout,
    actions: &[PadAction],
    weights: &[u64],
    m_tests: usize,
) {
    run_tt_budgeted(cube, layout, actions, weights, m_tests, &mut || true);
}

/// As [`run_tt`], but `check` is consulted before each level; a `false`
/// stops the machine cleanly between levels. Returns the number of
/// completed levels: by the wavefront invariant, every PE of column `S`
/// with `#S ≤` that value holds the exact `C(S)`.
pub fn run_tt_budgeted(
    cube: &mut SimdHypercube<TtPe>,
    layout: &Layout,
    actions: &[PadAction],
    weights: &[u64],
    m_tests: usize,
    check: &mut dyn FnMut() -> bool,
) -> usize {
    let lay = *layout;
    cube.local_step(|addr, pe| init_pe(addr, pe, &lay, actions, weights));
    for level in 1..=layout.k {
        if !check() {
            return level - 1;
        }
        run_level_cube(cube, layout, actions, level, m_tests);
    }
    layout.k
}

/// One `#S = level` wavefront of the TT schedule (the body of the level
/// loop): the `R`/`Q` reseed, the `k`-step `e`-loop ASCEND, the gated
/// recombination, and the `log N` min-reduction.
pub fn run_level_cube(
    cube: &mut SimdHypercube<TtPe>,
    layout: &Layout,
    actions: &[PadAction],
    level: usize,
    m_tests: usize,
) {
    let lay = *layout;
    cube.local_step(|_, pe| {
        pe.r = pe.m;
        pe.q = pe.m;
    });
    for e in 0..layout.k {
        let dim = layout.s_dim(e);
        cube.exchange_step(dim, |lo_addr, lo, hi| {
            rq_op(e, lo_addr, lo, hi, &lay, actions);
        });
    }
    cube.local_step(|addr, pe| combine_pe(addr, pe, &lay, level, m_tests));
    for t in layout.i_dims() {
        cube.exchange_step(t, |_, lo, hi| min_op(lo, hi));
    }
}

/// PE initialization: `TP = t_i·p(S)`, `M[∅,i] = 0`, else `INF`.
pub fn init_pe(
    addr: usize,
    pe: &mut TtPe,
    layout: &Layout,
    actions: &[PadAction],
    weights: &[u64],
) {
    let (s, i) = layout.split(addr);
    pe.tp = actions[i].cost.saturating_mul_weight(weights[s.index()]);
    pe.m = if s.is_empty() { Cost::ZERO } else { Cost::INF };
    pe.r = Cost::ZERO;
    pe.q = Cost::ZERO;
}

/// The `e`-loop pair operation on hypercube dimension `s_dim(e)`: the high
/// side (which has `e ∈ S`) pulls `R` when `e ∈ T_i` and `Q` when
/// `e ∉ T_i` — together one exchange step, as in the paper's single loop.
pub fn rq_op(
    e: usize,
    lo_addr: usize,
    lo: &mut TtPe,
    hi: &mut TtPe,
    layout: &Layout,
    actions: &[PadAction],
) {
    let i = layout.action_of(lo_addr);
    let _ = e;
    if actions[i].set.contains(e) {
        hi.r = lo.r;
    } else {
        hi.q = lo.q;
    }
}

/// The recombination local step, gated to `#S = level`.
pub fn combine_pe(addr: usize, pe: &mut TtPe, layout: &Layout, level: usize, m_tests: usize) {
    let (s, i) = layout.split(addr);
    if s.len() != level {
        return;
    }
    let mut m = pe.r + pe.tp;
    if i < m_tests {
        m += pe.q;
    }
    pe.m = m;
    pe.arg = i as u16;
}

/// The minimization pair operation: both sides take the minimum,
/// breaking ties toward the smaller action index (matching the
/// sequential solver's first-minimizer convention).
pub fn min_op(lo: &mut TtPe, hi: &mut TtPe) {
    let (m, arg) = if (hi.m, hi.arg) < (lo.m, lo.arg) {
        (hi.m, hi.arg)
    } else {
        (lo.m, lo.arg)
    };
    lo.m = m;
    lo.arg = arg;
    hi.m = m;
    hi.arg = arg;
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn matches_sequential_dp_exactly() {
        let i = inst();
        let hyper = solve(&i);
        let seq = sequential::solve(&i);
        assert_eq!(hyper.cost, seq.cost);
        assert_eq!(hyper.c_table, seq.tables.cost);
    }

    #[test]
    fn every_i_column_agrees_after_the_run() {
        // After level #S, all PEs of a column hold C(S) — check via a
        // direct run.
        let i = inst();
        let layout = Layout::new(i.k(), i.n_actions());
        let actions = padded_actions(&i, &layout);
        let weights = i.weight_table();
        let mut cube = SimdHypercube::new(layout.dims(), |_| TtPe::default());
        run_tt(&mut cube, &layout, &actions, &weights, i.n_tests());
        let seq = sequential::solve(&i);
        for s in Subset::all(i.k()) {
            for idx in 0..layout.n_pad() {
                assert_eq!(
                    cube.pe(layout.addr(s, idx)).m,
                    seq.tables.cost[s.index()],
                    "S={s} i={idx}"
                );
            }
        }
    }

    #[test]
    fn handles_inadequate_instances() {
        let i = TtInstanceBuilder::new(3)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::from_iter([0, 1]), 2)
            .build()
            .unwrap();
        let hyper = solve(&i);
        let seq = sequential::solve(&i);
        assert!(hyper.cost.is_inf());
        assert_eq!(hyper.c_table, seq.tables.cost);
    }

    #[test]
    fn step_counts_match_the_model() {
        // Per level: 1 + k exchange + 1 + log N exchange; plus 1 init.
        let i = inst();
        let hyper = solve(&i);
        let (k, log_n) = (4u64, 3u64); // 5 actions → log N = 3
        assert_eq!(hyper.layout.log_n, 3);
        assert_eq!(hyper.steps.exchange, k * (k + log_n));
        assert_eq!(hyper.steps.local, 1 + 2 * k);
    }

    #[test]
    fn fig9_r_loop_trace() {
        // The paper's Fig. 8/9 example: U = {0,1,2}, T = {0,1}. After the
        // full e-loop, R[S] must carry M[S − T] for every S.
        let t = Subset::from_iter([0, 1]);
        let trace = r_loop_trace(3, t);
        let final_r = &trace[3];
        for s in Subset::all(3) {
            assert_eq!(final_r[s.index()], s.difference(t), "S={s}");
        }
        // And the intermediate states match Fig. 9's e-th columns:
        // R[(S−T) ∪ (S ∩ T ∩ I_{e−1})] invariant.
        for (e_plus_1, snapshot) in trace.iter().enumerate().skip(1) {
            let e = e_plus_1 - 1;
            let i_mask = Subset(((1u32 << (e + 1)) - 1) & 0b111);
            for s in Subset::all(3) {
                let expect = s.difference(t).union(s.intersect(t).difference(i_mask));
                assert_eq!(snapshot[s.index()], expect, "e={e} S={s}");
            }
        }
    }

    #[test]
    fn single_action_instance() {
        let i = TtInstanceBuilder::new(2)
            .weights([2, 3])
            .treatment(Subset::universe(2), 7)
            .build()
            .unwrap();
        let hyper = solve(&i);
        assert_eq!(hyper.cost, Cost::new(35));
        assert_eq!(hyper.layout.log_n, 1); // padded to 2 slots
    }
}

#[cfg(test)]
mod argmin_tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;
    use tt_workloads_like::instances;

    /// Local deterministic instance family (no dev-dependency cycle).
    mod tt_workloads_like {
        use super::*;
        pub fn instances() -> Vec<TtInstance> {
            let mut out = Vec::new();
            for seed in 0..8u64 {
                let k = 4 + (seed as usize % 2);
                let mut x = seed | 1;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let full = (1u32 << k) - 1;
                let mut b = TtInstanceBuilder::new(k).weights((0..k).map(|_| 1 + next() % 6));
                for _ in 0..3 {
                    b = b.test(Subset(1 + (next() as u32) % full), 1 + next() % 5);
                }
                for _ in 0..3 {
                    b = b.treatment(Subset(1 + (next() as u32) % full), 1 + next() % 5);
                }
                b = b.treatment(Subset::universe(k), 7);
                out.push(b.build().unwrap());
            }
            out
        }
    }

    #[test]
    fn argmin_table_matches_sequential() {
        for inst in instances() {
            let hyp = solve(&inst);
            let seq = sequential::solve(&inst);
            assert_eq!(hyp.best_table, seq.tables.best);
        }
    }

    #[test]
    fn machine_extracted_tree_is_optimal() {
        for inst in instances() {
            let hyp = solve(&inst);
            let tree = hyp.tree(&inst).expect("adequate");
            tree.validate(&inst).unwrap();
            assert_eq!(tree.expected_cost(&inst), hyp.cost);
        }
    }
}

/// Result of a blocked (Brent's-theorem) TT run on `2^phys` physical PEs.
#[derive(Clone, Debug)]
pub struct BlockedSolution {
    /// `C(U)` (identical to the full-machine run).
    pub cost: Cost,
    /// `c_table[S.index()] = C(S)`.
    pub c_table: Vec<Cost>,
    /// Local/remote work counters.
    pub counts: hypercube::blocked::BlockedCounts,
    /// Virtual PEs per physical PE.
    pub block_size: usize,
    /// The layout used.
    pub layout: Layout,
}

/// Runs the TT program with `2^phys` physical PEs hosting the
/// `2^{k + log N}` virtual ones (`phys ≤ k + log N`); the schedule is
/// identical, communication happens only on the high `phys` dimensions.
pub fn solve_blocked(inst: &TtInstance, phys: usize) -> BlockedSolution {
    solve_blocked_budgeted(inst, phys, &mut || true).0
}

/// As [`solve_blocked`], but `check` is consulted before each level.
/// Returns the solution plus the number of completed levels (entries for
/// `#S ≤` that count are exact).
pub fn solve_blocked_budgeted(
    inst: &TtInstance,
    phys: usize,
    check: &mut dyn FnMut() -> bool,
) -> (BlockedSolution, usize) {
    solve_blocked_resumable(inst, phys, check, None, &mut |_, _| {})
}

/// As [`solve_blocked_budgeted`], but resumable: `resume` warm-starts
/// the virtual machine from a completed wavefront via [`warm_pe`], and
/// `on_level` receives the cost table after each completed level.
pub fn solve_blocked_resumable(
    inst: &TtInstance,
    phys: usize,
    check: &mut dyn FnMut() -> bool,
    resume: Option<WavefrontSeed<'_>>,
    on_level: &mut LevelSink<'_>,
) -> (BlockedSolution, usize) {
    use hypercube::blocked::BlockedHypercube;
    let layout = Layout::new(inst.k(), inst.n_actions());
    let actions = padded_actions(inst, &layout);
    let weights = inst.weight_table();
    let m_tests = inst.n_tests();
    let phys = phys.min(layout.dims());
    let mut cube = BlockedHypercube::new(layout.dims(), phys, |_| TtPe::default());
    cube.local_step(|addr, pe| init_pe(addr, pe, &layout, &actions, &weights));
    let start = match resume {
        Some((level, cost)) => {
            let lvl = level.min(layout.k);
            cube.host_load(|addr, pe| warm_pe(addr, pe, &layout, lvl, cost));
            lvl
        }
        None => 0,
    };
    // The same incremental wavefront readback as the word-level cube
    // (cost only).
    let mut c_table = vec![Cost::INF; 1usize << inst.k()];
    for level in 0..=start {
        for (s, addr) in layout.wavefront_addrs(level) {
            c_table[s.index()] = cube.pe(addr).m;
        }
    }
    let mut done = layout.k;
    for level in (start + 1)..=layout.k {
        if !check() {
            done = level - 1;
            break;
        }
        run_level_blocked(&mut cube, &layout, &actions, level, m_tests);
        for (s, addr) in layout.wavefront_addrs(level) {
            c_table[s.index()] = cube.pe(addr).m;
        }
        on_level(level, &c_table);
    }
    let cost = c_table[inst.universe().index()];
    (
        BlockedSolution {
            cost,
            c_table,
            counts: cube.counts(),
            block_size: cube.block_size(),
            layout,
        },
        done,
    )
}

/// The blocked twin of [`run_level_cube`] — same wavefront schedule on
/// the virtualized machine.
fn run_level_blocked(
    cube: &mut hypercube::blocked::BlockedHypercube<TtPe>,
    layout: &Layout,
    actions: &[PadAction],
    level: usize,
    m_tests: usize,
) {
    cube.local_step(|_, pe| {
        pe.r = pe.m;
        pe.q = pe.m;
    });
    for e in 0..layout.k {
        let dim = layout.s_dim(e);
        cube.exchange_step(dim, |lo_addr, lo, hi| {
            rq_op(e, lo_addr, lo, hi, layout, actions);
        });
    }
    cube.local_step(|addr, pe| combine_pe(addr, pe, layout, level, m_tests));
    for t in layout.i_dims() {
        cube.exchange_step(t, |_, lo, hi| min_op(lo, hi));
    }
}

#[cfg(test)]
mod blocked_tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;

    #[test]
    fn every_blocking_gives_the_exact_dp_table() {
        let inst = TtInstanceBuilder::new(4)
            .weights([4, 3, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2]), 2)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .treatment(Subset::from_iter([3]), 2)
            .build()
            .unwrap();
        let seq = sequential::solve(&inst);
        let dims = Layout::new(inst.k(), inst.n_actions()).dims();
        for phys in 0..=dims {
            let sol = solve_blocked(&inst, phys);
            assert_eq!(sol.c_table, seq.tables.cost, "phys={phys}");
            assert_eq!(sol.block_size, 1 << (dims - phys));
        }
    }

    #[test]
    fn communication_drops_with_fewer_physical_pes() {
        let inst = TtInstanceBuilder::new(3)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::universe(3), 4)
            .build()
            .unwrap();
        let full = solve_blocked(&inst, 99); // clamped to dims
        let half = solve_blocked(&inst, 2);
        let serial = solve_blocked(&inst, 0);
        assert!(half.counts.words_communicated < full.counts.words_communicated);
        assert_eq!(serial.counts.words_communicated, 0);
        assert_eq!(serial.counts.remote_pair_ops, 0);
    }
}
