//! The full bit-serial TT program on the Boolean Vector Machine.
//!
//! This is the paper's Section 7 realization, end to end:
//!
//! * every PE stands for a `(S, i)` pair (Layout addresses, padded action
//!   table);
//! * control bits come from the **processor-ID** — the predicates
//!   `e ∈ S`, `#S = 0` and the receiver masks are assembled in the enable
//!   register `E`, exactly as the paper prescribes ("the processor-ID
//!   bits will let each PE know the set S it represents; `T_i` should be
//!   input to the BVM");
//! * the `#S = j` wavefront advances by a propagation-of-the-first-kind
//!   pass per level;
//! * `TP[S,i] = t_i·p(S)` is computed **on the machine**: `p(S)` by
//!   `E`-gated constant adds over the elements of `S`, the product by
//!   shift-and-add against the input cost-bit planes;
//! * the `R`/`Q` subset broadcasts and the `log N` minimization are
//!   hypercube dimension exchanges routed over the CCC by
//!   `bvm::hyperops::fetch_partner`;
//! * all arithmetic is `w`-bit vertical with an INF flag, bit-identical
//!   to `tt_core::Cost`.
//!
//! The measured instruction count is the paper's time bound
//! `O(k·w·(k + log N))` multiplied by the machine's fixed cycle length
//! `Q` (the turn-taking dimension-exchange schedule; see DESIGN.md).

use crate::layout::{padded_actions, Layout};
use bvm::hyperops::fetch_partner;
use bvm::isa::{BoolFn, Dest, Instruction, RegSel};
use bvm::machine::Bvm;
use bvm::ops::arith::{self, Num};
use bvm::ops::{processor_id, RegAlloc};
use bvm::plane::BitPlane;
use bvm::program::Program;
use bvm::topology::CccTopology;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::subset::Subset;

/// Result of a BVM TT run.
#[derive(Clone, Debug)]
pub struct BvmTtSolution {
    /// Instructions per program phase (processor-id, tp-init, m-init,
    /// levels).
    pub phase_breakdown: Vec<(String, u64)>,
    /// `C(U)`.
    pub cost: Cost,
    /// `c_table[S.index()] = C(S)`.
    pub c_table: Vec<Cost>,
    /// BVM instructions executed (the paper's time measure).
    pub instructions: u64,
    /// PE-active bit operations committed (the bit-serial *work*
    /// measure: one per PE eligible to write per instruction).
    pub bit_ops: u64,
    /// Host-side bulk loads used to input the instance data.
    pub host_loads: u64,
    /// Cycle-length exponent of the machine used.
    pub machine_r: usize,
    /// The bit width `w` of the vertical numbers.
    pub width: usize,
    /// The PE layout.
    pub layout: Layout,
}

/// A safe vertical-number width for an instance: every finite value the
/// recurrence can produce — `C(S) ≤ p(S)·Σt`, since an optimal tree never
/// repeats an action on a path, and candidates `M ≤ 2·Σt·p(S)` — lies
/// below [`TtInstance::finite_cost_bound`] and so fits below `2^w`. The
/// bound is below `2^63` for every built instance, so `w ≤ 64`.
pub fn required_width(inst: &TtInstance) -> usize {
    let w = (64 - inst.finite_cost_bound().leading_zeros() as usize) + 1;
    w.max(4)
}

/// The register rows the TT program allocates for `inst` at width `w`:
/// the processor ID and its scratch, one `e ∈ T_i` plane per object,
/// six single control rows, five `w`-bit numbers with their INF flags
/// and the `w` cost-bit planes of `t_i`. An instance needing more than
/// [`bvm::NUM_REGISTERS`] rows does not fit the machine.
pub fn registers_needed(inst: &TtInstance, w: usize) -> usize {
    let layout = Layout::new(inst.k(), inst.n_actions());
    let topo = CccTopology::new(hypercube::ccc::min_r_for_dims(layout.dims()));
    topo.dims() + topo.q().max(4) + inst.k() + 6 + 5 * (w + 1) + w
}

/// Fetches a whole vertical number's dimension partner:
/// `dst[x] = src[x ⊕ 2^dim]` for every plane including the INF flag.
fn fetch_num(m: &mut Bvm, dim: usize, src: &Num, dst: &Num, s2a: u8, s2b: u8) {
    for (&s, &d) in src.bits.iter().zip(&dst.bits) {
        fetch_partner(m, dim, s, d, s2a);
    }
    fetch_partner(m, dim, src.inf, dst.inf, s2b);
}

fn enable_all(m: &mut Bvm) {
    m.exec(&Instruction::set_const(Dest::E, true));
}

fn enable_from(m: &mut Bvm, reg: u8) {
    m.exec(&Instruction::mov(Dest::E, RegSel::R(reg), None));
}

fn enable_and(m: &mut Bvm, a: u8, b: u8) {
    m.exec(&Instruction::compute(
        Dest::E,
        BoolFn::F_AND_D,
        RegSel::R(a),
        RegSel::R(b),
    ));
}

fn enable_andn(m: &mut Bvm, a: u8, b: u8) {
    m.exec(&Instruction::compute(
        Dest::E,
        BoolFn::F_ANDN_D,
        RegSel::R(a),
        RegSel::R(b),
    ));
}

/// The machine the TT program needs for this instance: the BVM on the
/// smallest complete CCC that fits the layout. Exposed so callers can arm
/// fault plans (see `crate::resilient`) before handing the machine to
/// [`solve_on`].
pub fn machine_for(inst: &TtInstance) -> Bvm {
    let layout = Layout::new(inst.k(), inst.n_actions());
    Bvm::new(hypercube::ccc::min_r_for_dims(layout.dims()))
}

/// Solves the instance on the BVM with an automatically chosen width.
pub fn solve(inst: &TtInstance) -> BvmTtSolution {
    solve_with_width(inst, required_width(inst))
}

/// Solves the instance on a caller-supplied machine (see [`machine_for`])
/// with an automatically chosen width.
pub fn solve_on(inst: &TtInstance, mut m: Bvm) -> BvmTtSolution {
    solve_impl(inst, required_width(inst), false, &mut m, &mut || true).0
}

/// As [`solve`], but also records the full instruction stream the solve
/// executes, returning it as a [`Program`] ready for `bvm::verify` (the
/// host bulk loads become the program's `preloaded` register list).
pub fn solve_recorded(inst: &TtInstance) -> (BvmTtSolution, Program) {
    solve_recorded_on(inst, machine_for(inst))
}

/// As [`solve_on`], but records the instruction stream (see
/// [`solve_recorded`]) — the machine may arrive with a fault plan armed,
/// which must not change the recorded program (faults corrupt data, not
/// control).
pub fn solve_recorded_on(inst: &TtInstance, mut m: Bvm) -> (BvmTtSolution, Program) {
    m.start_recording();
    let sol = solve_impl(inst, required_width(inst), false, &mut m, &mut || true).0;
    (sol, m.take_recording())
}

/// As [`solve`], but `check` is consulted before each level; a `false`
/// stops the machine cleanly between levels. Returns the solution plus
/// the number of completed levels (entries for `#S ≤` that count are
/// exact, the rest still `INF` placeholders — the wavefront invariant
/// holds on the BVM exactly as on the word-level machines).
pub fn solve_budgeted(
    inst: &TtInstance,
    check: &mut dyn FnMut() -> bool,
) -> (BvmTtSolution, usize) {
    solve_impl(
        inst,
        required_width(inst),
        false,
        &mut machine_for(inst),
        check,
    )
}

/// Solves the instance loading every instance plane through the I/O
/// chain (one instruction per PE per plane) instead of host bulk loads —
/// the honest input path. The answer is identical; the `input` phase of
/// the breakdown shows the `Θ(n·(k + w))` cost the paper's resident-data
/// assumption hides.
pub fn solve_with_chain_input(inst: &TtInstance) -> BvmTtSolution {
    solve_impl(
        inst,
        required_width(inst),
        true,
        &mut machine_for(inst),
        &mut || true,
    )
    .0
}

/// Solves the instance on the BVM with vertical width `w`.
///
/// # Panics
/// Panics if the register file (L = 256) cannot hold the working set for
/// this `w` and instance size, or if `w` is too small for the instance's
/// cost range.
pub fn solve_with_width(inst: &TtInstance, w: usize) -> BvmTtSolution {
    solve_impl(inst, w, false, &mut machine_for(inst), &mut || true).0
}

fn solve_impl(
    inst: &TtInstance,
    w: usize,
    via_chain: bool,
    m: &mut Bvm,
    check: &mut dyn FnMut() -> bool,
) -> (BvmTtSolution, usize) {
    assert!(
        w >= required_width(inst),
        "width {w} too small for this instance"
    );
    let needed = registers_needed(inst, w);
    assert!(
        needed <= bvm::NUM_REGISTERS,
        "register file exhausted: {needed} rows needed (reduce w={w} or instance size)"
    );
    let layout = Layout::new(inst.k(), inst.n_actions());
    let actions = padded_actions(inst, &layout);
    let k = inst.k();
    let r = hypercube::ccc::min_r_for_dims(layout.dims());
    assert_eq!(m.topo().r(), r, "machine geometry does not fit the layout");
    let q = m.topo().q();
    let machine_dims = m.topo().dims();
    let n = m.n();
    let replica_mask = layout.pes() - 1;

    // ---- register allocation -------------------------------------------
    let mut al = RegAlloc::new();
    let pid = al.regs(machine_dims);
    let pid_scratch = al.regs(q.max(4));
    let tin = al.regs(k); // tin[e]: e ∈ T_i
    let ist = al.reg(); // i is a test
    let dummy = al.reg(); // i ≥ N (padding slot)
    let cur = al.reg(); // wavefront: #S == level
    let next = al.reg();
    let t1 = al.reg();
    let t2 = al.reg();
    let num_m = al.num(w);
    let num_r = al.num(w);
    let num_q = al.num(w);
    let num_tp = al.num(w);
    let partner = al.num(w);
    let tcost = al.regs(w); // tcost[b]: bit b of t_i
    debug_assert_eq!(al.used(), needed, "registers_needed counts every row");

    // ---- control bits ----------------------------------------------------
    m.mark_phase("processor-id");
    processor_id(m, &pid, &pid_scratch);

    // ---- instance input (host bulk loads or the honest I/O chain) --------
    m.mark_phase("input");
    let act_of = |pe: usize| layout.action_of(pe & replica_mask);
    let input_plane = |m: &mut Bvm, dest: u8, f: &dyn Fn(usize) -> bool| {
        if via_chain {
            let bits: Vec<bool> = (0..n).map(f).collect();
            bvm::ops::load_plane_via_chain(m, dest, &bits);
        } else {
            m.load_register(Dest::R(dest), BitPlane::from_fn(n, f));
        }
    };
    #[allow(clippy::needless_range_loop)] // e is both index and data
    for e in 0..k {
        input_plane(m, tin[e], &|pe| actions[act_of(pe)].set.contains(e));
    }
    input_plane(m, ist, &|pe| actions[act_of(pe)].is_test);
    input_plane(m, dummy, &|pe| actions[act_of(pe)].cost.is_inf());
    for (b, &reg) in tcost.iter().enumerate() {
        input_plane(m, reg, &|pe| {
            actions[act_of(pe)]
                .cost
                .finite()
                .is_some_and(|t| t >> b & 1 != 0)
        });
    }

    // ---- TP[S,i] = t_i · p(S), computed on the machine --------------------
    m.mark_phase("tp-init");
    // p(S) into `partner` (free until the main loop): gated constant adds.
    arith::clear(m, &partner);
    #[allow(clippy::needless_range_loop)] // e is both index and dimension
    for e in 0..k {
        enable_from(m, pid[layout.s_dim(e)]);
        arith::add_const(m, &partner, inst.weight(e));
        enable_all(m);
    }
    // Shift-and-add multiply: TP += (p(S) << b) where bit b of t_i is set.
    arith::clear(m, &num_tp);
    #[allow(clippy::needless_range_loop)] // b is both index and shift amount
    for b in 0..w {
        enable_from(m, tcost[b]);
        arith::add_assign(m, &num_tp, &partner);
        enable_all(m);
        if b + 1 < w {
            // partner <<= 1 (drop the top bit; the width contract
            // guarantees it is zero whenever the result is consumed).
            for idx in (1..w).rev() {
                m.exec(&Instruction::mov(
                    Dest::R(partner.bits[idx]),
                    RegSel::R(partner.bits[idx - 1]),
                    None,
                ));
            }
            m.exec(&Instruction::set_const(Dest::R(partner.bits[0]), false));
        }
    }
    // Padding dummies have TP = INF.
    m.exec(&Instruction::compute(
        Dest::R(num_tp.inf),
        BoolFn::F_OR_D,
        RegSel::R(num_tp.inf),
        RegSel::R(dummy),
    ));

    // ---- M init: INF everywhere, 0 on the S = ∅ column --------------------
    m.mark_phase("m-init");
    arith::set_inf(m, &num_m);
    m.exec(&Instruction::set_const(Dest::R(cur), true));
    #[allow(clippy::needless_range_loop)] // e is both index and dimension
    for e in 0..k {
        // cur &= !pid[s_dim(e)]  →  cur = (#S == 0)
        m.exec(&Instruction::compute(
            Dest::R(cur),
            BoolFn::F_ANDN_D,
            RegSel::R(cur),
            RegSel::R(pid[layout.s_dim(e)]),
        ));
    }
    enable_from(m, cur);
    arith::clear(m, &num_m);
    enable_all(m);

    // ---- the k levels ------------------------------------------------------
    m.mark_phase("levels");
    let mut done = k;
    for level in 1..=k {
        if !check() {
            done = level - 1;
            break;
        }
        // Advance the wavefront: next[S] = OR_{e∈S} cur[S − {e}] — one
        // propagation-of-the-first-kind pass over the S dimensions.
        m.exec(&Instruction::set_const(Dest::R(next), false));
        #[allow(clippy::needless_range_loop)] // e is both index and dimension
        for e in 0..k {
            let dim = layout.s_dim(e);
            fetch_partner(m, dim, cur, t1, t2);
            enable_from(m, pid[dim]);
            m.exec(&Instruction::compute(
                Dest::R(next),
                BoolFn::F_OR_D,
                RegSel::R(next),
                RegSel::R(t1),
            ));
            enable_all(m);
        }
        m.exec(&Instruction::mov(Dest::R(cur), RegSel::R(next), None));

        // Q[S,i] = R[S,i] = M[S,i].
        arith::copy(m, &num_r, &num_m);
        arith::copy(m, &num_q, &num_m);

        // The e-loop: R and Q pull from the 0-end along each S dimension.
        #[allow(clippy::needless_range_loop)] // e is both index and dimension
        for e in 0..k {
            let dim = layout.s_dim(e);
            fetch_num(m, dim, &num_r, &partner, t1, t2);
            enable_and(m, pid[dim], tin[e]); // e ∈ S ∩ T_i
            arith::copy(m, &num_r, &partner);
            enable_all(m);
            fetch_num(m, dim, &num_q, &partner, t1, t2);
            enable_andn(m, pid[dim], tin[e]); // e ∈ S − T_i
            arith::copy(m, &num_q, &partner);
            enable_all(m);
        }

        // Recombine on the wavefront: M = R + TP (+ Q for tests).
        enable_from(m, cur);
        arith::copy(m, &num_m, &num_r);
        arith::add_assign(m, &num_m, &num_tp);
        enable_and(m, cur, ist);
        arith::add_assign(m, &num_m, &num_q);
        enable_all(m);

        // Minimization ASCEND over the i dimensions.
        for t in layout.i_dims() {
            fetch_num(m, t, &num_m, &partner, t1, t2);
            arith::min_assign(m, &num_m, &partner, t1);
        }
    }

    // ---- read back ----------------------------------------------------------
    let values = arith::host_read(m, &num_m);
    let c_table: Vec<Cost> = Subset::all(k)
        .map(|s| match values[layout.addr(s, 0)] {
            Some(v) => Cost::new(v),
            None => Cost::INF,
        })
        .collect();
    let cost = c_table[inst.universe().index()];
    (
        BvmTtSolution {
            phase_breakdown: m.phase_breakdown(),
            cost,
            c_table,
            instructions: m.executed(),
            bit_ops: m.bit_ops(),
            host_loads: m.host_loads(),
            machine_r: r,
            width: w,
            layout,
        },
        done,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;

    fn tiny() -> TtInstance {
        TtInstanceBuilder::new(3)
            .weights([3, 2, 1])
            .test(Subset::from_iter([0]), 1)
            .test(Subset::from_iter([0, 1]), 2)
            .treatment(Subset::from_iter([0, 1]), 2)
            .treatment(Subset::from_iter([1, 2]), 3)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_sequential_dp_exactly() {
        let i = tiny();
        let sol = solve(&i);
        let seq = sequential::solve(&i);
        assert_eq!(sol.cost, seq.cost);
        assert_eq!(sol.c_table, seq.tables.cost);
        assert_eq!(sol.machine_r, 2); // dims = 3+2 = 5 → r = 2 (6 dims)
    }

    #[test]
    fn inadequate_instance_yields_inf() {
        let i = TtInstanceBuilder::new(2)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::singleton(0), 2)
            .build()
            .unwrap();
        let sol = solve(&i);
        let seq = sequential::solve(&i);
        assert!(sol.cost.is_inf());
        assert_eq!(sol.c_table, seq.tables.cost);
    }

    #[test]
    fn wider_width_gives_the_same_answer() {
        let i = tiny();
        let a = solve(&i);
        let b = solve_with_width(&i, a.width + 7);
        assert_eq!(a.c_table, b.c_table);
        // More bits, more instructions.
        assert!(b.instructions > a.instructions);
    }

    #[test]
    fn required_width_is_generous() {
        let i = tiny();
        let w = required_width(&i);
        // Max cost here is small; the bound must still cover it with room.
        let seq = sequential::solve(&i);
        let max_c = seq
            .tables
            .cost
            .iter()
            .filter_map(|c| c.finite())
            .max()
            .unwrap();
        assert!(1u64 << w > max_c * 2);
    }

    #[test]
    fn required_width_keeps_the_saturating_formula() {
        // The width this crate computed before the bound moved into
        // tt-core: `Σt ⊗ p(U) ⊗ (2k+2) ⊕ 1` in saturating arithmetic.
        // The builder refuses exactly the instances it gave 65 bits.
        let saturating = |weights: [u64; 3], costs: [u64; 3]| {
            let sum_t = costs.iter().fold(0u64, |a, &x| a.saturating_add(x));
            let p_u = weights.iter().fold(0u64, |a, &x| a.saturating_add(x));
            let bound = sum_t
                .saturating_mul(p_u)
                .saturating_mul(8)
                .saturating_add(1);
            ((64 - bound.leading_zeros() as usize) + 1).max(4)
        };
        let big = u64::MAX - 1;
        for (weights, costs) in [
            ([3, 1, 2], [1, 2, 3]),
            ([1, 1, 1], [0, 0, 0]),
            ([u64::MAX, u64::MAX, 1], [0, 0, 0]),
            ([u64::MAX, u64::MAX, 1], [1, 0, 0]),
            ([1, 0, 0], [big, big, 1]),
            ([1, 0, 0], [big / 16, 0, 0]),
            ([1, 0, 0], [big / 8, 0, 0]),
            ([1 << 40, 1 << 40, 0], [1 << 20, 1 << 21, 5]),
            ([1 << 20, 1 << 20, 0], [1 << 20, 1 << 21, 5]),
        ] {
            let built = TtInstanceBuilder::new(3)
                .weights(weights)
                .test(Subset::singleton(0), costs[0])
                .treatment(Subset::from_iter([0, 1]), costs[1])
                .treatment(Subset::universe(3), costs[2])
                .build();
            let want = saturating(weights, costs);
            match built {
                Ok(i) => assert_eq!(required_width(&i), want, "{weights:?} {costs:?}"),
                Err(e) => assert_eq!(
                    (e, want),
                    (tt_core::TtError::CostBoundTooLarge, 65),
                    "{weights:?} {costs:?}"
                ),
            }
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_width_is_rejected() {
        let i = tiny();
        solve_with_width(&i, 3);
    }
}

#[cfg(test)]
mod chain_input_tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;

    #[test]
    fn chain_input_gives_identical_results_at_a_price() {
        let inst = TtInstanceBuilder::new(3)
            .weights([3, 2, 1])
            .test(Subset::from_iter([0]), 1)
            .treatment(Subset::from_iter([0, 1]), 2)
            .treatment(Subset::from_iter([1, 2]), 3)
            .build()
            .unwrap();
        let seq = sequential::solve(&inst);
        let hosted = solve(&inst);
        let chained = solve_with_chain_input(&inst);
        assert_eq!(chained.c_table, seq.tables.cost);
        assert_eq!(chained.c_table, hosted.c_table);
        // The chain path executes strictly more instructions and needs no
        // instance host loads (only the pure-data plane loads vanish).
        assert!(chained.instructions > hosted.instructions);
        assert!(chained.host_loads < hosted.host_loads);
        // Input phase cost = planes × n.
        let input = chained
            .phase_breakdown
            .iter()
            .find(|(p, _)| p == "input")
            .unwrap()
            .1;
        let planes = inst.k() as u64 + 2 + chained.width as u64;
        let n = 1u64 << 6; // r=2 machine
        assert_eq!(input, planes * n);
    }
}
