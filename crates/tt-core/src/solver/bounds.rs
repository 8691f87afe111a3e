//! Admissible lower bounds on `C(S)`.
//!
//! Used by the branch-and-bound solver to skip hopeless candidates, by
//! the level kernel's chunk pass to skip `(S, i)` pairs that cannot beat
//! a cell's running minimum (it tabulates `object_charge` in three
//! subset-sum tables, see `kernel::SplitWeights`), and by the
//! test suite as sandwich checks (`LB(S) ≤ C(S) ≤ UB(S)` for every
//! subset).
//!
//! * **Treatment-charge bound** — every object `j ∈ S` is eventually
//!   cured by some treatment containing it, and at that moment it is
//!   charged at least that treatment's cost once, weighted by at least
//!   `P_j` (the object is in the live set when its curing action runs).
//!   Hence `C(S) ≥ L(S) = Σ_{j∈S} P_j · min{ t_i : j ∈ T_i, i a
//!   treatment }`. `L` is a sum over objects, so it is additive and
//!   monotone: `L(S − T) = L(S) − L(S ∩ T) ≥ L(S) − L(T)`. The chunk
//!   pass bounds a group of treatments of one cost `t` by `t·p(S) +
//!   max(0, L(S) − max L(T))` this way, once per cell and group.
//! * **Lookahead bound** — the DP recurrence with children replaced by
//!   their treatment-charge bounds: a one-step optimistic cost for each
//!   action, minimized over actions. Dominates the plain bound (the
//!   action's own charge `t_i·p(S)` is added on top).

use crate::cost::Cost;
use crate::instance::TtInstance;
use crate::subset::Subset;

/// Object `j`'s share of the treatment-charge bound: `P_j` times the
/// cost of the cheapest treatment containing `j`, or `INF` when no
/// treatment does (`j` is untreatable, and `C(S) = INF` at every
/// `S ∋ j`).
pub(crate) fn object_charge(inst: &TtInstance, j: usize) -> Cost {
    let cheapest = inst
        .treatments()
        .iter()
        .filter(|a| a.set.contains(j))
        .map(|a| a.cost)
        .min();
    cheapest.map_or(Cost::INF, |t| {
        Cost::new(t).saturating_mul_weight(inst.weight(j))
    })
}

/// Precomputed bound context for an instance.
#[derive(Clone, Debug)]
pub struct Bounds<'a> {
    inst: &'a TtInstance,
    /// `charge[j]` = [`object_charge`]`(inst, j)`.
    charge: Vec<Cost>,
    /// `p(S)` table (empty for a single-set context, see
    /// [`Bounds::lower_bound_at`]).
    weight_table: Vec<u64>,
}

impl<'a> Bounds<'a> {
    /// Builds the context (`O(k·N + 2^k)`).
    pub fn new(inst: &'a TtInstance) -> Bounds<'a> {
        Bounds {
            weight_table: inst.weight_table(),
            ..Bounds::tableless(inst)
        }
    }

    /// The context without the `2^k` `p(S)` table (`O(k·N)`): every
    /// `p(S)` is summed from the object weights instead. For callers
    /// that bound a single set, such as a degraded answer's bound at `U`.
    fn tableless(inst: &'a TtInstance) -> Bounds<'a> {
        Bounds {
            inst,
            charge: (0..inst.k()).map(|j| object_charge(inst, j)).collect(),
            weight_table: Vec::new(),
        }
    }

    /// [`lower_bound`](Bounds::lower_bound) at one set `S`, in
    /// `O(k·N)` without building the `2^k` `p(S)` table that
    /// [`Bounds::new`] does. Equal to `Bounds::new(inst).lower_bound(s)`.
    pub fn lower_bound_at(inst: &TtInstance, s: Subset) -> Cost {
        Bounds::tableless(inst).lower_bound(s)
    }

    /// `p(S)`: from the table when one was built, summed otherwise.
    fn weight(&self, s: Subset) -> u64 {
        match self.weight_table.get(s.index()) {
            Some(&w) => w,
            None => self.inst.weight_of(s),
        }
    }

    /// The treatment-charge bound for `S`: the sum over its objects `j`
    /// of `P_j` times the cheapest treatment containing `j` (`INF` when
    /// one has none).
    pub fn treatment_charge(&self, s: Subset) -> Cost {
        s.iter().map(|j| self.charge[j]).sum()
    }

    /// The one-step lookahead bound for `S` (≥ the treatment-charge
    /// bound for every `S` with an applicable action).
    pub fn lookahead(&self, s: Subset) -> Cost {
        if s.is_empty() {
            return Cost::ZERO;
        }
        let p_s = self.weight(s);
        let mut best = Cost::INF;
        for a in self.inst.actions() {
            let inter = s.intersect(a.set);
            let diff = s.difference(a.set);
            if inter.is_empty() || (a.is_test() && diff.is_empty()) {
                continue;
            }
            let mut est = Cost::new(a.cost).saturating_mul_weight(p_s);
            est += self.treatment_charge(diff);
            if a.is_test() {
                est += self.treatment_charge(inter);
            }
            best = best.min(est);
        }
        best
    }

    /// The optimistic estimate of action `i` at live set `S`: a lower
    /// bound on `M[S, i]` (or `INF` when the action is useless at `S`).
    pub fn action_estimate(&self, s: Subset, i: usize) -> Cost {
        let a = self.inst.action(i);
        let inter = s.intersect(a.set);
        let diff = s.difference(a.set);
        if inter.is_empty() || (a.is_test() && diff.is_empty()) {
            return Cost::INF;
        }
        let mut est = Cost::new(a.cost).saturating_mul_weight(self.weight(s));
        est += self.treatment_charge(diff);
        if a.is_test() {
            est += self.treatment_charge(inter);
        }
        est
    }

    /// The best available lower bound for `S`.
    pub fn lower_bound(&self, s: Subset) -> Cost {
        // lookahead ≥ treatment_charge whenever any action applies;
        // on singletons they may coincide. Take the max defensively.
        let tc = self.treatment_charge(s);
        let la = self.lookahead(s);
        if tc >= la {
            tc
        } else {
            la
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
    use crate::solver::sequential;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The single-set bound equals the table-based one on every
        /// subset, inadequate instances included.
        #[test]
        fn lower_bound_at_matches_the_table_based_bound(
            k in 1usize..=10,
            weights in proptest::collection::vec(1u64..50, 10),
            actions in proptest::collection::vec((any::<u16>(), 1u64..20, any::<bool>()), 1usize..12),
        ) {
            let mut b = TtInstanceBuilder::new(k).weights(weights[..k].iter().copied());
            for (bits, cost, is_test) in actions {
                let set = Subset(u32::from(bits) & Subset::universe(k).0);
                if set.is_empty() {
                    continue;
                }
                b = if is_test { b.test(set, cost) } else { b.treatment(set, cost) };
            }
            // Builds that reject the draw (e.g. no actions left) are skipped.
            if let Ok(i) = b.build() {
                let table = Bounds::new(&i);
                for s in Subset::all(k) {
                    prop_assert_eq!(Bounds::lower_bound_at(&i, s), table.lower_bound(s), "S = {}", s);
                }
            }
        }
    }

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
    fn bounds_sandwich_the_dp_everywhere() {
        let i = inst();
        let b = Bounds::new(&i);
        let sol = sequential::solve(&i);
        for s in Subset::all(i.k()) {
            let c = sol.tables.cost[s.index()];
            assert!(b.treatment_charge(s) <= c, "tc at {s}");
            assert!(b.lookahead(s) <= c, "lookahead at {s}");
            assert!(b.lower_bound(s) <= c, "lb at {s}");
        }
    }

    #[test]
    fn treatment_charge_values() {
        let i = inst();
        let b = Bounds::new(&i);
        // tmin: obj0 → 3, obj1 → 4, obj2 → 4, obj3 → 2.
        assert_eq!(b.treatment_charge(Subset::singleton(0)), Cost::new(12));
        assert_eq!(
            b.treatment_charge(Subset::from_iter([1, 3])),
            Cost::new(4 * 3 + 2)
        );
        assert_eq!(b.treatment_charge(Subset::EMPTY), Cost::ZERO);
    }

    #[test]
    fn untreatable_objects_give_inf() {
        let i = TtInstanceBuilder::new(2)
            .treatment(Subset::singleton(0), 1)
            .build()
            .unwrap();
        let b = Bounds::new(&i);
        assert!(b.treatment_charge(Subset::singleton(1)).is_inf());
        assert!(b.lower_bound(Subset::universe(2)).is_inf());
        assert_eq!(b.treatment_charge(Subset::singleton(0)), Cost::new(1));
    }

    #[test]
    fn bound_is_tight_on_singletons() {
        // On a singleton the DP takes the cheapest covering treatment —
        // the treatment-charge bound exactly.
        let i = inst();
        let b = Bounds::new(&i);
        let sol = sequential::solve(&i);
        for j in 0..i.k() {
            let s = Subset::singleton(j);
            assert_eq!(b.treatment_charge(s), sol.tables.cost[s.index()]);
        }
    }

    #[test]
    fn action_estimate_lower_bounds_candidates() {
        let i = inst();
        let b = Bounds::new(&i);
        let sol = sequential::solve(&i);
        let wt = i.weight_table();
        for s in Subset::all(i.k()) {
            if s.is_empty() {
                continue;
            }
            for idx in 0..i.n_actions() {
                let est = b.action_estimate(s, idx);
                let exact = sequential::candidate(&i, &wt, &sol.tables.cost, s, idx);
                assert!(est <= exact, "S={s} i={idx}: {est} > {exact}");
            }
        }
    }
}
