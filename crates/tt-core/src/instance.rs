//! TT problem instances: universe weights plus tests and treatments.
//!
//! Following the paper's convention, actions are stored **tests first**
//! (`T_1, …, T_m` tests, `T_{m+1}, …, T_N` treatments); the builder accepts
//! them in any order and normalizes on `build()`.

use crate::error::TtError;
use crate::subset::Subset;
use crate::MAX_K;

/// Whether an action is a test or a treatment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// A test: splits the live set into `S ∩ T_i` (positive response) and
    /// `S − T_i` (negative response).
    Test,
    /// A treatment: cures the objects of `S ∩ T_i`; on failure the live set
    /// becomes `S − T_i`.
    Treatment,
}

/// One test or treatment: a subset of the universe plus an execution cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Action {
    /// The set `T_i ⊆ U` the action responds to / treats.
    pub set: Subset,
    /// The execution cost `t_i`.
    pub cost: u64,
    /// Test or treatment.
    pub kind: ActionKind,
}

impl Action {
    /// Is this action a test?
    #[inline]
    pub fn is_test(&self) -> bool {
        self.kind == ActionKind::Test
    }

    /// Is this action a treatment?
    #[inline]
    pub fn is_treatment(&self) -> bool {
        self.kind == ActionKind::Treatment
    }
}

/// A validated test-and-treatment problem instance.
///
/// Invariants (enforced by [`TtInstanceBuilder::build`]):
/// * `1 ≤ k ≤ MAX_K`, exactly `k` weights;
/// * every action set is a non-empty subset of the universe;
/// * at least one action exists;
/// * no action costs `INF`, and [`TtInstance::finite_cost_bound`] is
///   below `2^63`;
/// * actions are ordered tests-first.
///
/// Adequacy (every object covered by some treatment) is *not* an invariant:
/// the paper's algorithm handles inadequate instances by returning
/// `C(U) = INF`, and we preserve that behaviour. Use
/// [`TtInstance::require_adequate`] when a solvable instance is needed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TtInstance {
    k: usize,
    weights: Vec<u64>,
    actions: Vec<Action>,
    m: usize,
    cost_bound: u64,
}

impl TtInstance {
    /// Universe size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The full universe `U`.
    #[inline]
    pub fn universe(&self) -> Subset {
        Subset::universe(self.k)
    }

    /// Total number of actions `N`.
    #[inline]
    pub fn n_actions(&self) -> usize {
        self.actions.len()
    }

    /// Number of tests `m` (actions `0..m` are tests, `m..N` treatments).
    #[inline]
    pub fn n_tests(&self) -> usize {
        self.m
    }

    /// Number of treatments `N − m`.
    #[inline]
    pub fn n_treatments(&self) -> usize {
        self.actions.len() - self.m
    }

    /// All actions, tests first.
    #[inline]
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Action `i` (panics if out of range).
    #[inline]
    pub fn action(&self, i: usize) -> &Action {
        &self.actions[i]
    }

    /// The tests `T_1 … T_m`.
    #[inline]
    pub fn tests(&self) -> &[Action] {
        &self.actions[..self.m]
    }

    /// The treatments `T_{m+1} … T_N`.
    #[inline]
    pub fn treatments(&self) -> &[Action] {
        &self.actions[self.m..]
    }

    /// The a-priori weight `P_j` of object `j`.
    #[inline]
    pub fn weight(&self, j: usize) -> u64 {
        self.weights[j]
    }

    /// All object weights in index order.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// The set weight `p(S) = Σ_{j∈S} P_j` (saturating).
    pub fn weight_of(&self, s: Subset) -> u64 {
        s.iter()
            .fold(0u64, |acc, j| acc.saturating_add(self.weights[j]))
    }

    /// Total weight `p(U)`.
    pub fn total_weight(&self) -> u64 {
        self.weight_of(self.universe())
    }

    /// Precomputes `p(S)` for every subset: `table[S.index()] = p(S)`.
    ///
    /// `O(2^k)` time via the subset-sum recurrence
    /// `p(S) = p(S − {min S}) + P_{min S}`.
    pub fn weight_table(&self) -> Vec<u64> {
        let size = 1usize << self.k;
        let mut table = vec![0u64; size];
        for mask in 1..size {
            let low = mask.trailing_zeros() as usize;
            table[mask] = table[mask & (mask - 1)].saturating_add(self.weights[low]);
        }
        table
    }

    /// The objects not covered by any treatment (empty iff adequate).
    pub fn untreatable(&self) -> Subset {
        let covered = self
            .treatments()
            .iter()
            .fold(Subset::EMPTY, |acc, a| acc.union(a.set));
        self.universe().difference(covered)
    }

    /// Is the instance adequate, i.e. does a successful TT procedure exist?
    ///
    /// A procedure exists iff every object lies in some treatment set: at
    /// any live set `S`, applying a treatment covering `min S` strictly
    /// shrinks `S`, so induction yields a successful procedure; conversely a
    /// branch reaching an untreatable object can never terminate.
    pub fn is_adequate(&self) -> bool {
        self.untreatable().is_empty()
    }

    /// Returns the instance unchanged if adequate, else
    /// [`TtError::Inadequate`].
    pub fn require_adequate(self) -> Result<TtInstance, TtError> {
        let untreatable = self.untreatable();
        if untreatable.is_empty() {
            Ok(self)
        } else {
            Err(TtError::Inadequate { untreatable })
        }
    }

    /// A proven strict upper bound on every finite value the recurrence
    /// produces, `Σt·p(U)·(2k+2) + 1`; [`TtInstanceBuilder::build`]
    /// refuses an instance whose bound is not below `2^63`.
    ///
    /// The recurrence excludes an action wherever it is useless, and a
    /// repeat on a path always is: a repeated test has a certain outcome,
    /// a repeated treatment cures nothing. So every finite `C(S)` is the
    /// cost of a tree that charges each object of `S` at most `Σt`, and
    /// `C(S) ≤ p(S)·Σt`; a candidate `t_i·p(S) + C(S ∩ T_i) + C(S − T_i)`
    /// is then at most `2·Σt·p(S)`. The factor `2k+2` is the slack the
    /// BVM's vertical-number width has always been sized with, kept so
    /// that width does not move. Below `2^63` no finite product or sum
    /// reaches `Cost`'s saturation point at `u64::MAX − 1`, so every
    /// engine's arithmetic is exact.
    #[inline]
    pub fn finite_cost_bound(&self) -> u64 {
        self.cost_bound
    }
}

/// Builder for [`TtInstance`].
///
/// ```
/// use tt_core::instance::TtInstanceBuilder;
/// use tt_core::subset::Subset;
///
/// let inst = TtInstanceBuilder::new(2)
///     .weights([1, 1])
///     .test(Subset::singleton(0), 3)
///     .treatment(Subset::universe(2), 5)
///     .build()
///     .unwrap();
/// assert_eq!(inst.n_tests(), 1);
/// assert_eq!(inst.n_treatments(), 1);
/// assert!(inst.is_adequate());
/// ```
#[derive(Clone, Debug)]
pub struct TtInstanceBuilder {
    k: usize,
    weights: Option<Vec<u64>>,
    actions: Vec<Action>,
}

impl TtInstanceBuilder {
    /// Starts an instance over a `k`-object universe. Weights default to 1
    /// (uniform priors) unless [`weights`](Self::weights) is called.
    pub fn new(k: usize) -> TtInstanceBuilder {
        TtInstanceBuilder {
            k,
            weights: None,
            actions: Vec::new(),
        }
    }

    /// Sets the object weights `P_0 … P_{k−1}`.
    pub fn weights<I: IntoIterator<Item = u64>>(mut self, w: I) -> Self {
        self.weights = Some(w.into_iter().collect());
        self
    }

    /// Adds a test on `set` with cost `cost`.
    pub fn test(mut self, set: Subset, cost: u64) -> Self {
        self.actions.push(Action {
            set,
            cost,
            kind: ActionKind::Test,
        });
        self
    }

    /// Adds a treatment on `set` with cost `cost`.
    pub fn treatment(mut self, set: Subset, cost: u64) -> Self {
        self.actions.push(Action {
            set,
            cost,
            kind: ActionKind::Treatment,
        });
        self
    }

    /// Adds a pre-built action.
    pub fn action(mut self, a: Action) -> Self {
        self.actions.push(a);
        self
    }

    /// Validates and produces the instance (actions reordered tests-first,
    /// stably).
    pub fn build(self) -> Result<TtInstance, TtError> {
        let k = self.k;
        if k == 0 || k > MAX_K {
            return Err(TtError::BadUniverseSize { k });
        }
        let weights = self.weights.unwrap_or_else(|| vec![1; k]);
        if weights.len() != k {
            return Err(TtError::WeightCountMismatch {
                k,
                got: weights.len(),
            });
        }
        if weights.iter().all(|&w| w == 0) {
            return Err(TtError::ZeroTotalWeight);
        }
        if self.actions.is_empty() {
            return Err(TtError::NoActions);
        }
        let universe = Subset::universe(k);
        for (idx, a) in self.actions.iter().enumerate() {
            if !a.set.is_subset_of(universe) {
                return Err(TtError::ActionOutOfUniverse { action: idx });
            }
            if a.set.is_empty() {
                return Err(TtError::EmptyAction { action: idx });
            }
            if a.cost == u64::MAX {
                return Err(TtError::CostIsInf { action: idx });
            }
        }
        // Exact: `p(U)` unsaturated, a zero factor giving zero.
        let sum_t: u128 = self.actions.iter().map(|a| u128::from(a.cost)).sum();
        let p_u: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        let cost_bound = sum_t
            .checked_mul(p_u)
            .and_then(|b| b.checked_mul(2 * k as u128 + 2))
            .filter(|&b| b < (1 << 63) - 1)
            .ok_or(TtError::CostBoundTooLarge)? as u64
            + 1;
        let mut actions: Vec<Action> = self
            .actions
            .iter()
            .copied()
            .filter(Action::is_test)
            .collect();
        let m = actions.len();
        actions.extend(self.actions.iter().copied().filter(Action::is_treatment));
        Ok(TtInstance {
            k,
            weights,
            actions,
            m,
            cost_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TtInstance {
        TtInstanceBuilder::new(3)
            .weights([3, 2, 1])
            .treatment(Subset::from_iter([0, 1]), 2)
            .test(Subset::from_iter([0]), 1)
            .treatment(Subset::from_iter([2]), 1)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_orders_tests_first() {
        let inst = small();
        assert_eq!(inst.n_actions(), 3);
        assert_eq!(inst.n_tests(), 1);
        assert_eq!(inst.n_treatments(), 2);
        assert!(inst.action(0).is_test());
        assert!(inst.action(1).is_treatment());
        // Stable order among treatments.
        assert_eq!(inst.action(1).set, Subset::from_iter([0, 1]));
        assert_eq!(inst.action(2).set, Subset::from_iter([2]));
    }

    #[test]
    fn weight_queries() {
        let inst = small();
        assert_eq!(inst.weight(0), 3);
        assert_eq!(inst.weight_of(Subset::from_iter([0, 2])), 4);
        assert_eq!(inst.total_weight(), 6);
    }

    #[test]
    fn weight_table_matches_direct_sums() {
        let inst = small();
        let table = inst.weight_table();
        for s in Subset::all(inst.k()) {
            assert_eq!(table[s.index()], inst.weight_of(s), "S={s}");
        }
    }

    #[test]
    fn weight_table_saturates() {
        // Free actions keep the cost bound at 1 whatever the weights.
        let inst = TtInstanceBuilder::new(2)
            .weights([u64::MAX, u64::MAX])
            .treatment(Subset::universe(2), 0)
            .build()
            .unwrap();
        let table = inst.weight_table();
        assert_eq!(table[3], u64::MAX);
    }

    #[test]
    fn the_cost_bound_is_exact_and_refused_from_2_63() {
        // Σt = 4, p(U) = 6, k = 3: 4·6·8 + 1.
        assert_eq!(small().finite_cost_bound(), 193);
        let with = |weights: [u64; 2], cost| {
            TtInstanceBuilder::new(2)
                .weights(weights)
                .treatment(Subset::universe(2), cost)
                .treatment(Subset::singleton(0), cost)
                .build()
                .map(|i| i.finite_cost_bound())
        };
        // p(U) overflows u64 but Σt = 0: every cost is 0.
        assert_eq!(with([u64::MAX, u64::MAX], 0), Ok(1));
        // Σt overflows u64 with nonzero weight.
        assert_eq!(with([1, 0], u64::MAX - 1), Err(TtError::CostBoundTooLarge));
        // The largest admitted bound and the first refused one:
        // 2·t·1·6 + 1 with t = (2^63 − 2)/12.
        let t = ((1 << 63) - 2) / 12;
        assert_eq!(with([1, 0], t), Ok(12 * t + 1));
        assert_eq!(with([1, 0], t + 1), Err(TtError::CostBoundTooLarge));
        // An optimum past u64 (9·2^62), and a p(U) past u64 (2^64).
        for w in [1 << 62, 1 << 63] {
            let refused = TtInstanceBuilder::new(2)
                .weights([w, w])
                .test(Subset::singleton(0), 3)
                .treatment(Subset::singleton(0), 3)
                .treatment(Subset::singleton(1), 3)
                .build();
            assert_eq!(refused, Err(TtError::CostBoundTooLarge), "w = {w}");
        }
    }

    #[test]
    fn adequacy() {
        let inst = small();
        assert!(inst.is_adequate());
        assert_eq!(inst.untreatable(), Subset::EMPTY);

        let bad = TtInstanceBuilder::new(2)
            .test(Subset::singleton(0), 1)
            .treatment(Subset::singleton(0), 1)
            .build()
            .unwrap();
        assert!(!bad.is_adequate());
        assert_eq!(bad.untreatable(), Subset::singleton(1));
        assert_eq!(
            bad.require_adequate(),
            Err(TtError::Inadequate {
                untreatable: Subset::singleton(1)
            })
        );
    }

    #[test]
    fn build_rejects_bad_inputs() {
        assert!(matches!(
            TtInstanceBuilder::new(0).build(),
            Err(TtError::BadUniverseSize { k: 0 })
        ));
        assert!(matches!(
            TtInstanceBuilder::new(2)
                .weights([1])
                .treatment(Subset::singleton(0), 1)
                .build(),
            Err(TtError::WeightCountMismatch { k: 2, got: 1 })
        ));
        assert!(matches!(
            TtInstanceBuilder::new(2).build(),
            Err(TtError::NoActions)
        ));
        assert!(matches!(
            TtInstanceBuilder::new(2)
                .weights([0, 0])
                .treatment(Subset::singleton(0), 1)
                .build(),
            Err(TtError::ZeroTotalWeight)
        ));
        // A single positive weight is enough.
        assert!(TtInstanceBuilder::new(2)
            .weights([0, 1])
            .treatment(Subset::universe(2), 1)
            .build()
            .is_ok());
        assert!(matches!(
            TtInstanceBuilder::new(2)
                .treatment(Subset::singleton(5), 1)
                .build(),
            Err(TtError::ActionOutOfUniverse { action: 0 })
        ));
        assert!(matches!(
            TtInstanceBuilder::new(2)
                .treatment(Subset::EMPTY, 1)
                .build(),
            Err(TtError::EmptyAction { action: 0 })
        ));
        // The INF sentinel is not a cost; the index is insertion order.
        assert!(matches!(
            TtInstanceBuilder::new(2)
                .treatment(Subset::universe(2), 1)
                .test(Subset::singleton(0), u64::MAX)
                .build(),
            Err(TtError::CostIsInf { action: 1 })
        ));
        // One below the sentinel is a cost, but its bound is past 2^63.
        assert!(matches!(
            TtInstanceBuilder::new(2)
                .treatment(Subset::universe(2), u64::MAX - 1)
                .build(),
            Err(TtError::CostBoundTooLarge)
        ));
    }

    #[test]
    fn default_weights_are_uniform() {
        let inst = TtInstanceBuilder::new(4)
            .treatment(Subset::universe(4), 1)
            .build()
            .unwrap();
        assert_eq!(inst.weights(), &[1, 1, 1, 1]);
        assert_eq!(inst.total_weight(), 4);
    }
}
