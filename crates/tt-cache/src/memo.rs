//! Sub-lattice memo: seeding a solve from a solved superset instance.
//!
//! The DP value `C(S)` at a live set `S ⊆ O` depends only on the
//! weights of objects in `O` and on each action's *restriction* `T ∩ O`
//! — objects outside the live universe never influence a cell. So when
//! a new instance `P` embeds into an already-solved instance `Q` — an
//! injective object map under which `Q`'s weights are a fixed rational
//! multiple `num/den` of `P`'s and `Q`'s restricted action classes
//! coincide with `P`'s — every cell of `P`'s lattice is already priced
//! inside `Q`'s cost slab:
//!
//! ```text
//! C_P(S) = C_Q(embed(S)) · den / num        for every S ⊆ objects(P)
//! ```
//!
//! [`seed_table`] materializes that projection as a complete cost slab
//! for `P`, so the seeded level kernel has **zero** levels left to run
//! and takes the slab over instead of allocating one — the
//! `frontier_cells_allocated` counter of a partial-hit solve reads `0`
//! against the cold sweep's `2^k`.
//!
//! Both sides are expected in canonical form (see [`crate::canon`]):
//! reduction has removed dominated actions and objects arrive
//! weight-sorted, which keeps the backtracking in [`find_embedding`]
//! shallow for real workloads. The search is budgeted; pathological
//! weight-tie blowups return `None` (a cache miss, never a wrong hit).

use std::collections::BTreeMap;

use crate::canon::rescale_cost;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::subset::Subset;

/// An object-subset embedding of a (sub) instance into a solved (super)
/// instance.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// `map[j]` = superset object standing in for sub object `j`.
    pub map: Vec<usize>,
    /// Superset weights = sub weights × `num / den` (lowest terms), so
    /// sub costs = superset costs × `den / num`.
    pub num: u64,
    /// See [`Embedding::num`].
    pub den: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Action classes visible on the sub-lattice of `mask` (in `relabel`ed
/// coordinates): `(kind, normalized set) → min cost`. Tests fold to the
/// lexicographically smaller polarity within the sub universe — a test
/// on `T` and on `O − T` induce the same partitions; empty and trivial
/// restrictions are dropped (they are `INF` at every live set).
fn restricted_classes(
    inst: &TtInstance,
    mask: Subset,
    k_sub: usize,
    relabel: &dyn Fn(usize) -> usize,
) -> BTreeMap<(u8, u32), u64> {
    let mut classes: BTreeMap<(u8, u32), u64> = BTreeMap::new();
    for a in inst.actions() {
        let mut restricted = Subset::EMPTY;
        for j in a.set.intersect(mask).iter() {
            restricted = restricted.with(relabel(j));
        }
        if restricted.is_empty() {
            continue;
        }
        let key = if a.is_test() {
            let comp = restricted.complement(k_sub);
            if comp.is_empty() {
                continue; // certain outcome: no information
            }
            (0u8, restricted.0.min(comp.0))
        } else {
            (1u8, restricted.0)
        };
        let e = classes.entry(key).or_insert(a.cost);
        *e = (*e).min(a.cost);
    }
    classes
}

/// Backtracking node budget: embeddings on canonical (weight-sorted,
/// reduced) instances resolve in a handful of nodes; heavy weight ties
/// could blow up, so the search gives up — a miss — past this.
const NODE_BUDGET: u32 = 100_000;

/// Searches for an embedding of `sub` into `sup`. Returns `None` when
/// none exists (or the search budget runs out). `sub` must be strictly
/// smaller; both instances need all-positive weights.
#[must_use]
pub fn find_embedding(sub: &TtInstance, sup: &TtInstance) -> Option<Embedding> {
    let (ks, kp) = (sub.k(), sup.k());
    if ks >= kp || kp > 32 {
        return None;
    }
    if sub.weights().iter().chain(sup.weights()).any(|&w| w == 0) {
        return None;
    }
    let sub_classes = restricted_classes(sub, Subset::universe(ks), ks, &|j| j);

    // Fixing where sub object 0 lands fixes the weight ratio; the rest
    // is exact-match backtracking over distinct superset objects.
    let mut nodes = 0u32;
    for first in 0..kp {
        let g = gcd(sup.weight(first), sub.weight(0));
        let mut search = WeightMatch {
            sub,
            sup,
            num: sup.weight(first) / g,
            den: sub.weight(0) / g,
            map: vec![usize::MAX; ks],
            used: vec![false; kp],
            nodes: &mut nodes,
        };
        search.map[0] = first;
        search.used[first] = true;
        if search.extend(1) {
            let WeightMatch { map, num, den, .. } = search;
            // The weights line up; the embedding is real only if the
            // action structure restricted to the image matches too.
            let image = Subset::from_iter(map.iter().copied());
            let back: Vec<usize> = {
                let mut b = vec![usize::MAX; kp];
                for (j, &m) in map.iter().enumerate() {
                    b[m] = j;
                }
                b
            };
            if restricted_classes(sup, image, ks, &|j| back[j]) == sub_classes {
                return Some(Embedding { map, num, den });
            }
        }
        if nodes > NODE_BUDGET {
            return None;
        }
    }
    None
}

/// A backtracking search for an injective object map under which every
/// superset weight is exactly `num / den` times its sub weight.
struct WeightMatch<'a> {
    sub: &'a TtInstance,
    sup: &'a TtInstance,
    num: u64,
    den: u64,
    /// `map[j]` = superset object assigned to sub object `j`.
    map: Vec<usize>,
    /// `used[c]`: superset object `c` is already assigned.
    used: Vec<bool>,
    /// Nodes visited so far, shared across every starting object.
    nodes: &'a mut u32,
}

impl WeightMatch<'_> {
    /// Extends the partial assignment from sub object `j` on.
    fn extend(&mut self, j: usize) -> bool {
        if j == self.sub.k() {
            return true;
        }
        *self.nodes += 1;
        if *self.nodes > NODE_BUDGET {
            return false;
        }
        for cand in 0..self.sup.k() {
            if self.used[cand] {
                continue;
            }
            // w_sup(cand) / w_sub(j) must equal num / den, exactly.
            if u128::from(self.sup.weight(cand)) * u128::from(self.den)
                != u128::from(self.sub.weight(j)) * u128::from(self.num)
            {
                continue;
            }
            self.map[j] = cand;
            self.used[cand] = true;
            if self.extend(j + 1) {
                return true;
            }
            self.used[cand] = false;
            self.map[j] = usize::MAX;
        }
        false
    }
}

/// Projects a complete superset cost slab down through `emb` into a
/// complete slab for the `k_sub`-object sub instance. Returns `None`
/// when the superset slab does not cover the embedding or a cost does
/// not rescale exactly (then the caller falls back to a cold solve).
#[must_use]
pub fn seed_table(sup_cost: &[Cost], emb: &Embedding, k_sub: usize) -> Option<Vec<Cost>> {
    let mut cost = vec![Cost::ZERO; 1usize << k_sub];
    for s in Subset::all(k_sub).skip(1) {
        let embedded = s.iter().fold(Subset::EMPTY, |acc, j| acc.with(emb.map[j]));
        cost[s.index()] = rescale_cost(*sup_cost.get(embedded.index())?, emb.den, emb.num)?;
    }
    Some(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonicalize;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::budget::BudgetMeter;
    use tt_core::solver::checkpoint::Checkpoint;
    use tt_core::solver::kernel::{self, Serial};

    /// A 5-object instance whose objects {0,1,2} form a self-contained
    /// sub-problem (every action either stays inside or outside them).
    fn superset() -> TtInstance {
        TtInstanceBuilder::new(5)
            .weights([8, 4, 2, 6, 5])
            .test(Subset::from_iter([0, 1]), 1)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .test(Subset::from_iter([3]), 2)
            .treatment(Subset::from_iter([3, 4]), 5)
            .build()
            .unwrap()
    }

    /// The {0,1,2} sub-problem with weights uniformly halved.
    fn subset_instance() -> TtInstance {
        TtInstanceBuilder::new(3)
            .weights([4, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .build()
            .unwrap()
    }

    fn solved_table(inst: &TtInstance) -> Vec<Cost> {
        let mut wave = Checkpoint::blank(inst);
        kernel::sweep(
            inst,
            &mut BudgetMeter::unlimited(),
            &Serial,
            &mut wave,
            &mut |_| {},
        );
        assert_eq!(wave.level, inst.k());
        wave.cost
    }

    #[test]
    fn finds_the_planted_embedding() {
        let sup = canonicalize(&superset());
        let sub = canonicalize(&subset_instance());
        let emb = find_embedding(&sub.form.instance, &sup.form.instance)
            .expect("planted embedding exists");
        assert_eq!(emb.map.len(), 3);
        // Canonical weights: sup gcd is 1 → [8,6,5,4,2]; sub gcd 1 →
        // [4,2,1]. Ratio 2/1.
        assert_eq!((emb.num, emb.den), (2, 1));
    }

    #[test]
    fn rejects_structure_mismatch() {
        // Same weights as the sub-problem but a different action set:
        // weights embed, structure must veto.
        let decoy = TtInstanceBuilder::new(3)
            .weights([4, 2, 1])
            .test(Subset::from_iter([0, 2]), 1)
            .treatment(Subset::from_iter([0, 1, 2]), 9)
            .build()
            .unwrap();
        let sup = canonicalize(&superset());
        let sub = canonicalize(&decoy);
        assert!(find_embedding(&sub.form.instance, &sup.form.instance).is_none());
    }

    #[test]
    fn seeded_table_skips_every_level_and_prices_correctly() {
        let sup = canonicalize(&superset());
        let sub = canonicalize(&subset_instance());
        let sup_table = solved_table(&sup.form.instance);
        let emb = find_embedding(&sub.form.instance, &sup.form.instance).unwrap();
        let seed = seed_table(&sup_table, &emb, sub.form.instance.k()).expect("projects");

        // A solve from this seed runs zero levels and allocates nothing.
        let k = sub.form.instance.k();
        let mut wave = Checkpoint::from_slab(0, k, seed);
        let stats = kernel::sweep(
            &sub.form.instance,
            &mut BudgetMeter::unlimited(),
            &Serial,
            &mut wave,
            &mut |_| panic!("no level is left to run"),
        );
        assert_eq!(wave.level, k);
        assert_eq!(stats.cells_allocated, 0, "every DP level skipped");

        // And the projected costs agree with a cold solve, cell by cell.
        assert_eq!(wave.cost, solved_table(&sub.form.instance));
    }

    #[test]
    fn a_slab_short_of_the_embedding_is_rejected() {
        let sup = canonicalize(&superset());
        let sub = canonicalize(&subset_instance());
        let emb = find_embedding(&sub.form.instance, &sup.form.instance).unwrap();
        let short = vec![Cost::ZERO; 1 << (sup.form.instance.k() - 1)];
        assert!(seed_table(&short, &emb, sub.form.instance.k()).is_none());
    }
}
