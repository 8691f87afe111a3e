//! Instance canonicalization: the cross-solve equivalence map.
//!
//! Two instances that differ only by an object relabeling, a uniform
//! positive weight rescale, or dominated/duplicate actions have the
//! same optimal cost structure — solving one solves the other. The
//! canonicalizer maps every instance onto one representative of its
//! equivalence class:
//!
//! 1. **Dominance reduction** through [`tt_core::preprocess::reduce`]:
//!    duplicate-set and complement-equivalent actions collapse to their
//!    cheapest member.
//! 2. **Object relabeling** to sorted weight order (heaviest first),
//!    ties broken by a colour that depends on structure only. Colour
//!    refinement starts from the gcd-normalized weight and, round by
//!    round, hashes into each object's colour what every action that
//!    touches it sees: its kind, its cost, and the colour multisets of
//!    the object's side and of the other side (a test touches both
//!    sides, a treatment its members only). When the classes stop
//!    splitting, the lowest-indexed member of the first tied class is
//!    individualized and refinement runs again, until no class is tied.
//! 3. **Weight normalization** by the gcd of all weights — only weight
//!    *ratios* steer the DP, and expected costs scale linearly, so the
//!    gcd is recorded as the [`CanonMap::scale`] to multiply back.
//! 4. **Action normalization**: sets are relabeled, tests are folded to
//!    their lexicographically smaller polarity (a test on `T` and on
//!    `U − T` are the same information; the fold is recorded so cached
//!    tree branches swap back), useless whole-universe tests are
//!    dropped, and actions sort by `(kind, set, cost)`.
//!
//! The [`CanonMap`] carries everything needed to translate a solution
//! of the canonical instance back to the original: the object
//! permutation, the weight scale, the canonical→original action index
//! map, and the per-test polarity flips.
//!
//! Symmetric instances: objects that an automorphism of the instance
//! swaps (the `faults` domain's interchangeable sibling fault clusters,
//! say) stay tied under refinement, and whichever one is individualized,
//! the canonical form is the same, so every relabeling of such an
//! instance hits. Two tied objects that no automorphism swaps, or a
//! colour hash collision, can still canonicalize differently under
//! relabeling. That costs a cache hit, never an incorrect one.
//!
//! The cache key is a 64-bit FNV-1a hash of the canonical text, and
//! FNV is not collision-resistant: two different canonical forms can
//! share a key. The store therefore keeps each entry's canonical
//! instance and compares it with the request's on every hit, insert
//! and segment replay (see [`crate::store`]).
//!
//! Cost: a reduction pass, sorting, and refinement rounds of
//! `O(Σ|T| + k log k)` each, with at most `k` individualizations — no
//! `2^k` lattice work — so canonicalizing a k = 16 instance takes tens
//! of microseconds.

use tt_core::cost::Cost;
use tt_core::instance::{Action, ActionKind, TtInstance, TtInstanceBuilder};
use tt_core::io;
use tt_core::preprocess;
use tt_core::subset::Subset;
use tt_core::tree::TtTree;

/// The canonical representative of an instance's equivalence class.
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// The canonical instance (reduced, relabeled, normalized).
    pub instance: TtInstance,
    /// Its exact `tt_core::io` text rendering — the content that is
    /// hashed, and what a disk-backed cache persists.
    pub text: String,
    /// FNV-1a of `text`, 16 lowercase hex digits: the cache key.
    pub key: String,
}

/// The translation from canonical coordinates back to the original
/// instance's numbering.
#[derive(Clone, Debug)]
pub struct CanonMap {
    /// `object_of[c]` = original object index of canonical object `c`.
    pub object_of: Vec<usize>,
    /// Original weights = canonical weights × `scale`; canonical-scale
    /// expected costs multiply by `scale` on the way back.
    pub scale: u64,
    /// `action_of[c]` = original action index of canonical action `c`.
    pub action_of: Vec<usize>,
    /// `flipped[c]`: canonical test `c` stores the complement polarity
    /// of the original test, so its positive/negative branches swap
    /// when a cached tree is translated back.
    pub flipped: Vec<bool>,
}

/// A canonicalized instance: the form (what is cached) plus the map
/// (how to translate answers back).
#[derive(Clone, Debug)]
pub struct Canonical {
    /// The canonical representative.
    pub form: CanonicalForm,
    /// The way back to the original numbering.
    pub map: CanonMap,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Canonicalizes an instance.
#[must_use]
pub fn canonicalize(inst: &TtInstance) -> Canonical {
    let red = preprocess::reduce(inst);
    let r = &red.instance;
    let k = r.k();

    // Weight normalization: divide by the gcd, remember the scale.
    let scale = r.weights().iter().copied().fold(0, gcd).max(1);
    let order = object_order(r, scale);
    let mut new_label = vec![0usize; k];
    for (new, &old) in order.iter().enumerate() {
        new_label[old] = new;
    }
    let remap = |s: Subset| -> Subset {
        let mut out = Subset::EMPTY;
        for j in s.iter() {
            out = out.with(new_label[j]);
        }
        out
    };

    let weights: Vec<u64> = order.iter().map(|&j| r.weight(j) / scale).collect();

    // Action normalization. A useless whole-universe test is dropped
    // (it is `INF` at every live set, so no optimal tree references
    // it) unless it is the only action left — the builder requires at
    // least one.
    struct CanonAction {
        kind: ActionKind,
        set: Subset,
        cost: u64,
        orig: usize,
        flipped: bool,
    }
    let mut acts: Vec<CanonAction> = Vec::with_capacity(r.n_actions());
    for (i, a) in r.actions().iter().enumerate() {
        let orig = red.original_index[i];
        let set = remap(a.set);
        match a.kind {
            ActionKind::Test => {
                let comp = set.complement(k);
                if comp.is_empty() {
                    continue; // trivial partition: never informative
                }
                let (set, flipped) = if comp.0 < set.0 {
                    (comp, true)
                } else {
                    (set, false)
                };
                acts.push(CanonAction {
                    kind: ActionKind::Test,
                    set,
                    cost: a.cost,
                    orig,
                    flipped,
                });
            }
            ActionKind::Treatment => acts.push(CanonAction {
                kind: ActionKind::Treatment,
                set,
                cost: a.cost,
                orig,
                flipped: false,
            }),
        }
    }
    if acts.is_empty() {
        // Only whole-universe tests existed; keep them so the
        // canonical instance stays a valid (if inadequate) instance.
        for (i, a) in r.actions().iter().enumerate() {
            acts.push(CanonAction {
                kind: a.kind,
                set: remap(a.set),
                cost: a.cost,
                orig: red.original_index[i],
                flipped: false,
            });
        }
    }
    // Canonical action order: tests before treatments, then by set,
    // then cost. The builder's stable tests-first reorder preserves
    // this total order, so canonical index c is exactly acts[c].
    acts.sort_by_key(|a| {
        (
            u8::from(!matches!(a.kind, ActionKind::Test)),
            a.set.0,
            a.cost,
        )
    });

    let mut b = TtInstanceBuilder::new(k).weights(weights.iter().copied());
    for a in &acts {
        b = b.action(Action {
            set: a.set,
            cost: a.cost,
            kind: a.kind,
        });
    }
    let instance = b
        .build()
        .expect("canonicalization of a valid instance stays valid");
    let text = io::to_text(&instance);
    let key = crate::fnv1a_hex(text.as_bytes());
    Canonical {
        form: CanonicalForm {
            instance,
            text,
            key,
        },
        map: CanonMap {
            object_of: order,
            scale,
            action_of: acts.iter().map(|a| a.orig).collect(),
            flipped: acts.iter().map(|a| a.flipped).collect(),
        },
    }
}

/// splitmix64's finalizer: every input bit reaches every output bit, so
/// wrapping sums of mixed values serve as multiset hashes.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a sequence of words, order-sensitively.
fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0, |h, &w| mix(h ^ w))
}

/// The canonical object order: heaviest first, then by a colour that
/// depends only on the instance's structure, never on its labels.
///
/// Colours start from the gcd-normalized weight and are refined (see
/// [`refine`]) until the number of colour classes stops growing. While
/// a class is still tied, its lowest-indexed member is individualized
/// (given a colour of its own) and refinement runs again. Tied objects
/// that an automorphism of the instance swaps give the same canonical
/// form whichever one is picked; any other tie, like a colour hash
/// collision, can only cost a cache hit.
fn object_order(r: &TtInstance, scale: u64) -> Vec<usize> {
    const INDIVIDUALIZED: u64 = 0x6a09_e667_f3bc_c909;
    let k = r.k();
    let mut colour: Vec<u64> = r.weights().iter().map(|&w| mix(w / scale)).collect();
    let mut order: Vec<usize> = (0..k).collect();
    let mut classes = refine(r, &mut colour);
    // Each pass splits off at least one object, so k passes suffice.
    for _ in 0..k {
        order.sort_unstable_by(|&a, &b| {
            r.weight(b)
                .cmp(&r.weight(a))
                .then(colour[a].cmp(&colour[b]))
                .then(a.cmp(&b))
        });
        if classes == k {
            break;
        }
        let Some(tied) = order
            .windows(2)
            .find(|w| colour[w[0]] == colour[w[1]])
            .map(|w| w[0])
        else {
            break;
        };
        colour[tied] = mix(colour[tied] ^ INDIVIDUALIZED);
        classes = refine(r, &mut colour);
    }
    order
}

/// Colour refinement to a stable partition; returns the class count.
///
/// Each round, every action adds to each object it touches a hash of
/// its kind, its cost, the colour multiset of the object's side and
/// that of the other side. A test touches both sides, so its polarity
/// does not matter; a treatment touches its members only. Each object's
/// new colour hashes its old colour with that sum, so classes only ever
/// split. Rounds repeat until the number of classes stops growing.
fn refine(r: &TtInstance, colour: &mut [u64]) -> usize {
    let mut classes = count_classes(colour);
    let mut mixed = vec![0u64; colour.len()];
    let mut sum = vec![0u64; colour.len()];
    loop {
        for (m, &c) in mixed.iter_mut().zip(colour.iter()) {
            *m = mix(c);
        }
        let total = mixed.iter().fold(0u64, |s, &m| s.wrapping_add(m));
        sum.fill(0);
        // What every object receives: the tests' other-side hashes,
        // taken back off each test's own members below.
        let mut everyone = 0u64;
        for a in r.actions() {
            let inside = a.set.iter().fold(0u64, |s, j| s.wrapping_add(mixed[j]));
            let outside = total.wrapping_sub(inside);
            let kind = u64::from(a.is_test());
            let on_members = hash_words(&[kind, a.cost, inside, outside]);
            let on_others = if a.is_test() {
                hash_words(&[kind, a.cost, outside, inside])
            } else {
                0
            };
            everyone = everyone.wrapping_add(on_others);
            let delta = on_members.wrapping_sub(on_others);
            for j in a.set.iter() {
                sum[j] = sum[j].wrapping_add(delta);
            }
        }
        for (c, &s) in colour.iter_mut().zip(&sum) {
            *c = hash_words(&[*c, s.wrapping_add(everyone)]);
        }
        let now = count_classes(colour);
        if now <= classes {
            return now;
        }
        classes = now;
    }
}

/// The number of distinct colours.
fn count_classes(colour: &[u64]) -> usize {
    let mut sorted = colour.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

impl CanonMap {
    /// Translates a tree over the canonical instance back to original
    /// action indices, swapping the branches of polarity-flipped tests.
    #[must_use]
    pub fn decanonicalize_tree(&self, tree: &TtTree) -> TtTree {
        match tree {
            TtTree::Test {
                action,
                positive,
                negative,
            } => {
                let (pos, neg) = if self.flipped[*action] {
                    (negative, positive)
                } else {
                    (positive, negative)
                };
                TtTree::test(
                    self.action_of[*action],
                    self.decanonicalize_tree(pos),
                    self.decanonicalize_tree(neg),
                )
            }
            TtTree::Treatment { action, failure } => TtTree::Treatment {
                action: self.action_of[*action],
                failure: failure
                    .as_ref()
                    .map(|f| Box::new(self.decanonicalize_tree(f))),
            },
        }
    }

    /// Translates a canonical-scale expected cost back to the original
    /// weight scale.
    #[must_use]
    pub fn decanonicalize_cost(&self, c: Cost) -> Cost {
        c.saturating_mul_weight(self.scale)
    }

    /// The inverse of [`decanonicalize_tree`](CanonMap::decanonicalize_tree):
    /// translates a tree over the *original* instance into canonical
    /// action indices, swapping polarity-flipped test branches. Returns
    /// `None` when the tree uses an action the dominance reduction
    /// removed (such a tree is valid but has an equally-good surviving
    /// twin; the caller simply skips caching it).
    #[must_use]
    pub fn canonicalize_tree(&self, tree: &TtTree) -> Option<TtTree> {
        let mut canon_of =
            vec![usize::MAX; self.action_of.iter().map(|&i| i + 1).max().unwrap_or(0)];
        for (c, &orig) in self.action_of.iter().enumerate() {
            canon_of[orig] = c;
        }
        self.canonicalize_tree_via(tree, &canon_of)
    }

    fn canonicalize_tree_via(&self, tree: &TtTree, canon_of: &[usize]) -> Option<TtTree> {
        let lookup = |orig: usize| -> Option<usize> {
            canon_of.get(orig).copied().filter(|&c| c != usize::MAX)
        };
        match tree {
            TtTree::Test {
                action,
                positive,
                negative,
            } => {
                let c = lookup(*action)?;
                let (pos, neg) = if self.flipped[c] {
                    (negative, positive)
                } else {
                    (positive, negative)
                };
                Some(TtTree::test(
                    c,
                    self.canonicalize_tree_via(pos, canon_of)?,
                    self.canonicalize_tree_via(neg, canon_of)?,
                ))
            }
            TtTree::Treatment { action, failure } => {
                let c = lookup(*action)?;
                let failure = match failure {
                    Some(f) => Some(Box::new(self.canonicalize_tree_via(f, canon_of)?)),
                    None => None,
                };
                Some(TtTree::Treatment { action: c, failure })
            }
        }
    }
}

/// Rescales a cost by the exact rational `mul / div`, or `None` when
/// the division does not come out exact (the answer is then not cached
/// rather than approximated). `INF` is preserved.
#[must_use]
pub fn rescale_cost(c: Cost, mul: u64, div: u64) -> Option<Cost> {
    if c.is_inf() {
        return Some(Cost::INF);
    }
    let wide = u128::from(c.0) * u128::from(mul);
    if div == 0 || wide % u128::from(div) != 0 {
        return None;
    }
    let v = wide / u128::from(div);
    u64::try_from(v).ok().filter(|&v| v != u64::MAX).map(Cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::solver::sequential;

    fn base() -> TtInstance {
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

    /// Applies an object permutation (`perm[old] = new`) to an instance.
    fn permuted(inst: &TtInstance, perm: &[usize]) -> TtInstance {
        let k = inst.k();
        let mut w = vec![0u64; k];
        for j in 0..k {
            w[perm[j]] = inst.weight(j);
        }
        let mut b = TtInstanceBuilder::new(k).weights(w);
        for a in inst.actions() {
            let mut set = Subset::EMPTY;
            for j in a.set.iter() {
                set = set.with(perm[j]);
            }
            b = b.action(Action {
                set,
                cost: a.cost,
                kind: a.kind,
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn permutation_and_rescale_reach_the_same_form() {
        let inst = base();
        let c1 = canonicalize(&inst);
        let c2 = canonicalize(&permuted(&inst, &[2, 0, 3, 1]));
        assert_eq!(c1.form.text, c2.form.text);
        assert_eq!(c1.form.key, c2.form.key);
        // Uniform weight rescale: same form, different scale.
        let mut b = TtInstanceBuilder::new(4).weights([12, 9, 6, 3]);
        for a in inst.actions() {
            b = b.action(*a);
        }
        let c3 = canonicalize(&b.build().unwrap());
        assert_eq!(c1.form.key, c3.form.key);
        assert_eq!(c3.map.scale, 3 * c1.map.scale);
    }

    #[test]
    fn decanonicalized_tree_prices_identically() {
        let inst = permuted(&base(), &[3, 1, 0, 2]);
        let cold = sequential::solve(&inst);
        let canonical = canonicalize(&inst);
        let canon_sol = sequential::solve(&canonical.form.instance);
        assert_eq!(canonical.map.decanonicalize_cost(canon_sol.cost), cold.cost);
        let tree = canonical
            .map
            .decanonicalize_tree(&canon_sol.tree.expect("adequate"));
        tree.validate(&inst).unwrap();
        assert_eq!(tree.expected_cost(&inst), cold.cost);
    }

    #[test]
    fn duplicates_collapse_and_test_polarity_folds() {
        let k = 3;
        let mut b = TtInstanceBuilder::new(k).weights([5, 3, 1]);
        b = b
            .test(Subset::from_iter([1, 2]), 4) // complement polarity
            .test(Subset::from_iter([0]), 4) // same class, same cost
            .treatment(Subset::universe(k), 2)
            .treatment(Subset::universe(k), 6); // dominated duplicate
        let c = canonicalize(&b.build().unwrap());
        assert_eq!(c.form.instance.n_actions(), 2);
        let folded = c.form.instance.tests()[0].set;
        assert!(
            folded.0 < folded.complement(k).0,
            "canonical test polarity is the smaller mask"
        );
        // Flipped trees swap branches and still validate.
        let canon_sol = sequential::solve(&c.form.instance);
        let inst2 = TtInstanceBuilder::new(k)
            .weights([5, 3, 1])
            .test(Subset::from_iter([1, 2]), 4)
            .test(Subset::from_iter([0]), 4)
            .treatment(Subset::universe(k), 2)
            .treatment(Subset::universe(k), 6)
            .build()
            .unwrap();
        if let Some(t) = canon_sol.tree {
            let back = c.map.decanonicalize_tree(&t);
            back.validate(&inst2).unwrap();
            assert_eq!(
                back.expected_cost(&inst2),
                c.map.decanonicalize_cost(canon_sol.cost)
            );
        }
    }

    #[test]
    fn useless_universe_test_is_dropped_but_not_the_last_action() {
        let inst = TtInstanceBuilder::new(2)
            .weights([1, 1])
            .test(Subset::universe(2), 1)
            .treatment(Subset::universe(2), 5)
            .build()
            .unwrap();
        let c = canonicalize(&inst);
        assert_eq!(c.form.instance.n_tests(), 0);
        assert_eq!(c.form.instance.n_treatments(), 1);
        // An instance of only universe tests keeps them (builder needs
        // at least one action); it is inadequate either way.
        let only = TtInstanceBuilder::new(2)
            .weights([1, 1])
            .test(Subset::universe(2), 1)
            .build()
            .unwrap();
        assert_eq!(canonicalize(&only).form.instance.n_actions(), 1);
    }

    #[test]
    fn rescale_cost_is_exact_or_rejected() {
        assert_eq!(rescale_cost(Cost::new(12), 1, 3), Some(Cost::new(4)));
        assert_eq!(rescale_cost(Cost::new(12), 5, 3), Some(Cost::new(20)));
        assert_eq!(rescale_cost(Cost::new(7), 1, 3), None);
        assert_eq!(rescale_cost(Cost::INF, 9, 2), Some(Cost::INF));
    }
}
