//! Property tests for `tt_cache` canonicalization: solving an instance
//! and then presenting any relabelled, rescaled, duplicate-padded
//! variant of it must hit the cache, and the de-canonicalized answer
//! must be exactly the optimum the engines compute directly on the
//! variant.
//!
//! The random instances keep weights pairwise distinct, so the property
//! holds for them whatever the tie-break. The catalog property covers
//! ties: the `faults` domain's sibling fault clusters tie on weight and
//! structure, and colour refinement must still canonicalize every
//! relabelling of them alike.

use proptest::prelude::*;
use tt_cache::{canonicalize, SolutionCache};
use tt_core::instance::{ActionKind, TtInstance, TtInstanceBuilder};
use tt_core::solver::budget::Budget;
use tt_core::solver::engine;
use tt_core::subset::Subset;
use tt_workloads::catalog::Domain;

/// Pairwise-distinct weights from raw entropy: `(raw % 50) * 6` spreads
/// values at least 6 apart whenever the raw values differ, and the
/// `+ i` offset separates positions even when they collide — so any two
/// indices get distinct weights.
fn distinct_weights(raw: &[u64], k: usize) -> Vec<u64> {
    (0..k).map(|i| (raw[i] % 50) * 6 + i as u64 + 1).collect()
}

/// Builds an instance from `k` distinct weights plus a list of
/// (mask-seed, cost, is-test) actions. Masks are taken modulo the
/// universe; a universe treatment is always appended so the instance is
/// adequate and has a finite optimum.
fn build(weights: &[u64], actions: &[(u32, u64, bool)]) -> TtInstance {
    let k = weights.len();
    let universe = Subset::universe(k);
    let mut b = TtInstanceBuilder::new(k).weights(weights.iter().copied());
    for &(mask, cost, is_test) in actions {
        let set = Subset(mask & universe.0);
        if set == Subset::EMPTY || (is_test && set == universe) {
            continue; // trivial action; the canonicalizer drops these anyway
        }
        if is_test {
            b = b.test(set, cost);
        } else {
            b = b.treatment(set, cost);
        }
    }
    b.treatment(universe, 25)
        .build()
        .expect("generated instance is well-formed")
}

/// The same instance with object labels permuted (`new = perm[old]`),
/// every weight multiplied by `scale`, `dups` extra copies of existing
/// actions appended, and the action list rotated.
fn transform(
    inst: &TtInstance,
    perm: &[usize],
    scale: u64,
    dups: &[usize],
    rot: usize,
) -> TtInstance {
    let k = inst.k();
    let remap = |s: Subset| Subset::from_iter(s.iter().map(|i| perm[i]));
    let mut weights = vec![0u64; k];
    for i in 0..k {
        weights[perm[i]] = inst.weight(i) * scale;
    }
    let mut actions: Vec<_> = inst.actions().to_vec();
    for &d in dups {
        actions.push(actions[d % actions.len()]);
    }
    let n = actions.len();
    actions.rotate_left(rot % n);
    let mut b = TtInstanceBuilder::new(k).weights(weights);
    for a in actions {
        match a.kind {
            ActionKind::Test => b = b.test(remap(a.set), a.cost),
            ActionKind::Treatment => b = b.treatment(remap(a.set), a.cost),
        }
    }
    b.build().expect("transformed instance is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is invariant under object relabelling, uniform
    /// weight rescaling, duplicate actions, and action order: the
    /// canonical text — and therefore the content-hash cache key — is
    /// identical, so the variant is an exact cache hit.
    #[test]
    fn canonical_form_is_invariant(
        k in 3usize..=6,
        raw in proptest::collection::vec(any::<u64>(), 6),
        actions in proptest::collection::vec((1u32..64, 1u64..=20, any::<bool>()), 1usize..=7),
        perm_seed in any::<u64>(),
        scale in 1u64..=5,
        dups in proptest::collection::vec(0usize..16, 0usize..=3),
        rot in 0usize..8,
    ) {
        let inst = build(&distinct_weights(&raw, k), &actions);
        let k = inst.k();
        // A seeded Fisher–Yates permutation of 0..k.
        let mut perm: Vec<usize> = (0..k).collect();
        let mut state = perm_seed | 1;
        for i in (1..k).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let variant = transform(&inst, &perm, scale, &dups, rot);

        let a = canonicalize(&inst);
        let b = canonicalize(&variant);
        prop_assert_eq!(&a.form.text, &b.form.text);
        prop_assert_eq!(&a.form.key, &b.form.key);
    }

    /// Solving through the cache and then asking for a transformed
    /// variant returns a HIT whose de-canonicalized report carries the
    /// exact optimum: the same cost both `seq` and `seq-frontier`
    /// compute directly on the variant, and a tree that validates on
    /// the variant and evaluates to that cost.
    #[test]
    fn cached_answers_are_exact_after_decanonicalization(
        k in 3usize..=6,
        raw in proptest::collection::vec(any::<u64>(), 6),
        actions in proptest::collection::vec((1u32..64, 1u64..=20, any::<bool>()), 1usize..=7),
        perm_seed in any::<u64>(),
        scale in 1u64..=5,
        dups in proptest::collection::vec(0usize..16, 0usize..=3),
        rot in 0usize..8,
    ) {
        let inst = build(&distinct_weights(&raw, k), &actions);
        let k = inst.k();
        let mut perm: Vec<usize> = (0..k).collect();
        let mut state = perm_seed | 1;
        for i in (1..k).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let variant = transform(&inst, &perm, scale, &dups, rot);

        let mut cache = SolutionCache::in_memory(64);
        let canonical = canonicalize(&inst);
        prop_assert!(cache.lookup_canonical(&canonical).is_none());
        let cold = engine::lookup("seq").unwrap().solve(&inst);
        cache.insert_canonical(canonical, &cold);
        let report = cache.lookup_report(&variant);
        prop_assert!(report.is_some(), "the variant hits the base's entry");
        let report = report.unwrap();
        prop_assert!(report.outcome.is_complete());

        let seq = engine::lookup("seq").unwrap().solve(&variant);
        let frontier = engine::lookup("seq-frontier").unwrap().solve_with(
            &variant,
            &Budget::unlimited(),
        );
        prop_assert_eq!(report.cost, seq.cost);
        prop_assert_eq!(report.cost, frontier.cost);

        let tree = report.tree.expect("adequate instance: cached hit carries a tree");
        prop_assert!(tree.validate(&variant).is_ok());
        prop_assert_eq!(tree.expected_cost(&variant), report.cost);
    }

    /// A catalog instance at k = 8–16, relabelled, its actions shuffled,
    /// some tests flipped to their complement polarity and every weight
    /// rescaled, keeps the base instance's key; the cached answer,
    /// translated back, prices on the variant to the base's cold optimum
    /// times the scale.
    #[test]
    fn catalog_variants_keep_the_base_key_and_price_to_the_optimum(
        domain in 0usize..5,
        k in 8usize..=16,
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        flips in any::<u64>(),
        scale in 2u64..=9,
    ) {
        let domain = Domain::all()[domain];
        let inst = domain.generate(k, seed);
        let mut rng = shuffle_seed | 1;
        let mut next = |n: usize| {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (rng >> 33) as usize % n
        };
        let mut perm: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            perm.swap(i, next(i + 1));
        }
        let mut actions = inst.actions().to_vec();
        for i in (1..actions.len()).rev() {
            actions.swap(i, next(i + 1));
        }
        let mut weights = vec![0u64; k];
        for j in 0..k {
            weights[perm[j]] = inst.weight(j) * scale;
        }
        let mut b = TtInstanceBuilder::new(k).weights(weights);
        for (i, a) in actions.iter().enumerate() {
            let set = Subset::from_iter(a.set.iter().map(|j| perm[j]));
            b = match a.kind {
                ActionKind::Test if flips >> (i % 64) & 1 == 1 && set != Subset::universe(k) => {
                    b.test(set.complement(k), a.cost)
                }
                ActionKind::Test => b.test(set, a.cost),
                ActionKind::Treatment => b.treatment(set, a.cost),
            };
        }
        let variant = b.build().expect("a relabelled valid instance stays valid");

        let label = format!("{} k={k} seed={seed}", domain.name());
        prop_assert_eq!(
            &canonicalize(&inst).form.key,
            &canonicalize(&variant).form.key,
            "{}", label
        );
        let cold = engine::lookup("seq").unwrap().solve(&inst);
        let mut cache = SolutionCache::in_memory(4);
        cache.insert_report(&inst, &cold);
        let hit = cache.lookup_report(&variant).expect("the variant hits the base's entry");
        let optimum = tt_core::cost::Cost::new(cold.cost.0 * scale);
        prop_assert_eq!(hit.cost, optimum, "{}", label);
        let tree = hit.tree.expect("catalog instances are adequate");
        prop_assert!(tree.validate(&variant).is_ok(), "{}", label);
        prop_assert_eq!(tree.expected_cost(&variant), optimum, "{}", label);
    }
}
