//! Canonical forms are pinned: `canonicalize(inst).form.key` and
//! `.form.text` must equal `tests/golden/canonical-forms.txt` for every
//! catalog domain at k ∈ {6, 10, 15}, plus one relabelled, rescaled and
//! duplicate-padded variant of each. Cache keys that drift orphan every
//! on-disk cache segment written before the drift, so any change to the
//! canonicalizer must keep these bytes. Every variant must also share
//! its base's key: the variant is the same problem, so it must hit the
//! base's cache entry.
//!
//! Also pinned: on a warm cache the instance-level `lookup_report` and
//! the canonical-level `lookup_canonical` give the same answer.

use std::fmt::Write as _;
use tt_cache::{canonicalize, SolutionCache};
use tt_core::instance::{Action, TtInstance, TtInstanceBuilder};
use tt_core::solver::engine;
use tt_core::subset::Subset;
use tt_workloads::catalog::Domain;

const GOLDEN: &str = "tests/golden/canonical-forms.txt";
const SIZES: [usize; 3] = [6, 10, 15];
const SEED: u64 = 3;

/// The instance with object labels reversed, every weight tripled, a
/// dearer duplicate of its first action appended and the action list
/// rotated by one.
fn variant(inst: &TtInstance) -> TtInstance {
    let k = inst.k();
    let flip = |s: Subset| Subset::from_iter(s.iter().map(|j| k - 1 - j));
    let weights: Vec<u64> = (0..k).map(|j| inst.weight(k - 1 - j) * 3).collect();
    let mut actions: Vec<Action> = inst.actions().to_vec();
    let first = actions[0];
    actions.push(Action {
        cost: first.cost + 1,
        ..first
    });
    actions.rotate_left(1);
    let mut b = TtInstanceBuilder::new(k).weights(weights);
    for a in actions {
        b = b.action(Action {
            set: flip(a.set),
            ..a
        });
    }
    b.build().expect("the variant of a valid instance is valid")
}

/// Every (label, instance) the golden file covers, in file order.
fn cases() -> Vec<(String, TtInstance)> {
    let mut out = Vec::new();
    for domain in Domain::all() {
        for k in SIZES {
            let inst = domain.generate(k, SEED);
            let label = format!("{} k={k} seed={SEED}", domain.name());
            let var = variant(&inst);
            out.push((format!("{label} base"), inst));
            out.push((format!("{label} variant"), var));
        }
    }
    out
}

/// The golden rendering: per case, a `== <label> key=<key>` header line
/// followed by the canonical text verbatim.
fn render() -> String {
    let mut s = String::new();
    for (label, inst) in cases() {
        let c = canonicalize(&inst);
        writeln!(s, "== {label} key={}", c.form.key).unwrap();
        s.push_str(&c.form.text);
    }
    s
}

#[test]
fn canonical_keys_and_texts_match_the_goldens() {
    let got = render();
    let want = std::fs::read_to_string(GOLDEN).unwrap();
    let split = |s: &str| -> Vec<String> {
        s.split("== ")
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .collect()
    };
    let (got, want) = (split(&got), split(&want));
    assert_eq!(got.len(), want.len(), "case count");
    assert_eq!(got.len(), Domain::all().len() * SIZES.len() * 2);
    for (g, w) in got.iter().zip(&want) {
        let label = w.lines().next().unwrap_or_default();
        assert_eq!(g, w, "canonical form drifted: {label}");
    }
}

#[test]
fn every_variant_shares_its_base_key() {
    let cases = cases();
    for pair in cases.chunks(2) {
        let [(base_label, base), (variant_label, variant)] = pair else {
            unreachable!("cases come in base/variant pairs");
        };
        assert_eq!(
            canonicalize(base).form.key,
            canonicalize(variant).form.key,
            "{base_label} and {variant_label}"
        );
    }
}

#[test]
fn lookup_report_equals_lookup_canonical_on_a_warm_cache() {
    let mut cache = SolutionCache::in_memory(64);
    let seq = engine::lookup("seq").unwrap();
    for domain in Domain::all() {
        for k in [6, 10] {
            let inst = domain.generate(k, SEED);
            for probe in [inst.clone(), variant(&inst)] {
                if cache.lookup_report(&probe).is_none() {
                    cache.insert_report(&probe, &seq.solve(&probe));
                }
                let by_instance = cache.lookup_report(&probe).expect("warm");
                let by_canonical = cache.lookup_canonical(&canonicalize(&probe)).expect("warm");
                let label = format!("{} k={k}", domain.name());
                assert_eq!(by_instance.cost, by_canonical.cost, "{label}");
                assert_eq!(by_instance.tree, by_canonical.tree, "{label}");
                assert_eq!(by_instance.outcome, by_canonical.outcome, "{label}");
                assert_eq!(by_instance.work, by_canonical.work, "{label}");
            }
        }
    }
}
