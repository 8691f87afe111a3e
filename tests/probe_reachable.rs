//! `select::probe_reachable` keeps its visited set in one bit per
//! lattice subset. These tests pin it to the hash-set closure walk it
//! replaced: the same count, and the same `None` once the closure passes
//! the cap, on every catalog domain up to k = 12.

use std::collections::HashSet;
use tt_core::instance::TtInstance;
use tt_core::solver::select::probe_reachable;
use tt_core::subset::Subset;
use tt_workloads::catalog::Domain;

/// The reference: the same depth-first walk over a `HashSet<u32>`.
fn probe_with_hash_set(inst: &TtInstance, cap: usize) -> Option<usize> {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut stack = vec![inst.universe()];
    seen.insert(inst.universe().0);
    while let Some(s) = stack.pop() {
        for i in 0..inst.n_actions() {
            let a = inst.action(i);
            let inter = s.intersect(a.set);
            let diff = s.difference(a.set);
            if inter.is_empty() {
                continue;
            }
            let children: Vec<Subset> = if a.is_test() {
                if diff.is_empty() {
                    continue;
                }
                vec![inter, diff]
            } else {
                vec![diff]
            };
            for c in children {
                if !c.is_empty() && seen.insert(c.0) {
                    if seen.len() > cap {
                        return None;
                    }
                    stack.push(c);
                }
            }
        }
    }
    Some(seen.len())
}

#[test]
fn bit_set_probe_matches_the_hash_set_reference_on_the_catalog() {
    let mut cutoffs = 0;
    for domain in Domain::all() {
        for k in 2..=12 {
            for seed in 0..3 {
                let inst = domain.generate(k, seed);
                let full = probe_with_hash_set(&inst, usize::MAX).expect("no cap");
                assert_eq!(
                    probe_reachable(&inst, usize::MAX),
                    Some(full),
                    "{} k={k} seed={seed}",
                    domain.name()
                );
                // Caps below, at and above the closure size, plus the
                // one auto_select uses.
                for cap in [
                    1,
                    full / 2,
                    full.saturating_sub(1),
                    full,
                    full + 1,
                    (1 << k) / 8,
                ] {
                    let want = probe_with_hash_set(&inst, cap);
                    cutoffs += usize::from(want.is_none());
                    assert_eq!(
                        probe_reachable(&inst, cap),
                        want,
                        "{} k={k} seed={seed} cap={cap}",
                        domain.name()
                    );
                }
            }
        }
    }
    assert!(cutoffs > 0, "some cap must cut the walk off");
}
