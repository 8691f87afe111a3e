//! `select::probe_reachable` keeps its visited set in one bit per
//! lattice subset and walks the closure top-down, one `#S = j` level at
//! a time (`memo`'s marking walk). These tests pin it to the
//! depth-first hash-set closure walk it replaced: the same count, and
//! the same `None` once the closure passes the cap, on every catalog
//! domain up to k = 12 and, at the cap `auto_select` uses, at the sizes
//! the solve-large workloads run (k = 15, 16, 18, 20). `auto`'s own
//! walk adds an early dense exit; it must reach the capped probe's
//! verdict. The lint's unreachable-subset finding is computed from the
//! same probe, so it is pinned to the `Vec<bool>` closure the lint used
//! to run on its own.

use std::collections::HashSet;
use tt_core::instance::{ActionKind, TtInstance};
use tt_core::lint::{self, LintCode};
use tt_core::solver::select::{auto_select, probe_reachable, PROBE_CAP, SPARSE_DIVISOR};
use tt_core::subset::Subset;
use tt_workloads::catalog::Domain;

/// The reference: a depth-first walk over a `HashSet<u32>`. The walk
/// order cannot change the result: the closure is counted whole or
/// found to exceed the cap.
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

#[test]
fn the_probe_matches_the_hash_set_reference_at_the_auto_cap_on_large_k() {
    // Seed 7, the one the pinned `auto` picks use: the depth-first
    // reference takes seconds per dense k = 20 closure in an unoptimized
    // build.
    let seed = 7;
    let mut cutoffs = 0;
    for domain in Domain::all() {
        for k in [15, 16, 18, 20] {
            let inst = domain.generate(k, seed);
            let cap = ((1usize << k) / SPARSE_DIVISOR).clamp(1, PROBE_CAP);
            let want = probe_with_hash_set(&inst, cap);
            cutoffs += usize::from(want.is_none());
            assert_eq!(
                probe_reachable(&inst, cap),
                want,
                "{} k={k} seed={seed}",
                domain.name()
            );
        }
    }
    assert!(cutoffs > 0, "some dense closure must pass the cap");
}

/// `auto`'s selection walk stops as dense at the first half-marked
/// level of at least `DENSE_LEVEL_CELLS` cells in the upper half of the
/// lattice. That must not change a verdict: `auto` picks `memo` exactly
/// when the probe at the auto cap counts the whole closure (below k = 4
/// `auto` never picks `memo`, and every k here is above it).
#[test]
fn the_dense_exit_reaches_the_capped_probe_verdict_on_the_catalog() {
    let (mut sparse, mut dense) = (0, 0);
    for domain in Domain::all() {
        for k in 13..=20 {
            for seed in 0..10 {
                let inst = domain.generate(k, seed);
                let cap = ((1usize << k) / SPARSE_DIVISOR).clamp(1, PROBE_CAP);
                let probed_sparse = probe_reachable(&inst, cap).is_some();
                let pick = auto_select(&inst);
                assert_eq!(
                    pick.engine == "memo",
                    probed_sparse,
                    "{} k={k} seed={seed}: {}",
                    domain.name(),
                    pick.reason
                );
                *if probed_sparse {
                    &mut sparse
                } else {
                    &mut dense
                } += 1;
            }
        }
    }
    assert!(sparse > 0 && dense > 0, "{sparse} sparse, {dense} dense");
}

/// The lint's former closure: every action applied at every live set,
/// useless or not (a useless action only leads back to `S` itself).
fn unreachable_with_vec_bool(inst: &TtInstance) -> usize {
    let size = 1usize << inst.k();
    let mut reachable = vec![false; size];
    let universe = inst.universe().0 as usize;
    reachable[universe] = true;
    let mut stack = vec![universe];
    while let Some(s) = stack.pop() {
        let sub = Subset(s as u32);
        for a in inst.actions() {
            let succs = match a.kind {
                ActionKind::Test => [sub.intersect(a.set), sub.difference(a.set)],
                ActionKind::Treatment => [sub.difference(a.set), sub.difference(a.set)],
            };
            for nxt in succs {
                let idx = nxt.0 as usize;
                if !nxt.is_empty() && !reachable[idx] {
                    reachable[idx] = true;
                    stack.push(idx);
                }
            }
        }
    }
    (1..size).filter(|&s| !reachable[s]).count()
}

/// The count the lint reports in its `UnreachableSubsets` finding (0
/// when it reports none).
fn lint_unreachable(inst: &TtInstance) -> usize {
    lint::lint(inst)
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::UnreachableSubsets)
        .map_or(0, |d| {
            d.message
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .expect("the finding leads with its count")
        })
}

#[test]
fn lint_unreachable_count_matches_the_vec_bool_closure_on_the_catalog() {
    let mut nonzero = 0;
    for domain in Domain::all() {
        for k in 2..=12 {
            for seed in 0..3 {
                let inst = domain.generate(k, seed);
                let want = unreachable_with_vec_bool(&inst);
                nonzero += usize::from(want > 0);
                assert_eq!(
                    lint_unreachable(&inst),
                    want,
                    "{} k={k} seed={seed}",
                    domain.name()
                );
            }
        }
    }
    assert!(nonzero > 0, "some catalog instance has unreachable subsets");
}
