//! Static feasibility and hygiene checks on [`TtInstance`]s.
//!
//! Like the structural preprocessing of troubleshooting solvers, these
//! checks run *before* any DP or search: an inadequate instance (an
//! object no treatment covers) is provably unsolvable, dominated or
//! duplicate actions only inflate the `Θ(N·2^k)` DP, zero-cost actions
//! admit zero-cost cycles in the procedure tree, and subsets unreachable
//! from the full universe are dead DP table entries. Findings are
//! surfaced as a structured [`LintReport`] with severity levels; only
//! infeasibility is an error (no procedure exists at all) — everything
//! else is advisory.

use crate::instance::{ActionKind, TtInstance};
use crate::preprocess;
use crate::solver::select;
use std::fmt;

/// How serious a lint finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintSeverity {
    /// Informational: harmless, but worth knowing.
    Info,
    /// Suspicious: probably a modelling mistake or wasted work.
    Warning,
    /// The instance cannot be solved at all.
    Error,
}

/// What a lint finding is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintCode {
    /// Some object is covered by no treatment: no successful procedure
    /// exists and every solver will return `INF`.
    Infeasible,
    /// An action is dominated by another of the same kind: the
    /// dominator is at least as informative (treatments: covers a
    /// superset of objects; tests: its information partition refines
    /// the dominated test's — equal up to complement, or the dominated
    /// test is trivial) at no greater cost. An optimal procedure never
    /// needs the dominated action.
    DominatedAction,
    /// A zero-cost action admits zero-cost cycles: a procedure could
    /// repeat it forever without progress or payment.
    ZeroCostCycle,
    /// A test carrying no information (its set is the whole universe or
    /// empty up to complement): it never splits a live set.
    UselessTest,
    /// An object with weight 0 contributes nothing to the expected cost.
    ZeroWeightObject,
    /// Subsets of the universe that no procedure starting from `U` can
    /// ever reach — dead entries in the `2^k` DP table.
    UnreachableSubsets,
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct LintDiagnostic {
    /// Severity level.
    pub severity: LintSeverity,
    /// The check that fired.
    pub code: LintCode,
    /// Human-readable explanation with object/action specifics.
    pub message: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            LintSeverity::Error => "error",
            LintSeverity::Warning => "warning",
            LintSeverity::Info => "info",
        };
        write!(f, "{sev}[{:?}]: {}", self.code, self.message)
    }
}

/// The linter's result.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, errors first.
    pub diagnostics: Vec<LintDiagnostic>,
}

impl LintReport {
    /// True iff no finding at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True iff an [`LintSeverity::Error`] finding exists (the instance is
    /// unsolvable).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == LintSeverity::Error)
    }

    /// Findings at exactly the given severity.
    pub fn at(&self, severity: LintSeverity) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "clean: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Largest `k` for which the reachability sweep (`O(N·2^k)`) is run.
const REACHABILITY_MAX_K: usize = 20;

/// Lints an instance: static feasibility and hygiene checks, no solving.
pub fn lint(inst: &TtInstance) -> LintReport {
    let mut out = Vec::new();
    let k = inst.k();

    // Feasibility: every object must be treatable (else no procedure
    // exists and C(U) = INF, statically).
    let untreatable = inst.untreatable();
    if !untreatable.is_empty() {
        let objs: Vec<usize> = untreatable.iter().collect();
        out.push(LintDiagnostic {
            severity: LintSeverity::Error,
            code: LintCode::Infeasible,
            message: format!(
                "no treatment covers object(s) {objs:?}: no successful procedure exists \
                 (every solver returns INF)"
            ),
        });
    }

    // Dominance: action j is dominated by i when i is at least as
    // informative — a treatment covering a superset of j's objects, or
    // a test whose binary partition refines j's (equal up to
    // complement, or j trivial) — at no greater cost. Equal-cost,
    // equally-informative pairs tie-break by index, so exactly one of
    // each duplicate pair is flagged.
    let acts = inst.actions();
    for (j, aj) in acts.iter().enumerate() {
        let dominator = (0..acts.len()).find(|&i| {
            if i == j {
                return false;
            }
            let ai = &acts[i];
            if ai.kind != aj.kind {
                return false;
            }
            let at_least_as_informative = match aj.kind {
                // i treats everything j treats (and possibly more).
                ActionKind::Treatment => ai.set.0 & aj.set.0 == aj.set.0,
                // Binary partitions: refinement is equality up to
                // complement, except the trivial (whole-universe)
                // partition, which every test refines.
                ActionKind::Test => {
                    let j_trivial = aj.set.is_empty() || aj.set.complement(k).is_empty();
                    j_trivial || ai.set == aj.set || ai.set == aj.set.complement(k)
                }
            };
            at_least_as_informative && (ai.cost < aj.cost || (ai.cost == aj.cost && i < j))
        });
        if let Some(i) = dominator {
            let same_class =
                acts[i].set == aj.set || (aj.is_test() && acts[i].set == aj.set.complement(k));
            out.push(LintDiagnostic {
                severity: LintSeverity::Warning,
                code: LintCode::DominatedAction,
                message: format!(
                    "action {j} is dominated by action {i}: at least as informative a \
                     {:?} at no greater cost, so no optimal procedure needs it{}",
                    aj.kind,
                    if same_class {
                        " (same equivalence class; preprocess::reduce removes it)"
                    } else {
                        ""
                    }
                ),
            });
        }
    }

    // Zero-cost cycles and useless tests.
    for (i, a) in inst.actions().iter().enumerate() {
        if a.cost == 0 {
            out.push(LintDiagnostic {
                severity: LintSeverity::Warning,
                code: LintCode::ZeroCostCycle,
                message: format!(
                    "action {i} has cost 0: procedures may cycle through it without \
                     progress or payment, so optimal trees are not unique"
                ),
            });
        }
        if a.is_test() {
            let informative = !a.set.complement(k).is_empty() && !a.set.is_empty();
            if !informative {
                out.push(LintDiagnostic {
                    severity: LintSeverity::Warning,
                    code: LintCode::UselessTest,
                    message: format!(
                        "test {i} spans the whole universe: it never splits a live set \
                         and cannot help any procedure"
                    ),
                });
            }
        }
    }

    // Zero-weight objects.
    let zero: Vec<usize> = (0..k).filter(|&j| inst.weight(j) == 0).collect();
    if !zero.is_empty() {
        out.push(LintDiagnostic {
            severity: LintSeverity::Info,
            code: LintCode::ZeroWeightObject,
            message: format!(
                "object(s) {zero:?} have weight 0 and contribute nothing to the \
                 expected cost"
            ),
        });
    }

    // Reachability: which subsets can actually occur as live sets.
    if k <= REACHABILITY_MAX_K {
        let unreachable = count_unreachable(inst);
        if unreachable > 0 {
            out.push(LintDiagnostic {
                severity: LintSeverity::Info,
                code: LintCode::UnreachableSubsets,
                message: format!(
                    "{unreachable} of {} non-empty subsets are unreachable from U: \
                     dead entries for full-table DP solvers",
                    (1usize << k) - 1
                ),
            });
        }
    }

    out.sort_by_key(|d| std::cmp::Reverse(d.severity));
    LintReport { diagnostics: out }
}

/// Counts non-empty subsets no procedure starting from `U` can reach:
/// the complement of [`select::probe_reachable`]'s closure (a test `T`
/// leads from a live set `S` to `S ∩ T` and `S − T`, a treatment to
/// `S − T`).
fn count_unreachable(inst: &TtInstance) -> usize {
    let reachable = select::probe_reachable(inst, usize::MAX).expect("an uncapped probe counts");
    ((1usize << inst.k()) - 1) - reachable
}

/// Convenience: lint after dominance reduction — what [`lint`] would say
/// about the instance [`preprocess::reduce`] produces. Same-class
/// dominance findings (duplicates, complement-equivalent tests)
/// disappear by construction; proper dominance (a strictly broader
/// treatment, a test refining a trivial one) can survive, since
/// reduction only collapses equivalence classes. Feasibility findings
/// are preserved (reduction never removes the last treatment covering
/// an object).
pub fn lint_reduced(inst: &TtInstance) -> LintReport {
    lint(&preprocess::reduce(inst).instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
    use crate::subset::Subset;

    fn codes(r: &LintReport) -> Vec<LintCode> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn uncoverable_object_is_a_hard_error() {
        let inst = TtInstanceBuilder::new(3)
            .weights([1, 1, 1])
            .test(Subset::from_iter([0]), 2)
            .treatment(Subset::from_iter([0, 2]), 5) // object 1 uncovered
            .build()
            .unwrap();
        let report = lint(&inst);
        assert!(report.has_errors());
        assert!(codes(&report).contains(&LintCode::Infeasible));
        assert!(report.diagnostics[0].message.contains("[1]"));
    }

    #[test]
    fn clean_instance_lints_clean() {
        let inst = TtInstanceBuilder::new(2)
            .weights([1, 2])
            .test(Subset::singleton(0), 3)
            .treatment(Subset::singleton(0), 2)
            .treatment(Subset::singleton(1), 2)
            .build()
            .unwrap();
        let report = lint(&inst);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn duplicate_and_complement_actions_are_dominated() {
        let inst = TtInstanceBuilder::new(3)
            .weights([1, 1, 1])
            .test(Subset::from_iter([0]), 2)
            .test(Subset::from_iter([1, 2]), 4) // complement of {0}
            .treatment(Subset::universe(3), 5)
            .treatment(Subset::universe(3), 7) // duplicate
            .build()
            .unwrap();
        let report = lint(&inst);
        assert!(!report.has_errors());
        assert_eq!(
            codes(&report)
                .iter()
                .filter(|c| **c == LintCode::DominatedAction)
                .count(),
            2
        );
        // After reduction, the dominance findings disappear.
        assert!(
            !codes(&lint_reduced(&inst)).contains(&LintCode::DominatedAction),
            "reduction must clear dominance findings"
        );
    }

    #[test]
    fn superset_treatment_dominates_costlier_narrower_one() {
        // Treatment 2 covers {0,1} for 3; treatment 3 covers only {0}
        // for 5 — strictly dominated, though not a duplicate (so
        // preprocess::reduce would keep it).
        let inst = TtInstanceBuilder::new(2)
            .weights([1, 1])
            .test(Subset::singleton(0), 1)
            .treatment(Subset::from_iter([0, 1]), 3)
            .treatment(Subset::singleton(0), 5)
            .build()
            .unwrap();
        let report = lint(&inst);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::DominatedAction)
            .expect("dominated treatment flagged");
        assert!(
            d.message.contains("action 2 is dominated by action 1"),
            "{}",
            d.message
        );
        // The narrower-but-cheaper direction is NOT dominance.
        let inst2 = TtInstanceBuilder::new(2)
            .weights([1, 1])
            .test(Subset::singleton(0), 1)
            .treatment(Subset::from_iter([0, 1]), 5)
            .treatment(Subset::singleton(0), 3)
            .build()
            .unwrap();
        assert!(
            !codes(&lint(&inst2)).contains(&LintCode::DominatedAction),
            "{}",
            lint(&inst2)
        );
    }

    #[test]
    fn any_test_dominates_a_costlier_trivial_test() {
        // Test 1 spans the universe: its partition is trivial, so the
        // informative test 0 refines it at lower cost.
        let inst = TtInstanceBuilder::new(2)
            .weights([1, 1])
            .test(Subset::singleton(0), 1)
            .test(Subset::universe(2), 4)
            .treatment(Subset::universe(2), 2)
            .build()
            .unwrap();
        let cs = codes(&lint(&inst));
        assert!(cs.contains(&LintCode::DominatedAction), "{cs:?}");
        assert!(cs.contains(&LintCode::UselessTest));
    }

    #[test]
    fn equal_pairs_flag_exactly_one_side() {
        // Two identical treatments at the same cost: the tie-break by
        // index flags only the later one.
        let inst = TtInstanceBuilder::new(1)
            .weights([1])
            .treatment(Subset::singleton(0), 2)
            .treatment(Subset::singleton(0), 2)
            .build()
            .unwrap();
        let report = lint(&inst);
        let doms: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::DominatedAction)
            .collect();
        assert_eq!(doms.len(), 1, "{report}");
        assert!(doms[0]
            .message
            .contains("action 1 is dominated by action 0"));
    }

    #[test]
    fn zero_cost_and_useless_and_zero_weight() {
        let inst = TtInstanceBuilder::new(2)
            .weights([0, 3])
            .test(Subset::universe(2), 0) // useless AND zero-cost
            .treatment(Subset::universe(2), 4)
            .build()
            .unwrap();
        let report = lint(&inst);
        let cs = codes(&report);
        assert!(cs.contains(&LintCode::ZeroCostCycle));
        assert!(cs.contains(&LintCode::UselessTest));
        assert!(cs.contains(&LintCode::ZeroWeightObject));
        assert!(!report.has_errors());
    }

    #[test]
    fn unreachable_subsets_are_reported() {
        // One treatment covering everything: from U the only reachable
        // sets are U itself (then empty) — all proper non-empty subsets
        // are unreachable.
        let inst = TtInstanceBuilder::new(3)
            .weights([1, 1, 1])
            .treatment(Subset::universe(3), 1)
            .build()
            .unwrap();
        let report = lint(&inst);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::UnreachableSubsets)
            .expect("unreachable finding");
        assert!(d.message.contains("6 of 7"), "{}", d.message);
    }

    #[test]
    fn reduction_exposes_surviving_indices_and_report() {
        let inst = TtInstanceBuilder::new(3)
            .weights([1, 1, 1])
            .test(Subset::from_iter([0]), 2)
            .test(Subset::from_iter([1, 2]), 4) // complement of {0}: dropped
            .treatment(Subset::universe(3), 5)
            .treatment(Subset::universe(3), 7) // duplicate: dropped
            .build()
            .unwrap();
        let red = preprocess::reduce(&inst);
        assert_eq!(red.removed, 2);
        assert_eq!(red.original_index, vec![0, 2]);
        for (new_i, &old_i) in red.original_index.iter().enumerate() {
            assert_eq!(red.instance.action(new_i), inst.action(old_i));
        }
        // lint_reduced is exactly lint() of the reduced instance.
        assert_eq!(
            codes(&lint_reduced(&inst)),
            codes(&lint(&red.instance)),
            "lint_reduced must be the reduced instance's lint"
        );
    }

    #[test]
    fn errors_sort_first() {
        let inst = TtInstanceBuilder::new(2)
            .weights([0, 1])
            .test(Subset::singleton(0), 1)
            .treatment(Subset::singleton(0), 1) // object 1 uncovered
            .build()
            .unwrap();
        let report = lint(&inst);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].severity, LintSeverity::Error);
    }
}
