//! Error type for instance construction and validation.

use std::fmt;

/// Errors arising while building or validating a TT problem instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TtError {
    /// The universe size is zero or exceeds [`crate::MAX_K`].
    BadUniverseSize {
        /// The offending universe size.
        k: usize,
    },
    /// The number of supplied weights differs from the universe size.
    WeightCountMismatch {
        /// Universe size.
        k: usize,
        /// Number of weights supplied.
        got: usize,
    },
    /// An action's set contains objects outside the universe.
    ActionOutOfUniverse {
        /// Index of the offending action (in insertion order).
        action: usize,
    },
    /// An action's set is empty (it could never respond or treat anything).
    EmptyAction {
        /// Index of the offending action (in insertion order).
        action: usize,
    },
    /// An action's cost is `u64::MAX`, the value [`crate::cost::Cost`]
    /// reserves for `INF`: no finite cost can be built from it.
    CostIsInf {
        /// Index of the offending action (in insertion order).
        action: usize,
    },
    /// The cost bound `Σt·p(U)·(2k+2) + 1` is not below `2^63`, so costs
    /// could leave the range every engine computes exactly.
    CostBoundTooLarge,
    /// Every object weight is zero, so every procedure has expected cost
    /// zero and the optimization is vacuous (almost certainly an input
    /// mistake — e.g. probabilities that were truncated to integers).
    ZeroTotalWeight,
    /// The instance has no actions at all.
    NoActions,
    /// The instance is not adequate: some object is covered by no
    /// treatment, so no successful TT procedure exists.
    Inadequate {
        /// The objects not covered by any treatment.
        untreatable: crate::Subset,
    },
}

impl fmt::Display for TtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TtError::BadUniverseSize { k } => {
                write!(f, "universe size {k} out of range 1..={}", crate::MAX_K)
            }
            TtError::WeightCountMismatch { k, got } => {
                write!(f, "expected {k} weights, got {got}")
            }
            TtError::ActionOutOfUniverse { action } => {
                write!(f, "action {action} mentions objects outside the universe")
            }
            TtError::EmptyAction { action } => {
                write!(f, "action {action} has an empty set")
            }
            TtError::CostIsInf { action } => write!(
                f,
                "action {action} costs {}, which is the INF sentinel; \
                 action costs must be below it",
                u64::MAX
            ),
            TtError::CostBoundTooLarge => write!(
                f,
                "cost bound Σt·p(U)·(2k+2) + 1 is not below 2^63, so costs could \
                 overflow; scale weights or costs down (only ratios matter)"
            ),
            TtError::ZeroTotalWeight => write!(
                f,
                "all object weights are zero; give at least one object a \
                 positive integer weight (fractional priors can be scaled \
                 to integers — only ratios matter)"
            ),
            TtError::NoActions => write!(f, "instance has no tests or treatments"),
            TtError::Inadequate { untreatable } => {
                write!(
                    f,
                    "instance is inadequate: objects {untreatable} have no treatment"
                )
            }
        }
    }
}

impl std::error::Error for TtError {}
