//! Structured error taxonomy for the mapping pipeline.
//!
//! Every public entry point that used to panic or silently return
//! `None` now reports *why* it could not produce a mapping, in terms of
//! the conditions of Definition 2.2: rank deficiency (condition 4),
//! schedule validity (condition 1), routability (condition 2), machine
//! arithmetic overflow in the exact/fixed-width boundary layer, or an
//! exhausted [`crate::SearchBudget`].

use std::fmt;

/// Which resource limit of a [`crate::SearchBudget`] tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetLimit {
    /// The candidate-count ceiling (`max_candidates`).
    Candidates,
    /// The branch-and-bound node ceiling (`max_nodes`).
    Nodes,
    /// The wall-clock ceiling (`max_wall`).
    WallClock,
    /// The absolute request deadline (`deadline`) passed before the
    /// search completed. Unlike `max_wall` (a relative cap started when
    /// the search starts), a deadline is anchored by the caller — e.g.
    /// at connection-accept time — so queueing delay counts against it.
    Deadline,
    /// The search was cancelled cooperatively via a
    /// [`crate::CancelToken`] (e.g. the serving daemon hit its drain
    /// deadline during shutdown).
    Cancelled,
}

impl fmt::Display for BudgetLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetLimit::Candidates => write!(f, "candidate-count limit"),
            BudgetLimit::Nodes => write!(f, "node limit"),
            BudgetLimit::WallClock => write!(f, "wall-clock limit"),
            BudgetLimit::Deadline => write!(f, "request deadline"),
            BudgetLimit::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Errors from the conflict-free mapping pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CfmapError {
    /// Condition 4 of Definition 2.2 failed: `rank(T) < k`, so the
    /// mapping collapses the array to fewer dimensions than requested.
    RankDeficient {
        /// Required rank `k` (array dimensions + 1).
        expected: usize,
        /// Actual rank of `T`.
        actual: usize,
    },
    /// Condition 1 of Definition 2.2 failed: `Π·d̄ ≤ 0` for some
    /// dependence, i.e. the schedule does not respect the data flow.
    InvalidSchedule {
        /// The offending schedule vector `Π`.
        schedule: Vec<i64>,
        /// Human-readable explanation (which dependence is violated).
        reason: String,
    },
    /// Condition 2 of Definition 2.2 failed: no nonnegative integral `K`
    /// with `P·K = S·D` delivers every datum within its time budget
    /// `Π·d̄ᵢ` on the given interconnection primitives.
    Unroutable {
        /// Index of the first unroutable dependence column.
        dependence: usize,
        /// Human-readable explanation (distance vs. available time).
        reason: String,
    },
    /// A quantity left the exactly-representable range of the
    /// fixed-width boundary layer (`i64` interchange values). The exact
    /// `Int` layer promotes to big integers internally; this error marks
    /// the points where results must re-enter machine integers.
    Overflow {
        /// Where the conversion failed (function / quantity).
        context: String,
    },
    /// A [`crate::SearchBudget`] limit was hit and no mapping — not even
    /// a degraded best-effort one — could be produced.
    BudgetExhausted {
        /// Which limit tripped.
        limit: BudgetLimit,
        /// Candidates examined before giving up.
        candidates_examined: u64,
    },
    /// Inputs disagree on the algorithm dimension `n` or the array
    /// dimension `k − 1`.
    DimensionMismatch {
        /// What was being combined.
        context: String,
        /// Dimension required by the first operand.
        expected: usize,
        /// Dimension offered by the second operand.
        actual: usize,
    },
    /// The request is outside the implemented fragment of the theory
    /// (e.g. a space map with more than two rows in the VLSI-cost
    /// search).
    Unsupported {
        /// What was requested and what the supported range is.
        reason: String,
    },
    /// An internal invariant broke — e.g. a Pareto frontier point failed
    /// its simulator re-verification. Unlike every other variant this is
    /// a bug in cfmap, not in the caller's input; surfacing it as an
    /// error (HTTP 500 on the wire) keeps the pipeline's panic-free
    /// contract.
    Internal {
        /// Where the invariant broke.
        context: String,
    },
    /// A persisted warm-start snapshot cannot be loaded: its format
    /// version, canonical-key digest, or checksum disagrees with this
    /// build. Loading anyway would serve cache entries keyed under a
    /// *different* canonicalization (silently wrong answers), so the
    /// mismatch is precise and fatal to the load, never papered over.
    SnapshotMismatch {
        /// Which header field disagreed (`version`, `digest`,
        /// `checksum`, `body`).
        field: String,
        /// The value this build requires.
        expected: String,
        /// The value found in the snapshot.
        actual: String,
    },
}

impl fmt::Display for CfmapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfmapError::RankDeficient { expected, actual } => write!(
                f,
                "rank-deficient mapping: rank(T) = {actual} but condition 4 of \
                 Definition 2.2 requires rank {expected}; choose S and Π with \
                 linearly independent rows"
            ),
            CfmapError::InvalidSchedule { schedule, reason } => write!(
                f,
                "invalid schedule Π = {schedule:?}: {reason} (condition 1 of \
                 Definition 2.2 requires Π·d̄ > 0 for every dependence)"
            ),
            CfmapError::Unroutable { dependence, reason } => write!(
                f,
                "unroutable interconnect for dependence {dependence}: {reason} \
                 (condition 2 of Definition 2.2); add primitives or slow the \
                 schedule to enlarge the time budget"
            ),
            CfmapError::Overflow { context } => write!(
                f,
                "integer overflow in {context}: value exceeds the i64 \
                 interchange range; shrink the problem extents or keep the \
                 computation in the exact Int layer"
            ),
            CfmapError::BudgetExhausted { limit, candidates_examined } => write!(
                f,
                "search budget exhausted ({limit}) after examining \
                 {candidates_examined} candidates, and no fallback mapping was \
                 found; raise the budget or relax the constraints"
            ),
            CfmapError::DimensionMismatch { context, expected, actual } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            CfmapError::Unsupported { reason } => write!(f, "unsupported request: {reason}"),
            CfmapError::Internal { context } => write!(
                f,
                "internal error in {context}: this is a bug in cfmap, not in \
                 the request; please report it with the input that triggered it"
            ),
            CfmapError::SnapshotMismatch { field, expected, actual } => write!(
                f,
                "snapshot mismatch: {field} is {actual} but this build \
                 requires {expected}; regenerate the snapshot with \
                 `cfmap client --get /cache/save` against a matching daemon"
            ),
        }
    }
}

impl std::error::Error for CfmapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        let cases: Vec<(CfmapError, &str)> = vec![
            (CfmapError::RankDeficient { expected: 2, actual: 1 }, "rank-deficient"),
            (
                CfmapError::InvalidSchedule {
                    schedule: vec![0, 1],
                    reason: "Π·d̄₁ = 0".into(),
                },
                "invalid schedule",
            ),
            (
                CfmapError::Unroutable { dependence: 2, reason: "distance 3 > budget 1".into() },
                "unroutable",
            ),
            (CfmapError::Overflow { context: "space span".into() }, "overflow"),
            (
                CfmapError::BudgetExhausted {
                    limit: BudgetLimit::Candidates,
                    candidates_examined: 7,
                },
                "budget exhausted",
            ),
            (
                CfmapError::BudgetExhausted {
                    limit: BudgetLimit::Deadline,
                    candidates_examined: 0,
                },
                "deadline",
            ),
            (
                CfmapError::BudgetExhausted {
                    limit: BudgetLimit::Cancelled,
                    candidates_examined: 0,
                },
                "cancelled",
            ),
            (
                CfmapError::DimensionMismatch {
                    context: "S vs Π".into(),
                    expected: 3,
                    actual: 2,
                },
                "dimension mismatch",
            ),
            (CfmapError::Unsupported { reason: "3-row S".into() }, "unsupported"),
            (
                CfmapError::Internal { context: "pareto frontier verification".into() },
                "internal error",
            ),
            (
                CfmapError::SnapshotMismatch {
                    field: "digest".into(),
                    expected: "0011223344556677".into(),
                    actual: "8899aabbccddeeff".into(),
                },
                "snapshot mismatch",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.to_lowercase().contains(needle),
                "message {msg:?} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> =
            Box::new(CfmapError::Overflow { context: "test".into() });
        assert!(e.to_string().contains("overflow"));
    }
}
