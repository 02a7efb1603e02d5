//! The conflict-free mapping theory of Shang & Fortes (ICPP 1990).
//!
//! This crate implements the paper's primary contribution: identifying and
//! optimizing linear mappings `τ(j̄) = T·j̄`, `T = [S; Π] ∈ Z^{k×n}`, of
//! `n`-dimensional uniform dependence algorithms onto `(k−1)`-dimensional
//! processor arrays **without computational conflicts** — no two index
//! points may land on the same (processor, time) pair.
//!
//! Map of the theory to modules:
//!
//! | Paper | Module |
//! |---|---|
//! | Definition 2.2 (mapping `T = [S; Π]`, conditions 1–4) | [`mapping`] |
//! | Definition 2.3 + Theorem 2.2 (conflict vectors, feasibility) | [`conflict`] |
//! | Equation 3.2 / Theorem 3.1 (`k = n−1` closed form) | [`conflict`] |
//! | Theorems 4.3–4.8 (HNF-based conditions, general `k`) | [`conditions`] |
//! | brute-force conflict detection (what the paper's conditions replace) | [`oracle`] |
//! | Procedure 5.1 (enumerative optimal search) | [`search`] |
//! | Formulations (5.1)–(5.6) (integer programming) | [`ilp`] |
//! | Proposition 8.1 (closed-form `U` for `T ∈ Z^{3×5}`) | [`prop81`] |
//! | Prior-work baselines [22], [23] | [`baselines`] |
//! | Problem 6.1 (space-optimal mapping — the paper's future work) | [`pareto`] (fixed-schedule frontier's space corner) |
//! | Problem 6.2 (joint `S`, `Π` optimization — future work) | [`pareto`] (joint-frontier corners) |
//! | search effort / observability counters (not in the paper) | [`metrics`] |
//! | affine-in-μ schedule families & certificates (not in the paper) | [`family`] |
//! | resource budgets & Pareto frontiers (not in the paper) | [`pareto`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod box_kernel;
pub mod budget;
pub mod canon;
pub mod conditions;
pub mod conflict;
pub mod diagnose;
pub mod error;
pub mod family;
pub mod ilp;
pub mod mapping;
pub mod metrics;
pub mod oracle;
pub mod pareto;
pub mod prop81;
pub mod schedulability;
pub mod search;

pub use budget::{
    BudgetMeter, CancelToken, Certification, Deadline, SearchBudget, SearchOutcome, SolveRoute,
};
pub use canon::{
    canon_fingerprint, canonicalize, problem_stabilizer, stabilizer, Canonicalization,
    CanonicalProblem, SignedPerm, Stabilizer,
};
pub use conflict::{ConflictAnalysis, Feasibility};
pub use error::{BudgetLimit, CfmapError};
pub use family::{
    certify, instantiate, CertifyError, Discharge, FamilyCertificate, FamilyInstance, FamilyKey,
    FamilyTemplate, InstantiatedDesign, ProofObligation,
};
pub use diagnose::{diagnose, Check, MappingDiagnosis};
pub use mapping::{InterconnectionPrimitives, MappingMatrix, SpaceMap};
pub use metrics::{ConditionRule, SearchTelemetry};
pub use pareto::{BandwidthProbe, ParetoFrontier, ParetoPoint, ParetoSearch, ResourceModel};
pub use schedulability::{find_valid_schedule, is_schedulable};
pub use search::{HybridPolicy, OptimalMapping, Procedure51, SymmetryMode, TieBreak};

/// Problem 6.1, the search for a space map under a fixed schedule: its
/// answer is the fixed-schedule frontier's space corner ([`pareto`]).
#[cfg(test)]
mod space_search {
    mod tests;
}
