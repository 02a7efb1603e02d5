//! # cfmap — conflict-free mappings onto lower-dimensional processor arrays
//!
//! A full reproduction of Weijia Shang & Jose A. B. Fortes,
//! *Time-Optimal and Conflict-Free Mappings of Uniform Dependence
//! Algorithms into Lower Dimensional Processor Arrays* (ICPP 1990 /
//! Purdue TR-EE 90-29).
//!
//! An `n`-dimensional nested-loop algorithm `(J, D)` is mapped onto a
//! `(k−1)`-dimensional processor array by `T = [S; Π]`: index point `j̄`
//! executes on processor `S·j̄` at time `Π·j̄`. For `k < n` the mapping is
//! non-injective on `Z^n`, and the paper's contribution is a closed-form
//! theory — built on the Hermite normal form of `T` — of when no two
//! points of `J` collide on the same (processor, time) pair, plus
//! optimization procedures for the fastest such schedule.
//!
//! ## Quick start
//!
//! ```
//! use cfmap::prelude::*;
//!
//! // Example 5.1 of the paper: map 3-D matrix multiplication (μ = 4)
//! // onto a linear systolic array with space map S = [1, 1, −1].
//! let alg = algorithms::matmul(4);
//! let s = SpaceMap::row(&[1, 1, -1]);
//! let opt = Procedure51::new(&alg, &s)
//!     .solve()
//!     .expect("search ran to completion")
//!     .expect_optimal("mapping exists");
//! assert_eq!(opt.total_time, 4 * (4 + 2) + 1); // t = μ(μ+2)+1 = 25
//!
//! // Simulate the synthesized array and observe zero conflicts.
//! let report = Simulator::new(&alg, &opt.mapping).run().unwrap();
//! assert!(report.conflicts.is_empty());
//! assert_eq!(report.makespan(), 25);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`cfmap_intlin`] | exact big integers, rationals, integer matrices, Hermite/Smith normal forms |
//! | [`cfmap_lp`] | exact simplex, branch & bound ILP, vertex enumeration, disjunctive programs |
//! | [`cfmap_model`] | uniform dependence algorithms, index sets, schedules, workload library |
//! | [`cfmap_core`] | conflict vectors, Theorems 2.2–4.8, Procedure 5.1, ILP formulations, Prop. 8.1 |
//! | [`cfmap_systolic`] | cycle-level array simulator, semantic kernels, Figure 2/3 renderers |
//! | [`cfmap_service`] | `cfmapd`: mapping-as-a-service daemon with a canonicalizing design cache |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cfmap_core as core;
pub use cfmap_intlin as intlin;
pub use cfmap_lp as lp;
pub use cfmap_model as model;
pub use cfmap_service as service;
pub use cfmap_systolic as systolic;

/// Everything a downstream user typically needs, in one import.
pub mod prelude {
    pub use cfmap_core::baselines;
    pub use cfmap_core::conditions::{self, ConditionKind, ConditionVerdict};
    pub use cfmap_core::conflict::{feasibility, ConflictAnalysis, Feasibility};
    pub use cfmap_core::ilp::optimal_schedule_ilp;
    pub use cfmap_core::mapping::{route, Routing};
    pub use cfmap_core::oracle;
    pub use cfmap_core::prop81::prop_8_1_basis;
    pub use cfmap_core::{
        diagnose, BudgetLimit, CancelToken, Certification, CfmapError, Check, Deadline,
        InterconnectionPrimitives, MappingDiagnosis, MappingMatrix, OptimalMapping,
        ParetoFrontier, ParetoPoint, ParetoSearch, Procedure51,
        ResourceModel, SearchBudget, SearchOutcome, SpaceMap, TieBreak,
    };
    pub use cfmap_systolic::rtl::{execute_rtl, RtlResult};
    pub use cfmap_model::bitexpand::{expand_to_bit_level, extend_space_rows};
    pub use cfmap_model::bounds::{critical_path, linear_schedule_bound, pigeonhole_bound};
    pub use cfmap_intlin::{hermite_normal_form, smith_normal_form, IMat, IVec, Int, Rat};
    pub use cfmap_model::{algorithms, DependenceMatrix, IndexSet, LinearSchedule, Uda, UdaBuilder};
    pub use cfmap_systolic::diagram::{block_diagram, space_time_diagram};
    pub use cfmap_systolic::exec::execute;
    pub use cfmap_systolic::{
        ArrayDesign, ConvolutionKernel, DepthKernel, DesignError, Kernel, LuKernel,
        MatmulKernel, SimReport, Simulator, SystolicArray, UtilizationStats,
    };
}
