//! Cycle-level processor-array simulation for mapped uniform dependence
//! algorithms.
//!
//! The paper evaluates its mappings on (bit-level) systolic hardware —
//! GAPP, DAP, MPP, the Connection Machine. We have none of those, so this
//! crate is the substitution documented in `DESIGN.md` §5: a synchronous
//! simulator that executes computation `j̄` on processor `S·j̄` at time
//! `Π·j̄`, moves data along interconnection primitives with the buffer
//! delays of Definition 2.2 condition 2, and *observes* — rather than
//! trusts — the properties the theory guarantees:
//!
//! * **computational conflicts** (two computations on one PE in one
//!   cycle) — must be absent exactly when the mapping is conflict-free;
//! * **link collisions** (two data on one link in one cycle) — the
//!   property [23] introduced and the appendix argues about via `K`;
//! * **makespan** — must equal `1 + Σ|π_i|μ_i` (Equation 2.7);
//! * **numerical correctness** — the array really computes `C = A·B`
//!   (Figure 3's computation), convolutions, etc., via pluggable
//!   [`exec::Kernel`]s.
//!
//! [`diagram`] renders Figure 2 (array block diagram) and Figure 3
//! (space-time execution diagram) as text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod design;
pub mod diagram;
pub mod exec;
pub mod links;
pub mod rtl;
pub mod sim;
pub mod stats;

pub use array::{count_processors, processor_span, SystolicArray, MAX_PROCESSOR_SPAN};
pub use design::{ArrayDesign, DesignError};
pub use exec::{ConvolutionKernel, DepthKernel, Kernel, LuKernel, MatmulKernel};
pub use links::{peak_link_load, ChannelReport, ChannelStats, Collision};
pub use sim::{SimReport, Simulator};
pub use stats::UtilizationStats;
