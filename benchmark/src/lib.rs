//! The cfmapd benchmark: seeded closed-loop workloads driven against the
//! real `cfmapd` and `cfmapd-router` binaries, measured end to end and, in
//! traced runs, layer by layer. `README.md` describes the workloads and
//! metrics; `BENCHMARK.json` at the repository root lists what a run
//! reports.

pub mod check;
pub mod json;
pub mod load;
pub mod procs;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
