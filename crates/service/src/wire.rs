//! Request/response schemas of the `cfmapd` wire protocol.
//!
//! A [`MapRequest`] names a problem either by workload
//! (`{"algorithm": "matmul", "mu": [4], …}`) or structurally
//! (`{"mu": [4,4,4], "deps": [[1,0,0],…], …}`), plus the space map and
//! optional solver knobs. A [`MapResponse`] carries one of four statuses
//! mirroring the CLI's exit-code taxonomy from the error-taxonomy PR:
//!
//! | status        | CLI exit class | meaning |
//! |---|---|---|
//! | `ok`          | 0 | a mapping, with its [`Certification`] |
//! | `infeasible`  | 1 | the search proved the candidate space empty |
//! | `bad_request` | 2 | malformed request (shape/JSON/unknown workload) |
//! | `error`       | 3 | a structured [`CfmapError`] |
//!
//! Every [`CfmapError`] variant round-trips losslessly
//! (`parse(serialize(e)) == e`), which `tests/wire_props.rs` proves with
//! generated inputs — a daemon that can only *print* its errors cannot be
//! scripted against.

use crate::json::{parse, Json, JsonError};
use cfmap_core::{BudgetLimit, Certification, CfmapError};

/// A malformed request or response (the wire analogue of a CLI usage
/// error, exit class 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the payload.
    pub msg: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad payload: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> WireError {
        WireError { msg: e.to_string() }
    }
}

fn bad(msg: impl Into<String>) -> WireError {
    WireError { msg: msg.into() }
}

/// A mapping request (Problem 2.2: find the time-optimal conflict-free
/// `Π` for a fixed space map).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapRequest {
    /// Named workload from the library (`matmul`, `transitive-closure`,
    /// …). When set, `mu` must hold the single size parameter `[μ]`.
    pub algorithm: Option<String>,
    /// Index-set bounds. For a named workload: `[μ]`; for a structural
    /// request: the full `μ` vector (one entry per axis).
    pub mu: Vec<i64>,
    /// Dependence columns (structural requests only).
    pub deps: Option<Vec<Vec<i64>>>,
    /// Space-map rows (`k − 1` rows of `n` entries).
    pub space: Vec<Vec<i64>>,
    /// Objective cap override (`Procedure51::max_objective`).
    pub cap: Option<i64>,
    /// Candidate budget (`SearchBudget::candidates`); deterministic, so
    /// cacheable.
    pub max_candidates: Option<u64>,
    /// Wall-clock budget in milliseconds; machine-dependent, so requests
    /// carrying it bypass the design cache.
    pub timeout_ms: Option<u64>,
    /// End-to-end deadline in milliseconds, anchored when the server
    /// *accepts* the connection (a later request on a kept-alive
    /// connection: at its first byte) — queueing delay counts against it,
    /// unlike `timeout_ms` which starts when the search starts. Load-
    /// dependent, so requests carrying it bypass the design cache.
    pub deadline_ms: Option<u64>,
}

impl MapRequest {
    /// A named-workload request with no solver knobs.
    pub fn named(algorithm: &str, mu: i64, space: Vec<Vec<i64>>) -> MapRequest {
        MapRequest {
            algorithm: Some(algorithm.to_string()),
            mu: vec![mu],
            deps: None,
            space,
            cap: None,
            max_candidates: None,
            timeout_ms: None,
            deadline_ms: None,
        }
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(alg) = &self.algorithm {
            fields.push(("algorithm".into(), Json::Str(alg.clone())));
        }
        fields.push(("mu".into(), Json::ints(&self.mu)));
        if let Some(deps) = &self.deps {
            fields.push(("deps".into(), Json::int_rows(deps)));
        }
        fields.push(("space".into(), Json::int_rows(&self.space)));
        if let Some(cap) = self.cap {
            fields.push(("cap".into(), Json::Int(cap)));
        }
        if let Some(n) = self.max_candidates {
            fields.push(("max_candidates".into(), Json::Int(clamp_u64(n))));
        }
        if let Some(ms) = self.timeout_ms {
            fields.push(("timeout_ms".into(), Json::Int(clamp_u64(ms))));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Json::Int(clamp_u64(ms))));
        }
        Json::Obj(fields)
    }

    /// Parse from a JSON value.
    pub fn from_json(v: &Json) -> Result<MapRequest, WireError> {
        let Json::Obj(_) = v else { return Err(bad("request must be an object")) };
        let algorithm = match v.get("algorithm") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(bad("\"algorithm\" must be a string")),
        };
        let mu = int_vec(v.get("mu").ok_or_else(|| bad("missing \"mu\""))?, "mu")?;
        let deps = match v.get("deps") {
            None => None,
            Some(d) => Some(int_matrix(d, "deps")?),
        };
        let space =
            int_matrix(v.get("space").ok_or_else(|| bad("missing \"space\""))?, "space")?;
        let cap = opt_int(v, "cap")?;
        let max_candidates = opt_int(v, "max_candidates")?
            .map(|n| u64::try_from(n).map_err(|_| bad("\"max_candidates\" must be ≥ 0")))
            .transpose()?;
        let timeout_ms = opt_int(v, "timeout_ms")?
            .map(|n| u64::try_from(n).map_err(|_| bad("\"timeout_ms\" must be ≥ 0")))
            .transpose()?;
        let deadline_ms = opt_int(v, "deadline_ms")?
            .map(|n| u64::try_from(n).map_err(|_| bad("\"deadline_ms\" must be ≥ 0")))
            .transpose()?;
        Ok(MapRequest { algorithm, mu, deps, space, cap, max_candidates, timeout_ms, deadline_ms })
    }
}

impl std::str::FromStr for MapRequest {
    type Err = WireError;

    /// Parse from request-body text.
    fn from_str(body: &str) -> Result<MapRequest, WireError> {
        MapRequest::from_json(&parse(body)?)
    }
}

/// The successful payload of a [`MapResponse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapOutcome {
    /// The schedule `Π°` in the caller's axis order.
    pub schedule: Vec<i64>,
    /// Objective `f = Σ |π_i| μ_i`.
    pub objective: i64,
    /// Total time `t = f + 1`.
    pub total_time: i64,
    /// Trust level of the result.
    pub certification: Certification,
    /// Candidates screened by the search that produced this answer.
    pub candidates_examined: u64,
    /// Whether the answer came from the design cache.
    pub cached: bool,
    /// Processors used by the synthesized array.
    pub processors: u64,
    /// Array dimensionality `k − 1`.
    pub array_dims: u64,
}

/// A mapping response, one variant per exit-code class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapResponse {
    /// Exit class 0: a mapping was found.
    Ok(MapOutcome),
    /// Exit class 1: the search completed and proved infeasibility.
    Infeasible {
        /// Candidates screened before the proof.
        candidates_examined: u64,
    },
    /// Exit class 2: the request itself was malformed.
    BadRequest {
        /// What was wrong.
        msg: String,
    },
    /// Exit class 3: a structured library failure.
    Error(CfmapError),
}

impl MapResponse {
    /// The CLI exit-code class this response corresponds to.
    pub fn exit_class(&self) -> u8 {
        match self {
            MapResponse::Ok(_) => 0,
            MapResponse::Infeasible { .. } => 1,
            MapResponse::BadRequest { .. } => 2,
            MapResponse::Error(_) => 3,
        }
    }

    /// The HTTP status code the server answers with. Internal errors are
    /// the daemon's fault, not the request's, so they alone map to 500.
    pub fn http_status(&self) -> u16 {
        match self {
            MapResponse::Ok(_) | MapResponse::Infeasible { .. } => 200,
            MapResponse::BadRequest { .. } => 400,
            MapResponse::Error(CfmapError::Internal { .. }) => 500,
            MapResponse::Error(_) => 422,
        }
    }

    /// Serialize to a JSON value. `exit_class` is emitted as a derived
    /// convenience field and ignored on parse.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        match self {
            MapResponse::Ok(o) => {
                fields.push(("status".into(), Json::Str("ok".into())));
                fields.push(("schedule".into(), Json::ints(&o.schedule)));
                fields.push(("objective".into(), Json::Int(o.objective)));
                fields.push(("total_time".into(), Json::Int(o.total_time)));
                fields.push(("certification".into(), certification_to_json(&o.certification)));
                fields.push((
                    "candidates_examined".into(),
                    Json::Int(clamp_u64(o.candidates_examined)),
                ));
                fields.push(("cached".into(), Json::Bool(o.cached)));
                fields.push(("processors".into(), Json::Int(clamp_u64(o.processors))));
                fields.push(("array_dims".into(), Json::Int(clamp_u64(o.array_dims))));
            }
            MapResponse::Infeasible { candidates_examined } => {
                fields.push(("status".into(), Json::Str("infeasible".into())));
                fields.push((
                    "candidates_examined".into(),
                    Json::Int(clamp_u64(*candidates_examined)),
                ));
            }
            MapResponse::BadRequest { msg } => {
                fields.push(("status".into(), Json::Str("bad_request".into())));
                fields.push(("message".into(), Json::Str(msg.clone())));
            }
            MapResponse::Error(e) => {
                fields.push(("status".into(), Json::Str("error".into())));
                fields.push(("error".into(), error_to_json(e)));
            }
        }
        fields.push(("exit_class".into(), Json::Int(i64::from(self.exit_class()))));
        Json::Obj(fields)
    }

    /// Parse from a JSON value.
    pub fn from_json(v: &Json) -> Result<MapResponse, WireError> {
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"status\""))?;
        match status {
            "ok" => Ok(MapResponse::Ok(MapOutcome {
                schedule: int_vec(
                    v.get("schedule").ok_or_else(|| bad("missing \"schedule\""))?,
                    "schedule",
                )?,
                objective: req_int(v, "objective")?,
                total_time: req_int(v, "total_time")?,
                certification: certification_from_json(
                    v.get("certification").ok_or_else(|| bad("missing \"certification\""))?,
                )?,
                candidates_examined: req_u64(v, "candidates_examined")?,
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("missing \"cached\""))?,
                processors: req_u64(v, "processors")?,
                array_dims: req_u64(v, "array_dims")?,
            })),
            "infeasible" => Ok(MapResponse::Infeasible {
                candidates_examined: req_u64(v, "candidates_examined")?,
            }),
            "bad_request" => Ok(MapResponse::BadRequest {
                msg: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing \"message\""))?
                    .to_string(),
            }),
            "error" => Ok(MapResponse::Error(error_from_json(
                v.get("error").ok_or_else(|| bad("missing \"error\""))?,
            )?)),
            other => Err(bad(format!("unknown status {other:?}"))),
        }
    }
}

impl std::str::FromStr for MapResponse {
    type Err = WireError;

    /// Parse from response-body text.
    fn from_str(body: &str) -> Result<MapResponse, WireError> {
        MapResponse::from_json(&parse(body)?)
    }
}

/// Why `cfmapd-router` answered a request itself instead of forwarding
/// a backend's answer. Each kind maps to exactly one HTTP status so
/// clients can branch on either the status code or the decoded kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterRejectKind {
    /// The router was started with no (or an empty) backend list — a
    /// deployment error, not a transient: `503`.
    NoBackends,
    /// Every candidate backend is open-circuit, draining, or
    /// unreachable; the fleet has no capacity right now: `503` +
    /// `Retry-After`.
    AllCircuitsOpen,
    /// The chosen backend could not be reached and the request was not
    /// eligible for failover (non-idempotent route): `502`.
    UpstreamUnreachable,
    /// Failover was attempted but every replica within the failover
    /// budget failed at the transport level: `502`.
    FailoverExhausted,
    /// The request body is malformed in a way the router can prove
    /// locally (e.g. a `/batch` with an empty or wholly unusable
    /// `requests` array) — forwarding would only burn a backend's time
    /// to produce the same answer: `400`.
    BadRequest,
}

impl RouterRejectKind {
    /// The wire tag (`kind` field) of this rejection.
    pub fn tag(self) -> &'static str {
        match self {
            RouterRejectKind::NoBackends => "no_backends",
            RouterRejectKind::AllCircuitsOpen => "all_circuits_open",
            RouterRejectKind::UpstreamUnreachable => "upstream_unreachable",
            RouterRejectKind::FailoverExhausted => "failover_exhausted",
            RouterRejectKind::BadRequest => "bad_request",
        }
    }

    /// The HTTP status the router answers with for this kind.
    pub fn http_status(self) -> u16 {
        match self {
            RouterRejectKind::NoBackends | RouterRejectKind::AllCircuitsOpen => 503,
            RouterRejectKind::UpstreamUnreachable | RouterRejectKind::FailoverExhausted => 502,
            RouterRejectKind::BadRequest => 400,
        }
    }
}

/// The JSON body of a router-originated `502`/`503`. Round-trips through
/// the wire codec like every other error payload, so clients can script
/// against the router without string-matching messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterReject {
    /// Why the router rejected the request.
    pub kind: RouterRejectKind,
    /// Human-readable detail (which backends were tried, why skipped).
    pub message: String,
    /// Backends the router actually attempted before giving up.
    pub attempted: u64,
}

impl RouterReject {
    /// Serialize to a JSON value. `status` is fixed to `"router_reject"`
    /// so the body is distinguishable from a backend's `MapResponse`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("status".into(), Json::Str("router_reject".into())),
            ("kind".into(), Json::Str(self.kind.tag().into())),
            ("message".into(), Json::Str(self.message.clone())),
            ("attempted".into(), Json::Int(clamp_u64(self.attempted))),
        ])
    }

    /// Parse from a JSON value.
    pub fn from_json(v: &Json) -> Result<RouterReject, WireError> {
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"status\""))?;
        if status != "router_reject" {
            return Err(bad(format!("not a router rejection: status {status:?}")));
        }
        let kind = match v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"kind\""))?
        {
            "no_backends" => RouterRejectKind::NoBackends,
            "all_circuits_open" => RouterRejectKind::AllCircuitsOpen,
            "upstream_unreachable" => RouterRejectKind::UpstreamUnreachable,
            "failover_exhausted" => RouterRejectKind::FailoverExhausted,
            "bad_request" => RouterRejectKind::BadRequest,
            other => return Err(bad(format!("unknown router reject kind {other:?}"))),
        };
        Ok(RouterReject {
            kind,
            message: v
                .get("message")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing \"message\""))?
                .to_string(),
            attempted: req_u64(v, "attempted")?,
        })
    }
}

impl std::str::FromStr for RouterReject {
    type Err = WireError;

    /// Parse from response-body text.
    fn from_str(body: &str) -> Result<RouterReject, WireError> {
        RouterReject::from_json(&parse(body)?)
    }
}

/// A Pareto-frontier request (`POST /pareto`). The problem is named or
/// structural exactly like a [`MapRequest`]; the scope is chosen by
/// which side is pinned: `space` (frontier over schedules), `schedule`
/// (frontier over 1-row space maps), or neither (joint). Pinning both
/// is rejected. Budgets and `include_bandwidth` populate the engine's
/// `ResourceModel`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParetoRequest {
    /// Named workload, as in [`MapRequest::algorithm`].
    pub algorithm: Option<String>,
    /// Index-set bounds, as in [`MapRequest::mu`].
    pub mu: Vec<i64>,
    /// Dependence columns (structural requests only).
    pub deps: Option<Vec<Vec<i64>>>,
    /// Pinned space-map rows (fixed-space scope), if any.
    pub space: Option<Vec<Vec<i64>>>,
    /// Pinned schedule (fixed-schedule scope), if any.
    pub schedule: Option<Vec<i64>>,
    /// Objective cap override for the schedule scan.
    pub cap: Option<i64>,
    /// Bound on `|s_i|` for enumerated space rows (default 2).
    pub entry_bound: Option<i64>,
    /// Track peak link bandwidth as a fourth objective axis.
    pub include_bandwidth: bool,
    /// Processor budget, if any.
    pub max_processors: Option<u64>,
    /// Wire-length budget, if any.
    pub max_wires: Option<i64>,
    /// Peak-bandwidth budget, if any (implies the bandwidth axis).
    pub max_bandwidth: Option<u64>,
}

impl ParetoRequest {
    /// A named-workload joint-scope request with no knobs.
    pub fn named(algorithm: &str, mu: i64) -> ParetoRequest {
        ParetoRequest {
            algorithm: Some(algorithm.to_string()),
            mu: vec![mu],
            deps: None,
            space: None,
            schedule: None,
            cap: None,
            entry_bound: None,
            include_bandwidth: false,
            max_processors: None,
            max_wires: None,
            max_bandwidth: None,
        }
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if let Some(alg) = &self.algorithm {
            fields.push(("algorithm".into(), Json::Str(alg.clone())));
        }
        fields.push(("mu".into(), Json::ints(&self.mu)));
        if let Some(deps) = &self.deps {
            fields.push(("deps".into(), Json::int_rows(deps)));
        }
        if let Some(space) = &self.space {
            fields.push(("space".into(), Json::int_rows(space)));
        }
        if let Some(pi) = &self.schedule {
            fields.push(("schedule".into(), Json::ints(pi)));
        }
        if let Some(cap) = self.cap {
            fields.push(("cap".into(), Json::Int(cap)));
        }
        if let Some(b) = self.entry_bound {
            fields.push(("entry_bound".into(), Json::Int(b)));
        }
        if self.include_bandwidth {
            fields.push(("include_bandwidth".into(), Json::Bool(true)));
        }
        if let Some(p) = self.max_processors {
            fields.push(("max_processors".into(), Json::Int(clamp_u64(p))));
        }
        if let Some(w) = self.max_wires {
            fields.push(("max_wires".into(), Json::Int(w)));
        }
        if let Some(b) = self.max_bandwidth {
            fields.push(("max_bandwidth".into(), Json::Int(clamp_u64(b))));
        }
        Json::Obj(fields)
    }

    /// Parse from a JSON value.
    pub fn from_json(v: &Json) -> Result<ParetoRequest, WireError> {
        let Json::Obj(_) = v else { return Err(bad("request must be an object")) };
        let algorithm = match v.get("algorithm") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(bad("\"algorithm\" must be a string")),
        };
        let mu = int_vec(v.get("mu").ok_or_else(|| bad("missing \"mu\""))?, "mu")?;
        let deps = match v.get("deps") {
            None => None,
            Some(d) => Some(int_matrix(d, "deps")?),
        };
        let space = match v.get("space") {
            None | Some(Json::Null) => None,
            Some(s) => Some(int_matrix(s, "space")?),
        };
        let schedule = match v.get("schedule") {
            None | Some(Json::Null) => None,
            Some(s) => Some(int_vec(s, "schedule")?),
        };
        let cap = opt_int(v, "cap")?;
        let entry_bound = opt_int(v, "entry_bound")?;
        let include_bandwidth = match v.get("include_bandwidth") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(bad("\"include_bandwidth\" must be a boolean")),
        };
        let max_processors = opt_int(v, "max_processors")?
            .map(|n| u64::try_from(n).map_err(|_| bad("\"max_processors\" must be ≥ 0")))
            .transpose()?;
        let max_wires = opt_int(v, "max_wires")?;
        let max_bandwidth = opt_int(v, "max_bandwidth")?
            .map(|n| u64::try_from(n).map_err(|_| bad("\"max_bandwidth\" must be ≥ 0")))
            .transpose()?;
        Ok(ParetoRequest {
            algorithm,
            mu,
            deps,
            space,
            schedule,
            cap,
            entry_bound,
            include_bandwidth,
            max_processors,
            max_wires,
            max_bandwidth,
        })
    }
}

impl std::str::FromStr for ParetoRequest {
    type Err = WireError;

    /// Parse from request-body text.
    fn from_str(body: &str) -> Result<ParetoRequest, WireError> {
        ParetoRequest::from_json(&parse(body)?)
    }
}

/// One frontier point on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParetoPointWire {
    /// The space-map rows of the design.
    pub space: Vec<Vec<i64>>,
    /// The schedule, in the caller's axis order.
    pub schedule: Vec<i64>,
    /// Makespan `1 + Σ|π_i|μ_i`.
    pub total_time: i64,
    /// Processor (site) count.
    pub processors: u64,
    /// Total wire length.
    pub wires: i64,
    /// Peak link bandwidth; present iff the request tracked it.
    pub bandwidth: Option<u64>,
}

impl ParetoPointWire {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("space".into(), Json::int_rows(&self.space)),
            ("schedule".into(), Json::ints(&self.schedule)),
            ("total_time".into(), Json::Int(self.total_time)),
            ("processors".into(), Json::Int(clamp_u64(self.processors))),
            ("wires".into(), Json::Int(self.wires)),
        ];
        if let Some(bw) = self.bandwidth {
            fields.push(("bandwidth".into(), Json::Int(clamp_u64(bw))));
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<ParetoPointWire, WireError> {
        Ok(ParetoPointWire {
            space: int_matrix(v.get("space").ok_or_else(|| bad("missing \"space\""))?, "space")?,
            schedule: int_vec(
                v.get("schedule").ok_or_else(|| bad("missing \"schedule\""))?,
                "schedule",
            )?,
            total_time: req_int(v, "total_time")?,
            processors: req_u64(v, "processors")?,
            wires: req_int(v, "wires")?,
            bandwidth: opt_int(v, "bandwidth")?
                .map(|n| u64::try_from(n).map_err(|_| bad("\"bandwidth\" must be ≥ 0")))
                .transpose()?,
        })
    }
}

/// The successful payload of a [`ParetoResponse`]. An empty frontier
/// (`points: []`) is a successful answer: the model admits no design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParetoOutcome {
    /// The non-dominated set, ascending by objective vector.
    pub points: Vec<ParetoPointWire>,
    /// `points.len()` as reported by the engine.
    pub frontier_size: u64,
    /// Accepted designs pruned as dominated or duplicate.
    pub dominated_pruned: u64,
    /// Candidates screened across the whole search.
    pub candidates_examined: u64,
    /// Whether the answer came from the frontier cache.
    pub cached: bool,
    /// Every point was re-verified by the cycle-level simulator
    /// (conflict-free, within the bandwidth budget) before caching.
    pub verified: bool,
}

/// A Pareto-frontier response, mirroring [`MapResponse`]'s taxonomy
/// minus the `infeasible` class (an empty frontier is an `ok`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParetoResponse {
    /// Exit class 0: the exact non-dominated set (possibly empty).
    Ok(ParetoOutcome),
    /// Exit class 2: the request itself was malformed.
    BadRequest {
        /// What was wrong.
        msg: String,
    },
    /// Exit class 3: a structured library failure.
    Error(CfmapError),
}

impl ParetoResponse {
    /// The CLI exit-code class this response corresponds to.
    pub fn exit_class(&self) -> u8 {
        match self {
            ParetoResponse::Ok(_) => 0,
            ParetoResponse::BadRequest { .. } => 2,
            ParetoResponse::Error(_) => 3,
        }
    }

    /// The HTTP status code the server answers with (same mapping as
    /// [`MapResponse::http_status`]).
    pub fn http_status(&self) -> u16 {
        match self {
            ParetoResponse::Ok(_) => 200,
            ParetoResponse::BadRequest { .. } => 400,
            ParetoResponse::Error(CfmapError::Internal { .. }) => 500,
            ParetoResponse::Error(_) => 422,
        }
    }

    /// Serialize to a JSON value. `exit_class` is emitted as a derived
    /// convenience field and ignored on parse.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        match self {
            ParetoResponse::Ok(o) => {
                fields.push(("status".into(), Json::Str("ok".into())));
                fields.push((
                    "points".into(),
                    Json::Arr(o.points.iter().map(ParetoPointWire::to_json).collect()),
                ));
                fields.push(("frontier_size".into(), Json::Int(clamp_u64(o.frontier_size))));
                fields
                    .push(("dominated_pruned".into(), Json::Int(clamp_u64(o.dominated_pruned))));
                fields.push((
                    "candidates_examined".into(),
                    Json::Int(clamp_u64(o.candidates_examined)),
                ));
                fields.push(("cached".into(), Json::Bool(o.cached)));
                fields.push(("verified".into(), Json::Bool(o.verified)));
            }
            ParetoResponse::BadRequest { msg } => {
                fields.push(("status".into(), Json::Str("bad_request".into())));
                fields.push(("message".into(), Json::Str(msg.clone())));
            }
            ParetoResponse::Error(e) => {
                fields.push(("status".into(), Json::Str("error".into())));
                fields.push(("error".into(), error_to_json(e)));
            }
        }
        fields.push(("exit_class".into(), Json::Int(i64::from(self.exit_class()))));
        Json::Obj(fields)
    }

    /// Parse from a JSON value.
    pub fn from_json(v: &Json) -> Result<ParetoResponse, WireError> {
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"status\""))?;
        match status {
            "ok" => Ok(ParetoResponse::Ok(ParetoOutcome {
                points: v
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("missing \"points\""))?
                    .iter()
                    .map(ParetoPointWire::from_json)
                    .collect::<Result<_, _>>()?,
                frontier_size: req_u64(v, "frontier_size")?,
                dominated_pruned: req_u64(v, "dominated_pruned")?,
                candidates_examined: req_u64(v, "candidates_examined")?,
                cached: v
                    .get("cached")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("missing \"cached\""))?,
                verified: v
                    .get("verified")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("missing \"verified\""))?,
            })),
            "bad_request" => Ok(ParetoResponse::BadRequest {
                msg: v
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("missing \"message\""))?
                    .to_string(),
            }),
            "error" => Ok(ParetoResponse::Error(error_from_json(
                v.get("error").ok_or_else(|| bad("missing \"error\""))?,
            )?)),
            other => Err(bad(format!("unknown status {other:?}"))),
        }
    }
}

impl std::str::FromStr for ParetoResponse {
    type Err = WireError;

    /// Parse from response-body text.
    fn from_str(body: &str) -> Result<ParetoResponse, WireError> {
        ParetoResponse::from_json(&parse(body)?)
    }
}

/// Encode a [`Certification`].
pub fn certification_to_json(c: &Certification) -> Json {
    match c {
        Certification::Optimal => Json::Str("optimal".into()),
        Certification::BestEffort { candidates_examined } => Json::Obj(vec![(
            "best_effort".into(),
            Json::Obj(vec![(
                "candidates_examined".into(),
                Json::Int(clamp_u64(*candidates_examined)),
            )]),
        )]),
        Certification::Infeasible => Json::Str("infeasible".into()),
    }
}

/// Decode a [`Certification`].
pub fn certification_from_json(v: &Json) -> Result<Certification, WireError> {
    match v {
        Json::Str(s) if s == "optimal" => Ok(Certification::Optimal),
        Json::Str(s) if s == "infeasible" => Ok(Certification::Infeasible),
        Json::Obj(_) => {
            let inner = v
                .get("best_effort")
                .ok_or_else(|| bad("unknown certification object"))?;
            Ok(Certification::BestEffort {
                candidates_examined: req_u64(inner, "candidates_examined")?,
            })
        }
        _ => Err(bad("unknown certification")),
    }
}

/// Encode a [`CfmapError`] with a `kind` tag per variant.
pub fn error_to_json(e: &CfmapError) -> Json {
    let kind = |k: &str| ("kind".to_string(), Json::Str(k.to_string()));
    let s = |key: &str, v: &str| (key.to_string(), Json::Str(v.to_string()));
    let n = |key: &str, v: i64| (key.to_string(), Json::Int(v));
    let fields = match e {
        CfmapError::RankDeficient { expected, actual } => vec![
            kind("rank_deficient"),
            n("expected", usize_i64(*expected)),
            n("actual", usize_i64(*actual)),
        ],
        CfmapError::InvalidSchedule { schedule, reason } => vec![
            kind("invalid_schedule"),
            ("schedule".into(), Json::ints(schedule)),
            s("reason", reason),
        ],
        CfmapError::Unroutable { dependence, reason } => vec![
            kind("unroutable"),
            n("dependence", usize_i64(*dependence)),
            s("reason", reason),
        ],
        CfmapError::Overflow { context } => vec![kind("overflow"), s("context", context)],
        CfmapError::BudgetExhausted { limit, candidates_examined } => vec![
            kind("budget_exhausted"),
            s(
                "limit",
                match limit {
                    BudgetLimit::Candidates => "candidates",
                    BudgetLimit::Nodes => "nodes",
                    BudgetLimit::WallClock => "wall_clock",
                    BudgetLimit::Deadline => "deadline",
                    BudgetLimit::Cancelled => "cancelled",
                },
            ),
            n("candidates_examined", clamp_u64(*candidates_examined)),
        ],
        CfmapError::DimensionMismatch { context, expected, actual } => vec![
            kind("dimension_mismatch"),
            s("context", context),
            n("expected", usize_i64(*expected)),
            n("actual", usize_i64(*actual)),
        ],
        CfmapError::Unsupported { reason } => vec![kind("unsupported"), s("reason", reason)],
        CfmapError::Internal { context } => vec![kind("internal"), s("context", context)],
        CfmapError::SnapshotMismatch { field, expected, actual } => vec![
            kind("snapshot_mismatch"),
            s("field", field),
            s("expected", expected),
            s("actual", actual),
        ],
    };
    Json::Obj(fields)
}

/// Decode a [`CfmapError`].
pub fn error_from_json(v: &Json) -> Result<CfmapError, WireError> {
    let kind =
        v.get("kind").and_then(Json::as_str).ok_or_else(|| bad("missing error \"kind\""))?;
    let text = |key: &str| -> Result<String, WireError> {
        Ok(v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| bad(format!("missing error field {key:?}")))?
            .to_string())
    };
    match kind {
        "rank_deficient" => Ok(CfmapError::RankDeficient {
            expected: req_usize(v, "expected")?,
            actual: req_usize(v, "actual")?,
        }),
        "invalid_schedule" => Ok(CfmapError::InvalidSchedule {
            schedule: int_vec(
                v.get("schedule").ok_or_else(|| bad("missing \"schedule\""))?,
                "schedule",
            )?,
            reason: text("reason")?,
        }),
        "unroutable" => Ok(CfmapError::Unroutable {
            dependence: req_usize(v, "dependence")?,
            reason: text("reason")?,
        }),
        "overflow" => Ok(CfmapError::Overflow { context: text("context")? }),
        "budget_exhausted" => Ok(CfmapError::BudgetExhausted {
            limit: match text("limit")?.as_str() {
                "candidates" => BudgetLimit::Candidates,
                "nodes" => BudgetLimit::Nodes,
                "wall_clock" => BudgetLimit::WallClock,
                "deadline" => BudgetLimit::Deadline,
                "cancelled" => BudgetLimit::Cancelled,
                other => return Err(bad(format!("unknown budget limit {other:?}"))),
            },
            candidates_examined: req_u64(v, "candidates_examined")?,
        }),
        "dimension_mismatch" => Ok(CfmapError::DimensionMismatch {
            context: text("context")?,
            expected: req_usize(v, "expected")?,
            actual: req_usize(v, "actual")?,
        }),
        "unsupported" => Ok(CfmapError::Unsupported { reason: text("reason")? }),
        "internal" => Ok(CfmapError::Internal { context: text("context")? }),
        "snapshot_mismatch" => Ok(CfmapError::SnapshotMismatch {
            field: text("field")?,
            expected: text("expected")?,
            actual: text("actual")?,
        }),
        other => Err(bad(format!("unknown error kind {other:?}"))),
    }
}

/// `u64` counters ride in JSON integers; values beyond `i64::MAX` (never
/// produced by real searches) saturate rather than wrap.
fn clamp_u64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

fn usize_i64(v: usize) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

fn opt_int(v: &Json, key: &str) -> Result<Option<i64>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(n)) => Ok(Some(*n)),
        Some(_) => Err(bad(format!("{key:?} must be an integer"))),
    }
}

fn req_int(v: &Json, key: &str) -> Result<i64, WireError> {
    opt_int(v, key)?.ok_or_else(|| bad(format!("missing {key:?}")))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    u64::try_from(req_int(v, key)?).map_err(|_| bad(format!("{key:?} must be ≥ 0")))
}

fn req_usize(v: &Json, key: &str) -> Result<usize, WireError> {
    usize::try_from(req_int(v, key)?).map_err(|_| bad(format!("{key:?} must be ≥ 0")))
}

fn int_vec(v: &Json, key: &str) -> Result<Vec<i64>, WireError> {
    v.as_arr()
        .ok_or_else(|| bad(format!("{key:?} must be an array")))?
        .iter()
        .map(|item| item.as_i64().ok_or_else(|| bad(format!("{key:?} entries must be integers"))))
        .collect()
}

fn int_matrix(v: &Json, key: &str) -> Result<Vec<Vec<i64>>, WireError> {
    v.as_arr()
        .ok_or_else(|| bad(format!("{key:?} must be an array of arrays")))?
        .iter()
        .map(|row| int_vec(row, key))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn request_round_trips() {
        let requests = vec![
            MapRequest::named("matmul", 4, vec![vec![1, 1, -1]]),
            MapRequest {
                algorithm: None,
                mu: vec![4, 4, 4],
                deps: Some(vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]]),
                space: vec![vec![1, 1, -1]],
                cap: Some(30),
                max_candidates: Some(500),
                timeout_ms: Some(50),
                deadline_ms: Some(250),
            },
        ];
        for r in requests {
            let text = r.to_json().serialize();
            assert_eq!(MapRequest::from_str(&text).unwrap(), r, "{text}");
        }
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = vec![
            CfmapError::RankDeficient { expected: 2, actual: 1 },
            CfmapError::InvalidSchedule {
                schedule: vec![0, 1, -3],
                reason: "Π·d̄₁ = 0 \"quoted\"".into(),
            },
            CfmapError::Unroutable { dependence: 2, reason: "distance 3 > budget 1".into() },
            CfmapError::Overflow { context: "space span".into() },
            CfmapError::BudgetExhausted {
                limit: BudgetLimit::Candidates,
                candidates_examined: 7,
            },
            CfmapError::BudgetExhausted { limit: BudgetLimit::Nodes, candidates_examined: 0 },
            CfmapError::BudgetExhausted {
                limit: BudgetLimit::WallClock,
                candidates_examined: u64::MAX,
            },
            CfmapError::BudgetExhausted { limit: BudgetLimit::Deadline, candidates_examined: 3 },
            CfmapError::BudgetExhausted { limit: BudgetLimit::Cancelled, candidates_examined: 9 },
            CfmapError::DimensionMismatch { context: "S vs Π".into(), expected: 3, actual: 2 },
            CfmapError::Unsupported { reason: "3-row S".into() },
            CfmapError::Internal { context: "pareto frontier verification".into() },
            CfmapError::SnapshotMismatch {
                field: "digest".into(),
                expected: "00112233aabbccdd".into(),
                actual: "ffeeddcc99887766".into(),
            },
        ];
        for e in errors {
            let resp = MapResponse::Error(e.clone());
            let text = resp.to_json().serialize();
            let back = MapResponse::from_str(&text).unwrap();
            if matches!(
                e,
                CfmapError::BudgetExhausted { candidates_examined: u64::MAX, .. }
            ) {
                // The saturating counter is the one lossy corner.
                assert!(matches!(back, MapResponse::Error(CfmapError::BudgetExhausted { .. })));
            } else {
                assert_eq!(back, resp, "{text}");
            }
            assert_eq!(resp.exit_class(), 3);
            let expected_status =
                if matches!(e, CfmapError::Internal { .. }) { 500 } else { 422 };
            assert_eq!(resp.http_status(), expected_status);
        }
    }

    #[test]
    fn response_statuses_round_trip() {
        let ok = MapResponse::Ok(MapOutcome {
            schedule: vec![1, 4, 1],
            objective: 24,
            total_time: 25,
            certification: Certification::Optimal,
            candidates_examined: 90,
            cached: true,
            processors: 13,
            array_dims: 1,
        });
        let best = MapResponse::Ok(MapOutcome {
            schedule: vec![1, 5, 25],
            objective: 124,
            total_time: 125,
            certification: Certification::BestEffort { candidates_examined: 2 },
            candidates_examined: 2,
            cached: false,
            processors: 9,
            array_dims: 1,
        });
        let inf = MapResponse::Infeasible { candidates_examined: 321 };
        let badreq = MapResponse::BadRequest { msg: "missing \"mu\"".into() };
        for (r, class, status) in
            [(ok, 0u8, 200u16), (best, 0, 200), (inf, 1, 200), (badreq, 2, 400)]
        {
            assert_eq!(r.exit_class(), class);
            assert_eq!(r.http_status(), status);
            let text = r.to_json().serialize();
            assert_eq!(MapResponse::from_str(&text).unwrap(), r, "{text}");
            assert!(text.contains(&format!("\"exit_class\":{class}")));
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        for bad_body in [
            "{}",
            r#"{"mu": [4]}"#,
            r#"{"mu": "x", "space": [[1]]}"#,
            r#"{"mu": [4], "space": [[1]], "max_candidates": -3}"#,
            "[1,2,3]",
        ] {
            assert!(MapRequest::from_str(bad_body).is_err(), "{bad_body}");
        }
        assert!(MapResponse::from_str(r#"{"status":"weird"}"#).is_err());
        assert!(error_from_json(&parse(r#"{"kind":"nope"}"#).unwrap()).is_err());
    }
}
