//! `cfmapd-router` — a cache-affine, health-checked reverse proxy in
//! front of a fleet of `cfmapd` backends.
//!
//! One `cfmapd` process is one failure domain: a panic loop, an OOM
//! kill, or a drain takes the whole mapping service down. The router
//! turns N daemons into a fleet while *preserving the design-cache
//! locality* that makes warm traffic fast:
//!
//! * **Cache-affine placement.** The router parses a `/map` body just
//!   far enough to canonicalize the problem (the same
//!   [`canonical_problem`] the engine's cache keys on) and
//!   consistent-hashes the canonical key onto a ring of backends with
//!   [`RouterConfig::replicas`] virtual nodes per backend. Permuted-
//!   but-equivalent problems canonicalize identically, so they land on
//!   the same backend and hit the same cache entry — scale-out does not
//!   shred the cache.
//! * **Health-checked failover.** Per-backend health state is driven by
//!   periodic `GET /healthz` probes (which also read the `draining`
//!   flag, so a draining backend stops receiving traffic before it
//!   sheds) *and* by passive observation of live-traffic failures.
//! * **Circuit breakers.** Each backend has a three-state breaker:
//!   *closed* → *open* after [`RouterConfig::failure_threshold`]
//!   consecutive transport failures or unexpected 5xxs → *half-open*
//!   after [`RouterConfig::open_cooldown`], admitting a single trial
//!   whose outcome closes or re-opens the circuit. A `503` carrying
//!   `Retry-After` is the backend's *admission shed* — healthy but
//!   busy — and never counts toward the breaker.
//! * **Bounded failover.** Idempotent mapping requests that fail at the
//!   transport level fail over to the next distinct backend on the
//!   ring, up to [`RouterConfig::failover_budget`] extra attempts.
//!   Every forwarded answer carries `X-Cfmapd-Backend` so callers (and
//!   the chaos tests) can assert affinity.
//! * **Load-aware shedding.** When every candidate backend is
//!   open-circuit, draining, or unreachable, the router answers a
//!   well-formed `503` + `Retry-After` ([`RouterReject`]) immediately —
//!   never a hang, never a bare RST.
//!
//! Routes:
//!
//! | route | behavior |
//! |---|---|
//! | `POST /map` | canonicalize, ring-route, forward with failover |
//! | `POST /pareto` | canonicalize when space-pinned (else raw-body hash), ring-route, forward |
//! | `POST /batch` | ring-route by the first canonicalizable member |
//! | `GET /healthz` | router liveness + backend up-counts |
//! | `GET /readyz` | `200` while ≥ 1 backend is routable, else `503` |
//! | `GET /backends` | per-backend health/circuit/pool state (JSON) |
//! | `GET /metrics` | the router's own Prometheus registry |
//! | `POST /shutdown` | drain and exit |

use crate::engine::{canonical_problem, pareto_affinity_problem};
use crate::http::{self, error_body, Answer, Front, KeepAliveConn, Request, Response};
use crate::http::{ShutdownHandle, Tier, CT_METRICS};
use crate::json::{parse, Json};
use crate::wire::{MapRequest, ParetoRequest, RouterReject, RouterRejectKind};
use cfmap_core::metrics::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS_US};
use cfmap_core::CanonicalProblem;
use std::str::FromStr;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Read and write patience of a `/healthz` probe.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Router configuration (all fields have serviceable defaults except
/// `backends`, which must be non-empty for the router to be useful).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `cfmapd` addresses (`host:port`), in any order — ring
    /// placement hashes the address string, so it is stable under
    /// reordering.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the consistent-hash ring. More
    /// replicas smooth the key distribution; 64 keeps the imbalance a
    /// few percent at fleet sizes this router targets.
    pub replicas: usize,
    /// Worker threads serving downstream connections.
    pub workers: usize,
    /// Admission-queue slots (downstream connections accepted but not
    /// yet claimed by a worker); beyond this, shed with `503`.
    pub queue_capacity: usize,
    /// Period of the background `/healthz` probe loop.
    pub health_interval: Duration,
    /// Consecutive failures that trip a backend's circuit open.
    pub failure_threshold: u32,
    /// How long an open circuit waits before admitting one half-open
    /// trial.
    pub open_cooldown: Duration,
    /// Extra backends tried after the primary fails at the transport
    /// level (0 = no failover).
    pub failover_budget: usize,
    /// TCP connect timeout toward a backend.
    pub connect_timeout: Duration,
    /// Read timeout toward a backend (a response may take a full
    /// budgeted search).
    pub read_timeout: Duration,
    /// Idle keep-alive connections pooled per backend.
    pub pool_capacity: usize,
    /// Requests sent on one pooled upstream connection before it is
    /// retired (stays below the backend's own per-connection bound so
    /// the backend never hangs up mid-checkout).
    pub max_requests_per_conn: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            replicas: 64,
            workers: 8,
            queue_capacity: 128,
            health_interval: Duration::from_millis(500),
            failure_threshold: 3,
            open_cooldown: Duration::from_secs(1),
            failover_budget: 2,
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            pool_capacity: 8,
            max_requests_per_conn: 90,
        }
    }
}

/// Circuit-breaker state of one backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Circuit {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests skip this backend until the cooldown passes.
    Open,
    /// One trial request is in flight; its outcome decides.
    HalfOpen,
}

impl Circuit {
    /// The `cfmapd_router_circuit_state` gauge encoding.
    fn gauge_value(self) -> i64 {
        match self {
            Circuit::Closed => 0,
            Circuit::Open => 1,
            Circuit::HalfOpen => 2,
        }
    }
}

/// What the breaker says about sending one request now.
enum Admission {
    /// Circuit closed — go ahead.
    Allow,
    /// Circuit was open, cooldown elapsed — this request is the single
    /// half-open trial.
    Trial,
    /// Circuit open (or a trial already in flight) — skip this backend.
    Refuse,
}

/// Mutable breaker state, behind the backend's mutex.
struct BreakerInner {
    circuit: Circuit,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// Per-backend state: address, probe-driven health, breaker, and the
/// keep-alive connection pool.
struct Backend {
    addr: String,
    /// Last probe reached the backend and it answered 200.
    up: AtomicBool,
    /// Backend is willing to take new traffic (up and not draining).
    ready: AtomicBool,
    breaker: Mutex<BreakerInner>,
    pool: Mutex<Vec<KeepAliveConn>>,
    // Metrics, labeled by backend address.
    up_gauge: Arc<Gauge>,
    circuit_gauge: Arc<Gauge>,
    half_open_probes: Arc<Counter>,
    upstream_latency: Arc<Histogram>,
}

impl Backend {
    fn new(addr: String, registry: &Registry) -> Backend {
        let labels = [("backend", addr.as_str())];
        let up_gauge = registry.gauge(
            "cfmapd_router_backend_up",
            "1 while the last health probe of this backend succeeded",
            &labels,
        );
        let circuit_gauge = registry.gauge(
            "cfmapd_router_circuit_state",
            "Circuit breaker state per backend (0 closed, 1 open, 2 half-open)",
            &labels,
        );
        let half_open_probes = registry.counter(
            "cfmapd_router_half_open_probes_total",
            "Half-open trial requests admitted per backend",
            &labels,
        );
        let upstream_latency = registry.histogram(
            "cfmapd_router_upstream_duration_seconds",
            "Forwarded-request latency per backend",
            &labels,
            DEFAULT_LATENCY_BUCKETS_US,
        );
        Backend {
            addr,
            up: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            breaker: Mutex::new(BreakerInner {
                circuit: Circuit::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
            pool: Mutex::new(Vec::new()),
            up_gauge,
            circuit_gauge,
            half_open_probes,
            upstream_latency,
        }
    }

    fn breaker(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        // Breaker state stays coherent even if a panicking thread
        // poisoned the lock: every mutation leaves a valid state.
        self.breaker.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current circuit state (for `/backends` and tests).
    fn circuit(&self) -> Circuit {
        self.breaker().circuit
    }

    /// May a request be sent to this backend right now?
    fn admit(&self, cooldown: Duration) -> Admission {
        let mut b = self.breaker();
        match b.circuit {
            Circuit::Closed => Admission::Allow,
            Circuit::HalfOpen => Admission::Refuse,
            Circuit::Open => {
                let elapsed = b.opened_at.map(|t| t.elapsed()).unwrap_or(Duration::MAX);
                if elapsed >= cooldown {
                    b.circuit = Circuit::HalfOpen;
                    self.circuit_gauge.set(Circuit::HalfOpen.gauge_value());
                    self.half_open_probes.inc();
                    Admission::Trial
                } else {
                    Admission::Refuse
                }
            }
        }
    }

    /// A forwarded request (or probe) got a healthy answer.
    fn record_success(&self) {
        let mut b = self.breaker();
        b.consecutive_failures = 0;
        if b.circuit != Circuit::Closed {
            b.circuit = Circuit::Closed;
            b.opened_at = None;
            self.circuit_gauge.set(Circuit::Closed.gauge_value());
        }
    }

    /// A forwarded request (or probe) failed at the transport level, or
    /// a backend answered an unexpected 5xx.
    fn record_failure(&self, threshold: u32) {
        let mut b = self.breaker();
        match b.circuit {
            Circuit::HalfOpen => {
                // The trial failed: back to open, cooldown restarts.
                b.circuit = Circuit::Open;
                b.opened_at = Some(Instant::now());
                self.circuit_gauge.set(Circuit::Open.gauge_value());
            }
            Circuit::Closed => {
                b.consecutive_failures = b.consecutive_failures.saturating_add(1);
                if b.consecutive_failures >= threshold {
                    b.circuit = Circuit::Open;
                    b.opened_at = Some(Instant::now());
                    self.circuit_gauge.set(Circuit::Open.gauge_value());
                }
            }
            Circuit::Open => {}
        }
    }

    /// Pop an idle pooled connection, if any.
    fn checkout(&self) -> Option<KeepAliveConn> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    /// Return a still-healthy keep-alive connection to the pool.
    fn park(&self, conn: KeepAliveConn, pool_capacity: usize) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < pool_capacity {
            pool.push(conn);
        }
    }

    /// Drop every pooled connection (after a transport failure the
    /// siblings are likely dead too — a killed backend leaves a pool
    /// full of half-closed sockets).
    fn drain_pool(&self) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    fn pooled(&self) -> usize {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// A consistent-hash ring: sorted virtual-node points mapping a key
/// hash to a backend index, with ring-order successor walk for
/// failover candidates.
struct Ring {
    /// `(point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl Ring {
    fn new(backend_addrs: &[String], replicas: usize) -> Ring {
        let mut points = Vec::with_capacity(backend_addrs.len() * replicas);
        for (idx, addr) in backend_addrs.iter().enumerate() {
            for r in 0..replicas.max(1) {
                points.push((fnv1a64(format!("{addr}#{r}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        Ring { points, backends: backend_addrs.len() }
    }

    /// The first `want` *distinct* backends at and after `hash` in ring
    /// order — the primary plus its failover successors.
    fn candidates(&self, hash: u64, want: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(want.min(self.backends));
        if self.points.is_empty() {
            return out;
        }
        let start = self.points.partition_point(|&(p, _)| p < hash);
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            if !out.contains(&idx) {
                out.push(idx);
                if out.len() >= want.min(self.backends) {
                    break;
                }
            }
        }
        out
    }
}

/// 64-bit FNV-1a with a splitmix64 finalizer. The ring must hash
/// identically across processes and runs (affinity assertions replay
/// from seeds), so the keyed std hasher is out. Raw FNV avalanches
/// poorly into the high bits on short inputs, and the ring orders
/// points by the full 64-bit value — without the finalizer, three
/// backends at 64 vnodes can end up with a 5:4:1 key split.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// A stable byte encoding of a canonical problem — the affinity key.
/// (`Hash` impls are not stable across Rust versions; this string is.)
fn canonical_key(p: &CanonicalProblem) -> String {
    fn rows(rows: &[Vec<i64>]) -> String {
        rows.iter()
            .map(|r| r.iter().map(i64::to_string).collect::<Vec<_>>().join(","))
            .collect::<Vec<_>>()
            .join(";")
    }
    format!(
        "mu={}|deps={}|space={}",
        p.mu.iter().map(i64::to_string).collect::<Vec<_>>().join(","),
        rows(&p.deps),
        rows(&p.space),
    )
}

/// Why the router answered a request locally instead of hashing it to a
/// backend. The two arms carry different wire shapes: a bad `/map` body
/// echoes the backend's own `MapResponse::BadRequest`, while a provably
/// unusable `/batch` has no member to answer for and gets a
/// router-level 400 [`RouterReject`].
enum AffinityError {
    /// `/map` body every backend would reject with a 400.
    Map(String),
    /// `/batch` body with an empty or wholly non-canonicalizable
    /// `requests` array.
    Batch(String),
    /// `/batch` body that is not JSON (malformed, or an object repeats
    /// a key).
    BatchJson(String),
    /// `/pareto` body every backend would reject with a 400.
    Pareto(String),
}

/// Shared router state behind every worker and the prober.
struct RouterCore {
    config: RouterConfig,
    backends: Vec<Backend>,
    ring: Ring,
    registry: Arc<Registry>,
    failovers: Arc<Counter>,
    /// Its `shed` counts admission sheds and no-routable-backend rejects.
    front: Front,
}

impl RouterCore {
    /// Compute the affinity hash for a forwarded body, if it
    /// canonicalizes. `/map` bodies canonicalize directly; `/batch`
    /// bodies use their first canonicalizable member (a batch of
    /// equivalent problems still lands with its cache entry). A `/batch`
    /// whose `requests` array is empty or wholly non-canonicalizable is
    /// rejected locally — every backend would 400 it, so forwarding only
    /// burns an upstream round-trip — and so is a body that is not JSON.
    /// A JSON body without a `requests` array routes by raw-content hash
    /// — the backend produces the authoritative 400.
    fn affinity_hash(&self, path: &str, body: &str) -> Result<u64, AffinityError> {
        if path == "/map" {
            let req = MapRequest::from_str(body).map_err(|e| AffinityError::Map(e.msg))?;
            let problem = canonical_problem(&req).map_err(AffinityError::Map)?;
            return Ok(fnv1a64(canonical_key(&problem).as_bytes()));
        }
        if path == "/pareto" {
            // Fixed-space frontiers canonicalize like the engine's
            // frontier cache; other scopes hash the raw body, so
            // identical requests still co-locate with their entry.
            let req =
                ParetoRequest::from_str(body).map_err(|e| AffinityError::Pareto(e.msg))?;
            return match pareto_affinity_problem(&req).map_err(AffinityError::Pareto)? {
                Some(problem) => Ok(fnv1a64(canonical_key(&problem).as_bytes())),
                None => Ok(fnv1a64(body.as_bytes())),
            };
        }
        // /batch: first member that parses and canonicalizes wins.
        let json = parse(body).map_err(|e| AffinityError::BatchJson(e.to_string()))?;
        if let Some(arr) = json.get("requests").and_then(Json::as_arr) {
            if arr.is_empty() {
                return Err(AffinityError::Batch("batch \"requests\" array is empty".into()));
            }
            for item in arr {
                if let Ok(req) = MapRequest::from_json(item) {
                    if let Ok(problem) = canonical_problem(&req) {
                        return Ok(fnv1a64(canonical_key(&problem).as_bytes()));
                    }
                }
            }
            return Err(AffinityError::Batch(format!(
                "none of the {} batch members parses into a canonicalizable request",
                arr.len()
            )));
        }
        Ok(fnv1a64(body.as_bytes()))
    }

    /// Send one request to one backend over a pooled (or fresh)
    /// keep-alive connection (see [`http::exchange_pooled`]): only a
    /// fresh connection's failure propagates as `Err`.
    fn send(
        &self,
        backend: &Backend,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<Response> {
        let started = Instant::now();
        let c = &self.config;
        let (connect, read, write) = (c.connect_timeout, c.read_timeout, http::IO_TIMEOUT);
        let (resp, conn) = http::exchange_pooled(
            || backend.checkout(),
            || KeepAliveConn::open(&backend.addr, connect, read, write),
            c.max_requests_per_conn,
            method,
            path,
            Some(body),
        )?;
        if let Some(conn) = conn {
            backend.park(conn, c.pool_capacity);
        }
        backend.upstream_latency.observe(started.elapsed());
        Ok(resp)
    }

    /// Route one mapping request: pick ring candidates, walk them under
    /// the breaker, fail over on transport errors, and produce the
    /// downstream answer. Always returns a well-formed response.
    fn forward(&self, method: &str, path: &str, body: &str) -> Answer {
        if self.backends.is_empty() {
            let reject = RouterReject {
                kind: RouterRejectKind::NoBackends,
                message: "router has no configured backends".into(),
                attempted: 0,
            };
            self.front.shed.inc();
            let mut answer = Answer::json(reject.kind.http_status(), reject.to_json().serialize());
            answer.headers.push(("Retry-After", "1".into()));
            return answer;
        }
        let hash = match self.affinity_hash(path, body) {
            Ok(h) => h,
            Err(AffinityError::Map(msg)) => {
                // The router rejects what every backend would reject,
                // with the same body shape, without a round-trip.
                let resp = crate::wire::MapResponse::BadRequest { msg };
                return Answer::json(resp.http_status(), resp.to_json().serialize());
            }
            Err(AffinityError::Pareto(msg)) => {
                let resp = crate::wire::ParetoResponse::BadRequest { msg };
                return Answer::json(resp.http_status(), resp.to_json().serialize());
            }
            Err(AffinityError::BatchJson(msg)) => {
                // The backend's own 400 for a `/batch` body it cannot parse.
                return Answer::json(400, error_body(&msg));
            }
            Err(AffinityError::Batch(message)) => {
                // A provably unusable batch gets a router-level 400:
                // there is no member to echo a backend-shaped answer
                // for, so the reject carries the router body shape.
                let reject =
                    RouterReject { kind: RouterRejectKind::BadRequest, message, attempted: 0 };
                return Answer::json(reject.kind.http_status(), reject.to_json().serialize());
            }
        };
        let candidates = self.ring.candidates(hash, self.config.failover_budget + 1);
        let mut attempted: u64 = 0;
        for (slot, &idx) in candidates.iter().enumerate() {
            let backend = &self.backends[idx];
            match backend.admit(self.config.open_cooldown) {
                Admission::Refuse => continue,
                Admission::Allow => {
                    // A draining (or never-probed-up) backend is skipped
                    // while an alternative exists; with no alternative
                    // it still gets the request — the backend's own shed
                    // beats a router-fabricated rejection.
                    if !backend.ready.load(Ordering::SeqCst) && slot + 1 < candidates.len() {
                        continue;
                    }
                }
                Admission::Trial => {}
            }
            attempted += 1;
            if attempted > 1 {
                self.failovers.inc();
            }
            match self.send(backend, method, path, body) {
                Ok(resp) => {
                    // A shed (503 + Retry-After) is a healthy backend
                    // saying "busy" — it must not push the breaker
                    // toward open, or load spikes would amplify into
                    // fleet-wide circuit trips. Everything else 5xx is
                    // evidence of a sick backend.
                    if resp.status == 503 && resp.retry_after.is_some() {
                        backend.record_success();
                    } else if resp.status >= 500 {
                        backend.record_failure(self.config.failure_threshold);
                    } else {
                        backend.record_success();
                    }
                    self.count_forward(backend, &resp.status.to_string());
                    let mut answer = Answer::json(resp.status, resp.body);
                    answer.headers.push(("X-Cfmapd-Backend", backend.addr.clone()));
                    if let Some(secs) = resp.retry_after {
                        answer.headers.push(("Retry-After", secs.to_string()));
                    }
                    return answer;
                }
                Err(_) => {
                    backend.drain_pool();
                    backend.record_failure(self.config.failure_threshold);
                    self.count_forward(backend, "transport_error");
                    // Loop on: the next distinct ring backend is the
                    // failover target.
                }
            }
        }
        let reject = if attempted == 0 {
            self.front.shed.inc();
            RouterReject {
                kind: RouterRejectKind::AllCircuitsOpen,
                message: format!(
                    "no routable backend among {} candidates (open circuits or draining)",
                    candidates.len()
                ),
                attempted,
            }
        } else if attempted == 1 {
            RouterReject {
                kind: RouterRejectKind::UpstreamUnreachable,
                message: format!(
                    "backend {} unreachable and no failover candidate answered",
                    self.backends[candidates[0]].addr
                ),
                attempted,
            }
        } else {
            RouterReject {
                kind: RouterRejectKind::FailoverExhausted,
                message: format!("all {attempted} attempted backends failed at transport level"),
                attempted,
            }
        };
        let mut answer = Answer::json(reject.kind.http_status(), reject.to_json().serialize());
        if answer.status == 503 {
            answer.headers.push(("Retry-After", "1".into()));
        }
        answer
    }

    /// Count one forward to `backend` by its upstream `status`.
    fn count_forward(&self, backend: &Backend, status: &str) {
        let labels = [("backend", backend.addr.as_str()), ("status", status)];
        self.registry
            .counter(
                "cfmapd_router_requests_total",
                "Requests forwarded, by backend and upstream status",
                &labels,
            )
            .inc();
    }

    /// One probe pass over every backend. Updates `up`/`ready`, and
    /// drives open circuits through their half-open recovery without
    /// waiting for live traffic to volunteer as the trial.
    fn probe_all(&self) {
        for backend in &self.backends {
            let alive = probe_healthz(&backend.addr, self.config.connect_timeout);
            match alive {
                Some(health) => {
                    backend.up.store(true, Ordering::SeqCst);
                    backend.up_gauge.set(1);
                    let ready = !health.draining;
                    backend.ready.store(ready, Ordering::SeqCst);
                    // A reachable backend heals its breaker — but only
                    // through the half-open gate, so the recovery is
                    // observable and a flapping backend re-opens fast.
                    match backend.admit(self.config.open_cooldown) {
                        Admission::Trial => backend.record_success(),
                        Admission::Allow | Admission::Refuse => {}
                    }
                }
                None => {
                    backend.up.store(false, Ordering::SeqCst);
                    backend.ready.store(false, Ordering::SeqCst);
                    backend.up_gauge.set(0);
                    backend.record_failure(self.config.failure_threshold);
                }
            }
        }
    }

    /// Is any backend currently routable (for `/readyz`)?
    fn any_routable(&self) -> bool {
        self.backends
            .iter()
            .any(|b| b.ready.load(Ordering::SeqCst) && b.circuit() != Circuit::Open)
    }
}

/// What a `/healthz` probe learned.
struct ProbedHealth {
    draining: bool,
}

/// Probe one backend's `/healthz` over a fresh short-timeout
/// connection. `None` means unreachable or non-200.
fn probe_healthz(addr: &str, connect_timeout: Duration) -> Option<ProbedHealth> {
    let mut conn = KeepAliveConn::open(addr, connect_timeout, PROBE_TIMEOUT, PROBE_TIMEOUT).ok()?;
    let resp = conn.exchange("GET", "/healthz", None).ok()?;
    if resp.status != 200 {
        return None;
    }
    let draining = parse(&resp.body)
        .ok()
        .and_then(|j| j.get("draining").and_then(Json::as_bool))
        .unwrap_or(false);
    Some(ProbedHealth { draining })
}

/// A bound (but not yet running) router.
pub struct CfmapRouter {
    listener: TcpListener,
    core: Arc<RouterCore>,
}

impl CfmapRouter {
    /// Bind to `config.addr` and build the ring and backend table.
    pub fn bind(config: &RouterConfig) -> std::io::Result<CfmapRouter> {
        let listener = TcpListener::bind(&config.addr)?;
        let registry = Arc::new(Registry::new());
        let backends: Vec<Backend> =
            config.backends.iter().map(|a| Backend::new(a.clone(), &registry)).collect();
        let ring = Ring::new(&config.backends, config.replicas);
        let failovers = registry.counter(
            "cfmapd_router_failovers_total",
            "Mapping requests retried on a failover backend after a transport failure",
            &[],
        );
        let sheds = registry.counter(
            "cfmapd_router_shed_total",
            "Requests the router answered 503 itself: admission sheds and no routable backend",
            &[],
        );
        let front = Front {
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            max_requests_per_conn: config.max_requests_per_conn.max(2),
            shutdown: Arc::new(AtomicBool::new(false)),
            // Tracked for admission, but not exported: the router's
            // `/metrics` carries no queue-depth series.
            queue_depth: Arc::default(),
            shed: sheds,
        };
        let config = config.clone();
        let core = Arc::new(RouterCore { config, backends, ring, registry, failovers, front });
        Ok(CfmapRouter { listener, core })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`CfmapRouter::run`] from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle::new(Arc::clone(&self.core.front.shutdown), self.local_addr()?))
    }

    /// The router's metrics registry (tests scrape it in-process).
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.core.registry)
    }

    /// Accept and serve until shutdown. Spawns the health prober and a
    /// fixed worker pool; returns once both have wound down.
    pub fn run(self) -> std::io::Result<()> {
        let CfmapRouter { listener, core } = self;
        // First probe before accepting: the very first request should
        // already know which backends are up.
        core.probe_all();
        let prober = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                while !http::wait_for(&core.front.shutdown, core.config.health_interval) {
                    core.probe_all();
                }
            })
        };
        for worker in http::serve(&listener, Arc::clone(&core)) {
            let _ = worker.join();
        }
        let _ = prober.join();
        Ok(())
    }
}

impl Tier for RouterCore {
    fn front(&self) -> &Front {
        &self.front
    }

    fn answer(&self, req: &Request, _anchor_us: u64) -> Answer {
        dispatch(self, &req.method, &req.path, &req.body)
    }

    fn shed_body(&self) -> String {
        RouterReject {
            kind: RouterRejectKind::AllCircuitsOpen,
            message: "router admission queue full; retry after the Retry-After delay".into(),
            attempted: 0,
        }
        .to_json()
        .serialize()
    }
}

/// Route one parsed downstream request.
fn dispatch(core: &RouterCore, method: &str, path: &str, body: &str) -> Answer {
    match (method, path) {
        ("POST", "/map") | ("POST", "/pareto") | ("POST", "/batch") => {
            core.forward(method, path, body)
        }
        ("GET", "/metrics") => Answer {
            content_type: CT_METRICS,
            ..Answer::json(200, core.registry.render_prometheus())
        },
        ("GET", "/healthz") => {
            let up = core.backends.iter().filter(|b| b.up.load(Ordering::SeqCst)).count();
            let json = Json::Obj(vec![
                ("status".into(), Json::Str("ok".into())),
                ("backends".into(), Json::Int(core.backends.len() as i64)),
                ("backends_up".into(), Json::Int(up as i64)),
            ]);
            Answer::json(200, json.serialize())
        }
        ("GET", "/readyz") => {
            if core.any_routable() {
                let json = Json::Obj(vec![("status".into(), Json::Str("ok".into()))]);
                Answer::json(200, json.serialize())
            } else {
                let json = Json::Obj(vec![("status".into(), Json::Str("no_backends".into()))]);
                let mut answer = Answer::json(503, json.serialize());
                answer.headers.push(("Retry-After", "1".into()));
                answer
            }
        }
        ("GET", "/backends") => {
            let list: Vec<Json> = core
                .backends
                .iter()
                .map(|b| {
                    Json::Obj(vec![
                        ("addr".into(), Json::Str(b.addr.clone())),
                        ("up".into(), Json::Bool(b.up.load(Ordering::SeqCst))),
                        ("ready".into(), Json::Bool(b.ready.load(Ordering::SeqCst))),
                        (
                            "circuit".into(),
                            Json::Str(
                                match b.circuit() {
                                    Circuit::Closed => "closed",
                                    Circuit::Open => "open",
                                    Circuit::HalfOpen => "half_open",
                                }
                                .into(),
                            ),
                        ),
                        ("pooled_connections".into(), Json::Int(b.pooled() as i64)),
                    ])
                })
                .collect();
            let json = Json::Obj(vec![("backends".into(), Json::Arr(list))]);
            Answer::json(200, json.serialize())
        }
        ("POST", "/shutdown") => {
            core.front.shutdown.store(true, Ordering::SeqCst);
            let json = Json::Obj(vec![("status".into(), Json::Str("shutting_down".into()))]);
            Answer::json(200, json.serialize())
        }
        _ => Answer::json(404, error_body(&format!("no route {method} {path}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_placement_is_deterministic_and_stable_under_reorder() {
        let a = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".into(), "127.0.0.1:3".into()];
        let mut b = a.clone();
        b.rotate_left(1);
        let ring_a = Ring::new(&a, 64);
        let ring_b = Ring::new(&b, 64);
        for key in 0..200u64 {
            let h = fnv1a64(&key.to_le_bytes());
            let pick_a = &a[ring_a.candidates(h, 1)[0]];
            let pick_b = &b[ring_b.candidates(h, 1)[0]];
            assert_eq!(pick_a, pick_b, "placement must not depend on backend-list order");
        }
    }

    #[test]
    fn ring_candidates_are_distinct_and_exhaustive() {
        let addrs: Vec<String> = (0..4).map(|i| format!("10.0.0.{i}:7971")).collect();
        let ring = Ring::new(&addrs, 16);
        let cands = ring.candidates(fnv1a64(b"some-key"), 10);
        assert_eq!(cands.len(), 4, "want capped at backend count");
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "candidates must be distinct: {cands:?}");
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let addrs: Vec<String> = (0..3).map(|i| format!("10.0.0.{i}:7971")).collect();
        let ring = Ring::new(&addrs, 64);
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            counts[ring.candidates(fnv1a64(&key.to_le_bytes()), 1)[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 3000 / 3 / 3 && c < 3000 * 2 / 3,
                "backend {i} got {c}/3000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_through_half_open() {
        let registry = Registry::new();
        let b = Backend::new("127.0.0.1:9".into(), &registry);
        let threshold = 3;
        let cooldown = Duration::from_millis(10);
        assert!(matches!(b.admit(cooldown), Admission::Allow));
        b.record_failure(threshold);
        b.record_failure(threshold);
        assert_eq!(b.circuit(), Circuit::Closed, "below threshold stays closed");
        b.record_failure(threshold);
        assert_eq!(b.circuit(), Circuit::Open);
        assert!(matches!(b.admit(cooldown), Admission::Refuse), "fresh open refuses");
        std::thread::sleep(cooldown * 2);
        assert!(matches!(b.admit(cooldown), Admission::Trial), "cooldown admits one trial");
        assert!(
            matches!(b.admit(cooldown), Admission::Refuse),
            "only one half-open trial at a time"
        );
        b.record_success();
        assert_eq!(b.circuit(), Circuit::Closed);
        assert!(matches!(b.admit(cooldown), Admission::Allow));
        // A failed trial re-opens and restarts the cooldown.
        for _ in 0..threshold {
            b.record_failure(threshold);
        }
        std::thread::sleep(cooldown * 2);
        assert!(matches!(b.admit(cooldown), Admission::Trial));
        b.record_failure(threshold);
        assert_eq!(b.circuit(), Circuit::Open);
        assert!(matches!(b.admit(cooldown), Admission::Refuse));
    }

    #[test]
    fn success_resets_consecutive_failure_count() {
        let registry = Registry::new();
        let b = Backend::new("127.0.0.1:9".into(), &registry);
        b.record_failure(3);
        b.record_failure(3);
        b.record_success();
        b.record_failure(3);
        b.record_failure(3);
        assert_eq!(b.circuit(), Circuit::Closed, "interleaved successes keep the circuit closed");
    }

    #[test]
    fn canonical_key_is_permutation_invariant() {
        // Matmul with axes relabeled (μ and the space row permuted the
        // same way, dependence columns reordered) canonicalizes to the
        // same problem — so the router places both on the same backend.
        let original = MapRequest {
            algorithm: None,
            mu: vec![4, 4, 4],
            deps: Some(vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]]),
            space: vec![vec![1, 1, -1]],
            cap: None,
            max_candidates: None,
            timeout_ms: None,
            deadline_ms: None,
        };
        let permuted = MapRequest {
            deps: Some(vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]),
            space: vec![vec![-1, 1, 1]],
            ..original.clone()
        };
        let key_a = canonical_key(&canonical_problem(&original).expect("canonicalizes"));
        let key_b = canonical_key(&canonical_problem(&permuted).expect("canonicalizes"));
        assert_eq!(key_a, key_b, "equivalent problems must share an affinity key");
        assert_eq!(fnv1a64(key_a.as_bytes()), fnv1a64(key_b.as_bytes()));
    }
}
