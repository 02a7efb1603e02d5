//! The `cfmapd` HTTP server.
//!
//! Plain `std`: the front end shared with `cfmapd-router`
//! (`http::serve`) accepts connections, admits them through a
//! *bounded* queue to a fixed pool of worker threads, and sheds the
//! overflow with `503` + `Retry-After` rather than buffering it without
//! bound. This module supplies what is the daemon's own: the routes,
//! answered against the shared [`Engine`], their metrics and access
//! log, fault injection, the background fitter and the drain watchdog.
//! No async runtime, no HTTP library.
//!
//! Connections close after one request unless the client explicitly
//! sends `Connection: keep-alive`, in which case the worker serves up
//! to [`ServerConfig::max_requests_per_conn`] requests back-to-back on
//! the same socket (each framed by an exact `Content-Length`). Keeping
//! the persistent protocol opt-in preserves the original EOF-framed
//! `Connection: close` contract that raw-socket tests and the fault
//! harness rely on.
//!
//! Routes:
//!
//! | route | body | answer |
//! |---|---|---|
//! | `POST /map` | a `MapRequest` | a `MapResponse` |
//! | `POST /pareto` | a `ParetoRequest` | a `ParetoResponse` (the non-dominated set) |
//! | `POST /batch` | `{"requests": […]}` | `{"responses": […], "distinct_solves": n}` |
//! | `GET /stats` | — | cache + search + server counters |
//! | `GET /metrics` | — | Prometheus text exposition of the registry |
//! | `GET /healthz` | — | liveness: `{"status","draining","queue_depth","workers"}`, always `200` while the process serves |
//! | `GET /readyz` | — | readiness: `200` normally, `503` once draining |
//! | `GET /family` | — | family-catalogue counters + every certificate |
//! | `POST /cache/clear` | — | `{"cleared": n}` |
//! | `GET /cache/save` | — | the warm-start snapshot as text (pipe to a file, ship to new shards) |
//! | `POST /cache/save` | `{"path": "…"}` | atomically write the snapshot server-side |
//! | `POST /shutdown` | — | `{"status":"shutting_down"}`, then the listener drains and exits |
//!
//! A background fitter thread watches the engine's family observations
//! and promotes them to certificates (see [`crate::family_store`]); it
//! exits with the accept loop at shutdown.
//!
//! `/healthz` vs `/readyz`: liveness answers "is the process serving at
//! all" (restart me if not), readiness answers "should new traffic be
//! routed here" (a draining daemon is alive but not ready). The
//! liveness body carries `draining` and the admission-queue depth so a
//! routing tier — `cfmapd-router` — can steer load away *before* the
//! queue fills and sheds.
//!
//! Shutdown is cooperative: `POST /shutdown` (or [`ShutdownHandle::shutdown`])
//! sets an atomic flag and pokes the listener with a loopback connection so
//! the blocking `accept` observes it. `std` exposes no signal API, so
//! SIGTERM/ctrl-C handling is delegated to the process supervisor or the
//! binary's `--watch-stdin` mode (see `src/bin/cfmapd.rs`).

use crate::engine::Engine;
pub use crate::http::ShutdownHandle;
use crate::http::{self, error_body, Answer, Front, Request, Tier, CT_JSON, CT_METRICS};
use crate::json::{parse, Json};
use crate::snapshot::{certificate_json, write_atomic};
use crate::wire::{MapRequest, MapResponse, ParetoRequest, ParetoResponse};
use cfmap_core::budget::clock;
use cfmap_core::metrics::{Histogram, DEFAULT_LATENCY_BUCKETS_US};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};
use std::str::FromStr;

/// `Content-Type` of the `GET /cache/save` answer (the snapshot's own
/// header line carries the version and checksums).
const CT_SNAPSHOT: &str = "text/plain; charset=utf-8";

/// How long the background fitter naps when no family is ready.
const FITTER_IDLE_NAP: Duration = Duration::from_millis(25);

/// Server configuration (all fields have serviceable defaults).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Design-cache capacity (entries).
    pub cache_capacity: usize,
    /// Design-cache shards.
    pub cache_shards: usize,
    /// Emit one structured JSON access-log line per request on stderr
    /// (`--log-format json`).
    pub log_json: bool,
    /// Admission-queue capacity: connections accepted but not yet
    /// claimed by a worker. When full, new connections are shed with
    /// `503` + `Retry-After` instead of buffering without bound.
    pub queue_capacity: usize,
    /// How long shutdown waits for queued and in-flight requests before
    /// cancelling the engine's searches so workers can exit.
    pub drain_deadline: Duration,
    /// Honor `X-Cfmapd-Fault` request headers (worker panics, stalls).
    /// Test-only; keep off in production.
    pub fault_injection: bool,
    /// Requests served on one kept-alive connection before the server
    /// closes it anyway. Bounds how long a single client can pin a
    /// worker, and gives load balancing a natural re-shuffle point.
    pub max_requests_per_conn: usize,
    /// Warm-start snapshot to load at bind time (`--cache-load PATH`).
    /// A version / digest / checksum mismatch fails startup with the
    /// precise [`cfmap_core::CfmapError::SnapshotMismatch`] message
    /// rather than serving from incompatible state.
    pub cache_load: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            cache_capacity: 256,
            cache_shards: 8,
            log_json: false,
            queue_capacity: 64,
            drain_deadline: Duration::from_secs(5),
            fault_injection: false,
            max_requests_per_conn: 100,
            cache_load: None,
        }
    }
}

/// A bound (but not yet running) server.
pub struct CfmapServer {
    listener: TcpListener,
    daemon: Arc<Daemon>,
    drain_deadline: Duration,
    drain_duration: Arc<Histogram>,
}

/// The daemon's tier of the shared front end: the engine routes, their
/// metrics and access log, and fault injection.
struct Daemon {
    engine: Engine,
    front: Front,
    requests: AtomicU64,
    log_json: bool,
    fault_injection: bool,
}

impl CfmapServer {
    /// Bind to `config.addr` and build the shared engine.
    pub fn bind(config: &ServerConfig) -> std::io::Result<CfmapServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let engine = Engine::new(config.cache_capacity.max(1), config.cache_shards.max(1));
        if let Some(path) = &config.cache_load {
            let text = std::fs::read_to_string(path).map_err(|e| {
                std::io::Error::new(e.kind(), format!("--cache-load {path}: {e}"))
            })?;
            engine.load_snapshot(&text).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("--cache-load {path}: {e}"),
                )
            })?;
        }
        // Registering at bind time makes the admission metrics visible
        // (at zero) in the very first `/metrics` scrape, before any
        // connection is shed or queued.
        let registry = Arc::clone(engine.metrics());
        let queue_depth = registry.gauge(
            "cfmapd_queue_depth",
            "Connections admitted and waiting for a worker",
            &[],
        );
        let requests_shed = registry.counter(
            "cfmapd_requests_shed_total",
            "Connections answered 503 because the admission queue was full",
            &[],
        );
        let drain_duration = registry.histogram(
            "cfmapd_drain_duration_seconds",
            "Time from shutdown request to the last worker exiting",
            &[],
            DEFAULT_LATENCY_BUCKETS_US,
        );
        let front = Front {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity,
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            shutdown: Arc::new(AtomicBool::new(false)),
            queue_depth,
            shed: requests_shed,
        };
        let daemon = Arc::new(Daemon {
            engine,
            front,
            requests: AtomicU64::new(0),
            log_json: config.log_json,
            fault_injection: config.fault_injection,
        });
        Ok(CfmapServer { listener, daemon, drain_deadline: config.drain_deadline, drain_duration })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`CfmapServer::run`] from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle::new(Arc::clone(&self.daemon.front.shutdown), self.local_addr()?))
    }

    /// Accept and serve until shutdown is requested. Blocks the calling
    /// thread; returns once every worker has drained (bounded by the
    /// configured drain deadline — see [`ServerConfig::drain_deadline`]).
    pub fn run(self) -> std::io::Result<()> {
        let CfmapServer { listener, daemon, drain_deadline, drain_duration } = self;
        // The background fitter promotes observed schedule families to
        // certificates off the request path. Detached on purpose: a fit
        // step can spend seconds solving probe instances, and shutdown
        // must not wait for it — the thread notices the flag at its next
        // step and exits on its own (the process exits regardless).
        {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || {
                while !daemon.front.shutdown.load(Ordering::SeqCst) {
                    if !daemon.engine.family_fit_step() {
                        std::thread::sleep(FITTER_IDLE_NAP);
                    }
                }
            });
        }
        let pool = http::serve(&listener, Arc::clone(&daemon));
        // Graceful drain: the workers answer every queued connection,
        // then exit. A watchdog bounds the wait — past the drain
        // deadline it cancels the engine's searches, which winds
        // in-flight requests down to best-effort answers within one
        // candidate's latency.
        let drain_started = clock::now_micros();
        let drained = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let drained = Arc::clone(&drained);
            let cancel = daemon.engine.cancel_token();
            std::thread::spawn(move || {
                if !http::wait_for(&drained, drain_deadline) {
                    cancel.cancel();
                }
            })
        };
        for worker in pool {
            let _ = worker.join();
        }
        drained.store(true, Ordering::SeqCst);
        let _ = watchdog.join();
        drain_duration.observe_micros(clock::now_micros().saturating_sub(drain_started));
        Ok(())
    }
}

impl Tier for Daemon {
    fn front(&self) -> &Front {
        &self.front
    }

    fn answer(&self, req: &Request, anchor_us: u64) -> Answer {
        if self.fault_injection {
            apply_fault(req.fault.as_deref());
        }
        let (status, content_type, body) =
            dispatch(self, &req.method, &req.path, &req.body, anchor_us);
        Answer { status, content_type, body, headers: Vec::new() }
    }

    fn account(&self, req: Option<&Request>, answer: &Answer, elapsed: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let route = req.map_or("unparsed", |r| route_label(&r.method, &r.path));
        let status = answer.status.to_string();
        let registry = self.engine.metrics();
        registry
            .counter(
                "cfmapd_requests_total",
                "Requests answered, by route and status",
                &[("route", route), ("status", &status)],
            )
            .inc();
        registry
            .histogram(
                "cfmapd_request_duration_seconds",
                "Request latency from first byte to response, by route",
                &[("route", route)],
                DEFAULT_LATENCY_BUCKETS_US,
            )
            .observe(elapsed);
        if self.log_json {
            let (method, path) = req.map_or(("", ""), |r| (r.method.as_str(), r.path.as_str()));
            access_log_line(method, path, answer.status, elapsed, answer.body.len());
        }
    }

    fn shed_body(&self) -> String {
        http::status_body("overloaded", "admission queue full; retry after the Retry-After delay")
    }
}

/// The route label a request is accounted under. Known routes keep
/// their path; everything else collapses into `"other"` so a client
/// probing random paths cannot grow the registry without bound.
fn route_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("POST", "/map") => "/map",
        ("POST", "/pareto") => "/pareto",
        ("POST", "/batch") => "/batch",
        ("GET", "/stats") => "/stats",
        ("GET", "/metrics") => "/metrics",
        ("GET", "/healthz") => "/healthz",
        ("GET", "/readyz") => "/readyz",
        ("GET", "/family") => "/family",
        ("POST", "/cache/clear") => "/cache/clear",
        ("GET" | "POST", "/cache/save") => "/cache/save",
        ("POST", "/shutdown") => "/shutdown",
        _ => "other",
    }
}

/// Emit one structured access-log line on stderr. The JSON serializer
/// handles escaping, so hostile request paths cannot corrupt the log
/// stream.
fn access_log_line(method: &str, path: &str, status: u16, elapsed: Duration, bytes: usize) {
    let ts_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| i64::try_from(d.as_millis()).unwrap_or(i64::MAX))
        .unwrap_or(0);
    let line = Json::Obj(vec![
        ("ts_ms".into(), Json::Int(ts_ms)),
        ("method".into(), Json::Str(method.into())),
        ("path".into(), Json::Str(path.into())),
        ("status".into(), Json::Int(i64::from(status))),
        (
            "duration_us".into(),
            Json::Int(i64::try_from(elapsed.as_micros()).unwrap_or(i64::MAX)),
        ),
        ("bytes".into(), Json::Int(i64::try_from(bytes).unwrap_or(i64::MAX))),
    ]);
    eprintln!("{}", line.serialize());
}

/// Execute an injected fault (only reached when the server was started
/// with fault injection enabled). `panic` unwinds inside the front
/// end's per-request guard — the request answers 500 and the worker
/// survives; `stall-ms:N` parks the worker for `N` milliseconds (capped
/// at 10 s) to simulate a wedged search.
fn apply_fault(fault: Option<&str>) {
    match fault {
        Some("panic") => panic!("injected fault: panic"),
        Some(spec) => {
            if let Some(ms) = spec.strip_prefix("stall-ms:").and_then(|v| v.parse::<u64>().ok()) {
                std::thread::sleep(Duration::from_millis(ms.min(10_000)));
            }
        }
        None => {}
    }
}

/// Route a parsed request. Returns status, `Content-Type`, and body.
fn dispatch(
    daemon: &Daemon,
    method: &str,
    path: &str,
    body: &str,
    accepted_us: u64,
) -> (u16, &'static str, String) {
    let Daemon { engine, front, requests, .. } = daemon;
    let Front { shutdown, queue_depth, workers, .. } = front;
    let workers = *workers;
    if method == "POST" {
        if let Some((status, body)) = answer_post(engine, path, body, accepted_us) {
            return (status, CT_JSON, body);
        }
    }
    match (method, path) {
        ("GET", "/stats") => {
            let cache = engine.cache_stats();
            let search = engine.search_stats();
            let family = engine.family_stats();
            let json = Json::Obj(vec![
                ("status".into(), Json::Str("ok".into())),
                ("requests".into(), Json::Int(requests.load(Ordering::Relaxed) as i64)),
                ("workers".into(), Json::Int(workers as i64)),
                (
                    "cache".into(),
                    Json::Obj(vec![
                        ("hits".into(), Json::Int(cache.hits as i64)),
                        ("misses".into(), Json::Int(cache.misses as i64)),
                        ("evictions".into(), Json::Int(cache.evictions as i64)),
                        ("entries".into(), Json::Int(cache.entries as i64)),
                        ("capacity".into(), Json::Int(cache.capacity as i64)),
                        ("shards".into(), Json::Int(cache.shards as i64)),
                    ]),
                ),
                (
                    "search".into(),
                    Json::Obj(vec![
                        ("solves".into(), Json::Int(search.solves as i64)),
                        (
                            "candidates_enumerated".into(),
                            Json::Int(search.candidates_enumerated as i64),
                        ),
                        (
                            "candidates_accepted".into(),
                            Json::Int(search.candidates_accepted as i64),
                        ),
                        (
                            "hnf_computations".into(),
                            Json::Int(search.hnf_computations as i64),
                        ),
                        (
                            "fallback_screened".into(),
                            Json::Int(search.fallback_screened as i64),
                        ),
                    ]),
                ),
                ("family".into(), family_stats_json(&family)),
            ]);
            (200, CT_JSON, json.serialize())
        }
        ("GET", "/metrics") => (200, CT_METRICS, engine.metrics().render_prometheus()),
        ("GET", "/healthz") => {
            // Liveness plus the routing signals a fleet front-end needs:
            // a draining daemon is alive (do not restart it) but should
            // stop receiving traffic, and the queue depth says how
            // saturated admission is *before* sheds start.
            let draining = shutdown.load(Ordering::SeqCst);
            let json = Json::Obj(vec![
                (
                    "status".into(),
                    Json::Str(if draining { "draining" } else { "ok" }.into()),
                ),
                ("draining".into(), Json::Bool(draining)),
                ("queue_depth".into(), Json::Int(queue_depth.get())),
                ("workers".into(), Json::Int(workers as i64)),
            ]);
            (200, CT_JSON, json.serialize())
        }
        ("GET", "/readyz") => {
            if shutdown.load(Ordering::SeqCst) {
                let json = Json::Obj(vec![("status".into(), Json::Str("draining".into()))]);
                (503, CT_JSON, json.serialize())
            } else {
                let json = Json::Obj(vec![("status".into(), Json::Str("ok".into()))]);
                (200, CT_JSON, json.serialize())
            }
        }
        ("GET", "/family") => {
            let stats = engine.family_stats();
            let families = Json::Arr(
                engine
                    .family_certificates()
                    .iter()
                    .filter_map(|c| {
                        let mut json = certificate_json(c)?;
                        if let Json::Obj(fields) = &mut json {
                            fields.push((
                                "fully_symbolic".into(),
                                Json::Bool(c.fully_symbolic()),
                            ));
                        }
                        Some(json)
                    })
                    .collect(),
            );
            let mut fields = vec![("status".into(), Json::Str("ok".into()))];
            if let Json::Obj(stat_fields) = family_stats_json(&stats) {
                fields.extend(stat_fields);
            }
            fields.push(("families".into(), families));
            (200, CT_JSON, Json::Obj(fields).serialize())
        }
        ("POST", "/cache/clear") => {
            let cleared = engine.clear_cache();
            (
                200,
                CT_JSON,
                Json::Obj(vec![("cleared".into(), Json::Int(cleared as i64))]).serialize(),
            )
        }
        // The snapshot travels as plain text: `cfmap client --get
        // /cache/save > warm.snap` on one shard, `--cache-load warm.snap`
        // on the next.
        ("GET", "/cache/save") => (200, CT_SNAPSHOT, engine.snapshot().encode()),
        ("POST", "/cache/save") => {
            let path = parse(body)
                .ok()
                .and_then(|j| j.get("path").and_then(Json::as_str).map(str::to_string));
            match path {
                None => (400, CT_JSON, error_body("body must be {\"path\": \"...\"}")),
                Some(path) => {
                    let snap = engine.snapshot();
                    let (entries, families) = (snap.cache.len(), snap.families.len());
                    let text = snap.encode();
                    match write_atomic(std::path::Path::new(&path), &text) {
                        Ok(()) => (
                            200,
                            CT_JSON,
                            Json::Obj(vec![
                                ("status".into(), Json::Str("saved".into())),
                                ("path".into(), Json::Str(path)),
                                (
                                    "bytes".into(),
                                    Json::Int(i64::try_from(text.len()).unwrap_or(i64::MAX)),
                                ),
                                ("entries".into(), Json::Int(entries as i64)),
                                ("families".into(), Json::Int(families as i64)),
                            ])
                            .serialize(),
                        ),
                        Err(e) => {
                            (500, CT_JSON, http::status_body("io_error", &format!("{path}: {e}")))
                        }
                    }
                }
            }
        }
        ("POST", "/shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            (
                200,
                CT_JSON,
                Json::Obj(vec![("status".into(), Json::Str("shutting_down".into()))])
                    .serialize(),
            )
        }
        _ => (404, CT_JSON, error_body(&format!("no route {method} {path}"))),
    }
}

/// The family-catalogue counters as a JSON object (shared by `/stats`
/// and `/family`).
fn family_stats_json(f: &crate::family_store::FamilyStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::Int(i64::try_from(f.hits).unwrap_or(i64::MAX))),
        ("certificates".into(), Json::Int(i64::try_from(f.certificates).unwrap_or(i64::MAX))),
        ("observing".into(), Json::Int(i64::try_from(f.observing).unwrap_or(i64::MAX))),
        ("rejected".into(), Json::Int(i64::try_from(f.rejected).unwrap_or(i64::MAX))),
        ("fit_certified".into(), Json::Int(i64::try_from(f.fit_certified).unwrap_or(i64::MAX))),
        ("fit_failed".into(), Json::Int(i64::try_from(f.fit_failed).unwrap_or(i64::MAX))),
    ])
}

/// The status and JSON body the daemon answers a `POST` to one of the
/// engine's routes (`/map`, `/pareto`, `/batch`) with, or `None` for any
/// other path. `accepted_us` anchors `deadline_ms` on the budget clock.
pub fn answer_post(
    engine: &Engine,
    path: &str,
    body: &str,
    accepted_us: u64,
) -> Option<(u16, String)> {
    Some(match path {
        "/map" => {
            let resp = match MapRequest::from_str(body) {
                Ok(req) => engine.resolve_anchored(&req, accepted_us),
                Err(e) => MapResponse::BadRequest { msg: e.msg },
            };
            (resp.http_status(), resp.to_json().serialize())
        }
        "/pareto" => {
            let resp = match ParetoRequest::from_str(body) {
                Ok(req) => engine.pareto(&req),
                Err(e) => ParetoResponse::BadRequest { msg: e.msg },
            };
            (resp.http_status(), resp.to_json().serialize())
        }
        "/batch" => match parse_batch(body) {
            Ok(reqs) => {
                let (responses, solves) = engine.resolve_batch_anchored(&reqs, accepted_us);
                let json = Json::Obj(vec![
                    (
                        "responses".into(),
                        Json::Arr(responses.iter().map(MapResponse::to_json).collect()),
                    ),
                    ("distinct_solves".into(), Json::Int(solves as i64)),
                ]);
                (200, json.serialize())
            }
            Err(msg) => (400, error_body(&msg)),
        },
        _ => return None,
    })
}

/// Parse `{"requests": […]}`.
fn parse_batch(body: &str) -> Result<Vec<MapRequest>, String> {
    let json = parse(body).map_err(|e| e.to_string())?;
    let arr = json
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or("batch body must be {\"requests\": [...]}")?;
    arr.iter()
        .map(|v| MapRequest::from_json(v).map_err(|e| e.msg))
        .collect()
}
