//! The `cfmapd` HTTP server.
//!
//! Plain `std`: a `TcpListener` accept loop feeds accepted connections
//! through a *bounded* `sync_channel` to a fixed pool of worker
//! threads, each of which parses HTTP/1.1 requests, dispatches them
//! against the shared [`Engine`], and answers. When the admission queue
//! is full, new connections are shed with `503` + `Retry-After` rather
//! than buffered without bound. No async runtime, no HTTP library — the
//! protocol subset needed lives in [`crate::http`].
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
use crate::http::{self, read_request, write_response_extra, ReadError};
use crate::json::{parse, Json};
use crate::snapshot::{certificate_json, write_atomic};
use crate::wire::{MapRequest, MapResponse, ParetoRequest, ParetoResponse};
use cfmap_core::budget::clock;
use cfmap_core::metrics::{Counter, Gauge, Histogram, DEFAULT_LATENCY_BUCKETS_US};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};
use std::str::FromStr;

/// How long a worker waits for a slow client before abandoning the
/// connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a worker waits for the *next* request on a kept-alive
/// connection. Much shorter than [`IO_TIMEOUT`]: an idle persistent
/// connection pins a worker, so patience between requests is a direct
/// tax on pool capacity (and on drain time at shutdown).
const KEEPALIVE_IDLE_TIMEOUT: Duration = Duration::from_secs(2);

/// Read and write patience of a shed connection's `503`.
const SHED_TIMEOUT: Duration = Duration::from_secs(2);

/// `Content-Type` of every JSON answer.
const CT_JSON: &str = "application/json";

/// `Content-Type` of the `/metrics` answer (Prometheus text exposition
/// format).
const CT_METRICS: &str = "text/plain; version=0.0.4";

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
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    workers: usize,
    log_json: bool,
    queue_capacity: usize,
    drain_deadline: Duration,
    fault_injection: bool,
    max_requests_per_conn: usize,
    queue_depth: Arc<Gauge>,
    requests_shed: Arc<Counter>,
    drain_duration: Arc<Histogram>,
}

/// An accepted connection, stamped with its accept time on the budget
/// clock. The first request's deadline anchors here so time spent
/// waiting in the admission queue counts against the caller's
/// `deadline_ms`.
struct Conn {
    stream: TcpStream,
    accepted_us: u64,
}

/// Lets another thread stop a running [`CfmapServer`].
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// A handle for `flag` over the listener at `addr` (also used by
    /// `cfmapd-router`, whose accept loop has the same shape).
    pub(crate) fn new(flag: Arc<AtomicBool>, addr: std::net::SocketAddr) -> ShutdownHandle {
        ShutdownHandle { flag, addr }
    }

    /// Ask the server to stop accepting and drain its workers.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

impl CfmapServer {
    /// Bind to `config.addr` and build the shared engine.
    pub fn bind(config: &ServerConfig) -> std::io::Result<CfmapServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let engine = Arc::new(Engine::new(
            config.cache_capacity.max(1),
            config.cache_shards.max(1),
        ));
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
        Ok(CfmapServer {
            listener,
            engine,
            shutdown: Arc::new(AtomicBool::new(false)),
            requests: Arc::new(AtomicU64::new(0)),
            workers: config.workers.max(1),
            log_json: config.log_json,
            queue_capacity: config.queue_capacity.max(1),
            drain_deadline: config.drain_deadline,
            fault_injection: config.fault_injection,
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            queue_depth,
            requests_shed,
            drain_duration,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`CfmapServer::run`] from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle::new(Arc::clone(&self.shutdown), self.local_addr()?))
    }

    /// Accept and serve until shutdown is requested. Blocks the calling
    /// thread; returns once every worker has drained (bounded by the
    /// configured drain deadline — see [`ServerConfig::drain_deadline`]).
    pub fn run(self) -> std::io::Result<()> {
        // A *bounded* queue is the admission-control contract: at most
        // `queue_capacity` connections wait for a worker, and everything
        // beyond that is shed immediately with 503 + Retry-After rather
        // than buffered into an unbounded backlog the daemon can never
        // serve within anyone's deadline.
        let (tx, rx) = mpsc::sync_channel::<Conn>(self.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        // The background fitter promotes observed schedule families to
        // certificates off the request path. Detached on purpose: a fit
        // step can spend seconds solving probe instances, and shutdown
        // must not wait for it — the thread notices the flag at its next
        // step and exits on its own (the process exits regardless).
        {
            let engine = Arc::clone(&self.engine);
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    if !engine.family_fit_step() {
                        std::thread::sleep(FITTER_IDLE_NAP);
                    }
                }
            });
        }
        let mut pool = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = Arc::clone(&rx);
            let engine = Arc::clone(&self.engine);
            let shutdown = Arc::clone(&self.shutdown);
            let requests = Arc::clone(&self.requests);
            let queue_depth = Arc::clone(&self.queue_depth);
            let workers = self.workers;
            let log_json = self.log_json;
            let fault_injection = self.fault_injection;
            let max_requests_per_conn = self.max_requests_per_conn;
            pool.push(std::thread::spawn(move || loop {
                // Holding the receiver lock only while popping keeps the
                // other workers runnable during request handling.
                let conn = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(_) => break,
                };
                let Ok(conn) = conn else { break };
                queue_depth.add(-1);
                // A panicking request must not kill the worker — after
                // `workers` such requests the daemon would still accept
                // connections but never answer them. `dispatch` already
                // converts its own panics to 500s; this guard covers the
                // I/O path too (no response then, but the worker lives).
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(
                        conn,
                        &engine,
                        &shutdown,
                        &requests,
                        &queue_depth,
                        workers,
                        log_json,
                        fault_injection,
                        max_requests_per_conn,
                    );
                }));
            }));
        }
        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let conn = Conn { stream, accepted_us: clock::now_micros() };
            self.queue_depth.add(1);
            match tx.try_send(conn) {
                Ok(()) => {}
                Err(mpsc::TrySendError::Full(conn)) => {
                    self.queue_depth.add(-1);
                    self.requests_shed.inc();
                    shed_connection(conn.stream);
                }
                Err(mpsc::TrySendError::Disconnected(_)) => {
                    self.queue_depth.add(-1);
                    break;
                }
            }
        }
        // Graceful drain: closing the sender lets workers finish every
        // queued connection, then their recv() errors out. A watchdog
        // bounds the wait — past the drain deadline it cancels the
        // engine's searches, which winds in-flight requests down to
        // best-effort answers within one candidate's latency.
        let drain_started = clock::now_micros();
        drop(tx);
        let drained = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let drained = Arc::clone(&drained);
            let cancel = self.engine.cancel_token();
            let deadline = self.drain_deadline;
            std::thread::spawn(move || {
                let step = Duration::from_millis(25);
                let mut waited = Duration::ZERO;
                while waited < deadline {
                    if drained.load(Ordering::SeqCst) {
                        return;
                    }
                    let nap = step.min(deadline - waited);
                    std::thread::sleep(nap);
                    waited += nap;
                }
                if !drained.load(Ordering::SeqCst) {
                    cancel.cancel();
                }
            })
        };
        for worker in pool {
            let _ = worker.join();
        }
        drained.store(true, Ordering::SeqCst);
        let _ = watchdog.join();
        self.drain_duration
            .observe_micros(clock::now_micros().saturating_sub(drain_started));
        Ok(())
    }
}

/// Answer a shed connection with `503` + `Retry-After` on a short-lived
/// thread, so a slow client cannot stall the accept loop. The client's
/// request is drained (bounded, under socket timeouts) before the
/// response, so the kernel does not reset the connection with the 503
/// still unread.
fn shed_connection(stream: TcpStream) {
    std::thread::spawn(move || {
        let mut stream = stream;
        let _ = http::tune(&stream, SHED_TIMEOUT, SHED_TIMEOUT);
        if let Ok(clone) = stream.try_clone() {
            let mut reader = BufReader::new(clone);
            let _ = read_request(&mut reader);
        }
        let body = Json::Obj(vec![
            ("status".into(), Json::Str("overloaded".into())),
            (
                "message".into(),
                Json::Str("admission queue full; retry after the Retry-After delay".into()),
            ),
        ])
        .serialize();
        let _ =
            write_response_extra(&mut stream, 503, CT_JSON, &body, &[("Retry-After", "1")], false);
    });
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

/// Serve one connection: parse, dispatch, answer — then, if the client
/// opted into keep-alive and the request parsed cleanly, loop for the
/// next request on the same socket (up to `max_requests_per_conn`).
/// Parse failures and shutdown always close: after a framing error the
/// stream position is unknown, and a draining server must release its
/// workers.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    conn: Conn,
    engine: &Engine,
    shutdown: &AtomicBool,
    requests: &AtomicU64,
    queue_depth: &Gauge,
    workers: usize,
    log_json: bool,
    fault_injection: bool,
    max_requests_per_conn: usize,
) {
    let Conn { stream, accepted_us } = conn;
    let _ = http::tune(&stream, IO_TIMEOUT, IO_TIMEOUT);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    // The first request's deadline anchors at *accept* time (queueing
    // counts against it); later requests on a kept-alive connection
    // anchor at their first byte, so the idle wait between requests is
    // charged neither to a deadline nor to the latency histogram.
    let mut anchor_us = accepted_us;
    let mut served = 0usize;
    loop {
        // A bare shutdown poke (connect + close) — or a keep-alive
        // client hanging up, or going quiet past the idle clock, between
        // requests — answers nothing.
        if !http::await_request(&mut reader) {
            return;
        }
        let started = Instant::now();
        if served > 0 {
            anchor_us = clock::now_micros();
            // The idle clock covered only the wait; the rest of the
            // request reads under the full request timeout.
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        }
        let mut route = "unparsed";
        let mut req_line = (String::new(), String::new());
        let mut client_keep_alive = false;
        let (status, content_type, body) = match read_request(&mut reader) {
            Err(ReadError::Empty) => return,
            Err(ReadError::TooLarge) => (413, CT_JSON, error_body("request body too large")),
            Err(ReadError::Malformed(msg)) => (400, CT_JSON, error_body(&msg)),
            Ok(req) => {
                client_keep_alive = req.keep_alive;
                route = route_label(&req.method, &req.path);
                req_line = (req.method.clone(), req.path.clone());
                // Answer 500 instead of unwinding through the worker: the
                // engine's locks all tolerate poisoning (see `cache.rs`), so
                // serving can continue after a handler panic.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if fault_injection {
                        apply_fault(req.fault.as_deref());
                    }
                    dispatch(
                        &req.method,
                        &req.path,
                        &req.body,
                        engine,
                        shutdown,
                        requests,
                        queue_depth,
                        workers,
                        anchor_us,
                    )
                }))
                .unwrap_or_else(|_| {
                    let body = Json::Obj(vec![
                        ("status".into(), Json::Str("internal_error".into())),
                        ("message".into(), Json::Str("request handler panicked".into())),
                    ]);
                    (500, CT_JSON, body.serialize())
                })
            }
        };
        served += 1;
        requests.fetch_add(1, Ordering::Relaxed);
        let keep = client_keep_alive
            && route != "unparsed"
            && served < max_requests_per_conn
            && !shutdown.load(Ordering::SeqCst);
        let elapsed = started.elapsed();
        let status_text = status.to_string();
        let registry = engine.metrics();
        registry
            .counter(
                "cfmapd_requests_total",
                "Requests answered, by route and status",
                &[("route", route), ("status", &status_text)],
            )
            .inc();
        registry
            .histogram(
                "cfmapd_request_duration_seconds",
                "Request latency from first byte to response, by route",
                &[("route", route)],
                cfmap_core::metrics::DEFAULT_LATENCY_BUCKETS_US,
            )
            .observe(elapsed);
        let write_ok =
            write_response_extra(&mut stream, status, content_type, &body, &[], keep).is_ok();
        if log_json {
            access_log_line(&req_line.0, &req_line.1, status, elapsed, body.len());
        }
        if shutdown.load(Ordering::SeqCst) {
            // An accepted socket's local address is the listener's address
            // (they share the listening port), so one loopback connect is
            // enough to unblock the accept loop and let it see the flag.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
            return;
        }
        if !keep || !write_ok {
            return;
        }
        // Between requests a persistent connection waits on a short
        // idle clock, not the full request timeout.
        let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE_TIMEOUT));
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
/// with fault injection enabled). `panic` unwinds inside the dispatch
/// guard — the request answers 500 and the worker survives; `stall-ms:N`
/// parks the worker for `N` milliseconds (capped at 10 s) to simulate a
/// wedged search.
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
#[allow(clippy::too_many_arguments)]
fn dispatch(
    method: &str,
    path: &str,
    body: &str,
    engine: &Engine,
    shutdown: &AtomicBool,
    requests: &AtomicU64,
    queue_depth: &Gauge,
    workers: usize,
    accepted_us: u64,
) -> (u16, &'static str, String) {
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
                        Err(e) => (
                            500,
                            CT_JSON,
                            Json::Obj(vec![
                                ("status".into(), Json::Str("io_error".into())),
                                ("message".into(), Json::Str(format!("{path}: {e}"))),
                            ])
                            .serialize(),
                        ),
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

fn error_body(msg: &str) -> String {
    Json::Obj(vec![
        ("status".into(), Json::Str("bad_request".into())),
        ("message".into(), Json::Str(msg.into())),
    ])
    .serialize()
}
