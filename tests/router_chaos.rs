//! Multi-process router chaos: a real 3-backend `cfmapd` fleet behind an
//! in-process `cfmapd-router`, disrupted by a seeded
//! [`cfmap_testkit::fault::FleetPlan`] — one backend SIGKILLed mid-burst
//! (plus, seed permitting, a stalled survivor). The invariants under
//! test are the router's whole contract:
//!
//! * every request in the burst gets a *well-formed* answer — a `200`
//!   mapping or a `503` + `Retry-After` — never a hang or a bare RST;
//! * the dead backend's circuit opens, and after the backend restarts on
//!   the same port it recovers through a half-open probe;
//! * identical canonical keys keep landing on the same surviving
//!   backend (cache affinity survives the failover).
//!
//! Every random choice flows from a hardcoded seed, and the scenario is
//! replayed three times end to end: a failure here reproduces from the
//! seed printed in the assertion message.

use cfmap::service::client::{self, Client, ClientConfig};
use cfmap::service::http;
use cfmap::service::json::{parse, Json};
use cfmap::service::router::{CfmapRouter, RouterConfig};
use cfmap::service::wire::{MapRequest, MapResponse, RouterReject, RouterRejectKind};
use cfmap_testkit::fault::{run_action, FaultAction, FleetEvent, FleetPlan};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// One `cfmapd` backend process; killed on drop unless stopped.
struct BackendProc {
    child: Child,
    addr: String,
}

impl BackendProc {
    /// Spawn on an ephemeral port and parse the resolved address.
    fn spawn() -> BackendProc {
        BackendProc::spawn_at("127.0.0.1:0")
    }

    /// Spawn on a fixed address — how a killed backend comes back on the
    /// port the router still has on its ring.
    fn spawn_at(addr: &str) -> BackendProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cfmapd"))
            .args(["--addr", addr, "--workers", "2", "--enable-fault-injection"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("cfmapd spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut first_line = String::new();
        BufReader::new(stdout).read_line(&mut first_line).expect("startup line");
        let addr = first_line
            .trim()
            .strip_prefix("cfmapd listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line {first_line:?}"))
            .to_string();
        BackendProc { child, addr }
    }

    /// SIGKILL — no drain, no goodbye; pooled connections die with RSTs.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn stop(mut self) {
        let _ = client::post(&self.addr, "/shutdown", "");
        let status = self.child.wait().expect("cfmapd exits");
        assert!(status.success(), "cfmapd exited with {status:?}");
        std::mem::forget(self); // disarm the Drop kill
    }
}

impl Drop for BackendProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The in-process router plus the thread running its serve loop.
struct RouterProc {
    addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Chaos-tuned router: fast probes and cooldowns so circuit transitions
/// happen within the test's patience, budget enough to walk the whole
/// 3-backend ring.
fn start_router(backends: &[String]) -> RouterProc {
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: backends.to_vec(),
        workers: 4,
        health_interval: Duration::from_millis(200),
        failure_threshold: 2,
        open_cooldown: Duration::from_millis(300),
        failover_budget: 2,
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(10),
        ..RouterConfig::default()
    };
    let router = CfmapRouter::bind(&config).expect("router binds");
    let addr = router.local_addr().expect("router addr").to_string();
    let handle = std::thread::spawn(move || router.run());
    RouterProc { addr, handle }
}

fn stop_router(router: RouterProc) {
    let _ = client::post(&router.addr, "/shutdown", "");
    router.handle.join().expect("router thread").expect("router serve loop");
}

/// Distinct canonical keys: matmul at distinct problem sizes.
fn key_request(mu: i64) -> MapRequest {
    MapRequest::named("matmul", mu, vec![vec![1, 1, -1]])
}

/// Poll `check` every 20 ms until it passes or `patience` runs out.
fn wait_until(patience: Duration, mut check: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + patience;
    loop {
        if check() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `(up, circuit)` of one backend as reported by the router's
/// `GET /backends`.
fn backend_state(router_addr: &str, backend_addr: &str) -> Option<(bool, String)> {
    let body = client::get(router_addr, "/backends").ok()?.body;
    let json = parse(&body).ok()?;
    json.get("backends")?.as_arr()?.iter().find_map(|b| {
        if b.get("addr").and_then(Json::as_str) == Some(backend_addr) {
            Some((
                b.get("up").and_then(Json::as_bool)?,
                b.get("circuit").and_then(Json::as_str)?.to_string(),
            ))
        } else {
            None
        }
    })
}

/// Scrape the router's `/metrics` and return the value of the series
/// whose line starts with `name` and (when given) carries the
/// `backend="<addr>"` label.
fn router_metric(router_addr: &str, name: &str, backend: Option<&str>) -> Option<i64> {
    let text = client::get(router_addr, "/metrics").ok()?.body;
    text.lines()
        .filter(|l| l.starts_with(name))
        .find(|l| match backend {
            Some(addr) => l.contains(&format!("backend=\"{addr}\"")),
            None => l[name.len()..].starts_with(' '),
        })
        .and_then(|l| l.rsplit(' ').next()?.trim().parse().ok())
}

/// One full scenario: boot the fleet, replay the seeded burst with its
/// mid-burst kill, then restart the victim and watch the circuit heal.
fn run_kill_recover_scenario(seed: u64, run: usize) {
    let plan = FleetPlan::from_seed(seed, 3, 45);
    let victim_idx = plan.killed_backend();
    let kill_at = plan.kill_offset();
    let ctx = |i: usize| format!("seed {seed:#x} run {run} request {i}");

    let mut fleet: Vec<BackendProc> = (0..plan.backends).map(|_| BackendProc::spawn()).collect();
    let addrs: Vec<String> = fleet.iter().map(|b| b.addr.clone()).collect();
    let victim_addr = addrs[victim_idx].clone();
    let router = start_router(&addrs);
    assert!(
        wait_until(Duration::from_secs(5), || {
            client::get(&router.addr, "/readyz").map(|r| r.status == 200).unwrap_or(false)
        }),
        "seed {seed:#x} run {run}: router never became ready"
    );

    // Warmup: learn where the ring places each candidate key (and that
    // every forwarded answer is stamped with its backend). This doubles
    // as the pre-kill affinity baseline.
    let mut client = Client::new(&router.addr, ClientConfig::default());
    let mut placed: BTreeMap<i64, String> = BTreeMap::new();
    for mu in 3..=80 {
        let body = key_request(mu).to_json().serialize();
        let reply = client.post("/map", &body).expect("warmup request");
        assert_eq!(reply.status, 200, "warmup mu={mu}: {}", reply.body);
        let backend = reply
            .backend
            .clone()
            .unwrap_or_else(|| panic!("warmup mu={mu}: forwarded answer lacks X-Cfmapd-Backend"));
        assert!(addrs.contains(&backend), "stamped backend {backend} not in the fleet");
        placed.insert(mu, backend);
        // Stop once every backend owns a key (ephemeral ports re-roll
        // the ring every run, so the key range adapts instead of
        // gambling on a fixed set).
        if mu >= 8 && addrs.iter().all(|a| placed.values().any(|b| b == a)) {
            break;
        }
    }
    // The burst cycles over up to two keys per backend, so the victim
    // keeps receiving traffic after the kill (that traffic is what must
    // fail over) and every survivor's affinity is observable.
    let mut burst_keys: Vec<i64> = Vec::new();
    for addr in &addrs {
        burst_keys.extend(placed.iter().filter(|(_, b)| *b == addr).map(|(mu, _)| *mu).take(2));
    }
    assert!(
        placed.values().any(|b| *b == victim_addr),
        "seed {seed:#x} run {run}: no warmup key landed on the victim {victim_addr}; \
         widen the warmup key range"
    );

    // The seeded burst. Events fire *before* the request at their
    // offset, so requests with index >= kill_at are post-kill.
    let mut stalls = Vec::new();
    let mut post_kill: BTreeMap<i64, BTreeSet<String>> = BTreeMap::new();
    for i in 0..plan.requests {
        for event in plan.due_at(i) {
            match event {
                FleetEvent::KillBackend { backend } => fleet[*backend].kill(),
                FleetEvent::StallBackend { backend, ms } => {
                    let addr = addrs[*backend].clone();
                    let body = key_request(4).to_json().serialize();
                    let ms = *ms;
                    stalls.push(std::thread::spawn(move || {
                        run_action(&addr, "/map", &body, &FaultAction::SearchStall { ms })
                    }));
                }
                FleetEvent::DrainBackend { backend } => {
                    let _ = client::post(&addrs[*backend], "/shutdown", "");
                }
            }
        }
        let mu = burst_keys[i % burst_keys.len()];
        let body = key_request(mu).to_json().serialize();
        let reply = client
            .post("/map", &body)
            .unwrap_or_else(|e| panic!("{}: transport failed: {e}", ctx(i)));
        match reply.status {
            200 => {
                let resp = MapResponse::from_str(&reply.body)
                    .unwrap_or_else(|e| panic!("{}: malformed body: {e}", ctx(i)));
                assert!(matches!(resp, MapResponse::Ok(_)), "{}: {resp:?}", ctx(i));
                let backend = reply
                    .backend
                    .clone()
                    .unwrap_or_else(|| panic!("{}: answer lacks X-Cfmapd-Backend", ctx(i)));
                if i >= kill_at {
                    post_kill.entry(mu).or_default().insert(backend);
                }
            }
            503 => {
                // A shed is a legal answer under chaos — but only a
                // *well-formed* one.
                assert!(
                    reply.retry_after.is_some(),
                    "{}: 503 without Retry-After: {}",
                    ctx(i),
                    reply.body
                );
                assert!(parse(&reply.body).is_ok(), "{}: 503 body not JSON: {}", ctx(i), reply.body);
            }
            other => panic!("{}: unexpected status {other}: {}", ctx(i), reply.body),
        }
    }
    for stall in stalls {
        let outcome = stall.join().expect("stall thread");
        let _ = outcome; // the stalled request's own answer is the backend's business
    }

    // The victim's circuit opens — from passive traffic failures, the
    // prober, or both — and the failover counter recorded the re-routes.
    assert!(
        wait_until(Duration::from_secs(5), || {
            backend_state(&router.addr, &victim_addr)
                .is_some_and(|(up, circuit)| !up && circuit == "open")
        }),
        "seed {seed:#x} run {run}: killed backend {victim_addr} never reported (down, open): {:?}",
        backend_state(&router.addr, &victim_addr)
    );
    let failovers = router_metric(&router.addr, "cfmapd_router_failovers_total", None);
    assert!(
        failovers.unwrap_or(0) >= 1,
        "seed {seed:#x} run {run}: cfmapd_router_failovers_total = {failovers:?}, want >= 1"
    );
    assert_eq!(
        router_metric(&router.addr, "cfmapd_router_backend_up", Some(&victim_addr)),
        Some(0),
        "seed {seed:#x} run {run}: victim's up gauge must read 0"
    );

    // Affinity across the kill: keys placed on a survivor stay on that
    // exact backend; keys placed on the victim all fail over to one
    // consistent survivor (the ring successor).
    for (mu, backends) in &post_kill {
        let home = &placed[mu];
        if home == &victim_addr {
            assert!(
                !backends.contains(&victim_addr),
                "seed {seed:#x} run {run}: key mu={mu} answered by the dead backend"
            );
            assert_eq!(
                backends.len(),
                1,
                "seed {seed:#x} run {run}: key mu={mu} failed over inconsistently: {backends:?}"
            );
        } else {
            assert_eq!(
                backends.iter().collect::<Vec<_>>(),
                vec![home],
                "seed {seed:#x} run {run}: surviving key mu={mu} moved off its backend"
            );
        }
    }

    // Restart the victim on its old port: the prober's next success is
    // the half-open trial, and the circuit closes without needing live
    // traffic to volunteer.
    fleet[victim_idx] = BackendProc::spawn_at(&victim_addr);
    assert!(
        wait_until(Duration::from_secs(8), || {
            backend_state(&router.addr, &victim_addr)
                .is_some_and(|(up, circuit)| up && circuit == "closed")
        }),
        "seed {seed:#x} run {run}: restarted backend {victim_addr} never recovered: {:?}",
        backend_state(&router.addr, &victim_addr)
    );
    let probes =
        router_metric(&router.addr, "cfmapd_router_half_open_probes_total", Some(&victim_addr));
    assert!(
        probes.unwrap_or(0) >= 1,
        "seed {seed:#x} run {run}: recovery must pass through half-open, got {probes:?}"
    );
    assert_eq!(
        router_metric(&router.addr, "cfmapd_router_backend_up", Some(&victim_addr)),
        Some(1),
        "seed {seed:#x} run {run}: recovered backend's up gauge must read 1"
    );

    // With the circuit closed the victim's keys come home.
    let home_mu = *placed.iter().find(|(_, b)| **b == victim_addr).expect("victim had keys").0;
    let reply = client.post("/map", &key_request(home_mu).to_json().serialize()).expect("post");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        reply.backend.as_deref(),
        Some(victim_addr.as_str()),
        "seed {seed:#x} run {run}: recovered backend must reclaim its ring segment"
    );

    stop_router(router);
    for backend in fleet {
        backend.stop();
    }
}

/// The headline acceptance scenario, replayed three times from one
/// seed: kill one of three backends mid-burst, observe failover, open
/// circuit, half-open recovery, and unbroken cache affinity.
#[test]
fn seeded_kill_mid_burst_fails_over_opens_circuit_and_recovers() {
    const SEED: u64 = 0xF1EE7;
    let reference = FleetPlan::from_seed(SEED, 3, 45);
    for run in 0..3 {
        assert_eq!(
            FleetPlan::from_seed(SEED, 3, 45),
            reference,
            "seed {SEED:#x} must replay byte-for-byte"
        );
        run_kill_recover_scenario(SEED, run);
    }
}

/// A router whose whole fleet is unreachable must answer immediately
/// with the `RouterReject` taxonomy — `502` while it is still probing
/// candidates, then a stable `503` + `Retry-After` once every circuit
/// is open — and report not-ready. Never a hang, never a bare reset.
#[test]
fn unreachable_fleet_sheds_with_router_reject_taxonomy() {
    // Grab two ephemeral ports and release them: real addresses, no
    // listeners behind them.
    let dead: Vec<String> = (0..2)
        .map(|_| {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
            probe.local_addr().expect("addr").to_string()
        })
        .collect();
    let router = start_router(&dead);
    let body = key_request(4).to_json().serialize();

    let reply = client::post(&router.addr, "/map", &body).expect("router always answers");
    assert!(matches!(reply.status, 502 | 503), "status {}: {}", reply.status, reply.body);
    let reject = RouterReject::from_str(&reply.body)
        .unwrap_or_else(|e| panic!("body must decode as RouterReject: {e}: {}", reply.body));
    assert_eq!(reject.kind.http_status(), reply.status, "{reject:?}");

    // Once the prober has tripped every breaker the answer settles into
    // the all-circuits-open shed.
    assert!(
        wait_until(Duration::from_secs(5), || {
            match client::post(&router.addr, "/map", &body) {
                Ok(r) if r.status == 503 => {
                    r.retry_after.is_some()
                        && RouterReject::from_str(&r.body)
                            .is_ok_and(|j| j.kind == RouterRejectKind::AllCircuitsOpen)
                }
                _ => false,
            }
        }),
        "router never settled into 503 all_circuits_open"
    );

    let ready = client::get(&router.addr, "/readyz").expect("readyz answers");
    assert_eq!(ready.status, 503, "{}", ready.body);
    assert!(ready.retry_after.is_some(), "not-ready must carry Retry-After");

    // Liveness is independent of the fleet: the router itself is up.
    let health = client::get(&router.addr, "/healthz").expect("healthz answers");
    assert_eq!(health.status, 200);
    let json = parse(&health.body).expect("healthz is JSON");
    assert_eq!(json.get("backends_up").and_then(Json::as_i64), Some(0), "{}", health.body);

    stop_router(router);
}

/// A graceful drain steers traffic away before the backend sheds: after
/// `POST /shutdown` the backend reports `draining` on `/healthz`, the
/// prober marks it not-ready, and its keys move to a survivor without a
/// single failed request.
#[test]
fn draining_backend_is_steered_around_without_errors() {
    let fleet: Vec<BackendProc> = (0..2).map(|_| BackendProc::spawn()).collect();
    let addrs: Vec<String> = fleet.iter().map(|b| b.addr.clone()).collect();
    let router = start_router(&addrs);
    assert!(wait_until(Duration::from_secs(5), || {
        client::get(&router.addr, "/readyz").map(|r| r.status == 200).unwrap_or(false)
    }));

    // Find a key homed on each backend.
    let mut client = Client::new(&router.addr, ClientConfig::default());
    let mut placed: BTreeMap<String, i64> = BTreeMap::new();
    for mu in 3..=80 {
        let reply = client.post("/map", &key_request(mu).to_json().serialize()).expect("map");
        assert_eq!(reply.status, 200, "{}", reply.body);
        placed.entry(reply.backend.clone().expect("stamped")).or_insert(mu);
        if placed.len() == addrs.len() {
            break;
        }
    }
    let (drained_addr, &drained_mu) = placed.iter().next().expect("at least one backend placed");
    let drained_addr = drained_addr.clone();

    // Drain it (graceful /shutdown keeps it answering while it winds
    // down) and wait for the prober to see not-ready or the process to
    // finish exiting (either way the router must steer around it).
    let _ = client::post(&drained_addr, "/shutdown", "");
    assert!(
        wait_until(Duration::from_secs(5), || {
            backend_state(&router.addr, &drained_addr).is_some_and(|(up, _)| !up)
                || client::get(&drained_addr, "/healthz").is_err()
        }),
        "drained backend never left the ready set"
    );
    std::thread::sleep(Duration::from_millis(300)); // one probe period of margin

    // Its keys now answer from the survivor — still 200, still stamped.
    for _ in 0..3 {
        let reply =
            client.post("/map", &key_request(drained_mu).to_json().serialize()).expect("map");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let backend = reply.backend.expect("stamped");
        assert_ne!(backend, drained_addr, "drained backend must stop receiving new work");
        assert!(addrs.contains(&backend));
    }

    stop_router(router);
    for backend in fleet {
        // The drained backend already exited; stop() would double-
        // shutdown it. Let Drop reap whatever is left.
        drop(backend);
    }
}

/// Hostile `/batch` bodies the router can prove unusable — an empty
/// `requests` array, or one whose every member fails to parse or
/// canonicalize — must be answered locally with a well-formed `400`
/// `RouterReject` of kind `bad_request`: no forward, no panic, and the
/// backend keeps serving honest traffic afterwards.
#[test]
fn provably_unusable_batches_reject_locally_without_a_forward() {
    let backend = BackendProc::spawn();
    let router = start_router(std::slice::from_ref(&backend.addr));
    assert!(
        wait_until(Duration::from_secs(5), || {
            client::get(&router.addr, "/readyz").map(|r| r.status == 200).unwrap_or(false)
        }),
        "router never became ready"
    );

    let empty = Json::Obj(vec![("requests".into(), Json::Arr(vec![]))]).serialize();
    let garbage_member = Json::Obj(vec![(
        "requests".into(),
        Json::Arr(vec![
            Json::Obj(vec![("nonsense".into(), Json::Int(1))]),
            // Parses as a request shape but cannot canonicalize: μ is empty.
            Json::Obj(vec![
                ("mu".into(), Json::Arr(vec![])),
                ("space".into(), Json::Arr(vec![])),
            ]),
        ]),
    )])
    .serialize();
    for (label, body) in [("empty", &empty), ("all-garbage", &garbage_member)] {
        let reply = client::post(&router.addr, "/batch", body).expect("router answers");
        assert_eq!(reply.status, 400, "{label}: {}", reply.body);
        let reject = RouterReject::from_str(&reply.body)
            .unwrap_or_else(|e| panic!("{label}: body must decode as RouterReject: {e}"));
        assert_eq!(reject.kind, RouterRejectKind::BadRequest, "{label}: {reject:?}");
        assert_eq!(reject.attempted, 0, "{label}: nothing may be forwarded");
    }
    // No forward happened: the per-backend request counter never
    // materialized on /metrics.
    assert_eq!(
        router_metric(&router.addr, "cfmapd_router_requests_total", Some(&backend.addr)),
        None,
        "hostile batches must not reach the backend"
    );

    // The backend is unaffected: an honest batch still round-trips.
    let honest = Json::Obj(vec![(
        "requests".into(),
        Json::Arr(vec![key_request(4).to_json()]),
    )])
    .serialize();
    let reply = client::post(&router.addr, "/batch", &honest).expect("honest batch answers");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(
        router_metric(&router.addr, "cfmapd_router_requests_total", Some(&backend.addr))
            .is_some_and(|v| v >= 1),
        "the honest batch must be forwarded"
    );

    stop_router(router);
    backend.stop();
}

/// A `/map` whose processor count would need a bitset past the span
/// bound is one every backend refuses, so the router answers the
/// backend's own 400 body itself, without a forward.
#[test]
fn over_span_maps_get_the_backend_400_without_a_forward() {
    let backend = BackendProc::spawn();
    let router = start_router(std::slice::from_ref(&backend.addr));
    assert!(
        wait_until(Duration::from_secs(5), || {
            client::get(&router.addr, "/readyz").map(|r| r.status == 200).unwrap_or(false)
        }),
        "router never became ready"
    );
    // One space row with a gap over a box of 2^20 + 1 points.
    let body = "{\"mu\":[524285,2],\"deps\":[[0,1]],\"space\":[[2,3]]}";
    let direct = client::post(&backend.addr, "/map", body).expect("backend answers");
    assert_eq!(direct.status, 400, "{}", direct.body);
    assert!(direct.body.contains("processor-span bound 2^20"), "{}", direct.body);
    let routed = client::post(&router.addr, "/map", body).expect("router answers");
    assert_eq!((routed.status, &routed.body), (direct.status, &direct.body));
    assert_eq!(
        router_metric(&router.addr, "cfmapd_router_requests_total", Some(&backend.addr)),
        None,
        "the router must answer without forwarding"
    );
    stop_router(router);
    backend.stop();
}

/// A body whose object repeats a key is one every backend refuses, on
/// every route, so the router answers the backend's own 400 itself,
/// without a forward.
#[test]
fn repeated_keys_get_the_backend_400_without_a_forward() {
    let backend = BackendProc::spawn();
    let router = start_router(std::slice::from_ref(&backend.addr));
    assert!(
        wait_until(Duration::from_secs(5), || {
            client::get(&router.addr, "/readyz").map(|r| r.status == 200).unwrap_or(false)
        }),
        "router never became ready"
    );
    let map = r#"{"algorithm":"matmul","mu":[4],"space":[[1,1,-1]],"mu":[9]}"#;
    let pareto = r#"{"algorithm":"matmul","mu":[3],"entry_bound":1,"entry_bound":2}"#;
    let batch = format!(r#"{{"requests":[{map}]}}"#);
    for (path, body) in [("/map", map), ("/pareto", pareto), ("/batch", batch.as_str())] {
        let direct = client::post(&backend.addr, path, body).expect("backend answers");
        assert_eq!(direct.status, 400, "{path}: {}", direct.body);
        assert!(direct.body.contains("repeated object key"), "{path}: {}", direct.body);
        let routed = client::post(&router.addr, path, body).expect("router answers");
        assert_eq!((routed.status, &routed.body), (direct.status, &direct.body), "{path}");
    }
    assert_eq!(
        router_metric(&router.addr, "cfmapd_router_requests_total", Some(&backend.addr)),
        None,
        "the router must answer without forwarding"
    );
    stop_router(router);
    backend.stop();
}

/// Sequential keep-alive exchanges must not stall. On one `Client`, the
/// median round trip straight to a backend and through the router stays
/// below Linux's 40 ms delayed-ACK floor; a message written as head then
/// body, without `TCP_NODELAY`, stalled every exchange on a reused
/// connection for about 88 ms. The router's upstream hop must reuse a
/// pooled connection too.
#[test]
fn sequential_keep_alive_round_trips_do_not_stall() {
    let backend = BackendProc::spawn();
    let router = start_router(std::slice::from_ref(&backend.addr));
    assert!(
        wait_until(Duration::from_secs(5), || {
            client::get(&router.addr, "/readyz").map(|r| r.status == 200).unwrap_or(false)
        }),
        "router never became ready"
    );

    let body = key_request(4).to_json().serialize();
    for (label, addr) in [("direct", &backend.addr), ("routed", &router.addr)] {
        let mut keep_alive = Client::with_defaults(addr);
        let mut round_trips: Vec<Duration> = (0..40)
            .map(|i| {
                let started = Instant::now();
                let reply = keep_alive.post("/map", &body).expect("keep-alive /map");
                assert_eq!(reply.status, 200, "{label} request {i}: {}", reply.body);
                started.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(20),
            "{label}: median keep-alive round trip {median:?} (all: {round_trips:?})"
        );
    }

    let body = client::get(&router.addr, "/backends").expect("backends answers").body;
    let pooled = parse(&body)
        .ok()
        .and_then(|j| j.get("backends")?.as_arr()?.first()?.get("pooled_connections")?.as_i64());
    assert!(pooled.is_some_and(|n| n >= 1), "the upstream hop pooled nothing: {body}");

    stop_router(router);
    backend.stop();
}

/// Wait until the router at `addr` answers `/readyz` with `200`.
fn wait_ready(addr: &str) {
    assert!(
        wait_until(Duration::from_secs(5), || {
            client::get(addr, "/readyz").map(|r| r.status == 200).unwrap_or(false)
        }),
        "router never became ready"
    );
}

/// Once a request's first byte has arrived, the router reads the rest
/// under the full request timeout, not the 2 s keep-alive idle clock:
/// on one kept-alive connection, a second `/map` whose body follows its
/// head by 2.6 s is answered with the backend's own body.
#[test]
fn slow_body_on_a_kept_alive_connection_is_answered() {
    let backend = BackendProc::spawn();
    let router = start_router(std::slice::from_ref(&backend.addr));
    wait_ready(&router.addr);
    let body = key_request(4).to_json().serialize();
    // Solve once, so every answer below is the same cached body.
    let _ = client::post(&backend.addr, "/map", &body).expect("backend answers");
    let direct = client::post(&backend.addr, "/map", &body).expect("backend answers");
    assert_eq!(direct.status, 200, "{}", direct.body);

    let mut stream = TcpStream::connect(&router.addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let head = format!(
        "POST /map HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
        router.addr,
        body.len()
    );
    for pause in [Duration::ZERO, Duration::from_millis(2_600)] {
        stream.write_all(head.as_bytes()).expect("request head");
        std::thread::sleep(pause);
        stream.write_all(body.as_bytes()).expect("request body");
        let reply = http::read_response(&mut reader).expect("a framed answer");
        assert_eq!((reply.status, &reply.body), (200, &direct.body), "body after {pause:?}");
        assert!(reply.keep_alive, "the connection stays open after {pause:?}");
    }

    stop_router(router);
    backend.stop();
}

/// Raw slow-loris bytes and half-written requests against the router
/// must neither wedge nor kill its workers — the router's twin of
/// `service_chaos::slow_loris_and_half_requests_leave_pool_intact`.
#[test]
fn slow_loris_and_half_requests_leave_the_router_serving() {
    let backend = BackendProc::spawn();
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![backend.addr.clone()],
        workers: 2,
        ..RouterConfig::default()
    };
    let bound = CfmapRouter::bind(&config).expect("router binds");
    let addr = bound.local_addr().expect("router addr").to_string();
    let router = RouterProc { addr: addr.clone(), handle: std::thread::spawn(move || bound.run()) };
    wait_ready(&addr);
    let body = key_request(4).to_json().serialize();

    for keep in [0usize, 1, 10, 25, 40] {
        let action = FaultAction::DisconnectMidRequest { keep_bytes: keep };
        let out = run_action(&addr, "/map", &body, &action)
            .expect("mid-request disconnect is not a transport error");
        assert_eq!(out.status, None);
    }
    for _ in 0..3 {
        let out = run_action(&addr, "/map", &body, &FaultAction::DisconnectBeforeResponse)
            .expect("pre-response disconnect is not a transport error");
        assert_eq!(out.status, None);
    }
    let out = run_action(&addr, "/map", &body, &FaultAction::SlowWrite { chunk: 3, delay_ms: 5 })
        .expect("slow-loris request completes");
    assert_eq!(out.status, Some(200), "{}", out.body);

    // An unfinished request line that just stops pins one of the two
    // workers until its read timeout; the other still serves.
    let mut wedge = TcpStream::connect(&addr).expect("connect");
    wedge.write_all(b"POST /map HTT").expect("half a request line");
    let health = client::get(&addr, "/healthz").expect("router still serves /healthz");
    assert_eq!(health.status, 200, "{}", health.body);
    let reply = client::post(&addr, "/map", &body).expect("router still forwards");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let resp = MapResponse::from_str(&reply.body).expect("wire body");
    assert!(matches!(resp, MapResponse::Ok(_)), "{resp:?}");
    drop(wedge);

    stop_router(router);
    backend.stop();
}
