//! Chaos suite: replay seeded fault plans against a live `cfmapd` and
//! assert the service-level invariants — workers survive every injected
//! failure, admission control sheds with well-formed `503` + `Retry-After`
//! answers (never unbounded buffering), expired deadlines come back
//! best-effort promptly, and shutdown drains queued work within its
//! deadline.
//!
//! Every random choice flows from a hardcoded seed through
//! `cfmap_testkit::fault::FaultPlan`, so a failure here reproduces
//! byte-for-byte from the seed printed in the assertion message.

use cfmap::service::client::{self, Client, ClientConfig};
use cfmap::service::json::{parse, Json};
use cfmap::service::wire::{MapRequest, MapResponse};
use cfmap_testkit::fault::{run_action, FaultAction, FaultPlan};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// A running daemon that is shut down (or killed) when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cfmapd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
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
        Daemon { child, addr }
    }

    /// POST /shutdown and wait for a clean exit, returning how long the
    /// drain took.
    fn stop(mut self) -> Duration {
        let started = Instant::now();
        let _ = client::post(&self.addr, "/shutdown", "");
        let status = self.child.wait().expect("cfmapd exits");
        assert!(status.success(), "cfmapd exited with {status:?}");
        let elapsed = started.elapsed();
        std::mem::forget(self); // disarm the Drop kill
        elapsed
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn matmul_request() -> MapRequest {
    MapRequest::named("matmul", 4, vec![vec![1, 1, -1]])
}

fn matmul_body() -> String {
    matmul_request().to_json().serialize()
}

/// Assert the daemon's whole worker pool still answers real work.
fn assert_workers_alive(addr: &str) {
    let reply = client::get(addr, "/healthz").expect("daemon still serves /healthz");
    assert_eq!(reply.status, 200);
    let resp = client::map(addr, &matmul_request()).expect("daemon still solves");
    assert!(matches!(resp, MapResponse::Ok(_)), "{resp:?}");
}

/// Scrape `/metrics` and return the value of an unlabeled series.
fn metric_value(addr: &str, name: &str) -> Option<i64> {
    let text = client::get(addr, "/metrics").expect("metrics scrape").body;
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l[name.len()..].trim().parse().ok())
}

/// Replay a seeded 24-action fault plan — slow-loris writes, mid-request
/// and pre-response disconnects, injected worker panics and stalls mixed
/// into healthy traffic — and check every response class. The plan (and
/// therefore the whole test) is a pure function of the seed.
#[test]
fn seeded_fault_plan_replay_keeps_every_worker_alive() {
    const SEED: u64 = 0xCFAD_0000;
    let daemon = Daemon::spawn(&["--workers", "4", "--enable-fault-injection"]);
    let addr = daemon.addr.clone();
    let plan = FaultPlan::from_seed(SEED, 24);
    let body = matmul_body();

    for (i, action) in plan.actions.iter().enumerate() {
        let ctx = format!("seed {SEED:#x}, action {i}: {action:?}");
        let outcome = run_action(&addr, "/map", &body, action)
            .unwrap_or_else(|e| panic!("{ctx}: transport failed: {e}"));
        match action {
            FaultAction::Normal | FaultAction::SlowWrite { .. } | FaultAction::SearchStall { .. } => {
                assert_eq!(outcome.status, Some(200), "{ctx}: {}", outcome.body);
                let resp = MapResponse::from_str(&outcome.body)
                    .unwrap_or_else(|e| panic!("{ctx}: bad wire body: {e}"));
                assert!(matches!(resp, MapResponse::Ok(_)), "{ctx}: {resp:?}");
            }
            FaultAction::WorkerPanic => {
                assert_eq!(outcome.status, Some(500), "{ctx}: {}", outcome.body);
                let json = parse(&outcome.body).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(
                    json.get("status").and_then(Json::as_str),
                    Some("internal_error"),
                    "{ctx}"
                );
            }
            FaultAction::DisconnectMidRequest { .. } | FaultAction::DisconnectBeforeResponse => {
                assert_eq!(outcome.status, None, "{ctx}: disconnects read nothing");
            }
        }
    }

    // The plan must have actually exercised faults, not just been lucky.
    assert!(
        plan.actions.iter().any(|a| matches!(a, FaultAction::WorkerPanic)),
        "seed {SEED:#x} drew no worker panic; pick a different seed"
    );
    assert_workers_alive(&addr);
    assert_eq!(metric_value(&addr, "cfmapd_queue_depth"), Some(0), "queue drains to zero");
    daemon.stop();
}

/// Overload: one worker wedged by an injected stall, queue capacity 1,
/// then a burst of 8 concurrent clients. The daemon must shed the
/// overflow immediately with a *well-formed* `503` carrying
/// `Retry-After` — and must never buffer the burst unboundedly.
#[test]
fn queue_full_burst_sheds_with_well_formed_503() {
    let daemon = Daemon::spawn(&[
        "--workers",
        "1",
        "--queue-capacity",
        "1",
        "--enable-fault-injection",
    ]);
    let addr = daemon.addr.clone();

    // Wedge the only worker for 3 s.
    let stall_addr = addr.clone();
    let stall = std::thread::spawn(move || {
        run_action(
            &stall_addr,
            "/map",
            &matmul_body(),
            &FaultAction::SearchStall { ms: 3_000 },
        )
        .expect("stalled request eventually answers")
    });
    // Let the worker pick the stall request up before bursting.
    std::thread::sleep(Duration::from_millis(300));

    let burst: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || client::post(&addr, "/map", &matmul_body()))
        })
        .collect();
    let replies: Vec<_> = burst
        .into_iter()
        .map(|h| h.join().unwrap().expect("shed or served, never a dead socket"))
        .collect();

    let shed: Vec<_> = replies.iter().filter(|r| r.status == 503).collect();
    let served = replies.iter().filter(|r| r.status == 200).count();
    assert!(
        !shed.is_empty(),
        "queue capacity 1 with a wedged worker must shed most of an 8-burst: {:?}",
        replies.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    assert!(served <= 2, "at most the queued request (and a post-stall pickup) can be served");
    for reply in &shed {
        assert_eq!(reply.retry_after, Some(1), "every shed must carry Retry-After: {reply:?}");
        let json = parse(&reply.body).expect("shed body is JSON");
        assert_eq!(json.get("status").and_then(Json::as_str), Some("overloaded"), "{reply:?}");
    }

    let outcome = stall.join().unwrap();
    assert_eq!(outcome.status, Some(200), "the stalled request still answers");

    assert_workers_alive(&addr);
    assert!(
        metric_value(&addr, "cfmapd_requests_shed_total").unwrap_or(0) >= shed.len() as i64,
        "shed counter must record the burst"
    );
    assert_eq!(metric_value(&addr, "cfmapd_queue_depth"), Some(0));
    daemon.stop();
}

/// A client with retries enabled rides out a shed: it honors the 503's
/// Retry-After with jittered backoff and succeeds once the worker frees
/// up.
#[test]
fn retrying_client_recovers_from_sheds() {
    let daemon = Daemon::spawn(&[
        "--workers",
        "1",
        "--queue-capacity",
        "1",
        "--enable-fault-injection",
    ]);
    let addr = daemon.addr.clone();

    let stall_addr = addr.clone();
    let stall = std::thread::spawn(move || {
        run_action(&stall_addr, "/map", &matmul_body(), &FaultAction::SearchStall { ms: 1_500 })
    });
    std::thread::sleep(Duration::from_millis(300));

    // Saturate the queue slot so the retrying client's first attempt is
    // likely shed, then watch it recover.
    let filler_addr = addr.clone();
    let filler = std::thread::spawn(move || client::post(&filler_addr, "/map", &matmul_body()));

    std::thread::sleep(Duration::from_millis(50));
    let mut retrying = Client::new(
        &addr,
        ClientConfig { retries: 5, jitter_seed: 0xBEEF, ..ClientConfig::default() },
    );
    let resp = retrying.map(&matmul_request()).expect("retries ride out the shed");
    assert!(matches!(resp, MapResponse::Ok(_)), "{resp:?}");

    let _ = filler.join().unwrap();
    let _ = stall.join().unwrap();
    daemon.stop();
}

/// An expired deadline must come back `BestEffort` within one
/// candidate-screen latency — not after a full search. The bound here is
/// generous for CI noise, but orders of magnitude below a stuck search.
#[test]
fn expired_deadline_returns_best_effort_promptly() {
    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    let mut req = matmul_request();
    req.deadline_ms = Some(0); // expired the moment the daemon accepts it
    let started = Instant::now();
    let resp = client::map(&addr, &req).expect("deadline expiry degrades, not errors");
    let elapsed = started.elapsed();
    let MapResponse::Ok(o) = resp else { panic!("expected best-effort Ok, got {resp:?}") };
    assert!(
        matches!(o.certification, cfmap::prelude::Certification::BestEffort { .. }),
        "{:?}",
        o.certification
    );
    assert!(!o.cached, "deadline-limited answers must not come from or feed the cache");
    assert!(
        elapsed < Duration::from_secs(2),
        "expired deadline answered in {elapsed:?}; must be within one candidate screen"
    );

    // The deadline metrics recorded the expiry.
    assert!(metric_value(&addr, "cfmap_deadline_expired_total").unwrap_or(0) >= 1);
    daemon.stop();
}

/// Shutdown under load: queued requests are answered during the drain,
/// the daemon refuses new work afterwards, and the whole drain stays
/// within the configured deadline (plus scheduling slack).
#[test]
fn drain_answers_queued_requests_within_deadline() {
    let daemon = Daemon::spawn(&[
        "--workers",
        "1",
        "--queue-capacity",
        "8",
        "--drain-deadline-ms",
        "5000",
        "--enable-fault-injection",
    ]);
    let addr = daemon.addr.clone();

    // Wedge the worker briefly so follow-up requests sit in the queue.
    let stall_addr = addr.clone();
    let stall = std::thread::spawn(move || {
        run_action(&stall_addr, "/map", &matmul_body(), &FaultAction::SearchStall { ms: 1_000 })
    });
    std::thread::sleep(Duration::from_millis(300));
    let queued: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || client::post(&addr, "/map", &matmul_body()))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // let them enqueue

    let drain = daemon.stop();
    assert!(
        drain < Duration::from_secs(8),
        "drain took {drain:?}, exceeding the deadline + slack"
    );

    // Every request that made it into the queue before shutdown was
    // answered during the drain with a complete response.
    for handle in queued {
        let reply = handle.join().unwrap().expect("queued request answered during drain");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let resp = MapResponse::from_str(&reply.body).expect("well-formed drain answer");
        assert!(matches!(resp, MapResponse::Ok(_)));
    }
    let _ = stall.join().unwrap();

    // The listener is gone: new connections are refused, not buffered.
    assert!(client::get(&addr, "/healthz").is_err(), "daemon must stop accepting after drain");
}

/// Raw slow-loris bytes and half-written requests directly against the
/// socket (outside any fault plan) must neither wedge nor kill workers.
#[test]
fn slow_loris_and_half_requests_leave_pool_intact() {
    let daemon = Daemon::spawn(&["--workers", "2"]);
    let addr = daemon.addr.clone();
    let body = matmul_body();

    for keep in [0usize, 1, 10, 25, 40] {
        let out = run_action(&addr, "/map", &body, &FaultAction::DisconnectMidRequest { keep_bytes: keep })
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

    // An unfinished header line that just stops: the worker's socket
    // read timeout reclaims it (we don't wait the full 10 s here — just
    // prove the daemon still serves with a loris connection open).
    let mut wedge = std::net::TcpStream::connect(&addr).expect("connect");
    wedge.write_all(b"POST /map HTT").expect("half a request line");
    assert_workers_alive(&addr);
    drop(wedge);

    daemon.stop();
}

/// Send `head` and hang up the write side; return the raw answer.
fn send_cut_off(addr: &str, head: &[u8]) -> String {
    use std::io::Read;
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    raw.write_all(head).expect("partial head");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("server answers and closes");
    reply
}

/// A request whose head stops before its blank line is never executed:
/// a `/cache/clear` cut off mid-header (the client then half-closes)
/// gets `400`, the cached design stays, and no `/cache/clear` is
/// accounted. So does one cut off after a whole header line.
#[test]
fn cut_off_heads_are_refused_not_executed() {
    let daemon = Daemon::spawn(&["--workers", "2"]);
    let addr = daemon.addr.clone();
    assert_workers_alive(&addr); // solves and caches one design
    let entries = || {
        let stats = client::get(&addr, "/stats").expect("stats").body;
        parse(&stats).ok().and_then(|j| j.get("cache")?.get("entries")?.as_i64())
    };
    assert_eq!(entries(), Some(1));

    for head in [
        &b"POST /cache/clear HTTP/1.1\r\nHost: x\r\nContent-Len"[..],
        b"POST /cache/clear HTTP/1.1\r\nHost: x\r\n",
        b"POST /cache/clear HTTP/1.1",
    ] {
        let reply = send_cut_off(&addr, head);
        let ctx = String::from_utf8_lossy(head);
        assert!(reply.starts_with("HTTP/1.1 400 "), "{ctx}: {reply:?}");
        assert!(reply.contains("message head cut off before its blank line"), "{ctx}: {reply:?}");
        assert_eq!(entries(), Some(1), "{ctx}: the cache must keep its entry");
    }
    let metrics = client::get(&addr, "/metrics").expect("metrics scrape").body;
    assert!(
        !metrics.contains("route=\"/cache/clear\""),
        "no /cache/clear may be accounted: {metrics}"
    );
    assert!(
        metrics.contains("cfmapd_requests_total{route=\"unparsed\",status=\"400\"} 3"),
        "the three refusals are accounted as unparsed 400s: {metrics}"
    );
    daemon.stop();
}
