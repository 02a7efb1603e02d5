//! End-to-end smoke test: spawn the real `cfmapd` binary on an ephemeral
//! port, hit it with concurrent clients, and check the cache, batch,
//! stats, and shutdown behavior through the wire.

use cfmap::prelude::Certification;
use cfmap::service::client;
use cfmap::service::http::KeepAliveConn;
use cfmap::service::json::{parse, Json};
use cfmap::service::wire::{MapRequest, MapResponse};
use std::str::FromStr;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
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

    fn stop(mut self) {
        let _ = client::post(&self.addr, "/shutdown", "");
        let status = self.child.wait().expect("cfmapd exits");
        assert!(status.success(), "cfmapd exited with {status:?}");
        // Disarm the Drop kill.
        std::mem::forget(self);
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

#[test]
fn eight_concurrent_clients_get_identical_answers() {
    let daemon = Daemon::spawn(&["--workers", "4"]);
    let addr = daemon.addr.clone();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || client::map(&addr, &matmul_request()).expect("map call"))
        })
        .collect();
    let responses: Vec<MapResponse> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut schedules = Vec::new();
    for resp in &responses {
        let MapResponse::Ok(o) = resp else { panic!("expected ok, got {resp:?}") };
        assert_eq!(o.total_time, 25, "Example 5.1: t = μ(μ+2)+1");
        assert_eq!(o.objective, 24);
        schedules.push(o.schedule.clone());
    }
    assert!(
        schedules.windows(2).all(|w| w[0] == w[1]),
        "all 8 concurrent clients must see the identical schedule: {schedules:?}"
    );

    // The same problem again is a cache hit, answered identically.
    let warm = client::map(&addr, &matmul_request()).expect("warm call");
    let MapResponse::Ok(w) = warm else { panic!("expected ok") };
    assert!(w.cached, "second identical request must come from the design cache");
    assert_eq!(w.schedule, schedules[0]);

    // /stats shows the traffic and at least one hit.
    let stats_body = client::get(&addr, "/stats").expect("stats").body;
    let stats = parse(&stats_body).expect("stats is JSON");
    let cache = stats.get("cache").expect("cache block");
    assert!(cache.get("hits").and_then(Json::as_i64).unwrap() >= 1, "{stats_body}");
    assert!(cache.get("entries").and_then(Json::as_i64).unwrap() >= 1, "{stats_body}");
    assert!(stats.get("requests").and_then(Json::as_i64).unwrap() >= 9, "{stats_body}");

    daemon.stop();
}

#[test]
fn batch_deduplicates_and_cache_clear_resets() {
    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    // A batch of three identical problems plus one distinct one.
    let reqs: Vec<Json> = vec![
        matmul_request().to_json(),
        matmul_request().to_json(),
        matmul_request().to_json(),
        MapRequest::named("matmul", 5, vec![vec![1, 1, -1]]).to_json(),
    ];
    let body = Json::Obj(vec![("requests".into(), Json::Arr(reqs))]).serialize();
    let reply = client::post(&addr, "/batch", &body).expect("batch");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let parsed = parse(&reply.body).expect("batch reply is JSON");
    assert_eq!(
        parsed.get("distinct_solves").and_then(Json::as_i64),
        Some(2),
        "three identical requests share one search: {}",
        reply.body
    );
    let responses = parsed.get("responses").and_then(Json::as_arr).expect("responses");
    assert_eq!(responses.len(), 4);
    let decoded: Vec<MapResponse> =
        responses.iter().map(|v| MapResponse::from_json(v).expect("decodes")).collect();
    assert!(decoded.iter().all(|r| matches!(r, MapResponse::Ok(_))), "{}", reply.body);

    // Clearing the cache forgets both designs.
    let cleared = client::post(&addr, "/cache/clear", "").expect("clear").body;
    assert_eq!(parse(&cleared).unwrap().get("cleared").and_then(Json::as_i64), Some(2));
    let fresh = client::map(&addr, &matmul_request()).expect("post-clear call");
    let MapResponse::Ok(o) = fresh else { panic!("expected ok") };
    assert!(!o.cached, "cache was just cleared");

    daemon.stop();
}

#[test]
fn wire_errors_map_to_http_statuses() {
    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    // Malformed JSON → 400 bad_request.
    let reply = client::post(&addr, "/map", "{not json").expect("reply");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(matches!(
        MapResponse::from_str(&reply.body),
        Ok(MapResponse::BadRequest { .. })
    ));

    // Well-formed JSON, bad problem shape → 400 with exit class 2.
    let bad = MapRequest { space: vec![vec![1, 2]], ..matmul_request() };
    let reply = client::post(&addr, "/map", &bad.to_json().serialize()).expect("reply");
    assert_eq!(reply.status, 400, "{}", reply.body);
    let resp = MapResponse::from_str(&reply.body).expect("decodes");
    assert_eq!(resp.exit_class(), 2);

    // Unknown route → 404.
    let reply = client::get(&addr, "/nope").expect("reply");
    assert_eq!(reply.status, 404);

    // Health check.
    let reply = client::get(&addr, "/healthz").expect("reply");
    assert_eq!(reply.status, 200);

    daemon.stop();
}

/// A deadline bounds the whole answer, not just the search: nothing
/// after the search walks the index box, so matmul μ = 400 (4.1·10⁷
/// index points) under a 5 ms budget comes back best-effort at once,
/// with the 3μ + 1 processors of `S = [1, 1, −1]` counted in closed form.
#[test]
fn a_timeout_bounds_a_large_box_map() {
    let daemon = Daemon::spawn(&[]);
    let req = MapRequest {
        timeout_ms: Some(5),
        ..MapRequest::named("matmul", 400, vec![vec![1, 1, -1]])
    };
    let started = Instant::now();
    let resp = client::map(&daemon.addr, &req).expect("map call");
    let elapsed = started.elapsed();
    let MapResponse::Ok(o) = &resp else { panic!("expected ok, got {resp:?}") };
    assert!(matches!(o.certification, Certification::BestEffort { .. }), "{o:?}");
    assert_eq!(o.processors, 1201);
    assert!(elapsed < Duration::from_millis(250), "answered after {elapsed:?}");
    daemon.stop();
}

#[test]
fn hostile_requests_do_not_kill_workers() {
    // Default pool: 4 workers. Every request below once panicked (or
    // hung) its worker; more hostile requests than workers would leave a
    // daemon that accepts but never answers. Each must get an orderly
    // HTTP answer, and the daemon must still serve afterwards.
    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    // 25 equal-μ axes: the tie-permutation count is 25!, which used to
    // overflow in the canonicalizer (debug panic / release wrap into an
    // attempted 10²⁵-entry expansion) and the budget-degrade fallback
    // would walk 25! permutations. The dimension bound now refuses it at
    // the wire; the canonicalizer's own saturation is unit-tested in
    // crates/core/src/canon.rs.
    let n = 25;
    let mut dep = vec![0i64; n];
    dep[0] = 1;
    let mut row = vec![0i64; n];
    row[n - 1] = 1;
    let wide = MapRequest {
        algorithm: None,
        mu: vec![2; n],
        deps: Some(vec![dep]),
        space: vec![row],
        cap: None,
        max_candidates: Some(10),
        timeout_ms: None,
        deadline_ms: None,
    };
    // i64::MIN in a space row: sign-normalization cannot negate it; the
    // magnitude bound now rejects it at the wire.
    let minrow = MapRequest { space: vec![vec![1, 1, i64::MIN]], ..matmul_request() };

    for _ in 0..3 {
        for hostile in [&wide, &minrow] {
            let reply =
                client::post(&addr, "/map", &hostile.to_json().serialize()).expect("reply");
            assert_eq!(reply.status, 400, "{}", reply.body);
        }
    }

    // All workers must still be alive and answering.
    let reply = client::get(&addr, "/healthz").expect("daemon still serves");
    assert_eq!(reply.status, 200);
    let resp = client::map(&addr, &matmul_request()).expect("real work still served");
    assert!(matches!(resp, MapResponse::Ok(_)));

    daemon.stop();
}

#[test]
fn newline_free_header_stream_gets_413_not_unbounded_buffering() {
    use std::io::{Read, Write};

    // Mirrors MAX_HEAD_BYTES in crates/service/src/server.rs. The test
    // sends exactly the bytes the server will consume before refusing,
    // so the close is clean (no unread data → no TCP RST eating the
    // reply).
    const MAX_HEAD: usize = 64 << 10;

    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    // A newline-free byte stream must hit the head bound and be answered
    // 413 instead of growing the server's line buffer without limit.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.write_all(&vec![b'A'; MAX_HEAD + 1]).expect("send newline-free head");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("server answers and closes");
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply:?}");

    // Same bound for an over-long header *section* made of short lines.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    let request_line = b"GET /healthz HTTP/1.1\r\n";
    raw.write_all(request_line).expect("request line");
    let header_line = format!("X-Pad: {}\r\n", "b".repeat(1015)); // 1024 bytes
    let mut budget = MAX_HEAD - request_line.len();
    while budget >= header_line.len() {
        raw.write_all(header_line.as_bytes()).expect("header line");
        budget -= header_line.len();
    }
    // One byte past the remaining budget, newline-free: the server reads
    // all of it, then refuses.
    raw.write_all(&vec![b'b'; budget + 1]).expect("overflowing tail");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("server answers and closes");
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply:?}");

    // The worker that served each refusal is still in the pool.
    let reply = client::get(&addr, "/healthz").expect("daemon still serves");
    assert_eq!(reply.status, 200);

    daemon.stop();
}

#[test]
fn conflicting_content_length_headers_get_400() {
    use std::io::{Read, Write};

    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    // Two Content-Length headers that disagree: the classic
    // request-smuggling shape. The server must refuse instead of quietly
    // honouring the later copy. No body follows the head, so the close
    // is clean (no unread data → no TCP RST eating the reply).
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.write_all(
        b"POST /map HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\n",
    )
    .expect("send conflicting head");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("server answers and closes");
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply:?}");
    assert!(reply.contains("conflicting Content-Length"), "{reply:?}");

    // Identical repeats are legal (RFC 9110 §8.6) and keep working.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.write_all(
        b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n",
    )
    .expect("send identical duplicates");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("server answers and closes");
    assert!(reply.starts_with("HTTP/1.1 200 "), "{reply:?}");

    // The workers survived both.
    let reply = client::get(&addr, "/healthz").expect("daemon still serves");
    assert_eq!(reply.status, 200);

    daemon.stop();
}

#[test]
fn metrics_endpoint_exposes_route_and_search_counters() {
    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    let resp = client::map(&addr, &matmul_request()).expect("map call");
    assert!(matches!(resp, MapResponse::Ok(_)));

    let reply = client::get(&addr, "/metrics").expect("metrics");
    assert_eq!(reply.status, 200);
    let text = &reply.body;
    // Route accounting: exactly the one /map request so far.
    assert!(
        text.contains("cfmapd_requests_total{route=\"/map\",status=\"200\"} 1"),
        "{text}"
    );
    // Latency histogram for the route, with seconds-unit buckets.
    assert!(text.contains("cfmapd_request_duration_seconds_bucket{route=\"/map\",le=\"0.0001\"}"), "{text}");
    assert!(text.contains("cfmapd_request_duration_seconds_count{route=\"/map\"} 1"), "{text}");
    // Search telemetry flowed from Procedure 5.1 into the registry.
    assert!(text.contains("cfmap_solves_total 1"), "{text}");
    // Accepted-candidate counts depend on the LexMax tie-break (every
    // accepted candidate at the winning level is counted), so assert
    // presence rather than a specific count.
    assert!(text.contains("cfmap_search_screened_total{result=\"accepted\"}"), "{text}");
    assert!(text.contains("cfmap_search_condition_hits_total"), "{text}");
    assert!(text.contains("# TYPE cfmapd_requests_total counter"), "{text}");

    // A cached repeat bumps the route counter but not the solve counter.
    let _ = client::map(&addr, &matmul_request()).expect("warm call");
    let text = client::get(&addr, "/metrics").expect("metrics").body;
    assert!(
        text.contains("cfmapd_requests_total{route=\"/map\",status=\"200\"} 2"),
        "{text}"
    );
    assert!(text.contains("cfmap_solves_total 1"), "{text}");

    // /stats carries the same aggregates in JSON.
    let stats_body = client::get(&addr, "/stats").expect("stats").body;
    let stats = parse(&stats_body).expect("stats is JSON");
    let search = stats.get("search").expect("search block");
    assert_eq!(search.get("solves").and_then(Json::as_i64), Some(1), "{stats_body}");
    assert!(
        search.get("candidates_enumerated").and_then(Json::as_i64).unwrap() > 0,
        "{stats_body}"
    );

    daemon.stop();
}

#[test]
fn json_log_format_writes_structured_access_lines() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfmapd"))
        .args(["--addr", "127.0.0.1:0", "--log-format", "json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cfmapd spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut first_line = String::new();
    BufReader::new(stdout).read_line(&mut first_line).expect("startup line");
    let addr = first_line
        .trim()
        .strip_prefix("cfmapd listening on ")
        .expect("startup line")
        .to_string();

    let resp = client::map(&addr, &matmul_request()).expect("map call");
    assert!(matches!(resp, MapResponse::Ok(_)));
    let _ = client::post(&addr, "/shutdown", "");
    let status = child.wait().expect("cfmapd exits");
    assert!(status.success(), "{status:?}");

    let mut stderr_text = String::new();
    use std::io::Read;
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr_text)
        .expect("stderr readable");
    let map_line = stderr_text
        .lines()
        .find(|l| l.contains("\"/map\""))
        .unwrap_or_else(|| panic!("no /map access-log line in {stderr_text:?}"));
    let entry = parse(map_line).expect("access-log line is JSON");
    assert_eq!(entry.get("method").and_then(Json::as_str), Some("POST"));
    assert_eq!(entry.get("path").and_then(Json::as_str), Some("/map"));
    assert_eq!(entry.get("status").and_then(Json::as_i64), Some(200));
    assert!(entry.get("duration_us").and_then(Json::as_i64).unwrap() >= 0);
    assert!(entry.get("ts_ms").and_then(Json::as_i64).unwrap() > 0);
    assert!(entry.get("bytes").and_then(Json::as_i64).unwrap() > 0);
}

/// Read one `Content-Length`-framed HTTP response off a raw socket:
/// `(status, lower-cased headers, body)`. Exact framing is what makes
/// keep-alive reuse byte-safe, so the test reads exactly what the
/// server frames — no EOF sentinel.
fn read_framed_response(
    reader: &mut impl std::io::BufRead,
) -> (u16, Vec<(String, String)>, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().expect("numeric Content-Length"))
        .expect("keep-alive responses must be Content-Length framed");
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("exactly Content-Length body bytes");
    (status, headers, String::from_utf8(body).expect("UTF-8 body"))
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    use std::io::{Read, Write};

    let daemon = Daemon::spawn(&[]);
    let addr = daemon.addr.clone();

    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let body = matmul_request().to_json().serialize();

    // Three requests down one socket: each must be answered in
    // sequence, exactly framed, with the connection held open.
    for i in 0..3 {
        let head = format!(
            "POST /map HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        raw.write_all(head.as_bytes()).expect("request head");
        raw.write_all(body.as_bytes()).expect("request body");
        let (status, headers, reply) = read_framed_response(&mut reader);
        assert_eq!(status, 200, "request {i}: {reply}");
        assert_eq!(
            headers.iter().find(|(k, _)| k == "connection").map(|(_, v)| v.as_str()),
            Some("keep-alive"),
            "request {i} must keep the connection open"
        );
        let resp = MapResponse::from_str(&reply).expect("wire body");
        let MapResponse::Ok(o) = resp else { panic!("request {i}: {resp:?}") };
        assert_eq!(o.cached, i > 0, "repeats on the same connection hit the cache");
    }

    // A `Connection: close` request on the same socket is honored: one
    // last answer, then EOF.
    let head = format!(
        "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    );
    raw.write_all(head.as_bytes()).expect("final request");
    let (status, headers, _) = read_framed_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(
        headers.iter().find(|(k, _)| k == "connection").map(|(_, v)| v.as_str()),
        Some("close")
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean EOF");
    assert!(rest.is_empty(), "server must close after Connection: close, not send {rest:?}");

    daemon.stop();
}

/// A kept-alive request's clock starts at its first byte: a pause
/// between two requests on one connection is charged neither to the
/// latency histogram nor to the second request's `deadline_ms`.
#[test]
fn keep_alive_pause_counts_against_neither_latency_nor_deadline() {
    let daemon = Daemon::spawn(&[]);
    let patience = Duration::from_secs(10);
    let mut conn =
        KeepAliveConn::open(&daemon.addr, patience, patience, patience).expect("connect");

    let warm = matmul_request().to_json().serialize();
    let first = conn.exchange("POST", "/map", Some(&warm)).expect("first /map");
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.keep_alive, "the daemon must keep the connection open");

    std::thread::sleep(Duration::from_millis(600));
    // A cold problem whose deadline would already have run out had it
    // been anchored before the pause.
    let mut cold = MapRequest::named("matmul", 5, vec![vec![1, 1, -1]]);
    cold.deadline_ms = Some(400);
    let second = conn
        .exchange("POST", "/map", Some(&cold.to_json().serialize()))
        .expect("second /map on the same connection");
    assert_eq!(second.status, 200, "{}", second.body);
    let resp = MapResponse::from_str(&second.body).expect("wire body");
    let MapResponse::Ok(o) = resp else { panic!("cold request after the pause: {resp:?}") };
    assert_eq!(o.certification, Certification::Optimal, "the pause ate the deadline");
    assert!(!o.cached);

    let text = client::get(&daemon.addr, "/metrics").expect("metrics").body;
    let sum_name = "cfmapd_request_duration_seconds_sum{route=\"/map\"}";
    let sum: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix(sum_name))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {sum_name} in {text}"));
    assert!(sum < 0.3, "two /map requests took {sum} s by the histogram: the pause was counted");

    daemon.stop();
}

#[test]
fn healthz_carries_liveness_fields_and_readyz_answers() {
    let daemon = Daemon::spawn(&["--workers", "2"]);
    let addr = daemon.addr.clone();

    let reply = client::get(&addr, "/healthz").expect("healthz");
    assert_eq!(reply.status, 200);
    let json = parse(&reply.body).expect("healthz is JSON");
    assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"), "{}", reply.body);
    assert_eq!(json.get("draining").and_then(Json::as_bool), Some(false), "{}", reply.body);
    assert_eq!(json.get("queue_depth").and_then(Json::as_i64), Some(0), "{}", reply.body);
    assert_eq!(json.get("workers").and_then(Json::as_i64), Some(2), "{}", reply.body);

    // Readiness is a separate signal (it flips 503 during a drain; the
    // drain path itself is covered by the chaos suite).
    let ready = client::get(&addr, "/readyz").expect("readyz");
    assert_eq!(ready.status, 200, "{}", ready.body);

    // A bare daemon (no router in front) stamps no backend header; the
    // client surfaces its absence as None.
    assert!(reply.backend.is_none(), "X-Cfmapd-Backend is the router's stamp, not the daemon's");

    daemon.stop();
}

#[test]
fn watch_stdin_shuts_down_on_eof() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfmapd"))
        .args(["--addr", "127.0.0.1:0", "--watch-stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("cfmapd spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut first_line = String::new();
    BufReader::new(stdout).read_line(&mut first_line).expect("startup line");
    assert!(first_line.starts_with("cfmapd listening on "), "{first_line:?}");
    // Closing stdin is the supervisor's shutdown signal.
    drop(child.stdin.take());
    let status = child.wait().expect("cfmapd exits on stdin EOF");
    assert!(status.success(), "{status:?}");
}
