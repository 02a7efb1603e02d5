//! Shared HTTP/1.1 transport and front end for the daemon, the router,
//! and the pooled client.
//!
//! One parser, one message writer, one response reader, one connector
//! and one keep-alive connection type — `cfmapd` (server side),
//! `cfmapd-router` (both sides: it is a server to clients and a client
//! to backends), and [`crate::client`] all speak the same byte-level
//! subset: request line, headers, `Content-Length` body. Keeping the
//! framing in one module is what makes keep-alive safe to add: every
//! reader frames by `Content-Length`, so a reused connection never
//! swallows the next message's bytes.
//!
//! Both servers also share one front end, `serve`: the accept loop,
//! the bounded admission queue and its `503` shed path, the worker
//! pool, the per-request panic guard and the keep-alive connection
//! loop. Each tier supplies only a `Tier`: its admission settings,
//! its answers, its per-request accounting and its shed body.
//!
//! Keep-alive is strictly *opt-in*: a connection stays open only when
//! the peer explicitly sends `Connection: keep-alive`. Clients that
//! frame responses by EOF (the original `Connection: close` protocol,
//! still used by the fault-injection harness and raw-socket tests) are
//! untouched.
//!
//! The wire rule: every message leaves in one `write_all`, and every
//! socket — connected through [`connect`] or accepted and passed to
//! [`tune`] — sets `TCP_NODELAY`. Written as head then body, a message
//! on a reused connection stalls: Nagle's algorithm holds the body back
//! until the peer acknowledges the head, and the peer delays that ACK
//! (40 ms or more on Linux). A fresh connection hides the stall because
//! Linux acknowledges its first segments at once. `TCP_NODELAY` covers
//! the last segment of a message too large for one segment.

use crate::json::Json;
use cfmap_core::budget::clock;
use cfmap_core::metrics::{Counter, Gauge};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request bodies above this size are refused with `413` — mapping
/// requests are a few hundred bytes; megabytes signal a confused client.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// How long a server waits on a slow client once a request's first
/// byte has arrived, and how long its answer may take to leave.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a server waits for the *next* request on a kept-alive
/// connection. Much shorter than [`IO_TIMEOUT`]: an idle persistent
/// connection pins a worker, so patience between requests is a direct
/// tax on pool capacity (and on drain time at shutdown).
const KEEPALIVE_IDLE_TIMEOUT: Duration = Duration::from_secs(2);

/// Read and write patience of a shed connection's `503`.
const SHED_TIMEOUT: Duration = Duration::from_secs(2);

/// `Content-Type` of every JSON answer.
pub(crate) const CT_JSON: &str = "application/json";

/// `Content-Type` of a `/metrics` answer (Prometheus text exposition
/// format).
pub(crate) const CT_METRICS: &str = "text/plain; version=0.0.4";

/// The request line and header section together may not exceed this many
/// bytes. Without a bound, `read_line` would buffer a newline-free byte
/// stream indefinitely (`MAX_BODY_BYTES` only guards the body).
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// Why reading a request failed.
pub enum ReadError {
    /// Connection closed before a request line (shutdown poke, or a
    /// keep-alive client hanging up between requests).
    Empty,
    /// Head or body exceeded its byte budget.
    TooLarge,
    /// The bytes were not a parseable HTTP request.
    Malformed(String),
}

/// A parsed HTTP request: method, path, body, the optional
/// `X-Cfmapd-Fault` header (honored only under fault injection), and
/// whether the client asked to keep the connection open.
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Absolute path, starting with `/`.
    pub path: String,
    /// Decoded body (empty when no `Content-Length` was sent).
    pub body: String,
    /// `X-Cfmapd-Fault` header value, if present.
    pub fault: Option<String>,
    /// The client sent `Connection: keep-alive` — the server *may*
    /// serve further requests on this connection.
    pub keep_alive: bool,
}

/// `read_line`, but never buffering more than `limit` bytes: reading
/// stops at the first newline or at `limit + 1` bytes, whichever comes
/// first, so a client streaming newline-free bytes cannot grow memory.
/// Returns `Err(TooLarge)` when the line exceeds `limit`.
pub fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    limit: usize,
) -> Result<Option<String>, ReadError> {
    let mut line = String::new();
    match reader.by_ref().take(limit as u64 + 1).read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(ReadError::Malformed(format!("read failed: {e}"))),
    }
    // `take` capped the read at limit + 1 bytes: a longer "line" means
    // no newline arrived within the budget.
    if line.len() > limit {
        return Err(ReadError::TooLarge);
    }
    Ok(Some(line))
}

/// Read one `METHOD /path HTTP/1.x` request with an optional
/// `Content-Length` body. The head (request line + headers) is bounded
/// by [`MAX_HEAD_BYTES`], the body by [`MAX_BODY_BYTES`].
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ReadError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let line = match read_line_limited(reader, head_budget) {
        Ok(Some(line)) => line,
        Ok(None) | Err(ReadError::Malformed(_)) => return Err(ReadError::Empty),
        Err(e) => return Err(e),
    };
    head_budget -= line.len().min(head_budget);
    if line.trim().is_empty() {
        return Err(ReadError::Empty);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || !path.starts_with('/') {
        return Err(ReadError::Malformed(format!("bad request line {:?}", line.trim())));
    }
    let mut content_length: Option<usize> = None;
    let mut fault: Option<String> = None;
    let mut keep_alive = false;
    loop {
        let header = match read_line_limited(reader, head_budget)? {
            None => break,
            Some(h) => h,
        };
        head_budget -= header.len().min(head_budget);
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let parsed: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Malformed("bad Content-Length".into()))?;
                // Duplicate Content-Length headers are a request-smuggling
                // staple: the framing depends on which copy a parser
                // honours. Conflicting copies are refused outright;
                // RFC 9110 §8.6 allows identical repeats.
                match content_length {
                    Some(prev) if prev != parsed => {
                        return Err(ReadError::Malformed(
                            "conflicting Content-Length headers".into(),
                        ));
                    }
                    _ => content_length = Some(parsed),
                }
            } else if name.eq_ignore_ascii_case("x-cfmapd-fault") {
                fault = Some(value.trim().to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| ReadError::Malformed(format!("body read failed: {e}")))?;
    String::from_utf8(body)
        .map(|b| Request { method, path, body: b, fault, keep_alive })
        .map_err(|_| ReadError::Malformed("body is not UTF-8".into()))
}

/// Block until the next request's first byte is buffered. `false` when
/// the peer closed the connection or the read failed (its timeout ran
/// out): there is no request to answer.
pub fn await_request(reader: &mut BufReader<TcpStream>) -> bool {
    loop {
        match reader.fill_buf() {
            Ok(buf) => return !buf.is_empty(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Write one HTTP/1.1 response with extra headers (e.g. `Retry-After`
/// on a shed `503`) and an explicit connection disposition. The
/// `Content-Length` is always exact, so a `keep_alive` response leaves
/// the stream positioned at the next message boundary.
pub fn write_response_extra(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Status",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    send_message(stream, head, extra_headers, body)
}

/// Write one request. `keep_alive` controls the `Connection` header;
/// a `Content-Length` is always sent (zero for body-less requests) so
/// the server can frame the message either way.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    host: &str,
    body: Option<&str>,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let payload = body.unwrap_or("");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        payload.len()
    );
    send_message(stream, head, extra_headers, payload)
}

/// Finish `msg` — a start line and its fixed headers — with the extra
/// headers, the blank line and the body, and send the whole message in
/// one `write_all` (see the module docs for why it must be one).
fn send_message(
    stream: &mut TcpStream,
    mut msg: String,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    for (name, value) in extra_headers {
        msg.push_str(name);
        msg.push_str(": ");
        msg.push_str(value);
        msg.push_str("\r\n");
    }
    msg.push_str("\r\n");
    msg.push_str(body);
    stream.write_all(msg.as_bytes())
}

/// A parsed HTTP response, as read by the client side.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// The `Retry-After` header in seconds, if present.
    pub retry_after: Option<u64>,
    /// The `X-Cfmapd-Backend` header (which backend a router answer
    /// came from), if present.
    pub backend: Option<String>,
    /// The server committed to keeping the connection open: it sent
    /// `Connection: keep-alive` *and* a `Content-Length`, so the stream
    /// is positioned exactly at the next response boundary.
    pub keep_alive: bool,
}

fn proto_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Read one HTTP/1.1 response. With a `Content-Length`, the body is
/// framed exactly (the connection stays reusable); without one, the
/// body runs to EOF (`Connection: close` framing).
pub fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<Response> {
    read_response_within(reader, MAX_BODY_BYTES)
}

/// [`read_response`], refusing a `Content-Length` above `max_body`.
pub(crate) fn read_response_within(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> std::io::Result<Response> {
    let mut head_budget = MAX_HEAD_BYTES;
    let status_line = match read_line_limited(reader, head_budget) {
        Ok(Some(line)) => line,
        Ok(None) => return Err(proto_err("connection closed before a status line")),
        Err(ReadError::Malformed(m)) => return Err(proto_err(m)),
        Err(_) => return Err(proto_err("status line too large")),
    };
    head_budget -= status_line.len().min(head_budget);
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| proto_err(format!("bad status line {:?}", status_line.trim())))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    let mut backend: Option<String> = None;
    let mut keep_alive = false;
    loop {
        let header = match read_line_limited(reader, head_budget) {
            Ok(Some(h)) => h,
            Ok(None) => break,
            Err(ReadError::Malformed(m)) => return Err(proto_err(m)),
            Err(_) => return Err(proto_err("response head too large")),
        };
        head_budget -= header.len().min(head_budget);
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    Some(value.parse().map_err(|_| proto_err("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("x-cfmapd-backend") {
                backend = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    let body = match content_length {
        Some(len) => {
            if len > max_body {
                return Err(proto_err("response body too large"));
            }
            // Allocated on the peer's word only up to `MAX_BODY_BYTES`; a
            // longer body (a one-shot snapshot download) grows as it arrives.
            let mut raw = Vec::with_capacity(len.min(MAX_BODY_BYTES));
            reader.by_ref().take(len as u64).read_to_end(&mut raw)?;
            if raw.len() < len {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            String::from_utf8(raw).map_err(|_| proto_err("response body is not UTF-8"))?
        }
        None => {
            // EOF framing: the connection cannot be reused.
            keep_alive = false;
            let mut raw = Vec::new();
            reader.read_to_end(&mut raw)?;
            String::from_utf8(raw).map_err(|_| proto_err("response body is not UTF-8"))?
        }
    };
    Ok(Response { status, body, retry_after, backend, keep_alive })
}

/// Tune a connected or accepted socket for request/response traffic:
/// `TCP_NODELAY` on, plus the given read and write timeouts. Every
/// setting is attempted; the first failure is returned.
pub fn tune(
    stream: &TcpStream,
    read_timeout: Duration,
    write_timeout: Duration,
) -> std::io::Result<()> {
    let nodelay = stream.set_nodelay(true);
    let read = stream.set_read_timeout(Some(read_timeout));
    let write = stream.set_write_timeout(Some(write_timeout));
    nodelay.and(read).and(write)
}

/// Connect to `addr` within `connect_timeout`, trying each resolved
/// address in turn, and [`tune`] the socket.
pub fn connect(
    addr: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
    write_timeout: Duration,
) -> std::io::Result<TcpStream> {
    let mut last: Option<std::io::Error> = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, connect_timeout) {
            Ok(stream) => {
                tune(&stream, read_timeout, write_timeout)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{addr} resolves to nothing"))
    }))
}

/// One client-side keep-alive connection: the socket, a buffered reader
/// over a clone of it, the address it was opened to (sent as `Host`),
/// and how many exchanges it has carried. [`crate::client::Client`],
/// the router's upstream pool and its health probe all talk through it.
pub struct KeepAliveConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
    served: usize,
}

impl KeepAliveConn {
    /// Open a connection to `addr` (see [`connect`]).
    pub fn open(
        addr: &str,
        connect_timeout: Duration,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> std::io::Result<KeepAliveConn> {
        let stream = connect(addr, connect_timeout, read_timeout, write_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(KeepAliveConn { stream, reader, host: addr.to_string(), served: 0 })
    }

    /// Send one `Connection: keep-alive` request and read its response.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        write_request(&mut self.stream, method, path, &self.host, body, true, &[])?;
        let response = read_response(&mut self.reader)?;
        self.served += 1;
        Ok(response)
    }
}

impl std::fmt::Debug for KeepAliveConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeepAliveConn({}, served: {})", self.host, self.served)
    }
}

/// One keep-alive exchange over a pooled connection: take one from
/// `checkout`, or `open` a fresh one once the pool is empty. A failure
/// on a *reused* socket is expected wear (servers retire connections
/// after a request bound and a short idle window), not evidence against
/// the peer, so it moves on to the next connection; only a fresh
/// connection's failure escapes. Returns the response and the connection
/// to park when it may carry another request: the server kept it open
/// and it has served fewer than `max_requests` (callers stay below the
/// server's own bound, so the server never hangs up between their write
/// and read).
pub(crate) fn exchange_pooled(
    mut checkout: impl FnMut() -> Option<KeepAliveConn>,
    open: impl Fn() -> std::io::Result<KeepAliveConn>,
    max_requests: usize,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(Response, Option<KeepAliveConn>)> {
    loop {
        let (mut conn, reused) = match checkout() {
            Some(conn) => (conn, true),
            None => (open()?, false),
        };
        match conn.exchange(method, path, body) {
            Ok(resp) => {
                let park = (resp.keep_alive && conn.served < max_requests).then_some(conn);
                return Ok((resp, park));
            }
            Err(_) if reused => {}
            Err(e) => return Err(e),
        }
    }
}

/// A `{"status": …, "message": …}` JSON body.
pub(crate) fn status_body(status: &str, message: &str) -> String {
    Json::Obj(vec![
        ("status".into(), Json::Str(status.into())),
        ("message".into(), Json::Str(message.into())),
    ])
    .serialize()
}

/// The body of a `400`, `404` or `413` refusal.
pub(crate) fn error_body(msg: &str) -> String {
    status_body("bad_request", msg)
}

/// One answer of a [`Tier`].
pub(crate) struct Answer {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    /// Extra response headers (`Retry-After`, `X-Cfmapd-Backend`).
    pub headers: Vec<(&'static str, String)>,
}

impl Answer {
    /// A JSON answer without extra headers.
    pub fn json(status: u16, body: String) -> Answer {
        Answer { status, content_type: CT_JSON, body, headers: Vec::new() }
    }
}

/// What one server tier (the daemon or the router) plugs into [`serve`].
pub(crate) trait Tier: Send + Sync + 'static {
    /// The tier's admission settings and counters.
    fn front(&self) -> &Front;

    /// Answer one parsed request. `anchor_us` starts its deadline on the
    /// budget clock: the accept time for a connection's first request
    /// (queue wait counts), its first buffered byte for later ones.
    fn answer(&self, req: &Request, anchor_us: u64) -> Answer;

    /// Account one answer just before it is written. `req` is `None`
    /// when the bytes did not parse; `elapsed` runs from the request's
    /// first buffered byte.
    fn account(&self, _req: Option<&Request>, _answer: &Answer, _elapsed: Duration) {}

    /// The JSON body of the `503` + `Retry-After` a shed connection gets.
    fn shed_body(&self) -> String;
}

/// The admission settings and counters of one tier's front end.
pub(crate) struct Front {
    pub workers: usize,
    pub queue_capacity: usize,
    /// Requests answered on one kept-alive connection before it closes.
    pub max_requests_per_conn: usize,
    pub shutdown: Arc<AtomicBool>,
    /// Connections admitted and waiting for a worker.
    pub queue_depth: Arc<Gauge>,
    /// Connections answered `503` because the admission queue was full.
    pub shed: Arc<Counter>,
}

/// Serve `listener` until the tier's shutdown flag is set: accept each
/// connection, admit it through a bounded queue (shedding the overflow
/// with `503` + `Retry-After`), and answer its requests on a fixed
/// worker pool through `tier`. Returns the workers once the accept loop
/// stops; they answer every admitted connection, then exit.
pub(crate) fn serve<T: Tier>(listener: &TcpListener, tier: Arc<T>) -> Vec<JoinHandle<()>> {
    let front = tier.front();
    // A *bounded* queue is the admission-control contract: at most
    // `queue_capacity` connections wait for a worker, and everything
    // beyond that is shed at once rather than buffered into a backlog
    // no deadline survives. Each connection carries its accept time.
    let (tx, rx) = mpsc::sync_channel::<(TcpStream, u64)>(front.queue_capacity.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let workers = (0..front.workers.max(1))
        .map(|_| {
            let (rx, tier) = (Arc::clone(&rx), Arc::clone(&tier));
            std::thread::spawn(move || loop {
                // Holding the receiver lock only while popping keeps the
                // other workers runnable during request handling.
                let next = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(_) => break,
                };
                let Ok((stream, accepted_us)) = next else { break };
                tier.front().queue_depth.add(-1);
                // A handler panic is answered 500 inside; this guard
                // keeps a panic on the I/O path from killing the worker.
                let _ = catch_unwind(AssertUnwindSafe(|| connection(&*tier, stream, accepted_us)));
            })
        })
        .collect();
    for conn in listener.incoming() {
        if front.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        front.queue_depth.add(1);
        match tx.try_send((stream, clock::now_micros())) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full((stream, _))) => {
                front.queue_depth.add(-1);
                front.shed.inc();
                shed(stream, tier.shed_body());
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                front.queue_depth.add(-1);
                break;
            }
        }
    }
    // Closing the queue lets the workers finish every admitted
    // connection; then their `recv` fails and they exit.
    drop(tx);
    workers
}

/// Serve one connection: parse, answer through `tier`, write — then, if
/// the client opted into keep-alive and the request parsed, loop for the
/// next request (up to `max_requests_per_conn`). Framing errors and
/// shutdown always close: after a framing error the stream position is
/// unknown, and a draining server must release its workers.
fn connection(tier: &impl Tier, stream: TcpStream, accepted_us: u64) {
    let front = tier.front();
    let _ = tune(&stream, IO_TIMEOUT, IO_TIMEOUT);
    let Ok(clone) = stream.try_clone() else { return };
    let (mut reader, mut stream) = (BufReader::new(clone), stream);
    // The first request's deadline anchors at *accept* time (queueing
    // counts against it); later requests on a kept-alive connection
    // anchor at their first byte, so the idle wait between requests is
    // charged neither to a deadline nor to the latency clock.
    let mut anchor_us = accepted_us;
    let mut served = 0usize;
    loop {
        // A bare shutdown poke (connect + close) — or a keep-alive
        // client hanging up, or going quiet past the idle clock,
        // between requests — answers nothing.
        if !await_request(&mut reader) {
            return;
        }
        let started = Instant::now();
        if served > 0 {
            anchor_us = clock::now_micros();
            // The idle clock covered only the wait; the rest of the
            // request reads under the full request timeout.
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        }
        let (answer, req) = match read_request(&mut reader) {
            Err(ReadError::Empty) => return,
            Err(ReadError::TooLarge) => {
                (Answer::json(413, error_body("request body too large")), None)
            }
            Err(ReadError::Malformed(msg)) => (Answer::json(400, error_body(&msg)), None),
            Ok(req) => {
                // Answer 500 instead of unwinding through the worker:
                // the engine's locks all tolerate poisoning (see
                // `cache.rs`), so serving continues after a panic.
                let answer = catch_unwind(AssertUnwindSafe(|| tier.answer(&req, anchor_us)))
                    .unwrap_or_else(|_| {
                        let body = status_body("internal_error", "request handler panicked");
                        Answer::json(500, body)
                    });
                (answer, Some(req))
            }
        };
        served += 1;
        tier.account(req.as_ref(), &answer, started.elapsed());
        let keep = req.is_some_and(|r| r.keep_alive)
            && served < front.max_requests_per_conn
            && !front.shutdown.load(Ordering::SeqCst);
        let headers: Vec<(&str, &str)> =
            answer.headers.iter().map(|(name, value)| (*name, value.as_str())).collect();
        let Answer { status, content_type, body, .. } = &answer;
        let written =
            write_response_extra(&mut stream, *status, content_type, body, &headers, keep);
        if front.shutdown.load(Ordering::SeqCst) {
            // An accepted socket's local address is the listener's
            // (they share the port), so this unblocks the accept loop.
            if let Ok(addr) = stream.local_addr() {
                poke(addr);
            }
            return;
        }
        if !keep || written.is_err() {
            return;
        }
        // Between requests a persistent connection waits on a short
        // idle clock, not the full request timeout.
        let _ = stream.set_read_timeout(Some(KEEPALIVE_IDLE_TIMEOUT));
    }
}

/// Answer a shed connection with `503` + `Retry-After` and `body` on a
/// short-lived thread, so a slow client cannot stall the accept loop.
/// The client's request is drained first (bounded, under socket
/// timeouts), so the kernel does not reset the connection with the 503
/// still unread.
fn shed(mut stream: TcpStream, body: String) {
    std::thread::spawn(move || {
        let _ = tune(&stream, SHED_TIMEOUT, SHED_TIMEOUT);
        if let Ok(clone) = stream.try_clone() {
            let _ = read_request(&mut BufReader::new(clone));
        }
        let retry = [("Retry-After", "1")];
        let _ = write_response_extra(&mut stream, 503, CT_JSON, &body, &retry, false);
    });
}

/// Connect to a listener and hang up, so its blocking `accept` returns
/// and the accept loop sees the shutdown flag.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Wait up to `patience` for `flag`, looking every 25 ms; `true` once it
/// is set. The drain watchdog and the router's probe loop nap on it.
pub(crate) fn wait_for(flag: &AtomicBool, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    while !flag.load(Ordering::SeqCst) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        std::thread::sleep(left.min(Duration::from_millis(25)));
    }
    true
}

/// Lets another thread stop a running [`crate::server::CfmapServer`] or
/// [`crate::router::CfmapRouter`].
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// A handle for the shutdown `flag` of the listener at `addr`.
    pub(crate) fn new(flag: Arc<AtomicBool>, addr: SocketAddr) -> ShutdownHandle {
        ShutdownHandle { flag, addr }
    }

    /// Ask the server to stop accepting and drain its workers.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        poke(self.addr);
    }

    /// Shut down once stdin reaches EOF, watched on a background thread:
    /// the `--watch-stdin` mode of both daemons, for supervisors that
    /// stop a child by closing its stdin pipe.
    pub fn shutdown_at_stdin_eof(self) {
        std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            self.shutdown();
        });
    }
}
