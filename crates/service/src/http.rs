//! Shared HTTP/1.1 transport for the daemon, the router, and the
//! pooled client.
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

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Request bodies above this size are refused with `413` — mapping
/// requests are a few hundred bytes; megabytes signal a confused client.
pub const MAX_BODY_BYTES: usize = 1 << 20;

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

/// Write a `Connection: close` HTTP/1.1 response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write_response_extra(stream, status, content_type, body, &[], false)
}

/// [`write_response`] with extra response headers (e.g. `Retry-After`
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
            if len > MAX_BODY_BYTES {
                return Err(proto_err("response body too large"));
            }
            let mut raw = vec![0u8; len];
            reader.read_exact(&mut raw)?;
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

    /// May the connection carry another request after `response`? Only
    /// if the server kept it open and it has served fewer than
    /// `max_requests` (callers stay below the server's own bound, so the
    /// server never hangs up between their write and read).
    pub fn reusable(&self, response: &Response, max_requests: usize) -> bool {
        response.keep_alive && self.served < max_requests
    }
}

impl std::fmt::Debug for KeepAliveConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeepAliveConn({}, served: {})", self.host, self.served)
    }
}
