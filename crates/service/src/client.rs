//! A minimal blocking HTTP client for `cfmapd` (and `cfmapd-router`).
//!
//! Enough HTTP/1.1 to talk to the server in this crate (and to anything
//! that answers `Connection: close` responses with a `Content-Length` or
//! EOF-delimited body). Used by the `cfmap client` subcommand and the
//! smoke tests — both of which must stay hermetic.
//!
//! Connection reuse: a [`Client`] keeps one `Connection: keep-alive`
//! socket warm between requests (connection setup was almost all of a
//! measured 5.4× http-vs-engine gap). The server frames every
//! keep-alive response with an exact `Content-Length`, so reuse is
//! byte-safe; a stale pooled socket (the server retires connections
//! after a bounded request count and a short idle window) falls back to
//! one fresh connection without surfacing an error. The module-level
//! free functions ([`http_request`], [`map`], …) keep the original
//! one-shot `Connection: close` behavior.
//!
//! Resilience: [`ClientConfig`] carries explicit connect/read/write
//! timeouts and an optional retry policy with jittered exponential
//! backoff. Retries trigger on I/O errors and on `503` answers (the
//! server's admission-control shed — or the router's, when every
//! backend is open-circuit), and honor the `Retry-After` header as a
//! floor for the next backoff sleep, including a `Retry-After` the
//! router forwarded from a shedding backend.

use crate::http::{self, KeepAliveConn};
use crate::wire::{MapRequest, MapResponse, WireError};
use std::io::{BufReader, Read};
use std::str::FromStr;
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing, or reading the socket failed.
    Io(std::io::Error),
    /// The server's bytes were not a valid HTTP response or payload.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error talking to cfmapd: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error talking to cfmapd: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Protocol(e.to_string())
    }
}

/// Socket timeouts and retry policy for one client.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (response may take a full budgeted search).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Additional attempts after the first (0 = fail fast).
    pub retries: u32,
    /// First backoff sleep; doubles per retry up to [`backoff_cap`].
    ///
    /// [`backoff_cap`]: ClientConfig::backoff_cap
    pub backoff_base: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter, so tests replay deterministically.
    pub jitter_seed: u64,
    /// Requests sent on one kept-alive connection before the client
    /// retires it voluntarily (stays below the server's own bound so
    /// the server never hangs up between our write and read).
    pub max_requests_per_conn: usize,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x5eed,
            max_requests_per_conn: 90,
        }
    }
}

/// An HTTP status code plus response body.
#[derive(Clone, Debug)]
pub struct HttpReply {
    /// Status code (200, 400, …).
    pub status: u16,
    /// Response body (JSON for every cfmapd route).
    pub body: String,
    /// The `Retry-After` header in seconds, if the server sent one
    /// (cfmapd does on a shed `503`).
    pub retry_after: Option<u64>,
    /// The `X-Cfmapd-Backend` header, if present — `cfmapd-router`
    /// stamps every forwarded answer with the backend that produced it.
    pub backend: Option<String>,
}

/// A `cfmapd` client: an address plus a [`ClientConfig`], holding one
/// keep-alive connection warm between requests.
#[derive(Debug)]
pub struct Client {
    addr: String,
    config: ClientConfig,
    /// Jitter state (xorshift64*), advanced per backoff sleep.
    jitter: u64,
    /// The warm connection, if the last exchange left one reusable.
    conn: Option<KeepAliveConn>,
}

impl From<http::Response> for HttpReply {
    fn from(resp: http::Response) -> HttpReply {
        HttpReply {
            status: resp.status,
            body: resp.body,
            retry_after: resp.retry_after,
            backend: resp.backend,
        }
    }
}

impl Client {
    /// A client with the given timeouts and retry policy.
    pub fn new(addr: &str, config: ClientConfig) -> Client {
        let jitter = config.jitter_seed | 1; // xorshift state must be non-zero
        Client { addr: addr.to_string(), config, jitter, conn: None }
    }

    /// A client with [`ClientConfig::default`] (no retries).
    pub fn with_defaults(addr: &str) -> Client {
        Client::new(addr, ClientConfig::default())
    }

    /// Issue one request, retrying on I/O errors and `503` per the
    /// configured policy. Honors `Retry-After` as a backoff floor.
    /// Reuses the warm keep-alive connection when one is available.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpReply, ClientError> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.send_once(method, path, body);
            let retryable = match &outcome {
                Ok(reply) => reply.status == 503,
                Err(ClientError::Io(_)) => true,
                Err(ClientError::Protocol(_)) => false,
            };
            if !retryable || attempt >= self.config.retries {
                return outcome;
            }
            let retry_after = match &outcome {
                Ok(reply) => reply.retry_after,
                Err(_) => None,
            };
            std::thread::sleep(self.backoff(attempt, retry_after));
            attempt += 1;
        }
    }

    /// One attempt, preferring the warm connection (see
    /// [`http::exchange_pooled`]): a stale warm socket falls back to one
    /// fresh connection, and only the fresh connection's failure
    /// escapes as an error.
    fn send_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpReply, ClientError> {
        let c = &self.config;
        let (resp, conn) = http::exchange_pooled(
            || self.conn.take(),
            || KeepAliveConn::open(&self.addr, c.connect_timeout, c.read_timeout, c.write_timeout),
            c.max_requests_per_conn,
            method,
            path,
            body,
        )?;
        self.conn = conn;
        Ok(resp.into())
    }

    /// POST a path with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> Result<HttpReply, ClientError> {
        self.request("POST", path, Some(body))
    }

    /// GET a path.
    pub fn get(&mut self, path: &str) -> Result<HttpReply, ClientError> {
        self.request("GET", path, None)
    }

    /// Submit one mapping request to `POST /map` and decode the answer.
    pub fn map(&mut self, request: &MapRequest) -> Result<MapResponse, ClientError> {
        let reply = self.post("/map", &request.to_json().serialize())?;
        Ok(MapResponse::from_str(&reply.body)?)
    }

    /// The sleep before retry number `attempt + 1`: exponential from
    /// `backoff_base`, capped at `backoff_cap`, with ±25% deterministic
    /// jitter, and never below the server's `Retry-After`.
    fn backoff(&mut self, attempt: u32, retry_after_secs: Option<u64>) -> Duration {
        let base_us = u64::try_from(self.config.backoff_base.as_micros()).unwrap_or(u64::MAX);
        let cap_us = u64::try_from(self.config.backoff_cap.as_micros()).unwrap_or(u64::MAX);
        let exp_us = base_us
            .saturating_mul(1u64 << attempt.min(20))
            .min(cap_us);
        // xorshift64* step, then map to [75%, 125%] of the exponential
        // sleep. Deterministic per seed: chaos tests replay exactly.
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let r = self.jitter.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let jittered = exp_us / 4 * 3 + r % (exp_us / 2).max(1);
        let floor_us = retry_after_secs
            .map(|s| s.saturating_mul(1_000_000))
            .unwrap_or(0);
        Duration::from_micros(jittered.max(floor_us).min(cap_us.max(floor_us)))
    }
}

/// One `Connection: close` exchange with explicit timeouts, no
/// retries. The reply's body has no size bound, so a body above
/// [`http::MAX_BODY_BYTES`] (a large `/cache/save` snapshot) still
/// downloads.
fn request_once(
    addr: &str,
    config: &ClientConfig,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpReply, ClientError> {
    let mut stream =
        http::connect(addr, config.connect_timeout, config.read_timeout, config.write_timeout)?;
    http::write_request(&mut stream, method, path, addr, body, false, &[])?;
    let mut reader = BufReader::new(stream);
    let reply = http::read_response_within(&mut reader, usize::MAX)?;
    // Read on to the server's close, so the server ends the connection
    // first and holds its TIME_WAIT, not this client's ephemeral port.
    let _ = reader.read_to_end(&mut Vec::new());
    Ok(reply.into())
}

/// Issue one request and read the full reply (`Connection: close`),
/// using [`ClientConfig::default`] timeouts and no retries.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpReply, ClientError> {
    request_once(addr, &ClientConfig::default(), method, path, body)
}

/// POST a path with a JSON body.
pub fn post(addr: &str, path: &str, body: &str) -> Result<HttpReply, ClientError> {
    http_request(addr, "POST", path, Some(body))
}

/// GET a path.
pub fn get(addr: &str, path: &str) -> Result<HttpReply, ClientError> {
    http_request(addr, "GET", path, None)
}

/// Submit one mapping request to `POST /map` and decode the answer.
pub fn map(addr: &str, request: &MapRequest) -> Result<MapResponse, ClientError> {
    let reply = post(addr, "/map", &request.to_json().serialize())?;
    Ok(MapResponse::from_str(&reply.body)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_exponential_and_honors_retry_after() {
        let config = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            jitter_seed: 7,
            ..ClientConfig::default()
        };
        let mut a = Client::new("127.0.0.1:1", config.clone());
        let mut b = Client::new("127.0.0.1:1", config.clone());
        let seq_a: Vec<Duration> = (0..4).map(|i| a.backoff(i, None)).collect();
        let seq_b: Vec<Duration> = (0..4).map(|i| b.backoff(i, None)).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same sleeps");
        for (i, d) in seq_a.iter().enumerate() {
            let exp = Duration::from_millis(10 << i).min(Duration::from_millis(200));
            assert!(*d >= exp * 3 / 4 && *d <= exp * 5 / 4, "sleep {i} = {d:?} outside ±25% of {exp:?}");
        }
        // Retry-After floors the sleep even above the cap.
        let mut c = Client::new("127.0.0.1:1", config);
        assert!(c.backoff(0, Some(1)) >= Duration::from_secs(1));
    }

    /// A one-shot reply has no body bound, so its `Content-Length` must
    /// not size an allocation: a peer that claims `u64::MAX` bytes and
    /// sends three gets an error, not a capacity-overflow panic.
    #[test]
    fn a_claimed_content_length_is_not_trusted_for_allocation() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = http::read_request(&mut BufReader::new(stream.try_clone().expect("clone")));
            let head = "HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n";
            stream.write_all(format!("{head}abc").as_bytes()).expect("reply");
        });
        let reply = get(&addr, "/cache/save");
        assert!(matches!(reply, Err(ClientError::Io(_))), "{reply:?}");
        peer.join().expect("peer thread");
    }
}
