//! The closed-loop load generator: one process, two client threads, each
//! sending its next request only after the previous answer arrived.
//! Mapping callers (compilers, CAD flows, the router itself) wait for their
//! design, so a closed loop is the honest model; the clients never hold
//! more than two connections between them.

use crate::workload::Inputs;
use cfmap::service::client::{self, Client};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Client threads, and so the most connections open at once.
pub const CLIENTS: usize = 2;

/// How each client talks to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// A fresh `Connection: close` exchange per request.
    OneShot,
    /// One warm `client::Client` keep-alive connection per thread.
    KeepAlive,
}

/// When a phase stops issuing requests.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    /// Stop once this much time has passed since the phase began.
    pub time: Duration,
    /// Stop after this many requests.
    pub requests: usize,
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `200`, and the body equals every earlier answer to the same item.
    Answered,
    /// `200`, but the body differs from an earlier answer to the same item.
    Changed,
    /// Any other status.
    Status(u16),
    /// The connection failed.
    Transport,
}

/// One request of a phase.
#[derive(Clone, Debug)]
pub struct Record {
    /// Position in the stream.
    pub seq: usize,
    /// The item sent.
    pub item: usize,
    /// Send time, from the start of the phase.
    pub start: Duration,
    /// Client-measured round trip.
    pub latency: Duration,
    /// How it ended.
    pub outcome: Outcome,
    /// The backend a router named in `X-Cfmapd-Backend`.
    pub backend: Option<String>,
}

/// The first answer body received for each item. Later answers to the same
/// item must match it byte for byte; `map-warm` seeds it with the bodies
/// recorded once the hot set is primed.
pub struct Answers(Vec<OnceLock<String>>);

impl Answers {
    /// No answers yet for `items` items.
    pub fn new(items: usize) -> Answers {
        Answers((0..items).map(|_| OnceLock::new()).collect())
    }

    /// Record `body` for `item`; `false` when it differs from the first.
    pub fn record(&self, item: usize, body: String) -> bool {
        let first = self.0[item].get_or_init(|| body.clone());
        *first == body
    }

    /// The first answer to `item`, if any arrived.
    pub fn get(&self, item: usize) -> Option<&str> {
        self.0[item].get().map(String::as_str)
    }
}

/// A finished phase.
pub struct Phase {
    /// Every request, in stream order.
    pub records: Vec<Record>,
    /// From the first send to the last answer.
    pub elapsed: Duration,
}

impl Phase {
    /// Requests that were answered `200` with a consistent body.
    pub fn answered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == Outcome::Answered)
            .count()
    }
}

/// Send `inputs`' stream to `addr` from [`CLIENTS`] threads until `limit`.
pub fn drive(
    addr: &str,
    inputs: &Inputs,
    transport: Transport,
    limit: Limit,
    answers: &Answers,
) -> Phase {
    let next = AtomicUsize::new(0);
    let began = Instant::now();
    let per_thread: Vec<Vec<Record>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut keep_alive =
                        (transport == Transport::KeepAlive).then(|| Client::with_defaults(addr));
                    let mut out = Vec::new();
                    loop {
                        if began.elapsed() >= limit.time {
                            break;
                        }
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = inputs.item_index(seq).filter(|_| seq < limit.requests)
                        else {
                            break;
                        };
                        let body = inputs.items[item].body();
                        let start = began.elapsed();
                        let reply = match &mut keep_alive {
                            Some(c) => c.post(inputs.route, body),
                            None => client::post(addr, inputs.route, body),
                        };
                        let latency = began.elapsed() - start;
                        let (outcome, backend) = match reply {
                            Ok(r) if r.status == 200 => {
                                let same = answers.record(item, r.body);
                                (
                                    if same {
                                        Outcome::Answered
                                    } else {
                                        Outcome::Changed
                                    },
                                    r.backend,
                                )
                            }
                            Ok(r) => (Outcome::Status(r.status), r.backend),
                            Err(_) => (Outcome::Transport, None),
                        };
                        out.push(Record {
                            seq,
                            item,
                            start,
                            latency,
                            outcome,
                            backend,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut records: Vec<Record> = per_thread.into_iter().flatten().collect();
    records.sort_by_key(|r| r.seq);
    let elapsed = records
        .iter()
        .map(|r| r.start + r.latency)
        .max()
        .unwrap_or_default();
    Phase { records, elapsed }
}
