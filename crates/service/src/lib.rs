//! `cfmapd` — mapping-as-a-service for the Shang & Fortes theory.
//!
//! A mapping search (Procedure 5.1) is a pure function of the problem
//! `(J, D, S)` and its solver knobs — exactly the shape of computation a
//! memoizing service does well. This crate turns the library into a
//! hermetic (std-only) HTTP daemon:
//!
//! * [`json`] — a hand-rolled JSON parser/serializer (no serde; the
//!   hermetic-build policy forbids registry crates);
//! * [`wire`] — request/response schemas that round-trip every
//!   [`cfmap_core::CfmapError`] variant and mirror the CLI's exit-code
//!   taxonomy;
//! * [`cache`] — a sharded `RwLock` LRU design cache with hit / miss /
//!   eviction counters;
//! * [`engine`] — canonicalization-keyed resolution: permuted-but-
//!   equivalent problems (relabeled axes, reordered dependence columns,
//!   rescaled space rows) hit the same cache entry, and batches solve
//!   each distinct problem once;
//! * [`family_store`] — the schedule-family catalogue: solved sizes of
//!   one canonical problem accumulate until a background fitter promotes
//!   them to an affine-in-μ certificate ([`cfmap_core::family`]), after
//!   which *any* size of the family is answered with zero search;
//! * [`snapshot`] — versioned, checksummed persistence of the design
//!   cache and family catalogue (`GET/POST /cache/save`, `--cache-load`),
//!   gated by a canonical-key digest so a snapshot from an incompatible
//!   build is refused precisely instead of served wrongly;
//! * [`server`] — the daemon's tier of the shared front end: the `/map`,
//!   `/pareto`, `/batch`, `/stats`, `/metrics`, `/family`, `/healthz`,
//!   `/readyz`, `/cache/clear`, `/cache/save` and `/shutdown` routes,
//!   their metrics and access log, fault injection, the background
//!   fitter and the drain watchdog;
//! * [`client`] — the minimal blocking HTTP client used by
//!   `cfmap client`, the smoke tests, and the throughput bench, with
//!   keep-alive connection reuse;
//! * [`http`] — the shared HTTP/1.1 transport (one parser, writer,
//!   connector, keep-alive connection and pooled exchange for the
//!   daemon, the router, and the client) and the one front end both
//!   servers run: accept loop, bounded admission queue and `503` shed
//!   path, worker pool, per-request panic guard and keep-alive
//!   connection loop;
//! * [`router`] — `cfmapd-router`'s tier of that front end:
//!   cache-affine consistent-hash fan-out over N backends with health
//!   probes, circuit breakers, and bounded failover.
//!
//! Start a daemon and ask it for the optimal matmul linear-array design:
//!
//! ```
//! use cfmap_service::server::{CfmapServer, ServerConfig};
//! use cfmap_service::wire::{MapRequest, MapResponse};
//!
//! let server = CfmapServer::bind(&ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let stop = server.shutdown_handle().unwrap();
//! let daemon = std::thread::spawn(move || server.run());
//!
//! let req = MapRequest::named("matmul", 4, vec![vec![1, 1, -1]]);
//! let resp = cfmap_service::client::map(&addr, &req).unwrap();
//! match resp {
//!     MapResponse::Ok(o) => assert_eq!(o.total_time, 25),
//!     other => panic!("unexpected {other:?}"),
//! }
//!
//! stop.shutdown();
//! daemon.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod family_store;
pub mod http;
pub mod json;
pub mod router;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use cache::{CacheStats, ShardedLruCache};
pub use engine::{CacheKey, CachedOutcome, Engine};
pub use family_store::{FamilyStats, FamilyStore};
pub use snapshot::Snapshot;
pub use router::{CfmapRouter, Circuit, RouterConfig};
pub use server::{CfmapServer, ServerConfig, ShutdownHandle};
pub use wire::{
    MapOutcome, MapRequest, MapResponse, ParetoOutcome, ParetoPointWire, ParetoRequest,
    ParetoResponse, RouterReject, RouterRejectKind, WireError,
};

/// Parse the value of a `cfmapd` or `cfmapd-router` count flag: a
/// positive integer, or an error naming `flag`.
pub fn parse_count(value: Option<&String>, flag: &str) -> Result<usize, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let n: usize = v.parse().map_err(|_| format!("bad {flag} value {v:?}"))?;
    if n == 0 {
        return Err(format!("{flag} must be ≥ 1"));
    }
    Ok(n)
}
