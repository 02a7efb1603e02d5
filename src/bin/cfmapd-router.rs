//! `cfmapd-router` — cache-affine reverse proxy over a `cfmapd` fleet.
//!
//! ```text
//! cfmapd-router --backend 127.0.0.1:7971 --backend 127.0.0.1:7972
//!               [--addr 127.0.0.1:7970] [--replicas 64] [--workers 8]
//!               [--queue-capacity 128] [--health-interval-ms 500]
//!               [--failure-threshold 3] [--open-cooldown-ms 1000]
//!               [--failover-budget 2] [--watch-stdin]
//! ```
//!
//! On startup the router prints exactly one line, `cfmapd-router
//! listening on <addr>`, to stdout — scripts bind port 0 and parse the
//! resolved address from it, same contract as `cfmapd`.
//!
//! Shutdown: `POST /shutdown`, or start with `--watch-stdin` and close
//! stdin (the supervisor idiom shared with `cfmapd`).

use cfmap::service::parse_count;
use cfmap::service::router::{CfmapRouter, RouterConfig};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
cfmapd-router — health-checked, cache-affine fan-out over cfmapd backends

USAGE:
  cfmapd-router --backend HOST:PORT [--backend HOST:PORT ...]
                [--addr HOST:PORT] [--replicas N] [--workers N]
                [--queue-capacity N] [--health-interval-ms N]
                [--failure-threshold N] [--open-cooldown-ms N]
                [--failover-budget N] [--watch-stdin]

OPTIONS:
  --backend             a cfmapd backend address; repeat once per backend
  --addr                bind address (default 127.0.0.1:7970; port 0 = ephemeral)
  --replicas            virtual nodes per backend on the hash ring (default 64)
  --workers             downstream worker threads (default 8)
  --queue-capacity      admission queue slots before shedding 503 (default 128)
  --health-interval-ms  period of the /healthz probe loop (default 500)
  --failure-threshold   consecutive failures that open a circuit (default 3)
  --open-cooldown-ms    open-circuit wait before one half-open trial (default 1000)
  --failover-budget     extra backends tried after a transport failure (default 2)
  --watch-stdin         shut down gracefully when stdin reaches EOF

ROUTES:
  POST /map        canonicalize, ring-route, forward with failover
  POST /pareto     ring-route (canonical key when space-pinned, else the body), forward
  POST /batch      ring-route by the first canonicalizable member
  GET  /healthz    router liveness + backend up-count
  GET  /readyz     200 while at least one backend is routable
  GET  /backends   per-backend health/circuit/pool state
  GET  /metrics    the router's own Prometheus registry
  POST /shutdown   drain and exit";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, watch_stdin) = match parse_config(&args) {
        Ok(Some(c)) => c,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let router = match CfmapRouter::bind(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match router.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: no local address: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("cfmapd-router listening on {addr}");
    let _ = std::io::stdout().flush();

    if watch_stdin {
        match router.shutdown_handle() {
            Ok(stop) => stop.shutdown_at_stdin_eof(),
            Err(e) => {
                eprintln!("error: no shutdown handle: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match router.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse arguments; `Ok(None)` means help was requested.
fn parse_config(args: &[String]) -> Result<Option<(RouterConfig, bool)>, String> {
    let mut config = RouterConfig { addr: "127.0.0.1:7970".into(), ..RouterConfig::default() };
    let mut watch_stdin = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" | "help" => return Ok(None),
            "--watch-stdin" => watch_stdin = true,
            "--addr" => config.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--backend" => {
                config.backends.push(it.next().ok_or("--backend needs a value")?.clone());
            }
            "--replicas" => config.replicas = parse_count(it.next(), "--replicas")?,
            "--workers" => config.workers = parse_count(it.next(), "--workers")?,
            "--queue-capacity" => {
                config.queue_capacity = parse_count(it.next(), "--queue-capacity")?;
            }
            "--health-interval-ms" => {
                config.health_interval =
                    Duration::from_millis(parse_count(it.next(), "--health-interval-ms")? as u64);
            }
            "--failure-threshold" => {
                config.failure_threshold =
                    parse_count(it.next(), "--failure-threshold")? as u32;
            }
            "--open-cooldown-ms" => {
                config.open_cooldown =
                    Duration::from_millis(parse_count(it.next(), "--open-cooldown-ms")? as u64);
            }
            "--failover-budget" => {
                // 0 is a legal budget (no failover), so parse without
                // the ≥ 1 guard.
                let v = it.next().ok_or("--failover-budget needs a value")?;
                config.failover_budget =
                    v.parse().map_err(|_| format!("bad --failover-budget value {v:?}"))?;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if config.backends.is_empty() {
        return Err("at least one --backend is required".into());
    }
    Ok(Some((config, watch_stdin)))
}
