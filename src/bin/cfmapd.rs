//! `cfmapd` — the mapping-as-a-service daemon.
//!
//! ```text
//! cfmapd [--addr 127.0.0.1:7971] [--workers 4] [--cache-capacity 256]
//!        [--shards 8] [--queue-capacity 64] [--drain-deadline-ms 5000]
//!        [--cache-load PATH] [--watch-stdin] [--log-format json]
//!        [--enable-fault-injection]
//! ```
//!
//! On startup the daemon prints exactly one line, `cfmapd listening on
//! <addr>`, to stdout — scripts (and the smoke tests) bind port 0 and
//! parse the resolved address from it.
//!
//! Shutdown: `POST /shutdown`, or start with `--watch-stdin` and close
//! the daemon's stdin (the idiom for supervisors that signal children by
//! closing a pipe — plain `std` has no signal API, so SIGTERM handling
//! belongs to the process supervisor).

use cfmap::service::parse_count;
use cfmap::service::server::{CfmapServer, ServerConfig};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
cfmapd — mapping-as-a-service daemon (Shang & Fortes conflict-free mappings)

USAGE:
  cfmapd [--addr HOST:PORT] [--workers N] [--cache-capacity N] [--shards N]
         [--queue-capacity N] [--drain-deadline-ms N] [--cache-load PATH]
         [--watch-stdin] [--log-format text|json] [--enable-fault-injection]

OPTIONS:
  --addr               bind address (default 127.0.0.1:7971; port 0 = ephemeral)
  --workers            worker threads (default 4)
  --cache-capacity     design-cache entries (default 256)
  --shards             design-cache shards (default 8)
  --queue-capacity     admission queue slots; beyond this, connections are
                       shed with 503 + Retry-After (default 64)
  --drain-deadline-ms  shutdown drain bound before in-flight searches are
                       cancelled to best-effort answers (default 5000)
  --cache-load         warm-start snapshot to load before serving (written by
                       GET/POST /cache/save); refused precisely on a version,
                       digest, or checksum mismatch
  --watch-stdin        shut down gracefully when stdin reaches EOF
  --log-format         'json' emits one access-log line per request on stderr
                       (default 'text': no per-request logging)
  --enable-fault-injection
                       honor X-Cfmapd-Fault test headers (panic | stall-ms:N);
                       for chaos testing only

ROUTES:
  POST /map          one mapping request        POST /batch   {\"requests\": [...]}
  POST /pareto       Pareto frontier (time × PEs × wires)
  GET  /stats        cache + search counters    GET  /healthz liveness (+ draining, queue depth)
  GET  /metrics      Prometheus text format     GET  /readyz  readiness (503 while draining)
  GET  /family       schedule-family catalogue  GET  /cache/save  snapshot as text
  POST /cache/clear  drop cached designs        POST /cache/save  {\"path\": \"...\"} save server-side
  POST /shutdown     drain and exit";

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
    let server = match CfmapServer::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            // Covers both bind failures and a refused --cache-load
            // snapshot (the error names the flag and the mismatch).
            eprintln!("error: cannot start on {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: no local address: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("cfmapd listening on {addr}");
    let _ = std::io::stdout().flush();

    if watch_stdin {
        match server.shutdown_handle() {
            Ok(stop) => stop.shutdown_at_stdin_eof(),
            Err(e) => {
                eprintln!("error: no shutdown handle: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse arguments; `Ok(None)` means help was requested.
fn parse_config(args: &[String]) -> Result<Option<(ServerConfig, bool)>, String> {
    let mut config = ServerConfig { addr: "127.0.0.1:7971".into(), ..ServerConfig::default() };
    let mut watch_stdin = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" | "help" => return Ok(None),
            "--watch-stdin" => watch_stdin = true,
            "--addr" => {
                config.addr = it.next().ok_or("--addr needs a value")?.clone();
            }
            "--workers" => {
                config.workers = parse_count(it.next(), "--workers")?;
            }
            "--cache-capacity" => {
                config.cache_capacity = parse_count(it.next(), "--cache-capacity")?;
            }
            "--shards" => {
                config.cache_shards = parse_count(it.next(), "--shards")?;
            }
            "--queue-capacity" => {
                config.queue_capacity = parse_count(it.next(), "--queue-capacity")?;
            }
            "--drain-deadline-ms" => {
                let ms = parse_count(it.next(), "--drain-deadline-ms")?;
                config.drain_deadline = std::time::Duration::from_millis(ms as u64);
            }
            "--cache-load" => {
                config.cache_load = Some(it.next().ok_or("--cache-load needs a value")?.clone());
            }
            "--enable-fault-injection" => config.fault_injection = true,
            "--log-format" => {
                let v = it.next().ok_or("--log-format needs a value")?;
                config.log_json = match v.as_str() {
                    "json" => true,
                    "text" => false,
                    other => {
                        return Err(format!("bad --log-format value {other:?} (text or json)"))
                    }
                };
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Some((config, watch_stdin)))
}
