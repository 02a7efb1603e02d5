//! The programs under test as child processes: spawn, readiness, resource
//! readings from `/proc`, `/metrics` scrapes, and shutdown.

use cfmap::service::client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take from spawn to its first ready answer.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a server may take to exit after its stdin closes.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// One running `cfmapd` or `cfmapd-router`. Dropping it stops the process
/// and waits for it.
pub struct Server {
    child: Child,
    /// Closing this pipe is the graceful shutdown signal (`--watch-stdin`).
    stdin: Option<ChildStdin>,
    /// The `host:port` the server announced.
    pub addr: String,
}

impl Server {
    /// Spawn `bin` with `args` plus an ephemeral address and stdin-driven
    /// shutdown, and wait for its `listening on` line.
    fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--watch-stdin"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line))
            .ok_or("no stdout pipe")?;
        let mut server = Server {
            child,
            stdin,
            addr: String::new(),
        };
        match (read, line.trim().split_once(" listening on ")) {
            (Ok(_), Some((_, addr))) => server.addr = addr.to_string(),
            _ => {
                return Err(format!(
                    "{} did not announce an address: {line:?}",
                    bin.display()
                ))
            }
        }
        Ok(server)
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Block until `GET /readyz` answers 200.
    fn wait_ready(&self) -> Result<(), String> {
        let started = Instant::now();
        loop {
            if matches!(client::get(&self.addr, "/readyz"), Ok(r) if r.status == 200) {
                return Ok(());
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(format!("{} not ready after {READY_TIMEOUT:?}", self.addr));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Close stdin, wait for a graceful exit, and kill on timeout.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.stdin.take());
        let started = Instant::now();
        while started.elapsed() < EXIT_TIMEOUT {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.shutdown();
        }
    }
}

/// Where the release binaries live.
#[derive(Clone, Debug)]
pub struct Binaries {
    /// `cfmapd`.
    pub daemon: PathBuf,
    /// `cfmapd-router`.
    pub router: PathBuf,
}

impl Binaries {
    /// The binaries in `dir`, which must exist.
    pub fn in_dir(dir: &Path) -> Result<Binaries, String> {
        let b = Binaries {
            daemon: dir.join("cfmapd"),
            router: dir.join("cfmapd-router"),
        };
        for p in [&b.daemon, &b.router] {
            if !p.is_file() {
                return Err(format!(
                    "{} is missing; build the workspace in release first",
                    p.display()
                ));
            }
        }
        Ok(b)
    }

    /// Spawn one `cfmapd` and wait until it is ready.
    pub fn daemon(&self, args: &[String]) -> Result<Server, String> {
        let s = Server::spawn(&self.daemon, args)?;
        s.wait_ready()?;
        Ok(s)
    }

    /// Spawn `cfmapd-router` over `backends` and wait until it is ready,
    /// which includes its first health probe of every backend.
    pub fn router(&self, backends: &[&Server], args: &[String]) -> Result<Server, String> {
        let mut all: Vec<String> = args.to_vec();
        for b in backends {
            all.push("--backend".into());
            all.push(b.addr.clone());
        }
        let s = Server::spawn(&self.router, &all)?;
        s.wait_ready()?;
        Ok(s)
    }
}

/// The server processes of one workload; the entry point is the last.
pub struct Fleet {
    /// Backends first, then the router when there is one.
    pub servers: Vec<Server>,
}

impl Fleet {
    /// Where the load generator sends requests.
    pub fn entry(&self) -> &str {
        &self.servers.last().expect("a fleet has a server").addr
    }

    /// The `cfmapd` processes (everything but a router).
    pub fn backends(&self) -> &[Server] {
        let routed = self.servers.len() > 1;
        &self.servers[..self.servers.len() - usize::from(routed)]
    }

    /// The router, if the workload runs one.
    pub fn router(&self) -> Option<&Server> {
        (self.servers.len() > 1).then(|| self.servers.last().expect("nonempty"))
    }

    /// Total CPU time consumed so far by every process.
    pub fn cpu_time(&self) -> Duration {
        self.servers.iter().map(|s| cpu_time(s.pid())).sum()
    }

    /// The largest resident-set high-water mark among the processes, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| peak_rss_kb(s.pid()))
            .max()
            .unwrap_or(0) as f64
            / 1024.0
    }

    /// Stop every process, router first so no backend sees a dangling
    /// upstream connection.
    pub fn stop(mut self) {
        while let Some(s) = self.servers.pop() {
            s.stop();
        }
    }
}

/// CPU time of every live thread of `pid`, summed from the scheduler's
/// nanosecond `se.sum_exec_runtime` (milliseconds in `/proc/<pid>/task/*/sched`).
/// Falls back to the 10 ms-granular `utime + stime` of `/proc/<pid>/stat`
/// on kernels without scheduler debug files.
fn cpu_time(pid: u32) -> Duration {
    let mut total_ms = 0.0f64;
    let mut found = false;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let Ok(text) = std::fs::read_to_string(task.path().join("sched")) else {
                continue;
            };
            if let Some(ms) = text
                .lines()
                .find(|l| l.starts_with("se.sum_exec_runtime"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|v| v.trim().parse::<f64>().ok())
            {
                total_ms += ms;
                found = true;
            }
        }
    }
    if found {
        return Duration::from_secs_f64(total_ms / 1e3);
    }
    // Fields 14 and 15 after the parenthesized command name, in USER_HZ
    // ticks (100 per second on every Linux architecture this runs on).
    let ticks: u64 = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| s.rsplit_once(')').map(|(_, rest)| rest.to_string()))
        .map(|rest| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|v| v.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// `VmHWM` of `pid` in kB (0 once the process is gone).
fn peak_rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One Prometheus sample: metric name, raw label text, value.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Metric name, including any `_sum` / `_count` / `_bucket` suffix.
    pub name: String,
    /// The text between the braces (empty when unlabeled).
    pub labels: String,
    /// The sample value.
    pub value: f64,
}

/// A parsed Prometheus text exposition.
#[derive(Clone, Debug, Default)]
pub struct Scrape(pub Vec<Sample>);

impl Scrape {
    /// Parse exposition text (comments skipped).
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    let (name, labels) = match series.split_once('{') {
                        Some((n, rest)) => (n, rest.trim_end_matches('}')),
                        None => (series, ""),
                    };
                    Some(Sample {
                        name: name.into(),
                        labels: labels.into(),
                        value: value.parse().ok()?,
                    })
                })
                .collect(),
        )
    }

    /// `GET /metrics` from `addr`.
    pub fn fetch(addr: &str) -> Result<Scrape, String> {
        let reply = client::get(addr, "/metrics").map_err(|e| format!("scrape {addr}: {e}"))?;
        Ok(Scrape::parse(&reply.body))
    }

    /// Sum of every series of `name` whose label text contains `filter`.
    pub fn sum(&self, name: &str, filter: &str) -> f64 {
        self.0
            .iter()
            .filter(|s| s.name == name && s.labels.contains(filter))
            .map(|s| s.value)
            .sum()
    }

    /// `self − before`, series by series (for counters and histogram sums).
    pub fn delta(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|s| {
                    let old = before
                        .0
                        .iter()
                        .find(|b| b.name == s.name && b.labels == s.labels)
                        .map_or(0.0, |b| b.value);
                    Sample {
                        value: s.value - old,
                        ..s.clone()
                    }
                })
                .collect(),
        )
    }

    /// Concatenate scrapes of several processes.
    pub fn merge(scrapes: Vec<Scrape>) -> Scrape {
        Scrape(scrapes.into_iter().flat_map(|s| s.0).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_diffs_prometheus_text() {
        let before = Scrape::parse(
            "# HELP x y\n# TYPE x counter\nreq_total{route=\"/map\",status=\"200\"} 3\nlat_seconds_sum{route=\"/map\"} 0.5\n",
        );
        let after = Scrape::parse(
            "req_total{route=\"/map\",status=\"200\"} 10\nreq_total{route=\"/map\",status=\"400\"} 1\nlat_seconds_sum{route=\"/map\"} 0.75\nplain 4\n",
        );
        let d = after.delta(&before);
        assert_eq!(d.sum("req_total", "route=\"/map\""), 8.0);
        assert_eq!(d.sum("req_total", "status=\"200\""), 7.0);
        assert_eq!(d.sum("lat_seconds_sum", ""), 0.25);
        assert_eq!(d.sum("plain", ""), 4.0);
    }
}
