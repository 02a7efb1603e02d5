//! One measurement of one workload: set up the servers, drive the stream,
//! check every answer off the clock, and derive the metrics.

use crate::check::{self, ColdSolves};
use crate::load::{drive, Answers, Limit, Outcome, Phase, Transport};
use crate::procs::{Binaries, Fleet, Scrape};
use crate::report::{median, percentile, Run};
use crate::trace::{self, Span, Trace};
use crate::workload::{Inputs, Item, Workload, FLEET_FAMILIES};
use cfmap::service::client::{self, Client};
use cfmap::service::json::{parse, Json};
use cfmap::service::server::ServerConfig;
use cfmap::service::wire::MapRequest;
use cfmap_testkit::rng::Rng;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a measurement runs.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of the request streams.
    pub seed: u64,
    /// Length of an untraced run's timed phase.
    pub seconds: f64,
    /// Measure layers (traced replays) instead of the end-to-end metrics.
    pub trace: bool,
    /// Shrink the exhaustive-search samples for a quick run.
    pub smoke: bool,
    /// The programs under test.
    pub bins: Binaries,
    /// Where snapshots and trace files go.
    pub out_dir: PathBuf,
}

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Requests whose spans a trace file keeps (every span is aggregated).
const SPANS_KEPT: usize = 2000;

/// The design cache of each `fleet-warmstart` backend: entries, shards.
const BACKEND_CACHE: (usize, usize) = (16, 1);

/// Requests per second each workload sustains at the seed commit on two
/// cores. It sizes the distinct streams (with headroom) and the
/// fixed-length traced replays, so it changes how much input is prepared,
/// never what a request costs.
fn pace(w: Workload) -> f64 {
    match w {
        Workload::MapCold => 180.0,
        Workload::MapWarm => 18000.0,
        Workload::ParetoCold => 360.0,
        Workload::FleetWarmstart => 20.0,
    }
}

/// Distinct items a time-boxed stream may need: five times the seed
/// commit's pace, so a much faster program still finds fresh requests.
/// A longer stream only extends a shorter one: its prefix is the same.
fn capacity(w: Workload, seconds: f64) -> usize {
    (pace(w) * seconds * 5.0).ceil() as usize
}

/// Length of each traced replay: what the seed commit answers in eight
/// seconds (a third of a second under `--smoke`), so the three replays of
/// a traced run take about as long as an untraced run. It depends on
/// nothing but the workload and `--smoke`, so the counts a traced run
/// derives repeat exactly for a seed.
fn traced_requests(w: Workload, smoke: bool) -> usize {
    let seconds = if smoke { 1.0 / 3.0 } else { 8.0 };
    ((pace(w) * seconds).ceil() as usize).max(20)
}

fn transport(w: Workload) -> Transport {
    match w {
        Workload::FleetWarmstart => Transport::KeepAlive,
        _ => Transport::OneShot,
    }
}

/// Measure `w` once.
pub fn measure(w: Workload, opts: &Options) -> Result<Run, String> {
    let inputs = Inputs::generate(w, opts.seed, capacity(w, opts.seconds));
    let snapshot = match w {
        Workload::FleetWarmstart => Some(prepare_snapshot(&opts.bins, &inputs, &opts.out_dir)?),
        _ => None,
    };
    let snap = snapshot.as_ref().map(|(p, t)| (p.as_path(), t.as_str()));
    let run = if opts.trace {
        traced(&inputs, snap, opts)
    } else {
        timed(&inputs, snap, opts)
    };
    if let Some((path, _)) = &snapshot {
        let _ = std::fs::remove_file(path);
    }
    run
}

/// A `200` body, or why not.
fn body_of(reply: Result<client::HttpReply, client::ClientError>) -> Result<String, String> {
    match reply {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("status {}: {}", r.status, r.body)),
        Err(e) => Err(e.to_string()),
    }
}

/// Untimed preparation of `fleet-warmstart`: a daemon solves the three
/// smallest sizes of every family, its fitter certifies them, and the
/// snapshot it saves becomes every backend's `--cache-load`.
fn prepare_snapshot(
    bins: &Binaries,
    inputs: &Inputs,
    out_dir: &Path,
) -> Result<(PathBuf, String), String> {
    let prep = bins.daemon(&["--workers".into(), "2".into()])?;
    for p in &inputs.warmup {
        body_of(client::post(&prep.addr, "/map", &p.body))?;
    }
    let started = Instant::now();
    loop {
        let family = body_of(client::get(&prep.addr, "/family"))?;
        let certified = parse(&family)
            .ok()
            .and_then(|j| j.get("certificates").and_then(Json::as_i64));
        if certified.unwrap_or(0) >= FLEET_FAMILIES.len() as i64 {
            break;
        }
        if started.elapsed() > Duration::from_secs(120) {
            return Err(format!(
                "the preparation daemon certified too few families: {family}"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let text = body_of(client::get(&prep.addr, "/cache/save"))?;
    prep.stop();
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("fleet-{}.snap", std::process::id()));
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, text))
}

/// Start the workload's servers and wait until every one is ready: one
/// `cfmapd`, or for `fleet-warmstart` two snapshot-loaded backends behind a
/// router that has probed them.
fn start(bins: &Binaries, snapshot: Option<&Path>) -> Result<Fleet, String> {
    let args = |extra: &[&str]| -> Vec<String> {
        ["--workers", "2"]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect()
    };
    let Some(snap) = snapshot else {
        return Ok(Fleet {
            servers: vec![bins.daemon(&args(&[]))?],
        });
    };
    let snap = snap.to_str().ok_or("snapshot path is not UTF-8")?;
    let (capacity, shards) = (BACKEND_CACHE.0.to_string(), BACKEND_CACHE.1.to_string());
    let backend = args(&[
        "--cache-capacity",
        &capacity,
        "--shards",
        &shards,
        "--cache-load",
        snap,
    ]);
    let a = bins.daemon(&backend)?;
    let b = bins.daemon(&backend)?;
    let router = bins.router(&[&a, &b], &args(&[]))?;
    Ok(Fleet {
        servers: vec![a, b, router],
    })
}

/// Bring a fresh `map-warm` server to a cache hit ratio of 1: solve the hot
/// set, then ask for every presentation once and keep its body as the
/// reference every timed answer must repeat.
fn prime(addr: &str, inputs: &Inputs, answers: &Answers) -> Result<(), String> {
    if inputs.workload != Workload::MapWarm {
        return Ok(());
    }
    for p in &inputs.warmup {
        body_of(client::post(addr, "/map", &p.body))?;
    }
    for (i, item) in inputs.items.iter().enumerate() {
        answers.record(i, body_of(client::post(addr, inputs.route, item.body()))?);
    }
    Ok(())
}

/// The requests a fresh in-process engine resolves to match a primed server.
fn priming_requests(inputs: &Inputs) -> Vec<&MapRequest> {
    if inputs.workload != Workload::MapWarm {
        return Vec::new();
    }
    let items = inputs.items.iter().filter_map(|item| match item {
        Item::Map(p) => Some(&p.request),
        Item::Pareto(_) => None,
    });
    inputs
        .warmup
        .iter()
        .map(|p| &p.request)
        .chain(items)
        .collect()
}

/// What the answer checks found.
#[derive(Default)]
struct Verdict {
    /// Items whose answer is wrong.
    wrong: BTreeSet<usize>,
    /// The first few explanations.
    problems: Vec<String>,
    /// Distinct answers checked.
    checked: usize,
    /// Of those, answers also checked against an exhaustive search.
    exhaustive: usize,
}

impl Verdict {
    fn flag(&mut self, item: usize, why: String) {
        self.wrong.insert(item);
        if self.problems.len() < 10 {
            self.problems.push(why);
        }
    }
}

/// A seeded sample of at most `count` of `items`.
fn sample<T>(mut items: Vec<T>, count: usize, seed: u64) -> Vec<T> {
    let mut rng = Rng::new(seed ^ 0x0005_a3b1_e5ee_d5a1);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_in(0, i));
    }
    items.truncate(count);
    items
}

/// Check every distinct answer the phase received: each claim against the
/// problem; optimality against the closed forms, against a cold solve
/// (`map-warm`, `fleet-warmstart`), and for a seeded sample of small
/// problems against an exhaustive search (`map-cold`, `pareto-cold`).
fn verify(inputs: &Inputs, answers: &Answers, phase: &Phase, opts: &Options) -> Verdict {
    let seen: BTreeSet<usize> = phase.records.iter().map(|r| r.item).collect();
    let mut v = Verdict::default();
    let mut cold = ColdSolves::default();
    let (mut small_maps, mut small_frontiers) = (Vec::new(), Vec::new());
    for &i in &seen {
        let Some(body) = answers.get(i) else { continue };
        v.checked += 1;
        let result = match &inputs.items[i] {
            Item::Map(p) => check::map_answer(p, body).and_then(|o| match inputs.workload {
                Workload::MapCold => {
                    if p.alg.dim() == 3 {
                        small_maps.push((i, o));
                    }
                    Ok(())
                }
                _ => cold.check(p, &o),
            }),
            Item::Pareto(p) => check::pareto_answer(p, body).map(|o| {
                if p.alg.index_set.mu().iter().all(|&m| m <= 3) {
                    small_frontiers.push((i, o));
                }
            }),
        };
        if let Err(why) = result {
            v.flag(i, why);
        }
    }
    let (maps, frontiers) = if opts.smoke { (20, 5) } else { (200, 50) };
    for (i, o) in sample(small_maps, maps, opts.seed) {
        let Item::Map(p) = &inputs.items[i] else {
            continue;
        };
        v.exhaustive += 1;
        if let Err(why) = check::map_optimal_by_brute_force(p, &o) {
            v.flag(i, why);
        }
    }
    for (i, o) in sample(small_frontiers, frontiers, opts.seed) {
        let Item::Pareto(p) = &inputs.items[i] else {
            continue;
        };
        v.exhaustive += 1;
        if let Err(why) = check::pareto_matches_brute_force(p, &o) {
            v.flag(i, why);
        }
    }
    v
}

/// Requests of `phases` that failed: not answered `200`, answered
/// differently than before, or answered wrongly.
fn failures(phases: &[&Phase], wrong: &BTreeSet<usize>) -> u64 {
    phases
        .iter()
        .flat_map(|p| &p.records)
        .filter(|r| r.outcome != Outcome::Answered || wrong.contains(&r.item))
        .count() as u64
}

fn mean_ms(phase: &Phase) -> f64 {
    let n = phase.records.len().max(1) as f64;
    phase
        .records
        .iter()
        .map(|r| r.latency.as_secs_f64())
        .sum::<f64>()
        * 1e3
        / n
}

fn throughput(phase: &Phase) -> f64 {
    phase.answered() as f64 / phase.elapsed.as_secs_f64().max(1e-9)
}

/// The end-to-end measurement: the stream for `seconds` from two
/// closed-loop clients, between two halves of [`SETUPS`] set-ups. Timing
/// the set-ups before and after the phase keeps a short stall of the host
/// from owning their median.
fn timed(inputs: &Inputs, snapshot: Option<(&Path, &str)>, opts: &Options) -> Result<Run, String> {
    let w = inputs.workload;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut set_up = || -> Result<Fleet, String> {
        let began = Instant::now();
        let fleet = start(&opts.bins, snapshot.map(|(p, _)| p))?;
        setups.push(began.elapsed().as_secs_f64());
        Ok(fleet)
    };
    for _ in 0..SETUPS / 2 {
        set_up()?.stop();
    }
    let fleet = set_up()?;
    let answers = Answers::new(inputs.items.len());
    prime(fleet.entry(), inputs, &answers)?;
    let cpu_before = fleet.cpu_time();
    let limit = Limit {
        time: Duration::from_secs_f64(opts.seconds),
        requests: usize::MAX,
    };
    let phase = drive(fleet.entry(), inputs, transport(w), limit, &answers);
    let cpu = (fleet.cpu_time() - cpu_before).as_secs_f64() * 1e3;
    let rss = fleet.peak_rss_mb();
    fleet.stop();
    for _ in 0..SETUPS / 2 {
        set_up()?.stop();
    }

    let verdict = verify(inputs, &answers, &phase, opts);
    let mut latencies: Vec<f64> = phase
        .records
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let attempted = phase.records.len() as u64;
    let failed = failures(&[&phase], &verdict.wrong);
    let mut run = Run::new(
        attempted,
        failed,
        verdict.wrong.len() as u64,
        verdict.problems,
    );
    run.metric("setup_s", "s", median(&setups));
    run.metric("throughput_rps", "req/s", throughput(&phase));
    run.metric("latency_p50_ms", "ms", percentile(&latencies, 0.50));
    run.metric("latency_p99_ms", "ms", percentile(&latencies, 0.99));
    run.metric(
        "error_rate",
        "fraction",
        failed as f64 / attempted.max(1) as f64,
    );
    run.metric(
        "server_cpu_ms_per_req",
        "ms",
        cpu / phase.answered().max(1) as f64,
    );
    run.metric("peak_rss_mb", "MB", rss);
    run.sample("latency_samples", latencies.len() as u64);
    run.sample("answers_checked", verdict.checked as u64);
    run.sample("answers_checked_exhaustively", verdict.exhaustive as u64);
    Ok(run)
}

/// `GET /metrics` from every server.
fn scrape(fleet: &Fleet) -> Result<Vec<Scrape>, String> {
    fleet
        .servers
        .iter()
        .map(|s| Scrape::fetch(&s.addr))
        .collect()
}

/// Router overhead on the same bodies: the first `count` routed requests
/// sent again straight to the backend that answered them, over keep-alive
/// clients like the routed ones. Mean routed minus mean direct, in ms.
fn proxy_overhead(fleet: &Fleet, inputs: &Inputs, routed: &Phase, count: usize) -> f64 {
    let mut clients: Vec<(String, Client)> = Vec::new();
    let (mut direct, mut via_router, mut n) = (0.0, 0.0, 0usize);
    for r in routed
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Answered)
        .take(count)
    {
        let Some(backend) = &r.backend else { continue };
        if !fleet.backends().iter().any(|b| &b.addr == backend) {
            continue;
        }
        let slot = match clients.iter().position(|(a, _)| a == backend) {
            Some(i) => i,
            None => {
                clients.push((backend.clone(), Client::with_defaults(backend)));
                clients.len() - 1
            }
        };
        let began = Instant::now();
        if body_of(
            clients[slot]
                .1
                .post(inputs.route, inputs.items[r.item].body()),
        )
        .is_ok()
        {
            direct += began.elapsed().as_secs_f64() * 1e3;
            via_router += r.latency.as_secs_f64() * 1e3;
            n += 1;
        }
    }
    (via_router - direct) / n.max(1) as f64
}

/// The per-layer measurement. The same fixed-length stream is sent three
/// times: live without tracing, live with client spans and `/metrics`
/// scrapes around it (each on fresh servers), then in-process against a
/// fresh engine with a span around every layer call.
fn traced(inputs: &Inputs, snapshot: Option<(&Path, &str)>, opts: &Options) -> Result<Run, String> {
    let w = inputs.workload;
    // The time bounds a replay on a much slower program; the counts then
    // describe a shorter stream, which `--diff` reports as a behaviour
    // change.
    let limit = Limit {
        time: Duration::from_secs(if opts.smoke { 2 } else { 24 }),
        requests: traced_requests(w, opts.smoke),
    };
    let snap_path = snapshot.map(|(p, _)| p);

    let fleet = start(&opts.bins, snap_path)?;
    let untraced_answers = Answers::new(inputs.items.len());
    prime(fleet.entry(), inputs, &untraced_answers)?;
    let untraced = drive(
        fleet.entry(),
        inputs,
        transport(w),
        limit,
        &untraced_answers,
    );
    fleet.stop();

    let fleet = start(&opts.bins, snap_path)?;
    let answers = Answers::new(inputs.items.len());
    prime(fleet.entry(), inputs, &answers)?;
    let before = scrape(&fleet)?;
    let live = drive(fleet.entry(), inputs, transport(w), limit, &answers);
    let after = scrape(&fleet)?;
    let proxy = fleet
        .router()
        .map(|_| proxy_overhead(&fleet, inputs, &live, if opts.smoke { 5 } else { 40 }));
    let backends = fleet.backends().len();
    fleet.stop();

    // The engine sizes of `start`: the daemon's defaults, or a backend's.
    let engine_size = if snapshot.is_some() {
        BACKEND_CACHE
    } else {
        let daemon = ServerConfig::default();
        (daemon.cache_capacity, daemon.cache_shards)
    };
    let replay = trace::replay(
        inputs,
        live.records.len(),
        engine_size,
        snapshot.map(|(_, text)| text),
        &priming_requests(inputs),
        SPANS_KEPT,
    );

    let mut verdict = verify(inputs, &answers, &live, opts);
    for (i, body) in replay.bodies.iter().enumerate() {
        if let (Some(in_process), Some(served)) = (body, answers.get(i)) {
            if in_process != served {
                verdict.flag(
                    i,
                    format!("in-process answer {in_process} differs from the served {served}"),
                );
            }
        }
    }

    let mut live_trace = Trace::new(SPANS_KEPT);
    for r in &live.records {
        live_trace.add(Span {
            req: Some(r.seq),
            name: "http.roundtrip",
            start: r.start,
            dur: r.latency,
            parent: None,
        });
    }
    let doc = trace::document(&[("live", &live_trace), ("in_process", &replay.trace)]);
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, doc.compact()).map_err(|e| format!("{}: {e}", path.display()))?;

    let delta = |i: usize| after[i].delta(&before[i]);
    let served = Scrape::merge((0..backends).map(delta).collect());
    let router = if backends < after.len() {
        delta(backends)
    } else {
        Scrape::default()
    };
    let route = format!("route=\"{}\"", inputs.route);
    let handled = served.sum("cfmapd_request_duration_seconds_count", &route);
    let handle_ms =
        served.sum("cfmapd_request_duration_seconds_sum", &route) * 1e3 / handled.max(1.0);
    let roundtrip_ms = mean_ms(&live);
    // The daemon's histogram starts its clock when it begins reading a
    // request. On a fresh connection the bytes are already there; on a
    // kept-alive one the clock also runs through the wait for the next
    // request, so there what the same requests cost in process (parse,
    // engine call, serialize) stands in for the daemon's share.
    let server_ms = match transport(w) {
        Transport::OneShot => handle_ms,
        Transport::KeepAlive => replay
            .metrics
            .iter()
            .find(|m| m.0 == "engine.handle_us_mean")
            .map_or(0.0, |m| m.2 / 1e3),
    };
    let upstream = router.sum("cfmapd_router_upstream_duration_seconds_count", "");

    let attempted = (untraced.records.len() + live.records.len()) as u64;
    let failed = failures(&[&untraced, &live], &verdict.wrong);
    let mut run = Run::new(
        attempted,
        failed,
        verdict.wrong.len() as u64,
        verdict.problems,
    );
    run.metric("http.roundtrip_ms_mean", "ms", roundtrip_ms);
    run.metric("server.handle_ms_mean", "ms", handle_ms);
    run.metric("http.transport_ms_mean", "ms", roundtrip_ms - server_ms);
    run.metric(
        "server.shed",
        "count",
        served.sum("cfmapd_requests_shed_total", ""),
    );
    run.metric(
        "router.failovers",
        "count",
        router.sum("cfmapd_router_failovers_total", ""),
    );
    run.metric(
        "router.shed",
        "count",
        router.sum("cfmapd_router_shed_total", ""),
    );
    if upstream > 0.0 {
        let sum = router.sum("cfmapd_router_upstream_duration_seconds_sum", "");
        run.metric("router.upstream_ms_mean", "ms", sum * 1e3 / upstream);
    }
    if let Some(ms) = proxy {
        run.metric("router.proxy_ms_mean", "ms", ms);
    }
    let frontiers = served.sum("cfmap_pareto_solves_total", "");
    if frontiers > 0.0 {
        let verify_s = served.sum("cfmap_pareto_verify_duration_seconds_sum", "");
        run.metric(
            "systolic.verify_ms_per_frontier",
            "ms",
            verify_s * 1e3 / frontiers,
        );
    }
    for (name, unit, value) in replay.metrics {
        run.metric(&name, unit, value);
    }
    run.metric(
        "trace.overhead_share",
        "fraction",
        1.0 - throughput(&live) / throughput(&untraced).max(1e-9),
    );
    run.metric(
        "error_rate",
        "fraction",
        failed as f64 / attempted.max(1) as f64,
    );
    run.sample("traced_requests", live.records.len() as u64);
    run.sample("answers_checked", verdict.checked as u64);
    run.sample("answers_checked_exhaustively", verdict.exhaustive as u64);
    Ok(run)
}
