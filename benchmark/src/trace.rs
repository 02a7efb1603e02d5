//! The in-process half of a traced run: the stream replayed against a
//! fresh `Engine`, with a span around every call into a layer's public
//! functions. Nothing inside the program is instrumented; a layer's time is
//! what its entry point costs from outside, and the engine call is
//! attributed to the cache, the family catalogue or the search by the
//! engine's own counters.

use crate::json::Value;
use crate::procs::Scrape;
use crate::workload::{Inputs, Item};
use cfmap::core::metrics::{
    CANDIDATE_SCREEN_TIME, CONFLICT_MEMO_HITS, CONFLICT_MEMO_MISSES, EXACT_CONFLICT_TESTS,
    HYBRID_ESCALATIONS, ORBITS_PRUNED,
};
use cfmap::core::{MappingMatrix, SpaceMap};
use cfmap::model::LinearSchedule;
use cfmap::service::engine::{canonical_problem, Engine};
use cfmap::service::wire::{MapRequest, MapResponse, ParetoRequest, ParetoResponse};
use cfmap::systolic::{Simulator, SystolicArray};
use std::hint::black_box;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Metrics derived from the replay that repeat exactly for one seed and
/// run length: a change in any of them is a change in behaviour, not noise.
pub const DETERMINISTIC: &[&str] = &[
    "cache.hit_ratio",
    "cache.evictions",
    "family.hit_ratio",
    "search.solves",
    "search.candidates_per_solve",
    "search.reject_share.schedule",
    "search.reject_share.prefilter",
    "search.reject_share.rank",
    "search.reject_share.conflict",
    "search.hnf_per_solve",
    "search.orbits_pruned_per_solve",
    "search.hybrid_escalations",
    "conflict.memo_hit_ratio",
    "conflict.exact_tests_per_solve",
    "intlin.bigint_spills",
    "intlin.hnf_fallback_ratio",
    "pareto.solves",
    "pareto.candidates_per_solve",
    "pareto.points_per_frontier",
    "pareto.dominated_pruned_per_solve",
];

/// One timed call. Spans of one request share `req`; `parent` indexes the
/// request's root span among the kept spans.
#[derive(Clone, Debug)]
pub struct Span {
    /// Stream position of the request (`None` for set-up work).
    pub req: Option<usize>,
    /// Layer and call, e.g. `wire.parse` or `engine.search`.
    pub name: &'static str,
    /// Start, from the beginning of the phase.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Every span of a phase, aggregated by name, plus the spans themselves
/// for the first `keep` requests (all of a long replay would not fit in a
/// file anyone reads).
pub struct Trace {
    keep: usize,
    spans: Vec<Span>,
    /// Per name: total time, count, and the part covered by child spans.
    totals: Vec<(&'static str, Duration, u64, Duration)>,
}

impl Trace {
    /// An empty trace keeping the spans of requests below `keep`.
    pub fn new(keep: usize) -> Trace {
        Trace {
            keep,
            spans: Vec::new(),
            totals: Vec::new(),
        }
    }

    fn kept(&self, req: Option<usize>) -> bool {
        req.is_none_or(|r| r < self.keep)
    }

    /// Count a finished span called `name` whose children covered
    /// `children` of it.
    fn tally(&mut self, name: &'static str, dur: Duration, children: Duration) {
        match self.totals.iter_mut().find(|t| t.0 == name) {
            Some(t) => {
                t.1 += dur;
                t.2 += 1;
                t.3 += children;
            }
            None => self.totals.push((name, dur, 1, children)),
        }
    }

    /// Record a finished span without children.
    pub fn add(&mut self, span: Span) {
        self.tally(span.name, span.dur, Duration::ZERO);
        if self.kept(span.req) {
            self.spans.push(span);
        }
    }

    /// Total time and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or((Duration::ZERO, 0), |t| (t.1, t.2))
    }

    /// `{"self_time_us": {name: µs}, "spans": [[req, name, start_us, dur_us, parent], …]}`;
    /// a layer's self time is its spans minus the part their children cover.
    pub fn document(&self) -> Value {
        let us = |d: Duration| Value::Num(d.as_secs_f64() * 1e6);
        let idx = |i: Option<usize>| i.map_or(Value::Null, |i| Value::Num(i as f64));
        Value::Obj(vec![
            ("requests_kept".into(), Value::Num(self.keep as f64)),
            (
                "self_time_us".into(),
                Value::Obj(
                    self.totals
                        .iter()
                        .map(|t| (t.0.to_string(), us(t.1.saturating_sub(t.3))))
                        .collect(),
                ),
            ),
            (
                "spans".into(),
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::Arr(vec![
                                idx(s.req),
                                Value::Str(s.name.into()),
                                us(s.start),
                                us(s.dur),
                                idx(s.parent),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Times calls against one clock, nesting them under the open request.
struct Recorder {
    began: Instant,
    trace: Trace,
    /// The open request: position, kept root index, start, child time.
    open: Option<(usize, Option<usize>, Duration, Duration)>,
}

impl Recorder {
    fn begin(&mut self, seq: usize) {
        let start = self.began.elapsed();
        let root = self.trace.kept(Some(seq)).then(|| {
            self.trace.spans.push(Span {
                req: Some(seq),
                name: "request",
                start,
                dur: Duration::ZERO,
                parent: None,
            });
            self.trace.spans.len() - 1
        });
        self.open = Some((seq, root, start, Duration::ZERO));
    }

    fn end(&mut self) {
        let (_, root, start, children) = self.open.take().expect("a request is open");
        let dur = self.began.elapsed() - start;
        if let Some(i) = root {
            self.trace.spans[i].dur = dur;
        }
        self.trace.tally("request", dur, children);
    }

    /// Time `f`, naming the span from its result.
    fn timed<T>(&mut self, f: impl FnOnce() -> T, name: impl FnOnce(&T) -> &'static str) -> T {
        let start = self.began.elapsed();
        let out = f();
        let dur = self.began.elapsed() - start;
        let (req, parent) = match &mut self.open {
            Some((seq, root, _, children)) => {
                *children += dur;
                (Some(*seq), *root)
            }
            None => (None, None),
        };
        self.trace.add(Span {
            req,
            name: name(&out),
            start,
            dur,
            parent,
        });
        out
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(f, |_| name)
    }
}

/// The counters a replay reads before and after.
struct Counters {
    cache: cfmap::service::CacheStats,
    family_hits: u64,
    search: cfmap::service::engine::SearchStats,
    registry: Scrape,
    orbits: u64,
    escalations: u64,
    memo: (u64, u64),
    exact: u64,
    spills: u64,
    hnf: (u64, u64),
    screen: (u64, u64),
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        Counters {
            cache: engine.cache_stats(),
            family_hits: engine.family_stats().hits,
            search: engine.search_stats(),
            registry: Scrape::parse(&engine.metrics().render_prometheus()),
            orbits: ORBITS_PRUNED.get(),
            escalations: HYBRID_ESCALATIONS.get(),
            memo: (CONFLICT_MEMO_HITS.get(), CONFLICT_MEMO_MISSES.get()),
            exact: EXACT_CONFLICT_TESTS.get(),
            spills: cfmap::intlin::bigint_spills_total(),
            hnf: (
                cfmap::intlin::hnf_i64_fast_total(),
                cfmap::intlin::hnf_i64_fallback_total(),
            ),
            screen: (
                CANDIDATE_SCREEN_TIME.count(),
                CANDIDATE_SCREEN_TIME.sum_micros(),
            ),
        }
    }
}

/// What a replay produced.
pub struct Replay {
    /// The spans, aggregated and (for the first requests) kept.
    pub trace: Trace,
    /// The engine's answer body per item (first answer only).
    pub bodies: Vec<Option<String>>,
    /// Per-layer metrics: `(name, unit, value)`.
    pub metrics: Vec<(String, &'static str, f64)>,
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Replay the first `requests` requests of `inputs` against a fresh engine
/// built like the workload's servers (`capacity` entries over `shards`),
/// primed the same way: `snapshot` loaded, then `prime` resolved. The spans
/// of the first `keep` requests are kept for the trace file.
pub fn replay(
    inputs: &Inputs,
    requests: usize,
    (capacity, shards): (usize, usize),
    snapshot: Option<&str>,
    prime: &[&MapRequest],
    keep: usize,
) -> Replay {
    let engine = Engine::new(capacity, shards);
    let mut rec = Recorder {
        began: Instant::now(),
        trace: Trace::new(keep),
        open: None,
    };
    if let Some(text) = snapshot {
        rec.time("snapshot.load", || engine.load_snapshot(text))
            .expect("the snapshot loads");
    }
    for request in prime {
        black_box(engine.resolve(request));
    }
    let before = Counters::read(&engine);
    let mut bodies: Vec<Option<String>> = vec![None; inputs.items.len()];
    let (mut pareto_solves, mut pareto_candidates, mut pareto_pruned, mut points, mut frontiers) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut map_requests = 0u64;
    for seq in 0..requests {
        let Some(index) = inputs.item_index(seq) else {
            break;
        };
        rec.begin(seq);
        let body = match &inputs.items[index] {
            Item::Map(p) => {
                map_requests += 1;
                let request = rec
                    .time("wire.parse", || MapRequest::from_str(&p.body))
                    .expect("generated bodies parse");
                rec.time("canon.canonicalize", || {
                    black_box(canonical_problem(&request)).is_ok()
                });
                let (solves, family) = (engine.search_stats().solves, engine.family_stats().hits);
                let resp = rec.timed(
                    || engine.resolve(&request),
                    |_| {
                        if engine.search_stats().solves > solves {
                            "engine.search"
                        } else if engine.family_stats().hits > family {
                            "engine.family"
                        } else {
                            "engine.cache"
                        }
                    },
                );
                if let MapResponse::Ok(o) = &resp {
                    let refs: Vec<&[i64]> = p.space.iter().map(Vec::as_slice).collect();
                    let mapping = MappingMatrix::new(
                        SpaceMap::from_rows(&refs),
                        LinearSchedule::new(&o.schedule),
                    );
                    rec.time("systolic.synthesize", || {
                        black_box(SystolicArray::synthesize(&p.alg, &mapping)).num_processors()
                    });
                }
                rec.time("wire.serialize", || resp.to_json().serialize())
            }
            Item::Pareto(p) => {
                let request = rec
                    .time("wire.parse", || ParetoRequest::from_str(&p.body))
                    .expect("generated bodies parse");
                let resp = rec.timed(
                    || engine.pareto(&request),
                    |r| match r {
                        ParetoResponse::Ok(o) if o.cached => "engine.cache",
                        _ => "engine.pareto",
                    },
                );
                if let ParetoResponse::Ok(o) = &resp {
                    frontiers += 1;
                    points += o.points.len() as u64;
                    if !o.cached {
                        pareto_solves += 1;
                        pareto_candidates += o.candidates_examined;
                        pareto_pruned += o.dominated_pruned;
                    }
                    for pt in &o.points {
                        let refs: Vec<&[i64]> = pt.space.iter().map(Vec::as_slice).collect();
                        let mapping = MappingMatrix::new(
                            SpaceMap::from_rows(&refs),
                            LinearSchedule::new(&pt.schedule),
                        );
                        rec.time("systolic.synthesize", || {
                            black_box(SystolicArray::synthesize(&p.alg, &mapping)).num_processors()
                        });
                        rec.time("systolic.simulate", || {
                            black_box(Simulator::new(&p.alg, &mapping).run()).is_ok()
                        });
                    }
                }
                rec.time("wire.serialize", || resp.to_json().serialize())
            }
        };
        rec.end();
        if bodies[index].is_none() {
            bodies[index] = Some(body);
        }
    }
    let after = Counters::read(&engine);
    let trace = rec.trace;

    let seconds = |name: &str| trace.total(name).0.as_secs_f64();
    let mean_us = |name: &str| {
        let (t, n) = trace.total(name);
        ratio(t.as_secs_f64() * 1e6, n as f64)
    };
    let (parse, serialize) = (seconds("wire.parse"), seconds("wire.serialize"));
    let engine_time: Vec<f64> = [
        "engine.cache",
        "engine.family",
        "engine.search",
        "engine.pareto",
    ]
    .into_iter()
    .map(seconds)
    .collect();
    let core = parse + serialize + engine_time.iter().sum::<f64>();
    let share = |t: f64| ratio(t, core);
    let handled = trace.total("request").1 as f64;

    let solves = (after.search.solves - before.search.solves) as f64;
    let searches = solves + pareto_solves as f64;
    let enumerated =
        (after.search.candidates_enumerated - before.search.candidates_enumerated) as f64;
    let screened = |result: &str| {
        let label = format!("result=\"{result}\"");
        after.registry.sum("cfmap_search_screened_total", &label)
            - before.registry.sum("cfmap_search_screened_total", &label)
    };
    let hits = (after.cache.hits - before.cache.hits) as f64;
    let misses = (after.cache.misses - before.cache.misses) as f64;
    let memo_hits = (after.memo.0 - before.memo.0) as f64;
    let memo_misses = (after.memo.1 - before.memo.1) as f64;
    let hnf_fast = (after.hnf.0 - before.hnf.0) as f64;
    let hnf_fallback = (after.hnf.1 - before.hnf.1) as f64;
    let screens = (after.screen.0 - before.screen.0) as f64;
    let screen_us = (after.screen.1 - before.screen.1) as f64;
    let n = |x: u64| x as f64;

    let metrics = vec![
        ("engine.handle_us_mean", "us", ratio(core * 1e6, handled)),
        ("wire.parse_us_mean", "us", mean_us("wire.parse")),
        ("wire.serialize_us_mean", "us", mean_us("wire.serialize")),
        ("wire.time_share", "fraction", share(parse + serialize)),
        (
            "canon.canonicalize_us_mean",
            "us",
            mean_us("canon.canonicalize"),
        ),
        ("cache.hit_ratio", "ratio", ratio(hits, hits + misses)),
        (
            "cache.evictions",
            "count",
            n(after.cache.evictions - before.cache.evictions),
        ),
        ("cache.hit_us_mean", "us", mean_us("engine.cache")),
        ("cache.time_share", "fraction", share(engine_time[0])),
        (
            "family.hit_ratio",
            "ratio",
            ratio(n(after.family_hits - before.family_hits), n(map_requests)),
        ),
        ("family.hit_us_mean", "us", mean_us("engine.family")),
        ("family.time_share", "fraction", share(engine_time[1])),
        ("snapshot.load_ms", "ms", mean_us("snapshot.load") / 1e3),
        ("search.solves", "count", solves),
        ("search.solve_ms_mean", "ms", mean_us("engine.search") / 1e3),
        (
            "search.candidates_per_solve",
            "count",
            ratio(enumerated, solves),
        ),
        (
            "search.reject_share.schedule",
            "fraction",
            ratio(screened("rejected_schedule"), enumerated),
        ),
        (
            "search.reject_share.prefilter",
            "fraction",
            ratio(screened("rejected_prefilter"), enumerated),
        ),
        (
            "search.reject_share.rank",
            "fraction",
            ratio(screened("rejected_rank"), enumerated),
        ),
        (
            "search.reject_share.conflict",
            "fraction",
            ratio(screened("rejected_conflict"), enumerated),
        ),
        (
            "search.hnf_per_solve",
            "count",
            ratio(
                n(after.search.hnf_computations - before.search.hnf_computations),
                solves,
            ),
        ),
        (
            "search.orbits_pruned_per_solve",
            "count",
            ratio(n(after.orbits - before.orbits), searches),
        ),
        (
            "search.hybrid_escalations",
            "count",
            n(after.escalations - before.escalations),
        ),
        (
            "search.screen_ns_mean",
            "ns",
            ratio(screen_us * 1e3, screens),
        ),
        ("search.time_share", "fraction", share(engine_time[2])),
        (
            "conflict.memo_hit_ratio",
            "ratio",
            ratio(memo_hits, memo_hits + memo_misses),
        ),
        (
            "conflict.exact_tests_per_solve",
            "count",
            ratio(n(after.exact - before.exact), searches),
        ),
        (
            "intlin.bigint_spills",
            "count",
            n(after.spills - before.spills),
        ),
        (
            "intlin.hnf_fallback_ratio",
            "ratio",
            ratio(hnf_fallback, hnf_fast + hnf_fallback),
        ),
        ("pareto.solves", "count", n(pareto_solves)),
        ("pareto.solve_ms_mean", "ms", mean_us("engine.pareto") / 1e3),
        (
            "pareto.candidates_per_solve",
            "count",
            ratio(n(pareto_candidates), n(pareto_solves)),
        ),
        (
            "pareto.points_per_frontier",
            "count",
            ratio(n(points), n(frontiers)),
        ),
        (
            "pareto.dominated_pruned_per_solve",
            "count",
            ratio(n(pareto_pruned), n(pareto_solves)),
        ),
        ("pareto.time_share", "fraction", share(engine_time[3])),
        (
            "systolic.synthesize_us_mean",
            "us",
            mean_us("systolic.synthesize"),
        ),
        (
            "systolic.simulate_us_mean",
            "us",
            mean_us("systolic.simulate"),
        ),
    ];
    Replay {
        trace,
        bodies,
        metrics: metrics
            .into_iter()
            .map(|(k, u, v)| (k.to_string(), u, v))
            .collect(),
    }
}

/// The trace file: `{"phases": {"<phase>": <Trace::document>}}`.
pub fn document(phases: &[(&str, &Trace)]) -> Value {
    Value::Obj(vec![(
        "phases".into(),
        Value::Obj(
            phases
                .iter()
                .map(|(name, t)| (name.to_string(), t.document()))
                .collect(),
        ),
    )])
}
