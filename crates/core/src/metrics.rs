//! Zero-dependency observability primitives: counters, gauges,
//! fixed-bucket latency histograms, a Prometheus-text registry, and the
//! per-search [`SearchTelemetry`] carried by [`crate::SearchOutcome`].
//!
//! The workspace's hermetic policy (std only, no registry crates) rules
//! out `prometheus`/`metrics`/`tracing`; this module implements the
//! fragment those crates would provide:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomics, `const`-constructible
//!   so process-wide statics (e.g. [`HNF_COMPUTATIONS`]) need no lazy
//!   initialization;
//! * [`Histogram`] — fixed microsecond bucket bounds chosen at
//!   registration, rendered in seconds per Prometheus convention;
//! * [`Registry`] — a get-or-register handle store that renders the
//!   [Prometheus text exposition format] for a `/metrics` endpoint,
//!   including callback gauges for values owned elsewhere (cache sizes);
//! * [`SearchTelemetry`] — deterministic per-search counters (candidates
//!   enumerated / screened / accepted per objective level, HNF
//!   computations, conflict-freedom condition hits by theorem, the
//!   budget limit consumed at exit) threaded through Procedure 5.1 and
//!   the Problem 6.1/6.2 searches.
//!
//! Two layers on purpose: `SearchTelemetry` is a plain value — same
//! search, same numbers, usable in tests and benchmark JSON — while the
//! atomic registry aggregates across threads and requests for a live
//! daemon scrape.
//!
//! [Prometheus text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::error::BudgetLimit;
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::time::Duration;

/// A monotonically increasing counter. `const`-constructible so it can
/// back a process-wide `static`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in microseconds: 100 µs to 5 s
/// in a coarse 1–2.5–5 progression. A cache hit lands in the first
/// bucket; a budgeted wire-sized search in the last few.
pub const DEFAULT_LATENCY_BUCKETS_US: &[u64] = &[
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
];

/// A fixed-bucket latency histogram with microsecond bucket bounds.
/// Bucket bounds are set at construction; counts, sum and total are
/// atomics, so observation is lock-free. The sum is kept in nanoseconds,
/// so sub-microsecond observations are not truncated away. Rendered in
/// seconds (cumulative `le` buckets) per Prometheus convention.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds in microseconds, strictly increasing.
    bounds_us: Vec<u64>,
    /// One count per bound, plus a final overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram with the given inclusive microsecond upper bounds
    /// (must be strictly increasing; an `+Inf` bucket is implicit).
    pub fn new(bounds_us: &[u64]) -> Histogram {
        debug_assert!(bounds_us.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        Histogram {
            bounds_us: bounds_us.to_vec(),
            buckets: (0..=bounds_us.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation of `ns` nanoseconds.
    fn observe_nanos(&self, ns: u64) {
        let idx = self.bounds_us.partition_point(|&b| b.saturating_mul(1_000) < ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one observation of `us` microseconds.
    pub fn observe_micros(&self, us: u64) {
        self.observe_nanos(us.saturating_mul(1_000));
    }

    /// Record one observation of a [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in whole microseconds (summed in
    /// nanoseconds, truncated once).
    pub fn sum_micros(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed) / 1_000
    }

    /// Cumulative counts per bound (Prometheus `le` semantics), ending
    /// with the total (`+Inf`).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }
}

/// Format `us` microseconds as a decimal-seconds literal without
/// floating point (`100` → `"0.0001"`), keeping the hermetic wire
/// formats float-free.
fn fmt_seconds(us: u64) -> String {
    let secs = us / 1_000_000;
    let frac = us % 1_000_000;
    if frac == 0 {
        format!("{secs}")
    } else {
        let digits = format!("{frac:06}");
        format!("{secs}.{}", digits.trim_end_matches('0'))
    }
}

/// Label set: ordered `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// A histogram owned by a process-wide static (e.g.
    /// [`CANDIDATE_SCREEN_TIME`]) rather than the registry.
    StaticHistogram(&'static Histogram),
    /// A gauge whose value is read at render time (cache entry counts,
    /// process-wide statics).
    Callback(Box<dyn Fn() -> i64 + Send + Sync>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) | Metric::Callback(_) => "gauge",
            Metric::Histogram(_) | Metric::StaticHistogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Labels,
    metric: Metric,
}

/// A registry of named metrics, rendered as Prometheus text.
///
/// Handles are `Arc`s: register once, bump from any thread. Repeated
/// registration with the same `(name, labels)` returns the existing
/// handle, so call sites need not coordinate.
///
/// ```
/// use cfmap_core::metrics::Registry;
///
/// let reg = Registry::new();
/// let hits = reg.counter("cache_hits_total", "Cache hits.", &[]);
/// hits.inc();
/// let text = reg.render_prometheus();
/// assert!(text.contains("# TYPE cache_hits_total counter"));
/// assert!(text.contains("cache_hits_total 1"));
/// ```
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn labels_of(pairs: &[(&str, &str)]) -> Labels {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let labels = Self::labels_of(labels);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Metric::Counter(c) = &e.metric {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            labels,
            metric: Metric::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let labels = Self::labels_of(labels);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Metric::Gauge(g) = &e.metric {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            labels,
            metric: Metric::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Get or register a histogram with the given microsecond bounds.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds_us: &[u64],
    ) -> Arc<Histogram> {
        let labels = Self::labels_of(labels);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Metric::Histogram(h) = &e.metric {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Histogram::new(bounds_us));
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            labels,
            metric: Metric::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Register (or replace) a histogram owned by a process-wide static,
    /// so observations made anywhere (e.g. inside Procedure 5.1's
    /// candidate screen) render alongside registry-owned metrics.
    pub fn histogram_static(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &'static Histogram,
    ) {
        let labels = Self::labels_of(labels);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.retain(|e| !(e.name == name && e.labels == labels));
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            labels,
            metric: Metric::StaticHistogram(h),
        });
    }

    /// Register (or replace) a gauge whose value is computed at render
    /// time — for quantities owned by another component, like cache
    /// entry counts or the process-wide [`HNF_COMPUTATIONS`] static.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        let labels = Self::labels_of(labels);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.retain(|e| !(e.name == name && e.labels == labels));
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            labels,
            metric: Metric::Callback(Box::new(f)),
        });
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format (`# HELP` / `# TYPE` once per family, then samples; `le`
    /// bucket bounds and `_sum` in seconds).
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut described: Vec<&str> = Vec::new();
        // Group families: emit in first-seen name order.
        let mut order: Vec<&str> = Vec::new();
        for e in entries.iter() {
            if !order.contains(&e.name.as_str()) {
                order.push(&e.name);
            }
        }
        for family in order {
            for e in entries.iter().filter(|e| e.name == family) {
                if !described.contains(&family) {
                    described.push(family);
                    out.push_str(&format!("# HELP {family} {}\n", escape_help(&e.help)));
                    out.push_str(&format!("# TYPE {family} {}\n", e.metric.type_name()));
                }
                match &e.metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!(
                            "{family}{} {}\n",
                            fmt_labels(&e.labels, None),
                            c.get()
                        ));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!(
                            "{family}{} {}\n",
                            fmt_labels(&e.labels, None),
                            g.get()
                        ));
                    }
                    Metric::Callback(f) => {
                        out.push_str(&format!(
                            "{family}{} {}\n",
                            fmt_labels(&e.labels, None),
                            f()
                        ));
                    }
                    Metric::Histogram(h) => render_histogram(&mut out, family, &e.labels, h),
                    Metric::StaticHistogram(h) => render_histogram(&mut out, family, &e.labels, h),
                }
            }
        }
        out
    }
}

/// Emit the `_bucket`/`_sum`/`_count` sample lines for one histogram.
fn render_histogram(out: &mut String, family: &str, labels: &Labels, h: &Histogram) {
    let cum = h.cumulative();
    for (i, &bound) in h.bounds_us.iter().enumerate() {
        out.push_str(&format!(
            "{family}_bucket{} {}\n",
            fmt_labels(labels, Some(&fmt_seconds(bound))),
            cum[i]
        ));
    }
    out.push_str(&format!(
        "{family}_bucket{} {}\n",
        fmt_labels(labels, Some("+Inf")),
        cum[h.bounds_us.len()]
    ));
    out.push_str(&format!(
        "{family}_sum{} {}\n",
        fmt_labels(labels, None),
        fmt_seconds(h.sum_micros())
    ));
    out.push_str(&format!("{family}_count{} {}\n", fmt_labels(labels, None), h.count()));
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Render a label block, optionally with a trailing `le` label
/// (histogram buckets). Empty block for no labels.
fn fmt_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(bound) = le {
        parts.push(format!("le=\"{bound}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Process-wide count of Hermite-normal-form computations — one per
/// [`crate::ConflictAnalysis`] constructed. On the HNF screening route
/// every candidate that survives the cheap screens costs one HNF;
/// Procedure 5.1 searches decided by their box-kernel table cost none.
pub static HNF_COMPUTATIONS: Counter = Counter::new();

/// Process-wide count of exact lattice conflict tests
/// ([`crate::ConflictAnalysis::is_conflict_free_exact`] box enumerations).
pub static EXACT_CONFLICT_TESTS: Counter = Counter::new();

thread_local! {
    static THREAD_EXACT_CONFLICT_TESTS: Cell<u64> = const { Cell::new(0) };
}

/// Count one exact lattice conflict test, process-wide and on the
/// calling thread.
pub(crate) fn count_exact_conflict_test() {
    EXACT_CONFLICT_TESTS.inc();
    THREAD_EXACT_CONFLICT_TESTS.with(|c| c.set(c.get() + 1));
}

/// [`EXACT_CONFLICT_TESTS`] restricted to the calling thread — the
/// deterministic view for tests that run beside other searches.
pub fn thread_exact_conflict_tests() -> u64 {
    THREAD_EXACT_CONFLICT_TESTS.with(Cell::get)
}

/// Process-wide count of candidates skipped by the symmetry quotient —
/// non-representative orbit members Procedure 5.1 never screened because
/// a stabilizer element maps them to a lex-greater equivalent. The
/// service exports this as `cfmap_orbits_pruned_total`.
pub static ORBITS_PRUNED: Counter = Counter::new();

/// Process-wide count of hybrid enumeration→ILP escalations — searches
/// whose [`crate::HybridPolicy`] predicted a level blow-up and handed the
/// problem to the ILP decomposition mid-search. The service exports this
/// as `cfmap_hybrid_escalations_total`.
pub static HYBRID_ESCALATIONS: Counter = Counter::new();

/// Retired with the kernel-lattice conflict memo: never incremented.
pub static CONFLICT_MEMO_HITS: Counter = Counter::new();

/// Retired with the kernel-lattice conflict memo: never incremented.
pub static CONFLICT_MEMO_MISSES: Counter = Counter::new();

/// Process-wide count of accepted candidate designs discarded by the
/// Pareto dominance filter — points whose objective vector was
/// dominated by (or a duplicate of) another accepted design's. The
/// service exports this as `cfmap_pareto_dominated_pruned_total`.
pub static PARETO_DOMINATED_PRUNED: Counter = Counter::new();

/// Bucket bounds for per-candidate screen time, in microseconds: 1 µs
/// to 100 ms in a 1–2.5–5 progression. The i64 fast path lands in the
/// single-digit-microsecond buckets; a bignum fallback or exact lattice
/// enumeration in the millisecond tail. Much finer at the low end than
/// [`DEFAULT_LATENCY_BUCKETS_US`], which starts at 100 µs — coarser
/// than an entire fast-path screen.
pub const SCREEN_TIME_BUCKETS_US: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// Process-wide histogram of per-candidate screen time in Procedure 5.1
/// — everything from schedule validation through the conflict-freedom
/// verdict for one candidate `Π` row. `LazyLock` rather than `const`
/// because [`Histogram`] owns heap-allocated bucket vectors.
pub static CANDIDATE_SCREEN_TIME: LazyLock<Histogram> =
    LazyLock::new(|| Histogram::new(SCREEN_TIME_BUCKETS_US));

/// Which closed-form conflict-freedom rule a check dispatched to — the
/// per-theorem axis of the search telemetry (the dispatch of Procedure
/// 5.1 step 5(3) on the kernel dimension `r = n − k`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConditionRule {
    /// `r = 0`: `T` is injective on `Z^n`; trivially conflict-free.
    Trivial,
    /// `r = 1`: Theorem 3.1 (unique conflict vector; exact).
    Theorem31,
    /// `r = 2`: Theorem 4.7 sign-pattern conditions.
    Theorem47,
    /// `r = 3`: Theorem 4.8 sign-pattern conditions.
    Theorem48,
    /// `r > 3`: Theorem 4.5 row-gcd sufficient condition.
    Theorem45,
    /// The exact integer-lattice test ([`ConditionKind::Exact`]).
    ///
    /// [`ConditionKind::Exact`]: crate::conditions::ConditionKind::Exact
    Exact,
}

impl ConditionRule {
    /// Stable snake-case name (metric label / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            ConditionRule::Trivial => "trivial",
            ConditionRule::Theorem31 => "thm_3_1",
            ConditionRule::Theorem47 => "thm_4_7",
            ConditionRule::Theorem48 => "thm_4_8",
            ConditionRule::Theorem45 => "thm_4_5",
            ConditionRule::Exact => "exact",
        }
    }
}

/// Hit counts per conflict-freedom rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleHits {
    /// `r = 0` trivial accepts.
    pub trivial: u64,
    /// Theorem 3.1 dispatches (`r = 1`).
    pub thm_3_1: u64,
    /// Theorem 4.7 dispatches (`r = 2`).
    pub thm_4_7: u64,
    /// Theorem 4.8 dispatches (`r = 3`).
    pub thm_4_8: u64,
    /// Theorem 4.5 fallback dispatches (`r > 3`).
    pub thm_4_5: u64,
    /// Exact lattice tests.
    pub exact: u64,
}

impl RuleHits {
    /// Record one dispatch to `rule`.
    pub fn record(&mut self, rule: ConditionRule) {
        match rule {
            ConditionRule::Trivial => self.trivial += 1,
            ConditionRule::Theorem31 => self.thm_3_1 += 1,
            ConditionRule::Theorem47 => self.thm_4_7 += 1,
            ConditionRule::Theorem48 => self.thm_4_8 += 1,
            ConditionRule::Theorem45 => self.thm_4_5 += 1,
            ConditionRule::Exact => self.exact += 1,
        }
    }

    /// `(name, count)` pairs in dispatch order, for serialization.
    pub fn entries(&self) -> [(&'static str, u64); 6] {
        [
            ("trivial", self.trivial),
            ("thm_3_1", self.thm_3_1),
            ("thm_4_7", self.thm_4_7),
            ("thm_4_8", self.thm_4_8),
            ("thm_4_5", self.thm_4_5),
            ("exact", self.exact),
        ]
    }

    /// Total dispatches.
    pub fn total(&self) -> u64 {
        self.entries().iter().map(|(_, c)| c).sum()
    }

    fn merge(&mut self, other: &RuleHits) {
        self.trivial += other.trivial;
        self.thm_3_1 += other.thm_3_1;
        self.thm_4_7 += other.thm_4_7;
        self.thm_4_8 += other.thm_4_8;
        self.thm_4_5 += other.thm_4_5;
        self.exact += other.exact;
    }
}

/// Per-objective-level search effort (one row of the paper's Table-style
/// search statistics): how many candidates the level enumerated and how
/// many it accepted (0 or 1 for Procedure 5.1 — the first accept wins).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelTelemetry {
    /// Objective value `f = Σ |π_i|·μ_i` of the level.
    pub objective: i64,
    /// Candidates enumerated at this level.
    pub enumerated: u64,
    /// Candidates accepted at this level.
    pub accepted: u64,
}

/// Cap on per-level records kept in a [`SearchTelemetry`] — wire-sized
/// problems can have objective caps in the thousands, and the telemetry
/// must stay cheap to carry.
pub const MAX_LEVEL_RECORDS: usize = 64;

/// Deterministic per-search counters, carried by
/// [`crate::SearchOutcome`]. Each gate of Definition 2.2 gets a
/// rejection counter, in screening order; `enumerated` is the total
/// candidate count, so
/// `enumerated = accepted + Σ rejected_* + (candidates cut off by the budget)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchTelemetry {
    /// Candidates generated by the enumeration.
    pub enumerated: u64,
    /// Rejected by condition 1 (`Π·d̄ > 0` fails).
    pub rejected_schedule: u64,
    /// Rejected by the exact pairwise conflict pre-filter (before any
    /// Hermite form is computed).
    pub rejected_prefilter: u64,
    /// Rejected by condition 4 (`rank(T) < k`).
    pub rejected_rank: u64,
    /// Rejected by condition 3 (conflict-freedom test not passed).
    pub rejected_conflict: u64,
    /// Rejected by condition 2 (no routing on the given primitives).
    pub rejected_unroutable: u64,
    /// Candidates accepted (0 or 1 for Procedure 5.1).
    pub accepted: u64,
    /// Hermite normal forms computed (one per surviving candidate on
    /// the HNF route; none on the box-kernel table route).
    pub hnf_computations: u64,
    /// Conflict-freedom dispatches by rule.
    pub condition_hits: RuleHits,
    /// Per-objective-level effort, in increasing objective order, capped
    /// at [`MAX_LEVEL_RECORDS`] entries.
    pub levels: Vec<LevelTelemetry>,
    /// True when level records were dropped to honour the cap.
    pub levels_truncated: bool,
    /// Fallback (mixed-radix) variants screened during budget
    /// degradation.
    pub fallback_screened: u64,
    /// Candidates skipped by the symmetry quotient: orbit members that a
    /// stabilizer element maps to a lex-greater representative, so the
    /// representative's verdict covers them (see `cfmap_core::canon`).
    pub orbits_pruned: u64,
    /// The budget limit that ended the search, if one tripped.
    pub budget_limit: Option<BudgetLimit>,
}

impl SearchTelemetry {
    /// Record effort at one objective level, honouring the record cap.
    pub fn record_level(&mut self, objective: i64, enumerated: u64, accepted: u64) {
        if enumerated == 0 && accepted == 0 {
            return;
        }
        if self.levels.len() >= MAX_LEVEL_RECORDS {
            self.levels_truncated = true;
            return;
        }
        self.levels.push(LevelTelemetry { objective, enumerated, accepted });
    }

    /// Fold `other` into `self`: counter sums, level records merged by
    /// objective value (both sides sorted ascending). Used to aggregate
    /// inner searches (the joint Pareto frontier runs one Procedure 5.1
    /// scan per space map).
    pub fn merge(&mut self, other: &SearchTelemetry) {
        self.enumerated += other.enumerated;
        self.rejected_schedule += other.rejected_schedule;
        self.rejected_prefilter += other.rejected_prefilter;
        self.rejected_rank += other.rejected_rank;
        self.rejected_conflict += other.rejected_conflict;
        self.rejected_unroutable += other.rejected_unroutable;
        self.accepted += other.accepted;
        self.hnf_computations += other.hnf_computations;
        self.condition_hits.merge(&other.condition_hits);
        self.fallback_screened += other.fallback_screened;
        self.orbits_pruned += other.orbits_pruned;
        self.budget_limit = self.budget_limit.or(other.budget_limit);
        self.levels_truncated |= other.levels_truncated;
        // Merge sorted level lists, summing equal-objective records.
        let mut merged: Vec<LevelTelemetry> = Vec::new();
        let (mut a, mut b) = (self.levels.iter().peekable(), other.levels.iter().peekable());
        loop {
            let next = match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(_), None) => *a.next().unwrap(),
                (None, Some(_)) => *b.next().unwrap(),
                (Some(x), Some(y)) => {
                    if x.objective == y.objective {
                        let (x, y) = (a.next().unwrap(), b.next().unwrap());
                        LevelTelemetry {
                            objective: x.objective,
                            enumerated: x.enumerated + y.enumerated,
                            accepted: x.accepted + y.accepted,
                        }
                    } else if x.objective < y.objective {
                        *a.next().unwrap()
                    } else {
                        *b.next().unwrap()
                    }
                }
            };
            if merged.len() < MAX_LEVEL_RECORDS {
                merged.push(next);
            } else {
                self.levels_truncated = true;
                break;
            }
        }
        self.levels = merged;
    }

    /// Total rejections across all gates.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_schedule
            + self.rejected_prefilter
            + self.rejected_rank
            + self.rejected_conflict
            + self.rejected_unroutable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&[100, 1_000, 10_000]);
        h.observe_micros(50); // ≤ 100
        h.observe_micros(100); // ≤ 100 (inclusive bound)
        h.observe_micros(500); // ≤ 1000
        h.observe_micros(99_999); // +Inf
        assert_eq!(h.cumulative(), vec![2, 3, 3, 4]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_micros(), 50 + 100 + 500 + 99_999);
    }

    #[test]
    fn sub_microsecond_observations_add_to_the_sum() {
        let h = Histogram::new(SCREEN_TIME_BUCKETS_US);
        for _ in 0..5 {
            h.observe(Duration::from_nanos(400));
        }
        assert_eq!(h.sum_micros(), 2);
        assert_eq!(h.count(), 5);
        // 400 ns ≤ 1 µs: all five land in the first bucket.
        assert_eq!(h.cumulative()[0], 5);
        // 1.5 µs exceeds the 1 µs bound and lands in the 2 µs bucket.
        h.observe(Duration::from_nanos(1_500));
        assert_eq!(h.cumulative()[..2], [5, 6]);
    }

    #[test]
    fn seconds_formatting_is_float_free() {
        assert_eq!(fmt_seconds(0), "0");
        assert_eq!(fmt_seconds(100), "0.0001");
        assert_eq!(fmt_seconds(2_500_000), "2.5");
        assert_eq!(fmt_seconds(1_000_000), "1");
        assert_eq!(fmt_seconds(1_234_567), "1.234567");
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let reg = Registry::new();
        let ok = reg.counter("requests_total", "Requests served.", &[("route", "/map")]);
        let err = reg.counter("requests_total", "Requests served.", &[("route", "/nope")]);
        ok.add(3);
        err.inc();
        let lat = reg.histogram("latency_seconds", "Latency.", &[], &[1_000, 1_000_000]);
        lat.observe_micros(500);
        lat.observe_micros(2_000_000);
        reg.gauge_fn("entries", "Live entries.", &[], || 42);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total{route=\"/map\"} 3"), "{text}");
        assert!(text.contains("requests_total{route=\"/nope\"} 1"), "{text}");
        assert!(text.contains("# TYPE latency_seconds histogram"), "{text}");
        assert!(text.contains("latency_seconds_bucket{le=\"0.001\"} 1"), "{text}");
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("latency_seconds_count 2"), "{text}");
        assert!(text.contains("entries 42"), "{text}");
        // HELP/TYPE emitted once per family even with two labeled series.
        assert_eq!(text.matches("# TYPE requests_total").count(), 1, "{text}");
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("c", "h", &[]);
        let b = reg.counter("c", "h", &[]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn telemetry_merge_sums_and_interleaves_levels() {
        let mut a = SearchTelemetry {
            enumerated: 10,
            rejected_schedule: 4,
            accepted: 1,
            ..SearchTelemetry::default()
        };
        a.record_level(1, 4, 0);
        a.record_level(3, 6, 1);
        let mut b = SearchTelemetry { enumerated: 7, rejected_rank: 2, ..Default::default() };
        b.record_level(2, 3, 0);
        b.record_level(3, 4, 0);
        a.merge(&b);
        assert_eq!(a.enumerated, 17);
        assert_eq!(a.rejected_total(), 6);
        assert_eq!(
            a.levels,
            vec![
                LevelTelemetry { objective: 1, enumerated: 4, accepted: 0 },
                LevelTelemetry { objective: 2, enumerated: 3, accepted: 0 },
                LevelTelemetry { objective: 3, enumerated: 10, accepted: 1 },
            ]
        );
    }

    #[test]
    fn level_records_are_capped() {
        let mut t = SearchTelemetry::default();
        for i in 0..(MAX_LEVEL_RECORDS as i64 + 10) {
            t.record_level(i + 1, 1, 0);
        }
        assert_eq!(t.levels.len(), MAX_LEVEL_RECORDS);
        assert!(t.levels_truncated);
    }

    #[test]
    fn rule_hits_record_and_total() {
        let mut hits = RuleHits::default();
        hits.record(ConditionRule::Theorem31);
        hits.record(ConditionRule::Theorem31);
        hits.record(ConditionRule::Exact);
        assert_eq!(hits.thm_3_1, 2);
        assert_eq!(hits.total(), 3);
        assert_eq!(ConditionRule::Theorem47.name(), "thm_4_7");
    }
}
