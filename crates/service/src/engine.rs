//! The mapping engine: turns a [`MapRequest`] into a [`MapResponse`],
//! consulting the canonicalizing design cache.
//!
//! The cache key is the [`CanonicalProblem`] of `(J, D, S)` plus the
//! deterministic solver knobs (`cap`, `max_candidates`). Two rules keep
//! the cache honest:
//!
//! * **wall-clock budgets bypass the cache** — `timeout_ms` makes the
//!   outcome machine- and load-dependent, so such requests are always
//!   solved fresh and never stored;
//! * **candidate budgets join the key** — `max_candidates` is
//!   deterministic (the search visits candidates in a fixed order), so a
//!   best-effort answer is reusable, but only by requests with the same
//!   budget.
//!
//! Batch resolution ([`Engine::resolve_batch`]) groups requests by cache
//! key and solves each distinct problem once, fanning the answer out
//! through each member's own axis permutation — eight permuted copies of
//! matmul in one batch cost one search.

use crate::cache::{CacheStats, ShardedLruCache};
use crate::family_store::{FamilyStats, FamilyStore};
use crate::snapshot::Snapshot;
use crate::wire::{
    MapOutcome, MapRequest, MapResponse, ParetoOutcome, ParetoPointWire, ParetoRequest,
    ParetoResponse,
};
use cfmap_core::metrics::{
    Counter, Histogram, Registry, DEFAULT_LATENCY_BUCKETS_US, EXACT_CONFLICT_TESTS,
    HNF_COMPUTATIONS, HYBRID_ESCALATIONS, ORBITS_PRUNED, PARETO_DOMINATED_PRUNED,
};
use cfmap_core::budget::clock;
use cfmap_core::{
    canonicalize, BudgetLimit, CancelToken, CanonicalProblem, Canonicalization, Certification,
    CfmapError, Deadline, HybridPolicy, MappingMatrix, ParetoPoint, ParetoSearch, Procedure51,
    ResourceModel, SearchBudget, SearchTelemetry, SolveRoute, SpaceMap, SymmetryMode, TieBreak,
};
use cfmap_model::{algorithms, DependenceMatrix, IndexSet, LinearSchedule, Uda};
use cfmap_systolic::{
    count_processors, peak_link_load, processor_span, Simulator, MAX_PROCESSOR_SPAN,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Design-cache key: the canonical problem plus deterministic knobs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical `(μ, D, S)`.
    pub problem: CanonicalProblem,
    /// Objective cap, if the caller overrode the heuristic.
    pub cap: Option<i64>,
    /// Candidate budget, if any.
    pub max_candidates: Option<u64>,
}

/// What the cache stores per key: the search's answer in *canonical*
/// coordinates (each request de-canonicalizes with its own permutation).
#[derive(Clone, Debug)]
pub enum CachedOutcome {
    /// A mapping was found.
    Design {
        /// `Π°` in canonical coordinates.
        schedule: Vec<i64>,
        /// Objective `f`.
        objective: i64,
        /// Total time `t = f + 1`.
        total_time: i64,
        /// Optimal or best-effort.
        certification: Certification,
        /// Search effort behind this answer.
        candidates_examined: u64,
        /// Processor count `|S·J|` (permutation-invariant).
        processors: u64,
        /// Array dimensionality `k − 1`.
        array_dims: u64,
    },
    /// The search proved the candidate space empty.
    Infeasible {
        /// Search effort behind the proof.
        candidates_examined: u64,
    },
}

/// The deterministic knob set of a Pareto request — part of every
/// frontier-cache key, since each combination defines a different
/// frontier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParetoKnobs {
    /// Objective cap override.
    pub cap: Option<i64>,
    /// Space-row entry bound override.
    pub entry_bound: Option<i64>,
    /// Whether bandwidth is a fourth objective axis.
    pub include_bandwidth: bool,
    /// Processor budget.
    pub max_processors: Option<u64>,
    /// Wire budget.
    pub max_wires: Option<i64>,
    /// Bandwidth budget.
    pub max_bandwidth: Option<u64>,
}

/// Frontier-cache key. Fixed-space requests key on the canonical
/// problem so permuted-but-equivalent requests share one frontier,
/// exactly like the design cache; fixed-schedule and joint scopes have
/// no pinned space map to canonicalize around, so they key on the
/// normalized problem verbatim.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ParetoCacheKey {
    /// Fixed-space scope: canonical `(μ, D, S)` identity.
    Canonical {
        /// Canonical problem.
        problem: CanonicalProblem,
        /// Deterministic knobs.
        knobs: ParetoKnobs,
    },
    /// Fixed-schedule or joint scope: the problem verbatim.
    Exact {
        /// Index-set bounds.
        mu: Vec<i64>,
        /// Dependence columns.
        deps: Vec<Vec<i64>>,
        /// Pinned schedule, if the scope is fixed-schedule.
        schedule: Option<Vec<i64>>,
        /// Deterministic knobs.
        knobs: ParetoKnobs,
    },
}

/// What the frontier cache stores. Under a `Canonical` key the point
/// schedules (and space rows) are in canonical coordinates; each
/// requester de-canonicalizes with its own permutation on the way out.
#[derive(Clone, Debug)]
struct CachedFrontier {
    points: Vec<ParetoPointWire>,
    dominated_pruned: u64,
    candidates_examined: u64,
}

/// Aggregate search-effort counters across every solve the engine has
/// run, for `/stats` (the `/metrics` endpoint exposes the same numbers
/// with finer label breakdowns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Searches actually run (cache hits excluded).
    pub solves: u64,
    /// Schedule candidates generated across all solves.
    pub candidates_enumerated: u64,
    /// Candidates accepted (every acceptance at the winning objective
    /// level — under [`TieBreak::LexMax`] a level can accept several).
    pub candidates_accepted: u64,
    /// Hermite normal forms computed.
    pub hnf_computations: u64,
    /// Mixed-radix fallback variants screened during budget degradation.
    pub fallback_screened: u64,
}

/// The shared solver state behind every worker thread.
pub struct Engine {
    cache: Arc<ShardedLruCache<CacheKey, CachedOutcome>>,
    /// Frontier cache: one entry per (problem identity, knob set).
    pareto_cache: Arc<ShardedLruCache<ParetoCacheKey, CachedFrontier>>,
    /// Per-point simulator re-verification time on fresh frontiers.
    pareto_verify: Arc<Histogram>,
    /// Fresh frontier searches run (cache hits excluded).
    pareto_solves: Arc<Counter>,
    /// Size of the most recently solved frontier (the
    /// `cfmap_pareto_frontier_size` gauge reads this).
    pareto_frontier_size: Arc<std::sync::atomic::AtomicI64>,
    /// Schedule-family catalogue: certificates answer whole μ-families
    /// with zero search (see [`crate::family_store`]).
    family: Arc<FamilyStore>,
    metrics: Arc<Registry>,
    solve_latency: Arc<Histogram>,
    solves: Arc<Counter>,
    enumerated: Arc<Counter>,
    accepted: Arc<Counter>,
    hnf: Arc<Counter>,
    fallback: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    /// Engine-wide cooperative cancellation: every search polls this
    /// token, so tripping it (e.g. when the daemon's drain deadline
    /// passes) winds all in-flight solves down within one candidate's
    /// latency.
    cancel: CancelToken,
}

impl Engine {
    /// An engine whose cache holds `cache_capacity` designs across
    /// `shards` shards.
    pub fn new(cache_capacity: usize, shards: usize) -> Engine {
        let cache = Arc::new(ShardedLruCache::new(cache_capacity, shards));
        let family = Arc::new(FamilyStore::new());
        let metrics = Arc::new(Registry::new());
        // Family-catalogue traffic and occupancy, read live at scrape time.
        for (name, help, read) in [
            (
                "cfmapd_family_hits_total",
                "Requests answered from a schedule-family certificate",
                0usize,
            ),
            ("cfmapd_family_certificates", "Schedule-family certificates held", 1),
            ("cfmapd_family_observing", "Families accumulating observations", 2),
            ("cfmapd_family_rejected", "Families the fitter permanently rejected", 3),
        ] {
            let f = Arc::clone(&family);
            metrics.gauge_fn(name, help, &[], move || {
                let s = f.stats();
                let v = match read {
                    0 => s.hits,
                    1 => s.certificates,
                    2 => s.observing,
                    _ => s.rejected,
                };
                i64::try_from(v).unwrap_or(i64::MAX)
            });
        }
        // Cache occupancy and traffic, read live at scrape time.
        for (name, help, read) in [
            ("cfmap_cache_entries", "Designs resident in the cache", 0usize),
            ("cfmap_cache_hits_total", "Design-cache hits", 1),
            ("cfmap_cache_misses_total", "Design-cache misses", 2),
            ("cfmap_cache_evictions_total", "Design-cache evictions", 3),
        ] {
            let c = Arc::clone(&cache);
            metrics.gauge_fn(name, help, &[], move || {
                let s = c.stats();
                let v = match read {
                    0 => s.entries,
                    1 => s.hits,
                    2 => s.misses,
                    _ => s.evictions,
                };
                i64::try_from(v).unwrap_or(i64::MAX)
            });
        }
        // Process-wide core counters (they count work done by *every*
        // search in the process, not just this engine's).
        metrics.gauge_fn(
            "cfmap_core_hnf_computations_total",
            "Hermite normal forms computed process-wide",
            &[],
            || i64::try_from(HNF_COMPUTATIONS.get()).unwrap_or(i64::MAX),
        );
        metrics.gauge_fn(
            "cfmap_core_exact_conflict_tests_total",
            "Exact conflict-vector searches run process-wide",
            &[],
            || i64::try_from(EXACT_CONFLICT_TESTS.get()).unwrap_or(i64::MAX),
        );
        // Symmetry-quotient and hybrid-route health: orbits_pruned > 0
        // proves the quotient is engaged; escalations count ILP attempts
        // (not adoptions — a non-optimal ILP answer is discarded).
        metrics.gauge_fn(
            "cfmap_orbits_pruned_total",
            "Candidates skipped as non-representatives of a stabilizer orbit",
            &[],
            || i64::try_from(ORBITS_PRUNED.get()).unwrap_or(i64::MAX),
        );
        metrics.gauge_fn(
            "cfmap_hybrid_escalations_total",
            "Mid-search escalations from enumeration to the ILP route",
            &[],
            || i64::try_from(HYBRID_ESCALATIONS.get()).unwrap_or(i64::MAX),
        );
        // Exact-arithmetic fast-path health: spills should stay at zero
        // for paper-sized problems, and the i64 HNF kernel should carry
        // nearly all decompositions.
        metrics.gauge_fn(
            "cfmap_intlin_bigint_spills_total",
            "Int values promoted from the inline i64 fast path to heap limbs",
            &[],
            || i64::try_from(cfmap_intlin::bigint_spills_total()).unwrap_or(i64::MAX),
        );
        metrics.gauge_fn(
            "cfmap_intlin_hnf_i64_fast_total",
            "Hermite normal forms computed entirely on the i64 kernel",
            &[],
            || i64::try_from(cfmap_intlin::hnf_i64_fast_total()).unwrap_or(i64::MAX),
        );
        metrics.gauge_fn(
            "cfmap_intlin_hnf_i64_fallback_total",
            "Hermite normal forms that overflowed i64 and fell back to bignum",
            &[],
            || i64::try_from(cfmap_intlin::hnf_i64_fallback_total()).unwrap_or(i64::MAX),
        );
        metrics.histogram_static(
            "cfmap_candidate_screen_duration_seconds",
            "Per-candidate screening time in Procedure 5.1",
            &[],
            &cfmap_core::metrics::CANDIDATE_SCREEN_TIME,
        );
        let solve_latency = metrics.histogram(
            "cfmap_solve_duration_seconds",
            "Wall-clock time of each fresh search (cache hits excluded)",
            &[],
            DEFAULT_LATENCY_BUCKETS_US,
        );
        let solves =
            metrics.counter("cfmap_solves_total", "Fresh searches run (cache hits excluded)", &[]);
        let enumerated = metrics.counter(
            "cfmap_search_candidates_total",
            "Schedule candidates generated by Procedure 5.1",
            &[],
        );
        let accepted = metrics.counter(
            "cfmap_search_screened_total",
            "Candidates by screening outcome",
            &[("result", "accepted")],
        );
        let hnf = metrics.counter(
            "cfmap_search_hnf_total",
            "Hermite normal forms computed by engine searches",
            &[],
        );
        let fallback = metrics.counter(
            "cfmap_search_fallback_screened_total",
            "Mixed-radix fallback variants screened during budget degradation",
            &[],
        );
        let deadline_expired = metrics.counter(
            "cfmap_deadline_expired_total",
            "Searches that degraded because their request deadline passed",
            &[],
        );
        // Pareto-frontier observability: dominated-pruned is process-wide
        // (the core search counts it), frontier size tracks the latest
        // fresh solve, and the verify histogram times the per-point
        // simulator re-check that gates caching.
        let pareto_cache = Arc::new(ShardedLruCache::new(cache_capacity, shards));
        metrics.gauge_fn(
            "cfmap_pareto_dominated_pruned_total",
            "Accepted designs discarded as Pareto-dominated or duplicate",
            &[],
            || i64::try_from(PARETO_DOMINATED_PRUNED.get()).unwrap_or(i64::MAX),
        );
        let pareto_frontier_size = Arc::new(std::sync::atomic::AtomicI64::new(0));
        {
            let size = Arc::clone(&pareto_frontier_size);
            metrics.gauge_fn(
                "cfmap_pareto_frontier_size",
                "Points on the most recently solved Pareto frontier",
                &[],
                move || size.load(std::sync::atomic::Ordering::Relaxed),
            );
        }
        let pareto_verify = metrics.histogram(
            "cfmap_pareto_verify_duration_seconds",
            "Per-point simulator re-verification time on fresh frontiers",
            &[],
            DEFAULT_LATENCY_BUCKETS_US,
        );
        let pareto_solves = metrics.counter(
            "cfmap_pareto_solves_total",
            "Fresh Pareto-frontier searches run (cache hits excluded)",
            &[],
        );
        Engine {
            cache,
            pareto_cache,
            pareto_verify,
            pareto_solves,
            pareto_frontier_size,
            family,
            metrics,
            solve_latency,
            solves,
            enumerated,
            accepted,
            hnf,
            fallback,
            deadline_expired,
            cancel: CancelToken::new(),
        }
    }

    /// The engine-wide cancellation token (cloning shares the flag).
    /// Tripping it makes every current and future search on this engine
    /// degrade promptly with [`BudgetLimit::Cancelled`] — the server's
    /// drain watchdog uses it to bound shutdown.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The engine's metrics registry (the daemon's `/metrics` endpoint
    /// renders it; route-level metrics register into it too).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Cache counters, for `/stats`.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Aggregate search-effort counters, for `/stats`.
    pub fn search_stats(&self) -> SearchStats {
        SearchStats {
            solves: self.solves.get(),
            candidates_enumerated: self.enumerated.get(),
            candidates_accepted: self.accepted.get(),
            hnf_computations: self.hnf.get(),
            fallback_screened: self.fallback.get(),
        }
    }

    /// Drop all cached designs; returns how many were resident.
    pub fn clear_cache(&self) -> u64 {
        self.cache.clear()
    }

    /// Family-catalogue counters, for `/family` and `/stats`.
    pub fn family_stats(&self) -> FamilyStats {
        self.family.stats()
    }

    /// Every certificate the catalogue holds, for `/family`.
    pub fn family_certificates(&self) -> Vec<cfmap_core::FamilyCertificate> {
        self.family.certificates()
    }

    /// Run one background fitting step: pick a family with enough
    /// observed sizes, try to promote it to a certificate, and count the
    /// outcome under `cfmapd_family_fit_total{outcome}`. Returns whether
    /// a fit was attempted (`false` = nothing ready; the caller sleeps).
    pub fn family_fit_step(&self) -> bool {
        match self.family.fit_step() {
            None => false,
            Some(result) => {
                let outcome = match &result {
                    Ok(_) => "certified",
                    Err(e) => e.outcome_label(),
                };
                self.metrics
                    .counter(
                        "cfmapd_family_fit_total",
                        "Family fit attempts by outcome",
                        &[("outcome", outcome)],
                    )
                    .inc();
                true
            }
        }
    }

    /// The engine's warm-start state — every cached design (oldest
    /// first) plus every family certificate — ready for
    /// [`Snapshot::encode`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { cache: self.cache.export(), families: self.family.certificates() }
    }

    /// Restore a snapshot produced by [`Engine::snapshot`] on a
    /// compatible build (the decoder refuses version / digest / checksum
    /// mismatches with a precise [`CfmapError::SnapshotMismatch`]).
    /// Returns `(cache entries, family certificates)` restored.
    pub fn load_snapshot(&self, text: &str) -> Result<(usize, usize), CfmapError> {
        let snap = Snapshot::decode(text)?;
        let counts = (snap.cache.len(), snap.families.len());
        for (key, outcome) in snap.cache {
            self.cache.insert(key, outcome);
        }
        for cert in snap.families {
            self.family.install(cert);
        }
        Ok(counts)
    }

    /// Fold one search's telemetry into the registry.
    fn record_search(&self, tel: &SearchTelemetry, elapsed: Duration) {
        self.solves.inc();
        self.solve_latency.observe(elapsed);
        self.enumerated.add(tel.enumerated);
        self.accepted.add(tel.accepted);
        self.hnf.add(tel.hnf_computations);
        self.fallback.add(tel.fallback_screened);
        for (label, n) in [
            ("rejected_schedule", tel.rejected_schedule),
            ("rejected_prefilter", tel.rejected_prefilter),
            ("rejected_rank", tel.rejected_rank),
            ("rejected_conflict", tel.rejected_conflict),
            ("rejected_unroutable", tel.rejected_unroutable),
        ] {
            if n > 0 {
                self.metrics
                    .counter(
                        "cfmap_search_screened_total",
                        "Candidates by screening outcome",
                        &[("result", label)],
                    )
                    .add(n);
            }
        }
        for (rule, n) in tel.condition_hits.entries() {
            if n > 0 {
                self.metrics
                    .counter(
                        "cfmap_search_condition_hits_total",
                        "Conflict-freedom dispatches by rule",
                        &[("rule", rule)],
                    )
                    .add(n);
            }
        }
        if let Some(limit) = tel.budget_limit {
            if limit == BudgetLimit::Deadline {
                self.deadline_expired.inc();
            }
            let label = match limit {
                BudgetLimit::Candidates => "candidates",
                BudgetLimit::Nodes => "nodes",
                BudgetLimit::WallClock => "wall_clock",
                BudgetLimit::Deadline => "deadline",
                BudgetLimit::Cancelled => "cancelled",
            };
            self.metrics
                .counter(
                    "cfmap_search_budget_tripped_total",
                    "Searches ended early by a budget limit",
                    &[("limit", label)],
                )
                .inc();
        }
    }

    /// Resolve one request, anchoring any `deadline_ms` at the call.
    pub fn resolve(&self, req: &MapRequest) -> MapResponse {
        self.resolve_anchored(req, clock::now_micros())
    }

    /// The canonical form of a request's problem — the identity the
    /// design cache keys on. Exposed (as a free function below) so a
    /// routing tier can place equivalent problems on the same backend
    /// without running the search; permuted-but-equivalent requests
    /// canonicalize identically, so they route identically too.
    pub fn canonical_problem(req: &MapRequest) -> Result<CanonicalProblem, String> {
        canonical_problem(req)
    }

    /// Resolve one request with its `deadline_ms` anchored at
    /// `anchor_us` on the budget clock — the server passes the
    /// connection-accept time, so queueing delay counts against the
    /// deadline.
    pub fn resolve_anchored(&self, req: &MapRequest, anchor_us: u64) -> MapResponse {
        let (alg, space) = match build_problem(req) {
            Ok(p) => p,
            Err(msg) => return MapResponse::BadRequest { msg },
        };
        let canon = canonicalize(&alg, &space);
        match self.lookup_or_solve(&canon, req, request_deadline(req, anchor_us)) {
            Ok((outcome, cached)) => respond(&outcome, &canon, cached),
            Err(e) => MapResponse::Error(e),
        }
    }

    /// Resolve a batch, solving each distinct canonical problem once.
    /// Returns the per-request responses (in request order) and the
    /// number of searches actually run.
    pub fn resolve_batch(&self, reqs: &[MapRequest]) -> (Vec<MapResponse>, u64) {
        self.resolve_batch_anchored(reqs, clock::now_micros())
    }

    /// [`Engine::resolve_batch`] with every member's `deadline_ms`
    /// anchored at `anchor_us` (the batch's accept time).
    pub fn resolve_batch_anchored(
        &self,
        reqs: &[MapRequest],
        anchor_us: u64,
    ) -> (Vec<MapResponse>, u64) {
        let mut responses: Vec<Option<MapResponse>> = vec![None; reqs.len()];
        // Group cacheable, well-formed requests by cache key.
        let mut groups: HashMap<CacheKey, Vec<(usize, Canonicalization)>> = HashMap::new();
        for (i, req) in reqs.iter().enumerate() {
            match build_problem(req) {
                Err(msg) => responses[i] = Some(MapResponse::BadRequest { msg }),
                Ok((alg, space)) => {
                    let canon = canonicalize(&alg, &space);
                    if req.timeout_ms.is_some() || req.deadline_ms.is_some() {
                        // Time budget: solve fresh, never share.
                        let d = request_deadline(req, anchor_us);
                        responses[i] = Some(match self.lookup_or_solve(&canon, req, d) {
                            Ok((outcome, cached)) => respond(&outcome, &canon, cached),
                            Err(e) => MapResponse::Error(e),
                        });
                    } else {
                        let key = CacheKey {
                            problem: canon.problem.clone(),
                            cap: req.cap,
                            max_candidates: req.max_candidates,
                        };
                        groups.entry(key).or_default().push((i, canon));
                    }
                }
            }
        }
        let mut solves = 0u64;
        for (_, members) in groups {
            let (first_idx, _) = members[0];
            let canon0 = &members[0].1;
            let solved = self.lookup_or_solve(canon0, &reqs[first_idx], None);
            match solved {
                Ok((outcome, cached)) => {
                    if !cached {
                        solves += 1;
                    }
                    for (slot, (i, canon)) in members.iter().enumerate() {
                        // Members past the first share the group's answer.
                        let shared = cached || slot > 0;
                        responses[*i] = Some(respond(&outcome, canon, shared));
                    }
                }
                Err(e) => {
                    solves += 1;
                    for (i, _) in &members {
                        responses[*i] = Some(MapResponse::Error(e.clone()));
                    }
                }
            }
        }
        let out: Vec<MapResponse> = responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect();
        (out, solves)
    }

    /// Resolve a Pareto-frontier request: the exact non-dominated set
    /// over time × processors × wires (× peak bandwidth when tracked).
    ///
    /// Fixed-space requests are solved in canonical coordinates so the
    /// cached frontier serves every axis-permuted equivalent, mirroring
    /// the design cache. Fresh frontiers are re-verified point by point
    /// on the cycle-level simulator (conflict-free, within the
    /// bandwidth budget) before they are cached or served; a point that
    /// fails is an engine bug surfaced as [`CfmapError::Internal`], not
    /// a silently wrong answer.
    pub fn pareto(&self, req: &ParetoRequest) -> ParetoResponse {
        let (alg, space, schedule) = match build_pareto_problem(req) {
            Ok(p) => p,
            Err(msg) => return ParetoResponse::BadRequest { msg },
        };
        let knobs = ParetoKnobs {
            cap: req.cap,
            entry_bound: req.entry_bound,
            include_bandwidth: req.include_bandwidth,
            max_processors: req.max_processors,
            max_wires: req.max_wires,
            max_bandwidth: req.max_bandwidth,
        };
        let canon = space.as_ref().map(|s| canonicalize(&alg, s));
        let key = match &canon {
            Some(c) => ParetoCacheKey::Canonical { problem: c.problem.clone(), knobs },
            None => ParetoCacheKey::Exact {
                mu: alg.index_set.mu().to_vec(),
                deps: alg.deps.columns_i64(),
                schedule: schedule.as_ref().map(|pi| pi.as_slice().to_vec()),
                knobs,
            },
        };
        if let Some(hit) = self.pareto_cache.get(&key) {
            return respond_pareto(&hit, canon.as_ref(), req.space.as_deref(), true);
        }
        // Fixed-space scope solves the canonical problem; the other
        // scopes solve the request verbatim.
        let (solve_alg, solve_space) = match &canon {
            Some(c) => (c.problem.uda("canonical"), Some(c.problem.space_map())),
            None => (alg, None),
        };
        let model = ResourceModel {
            max_processors: req
                .max_processors
                .map(|p| usize::try_from(p).unwrap_or(usize::MAX)),
            max_wires: req.max_wires,
            max_bandwidth: req.max_bandwidth,
            include_bandwidth: req.include_bandwidth,
        };
        let probe = |m: &MappingMatrix| peak_link_load(&solve_alg, m);
        // Quotienting is bit-identical: the frontier keeps the
        // lex-greatest witness per vector, always an orbit representative.
        let mut search = ParetoSearch::new(&solve_alg)
            .resources(model.clone())
            .symmetry(SymmetryMode::Quotient);
        if let Some(s) = &solve_space {
            search = search.fixed_space(s);
        }
        if let Some(pi) = &schedule {
            search = search.fixed_schedule(pi);
        }
        if let Some(cap) = req.cap {
            search = search.max_objective(cap);
        }
        if let Some(b) = req.entry_bound {
            search = search.entry_bound(b);
        }
        if model.tracks_bandwidth() {
            search = search.bandwidth_probe(&probe);
        }
        let frontier = match search.solve() {
            Ok(f) => f,
            Err(e) => return ParetoResponse::Error(e),
        };
        self.pareto_solves.inc();
        for p in &frontier.points {
            match self.verify_pareto_point(&solve_alg, p, &model) {
                Ok(true) => {}
                Ok(false) => {
                    return ParetoResponse::Error(CfmapError::Internal {
                        context: "pareto frontier verification".into(),
                    })
                }
                Err(e) => return ParetoResponse::Error(e),
            }
        }
        let points: Vec<ParetoPointWire> = frontier
            .points
            .iter()
            .map(|p| ParetoPointWire {
                space: p.space_rows(),
                schedule: p.schedule.as_slice().to_vec(),
                total_time: p.total_time,
                processors: p.processors as u64,
                wires: p.wires,
                bandwidth: p.bandwidth,
            })
            .collect();
        let cached = CachedFrontier {
            points,
            dominated_pruned: frontier.dominated_pruned,
            candidates_examined: frontier.candidates_examined,
        };
        self.pareto_frontier_size.store(
            i64::try_from(cached.points.len()).unwrap_or(i64::MAX),
            std::sync::atomic::Ordering::Relaxed,
        );
        self.pareto_cache.insert(key, cached.clone());
        respond_pareto(&cached, canon.as_ref(), req.space.as_deref(), false)
    }

    /// Independent re-verification of one fresh frontier point: the
    /// simulated array runs its computations conflict-free in exactly
    /// its `total_time` cycles, and with bandwidth tracked its peak link
    /// load reproduces its `bandwidth` within the model's budget.
    /// `Ok(false)` means the point must not be served.
    fn verify_pareto_point(
        &self,
        alg: &Uda,
        point: &ParetoPoint,
        model: &ResourceModel,
    ) -> Result<bool, CfmapError> {
        let started = Instant::now();
        let report = Simulator::new(alg, &point.mapping).run();
        self.pareto_verify.observe(started.elapsed());
        let report = report?;
        let placed = report.conflicts.is_empty() && report.makespan() == point.total_time;
        let bandwidth_ok = !model.tracks_bandwidth()
            || (peak_link_load(alg, &point.mapping) == point.bandwidth
                && model.max_bandwidth.is_none_or(|b| point.bandwidth.is_some_and(|x| x <= b)));
        Ok(placed && bandwidth_ok)
    }

    /// Cache lookup falling back to a fresh search. Returns the outcome
    /// and whether it came from the cache.
    fn lookup_or_solve(
        &self,
        canon: &Canonicalization,
        req: &MapRequest,
        deadline: Option<Deadline>,
    ) -> Result<(CachedOutcome, bool), CfmapError> {
        // Both time budgets are machine/load-dependent: never read from
        // or write into the cache under one.
        let cacheable = req.timeout_ms.is_none() && deadline.is_none();
        // Only knob-free requests ask for *the* optimum of the canonical
        // problem — the thing a family certificate certifies — so only
        // they may read from or feed the family catalogue.
        let plain = cacheable && req.cap.is_none() && req.max_candidates.is_none();
        let key = CacheKey {
            problem: canon.problem.clone(),
            cap: req.cap,
            max_candidates: req.max_candidates,
        };
        if cacheable {
            if let Some(hit) = self.cache.get(&key) {
                return Ok((hit, true));
            }
            if plain {
                if let Some(outcome) = self.family_hit(&canon.problem) {
                    self.cache.insert(key, outcome.clone());
                    return Ok((outcome, true));
                }
            }
        }
        let started = Instant::now();
        let (outcome, telemetry, route) =
            solve_canonical(&canon.problem, req, deadline, &self.cancel)?;
        self.record_search(&telemetry, started.elapsed());
        // A search wound down by engine-wide cancellation (drain) is not
        // the request's true answer — never cache it.
        if cacheable && telemetry.budget_limit != Some(BudgetLimit::Cancelled) {
            self.cache.insert(key, outcome.clone());
            // Only solver-proven optima of knob-free requests may become
            // family observations: a best-effort or infeasible outcome
            // (or anything solved under a budget) can never help mint a
            // certificate. ILP-escalated optima are likewise excluded:
            // the ILP route proves the objective but makes no LexMax
            // tie-break promise, and family templates must lie on the
            // enumerator's canonical representatives.
            if plain && route == SolveRoute::Enumeration {
                if let CachedOutcome::Design {
                    schedule,
                    objective,
                    certification: Certification::Optimal,
                    ..
                } = &outcome
                {
                    self.family.observe(&canon.problem, schedule.clone(), *objective);
                }
            }
        }
        Ok((outcome, false))
    }

    /// Answer a canonical problem from a family certificate: fill μ into
    /// the affine template, re-check validity / rank / conflict-freedom
    /// exactly for this size (done inside [`FamilyStore::lookup`]), and
    /// count the processors from `S` and `μ`. Zero candidates are
    /// enumerated and no work grows with `|J|`; the answer is certified
    /// [`Certification::Optimal`] because the certificate proves the
    /// template optimal for every size it covers.
    fn family_hit(&self, problem: &CanonicalProblem) -> Option<CachedOutcome> {
        let design = self.family.lookup(problem)?;
        Some(CachedOutcome::Design {
            schedule: design.schedule,
            objective: design.objective,
            total_time: design.total_time,
            certification: Certification::Optimal,
            candidates_examined: 0,
            processors: count_processors(&problem.mu, &problem.space)?,
            array_dims: problem.space.len() as u64,
        })
    }
}

/// The absolute deadline of a request, anchored at `anchor_us`.
fn request_deadline(req: &MapRequest, anchor_us: u64) -> Option<Deadline> {
    req.deadline_ms
        .map(|ms| Deadline::at_micros(anchor_us.saturating_add(ms.saturating_mul(1_000))))
}

/// Run Procedure 5.1 on the canonical problem.
fn solve_canonical(
    problem: &CanonicalProblem,
    req: &MapRequest,
    deadline: Option<Deadline>,
    cancel: &CancelToken,
) -> Result<(CachedOutcome, SearchTelemetry, SolveRoute), CfmapError> {
    let alg = problem.uda("canonical");
    let space = problem.space_map();
    let mut budget = SearchBudget::unlimited();
    if let Some(n) = req.max_candidates {
        budget = budget.with_candidates(n);
    }
    if let Some(ms) = req.timeout_ms {
        budget = budget.with_wall_clock(Duration::from_millis(ms));
    }
    if let Some(d) = deadline {
        budget = budget.with_deadline(d);
    }
    // LexMax picks the lex-greatest accepted schedule of the winning
    // objective level — a μ-stable canonical representative, so the sizes
    // a family accumulates lie on one affine-in-μ template (FirstFound's
    // winner can flip between enumeration-order neighbours as μ grows).
    // Under that pin the symmetry quotient is bit-identical to full
    // enumeration, and a hybrid ILP answer is tagged
    // `SolveRoute::HybridIlp`, so it never feeds the family fitter.
    let mut proc = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .symmetry(SymmetryMode::Quotient)
        .hybrid(HybridPolicy::default())
        .budget(budget)
        .cancel_token(cancel);
    if let Some(cap) = req.cap {
        proc = proc.max_objective(cap);
    }
    let outcome = proc.solve()?;
    let certification = outcome.certification;
    let candidates_examined = outcome.candidates_examined;
    let telemetry = outcome.telemetry.clone();
    let route = outcome.route;
    match outcome.into_mapping() {
        None => Ok((CachedOutcome::Infeasible { candidates_examined }, telemetry, route)),
        Some(opt) => {
            // `build_problem` bounds the count's bitset, so only a count
            // past u64 is left to refuse.
            let processors = count_processors(&problem.mu, &problem.space).ok_or_else(|| {
                CfmapError::Overflow { context: "processor count |S·J| does not fit u64".into() }
            })?;
            let design = CachedOutcome::Design {
                schedule: opt.schedule.as_slice().to_vec(),
                objective: opt.objective,
                total_time: opt.total_time,
                certification,
                candidates_examined,
                processors,
                array_dims: problem.space.len() as u64,
            };
            Ok((design, telemetry, route))
        }
    }
}

/// Build the wire response, translating the canonical-coordinates
/// schedule back into the caller's axis order.
fn respond(outcome: &CachedOutcome, canon: &Canonicalization, cached: bool) -> MapResponse {
    match outcome {
        CachedOutcome::Infeasible { candidates_examined } => {
            MapResponse::Infeasible { candidates_examined: *candidates_examined }
        }
        CachedOutcome::Design {
            schedule,
            objective,
            total_time,
            certification,
            candidates_examined,
            processors,
            array_dims,
        } => MapResponse::Ok(MapOutcome {
            schedule: canon.schedule_to_original(schedule),
            objective: *objective,
            total_time: *total_time,
            certification: *certification,
            candidates_examined: *candidates_examined,
            cached,
            processors: *processors,
            array_dims: *array_dims,
        }),
    }
}

/// The affinity identity of a Pareto request, for the routing tier.
/// Fixed-space requests canonicalize exactly the way the engine's
/// frontier cache keys them, so permuted-but-equivalent requests land
/// on the same backend; the other scopes return `Ok(None)` and the
/// router falls back to hashing the raw body (identical requests still
/// co-locate). Malformed requests are rejected with the message a
/// backend would produce.
pub fn pareto_affinity_problem(
    req: &ParetoRequest,
) -> Result<Option<CanonicalProblem>, String> {
    let (alg, space, _schedule) = build_pareto_problem(req)?;
    Ok(space.as_ref().map(|s| canonicalize(&alg, s).problem))
}

/// Build the wire response for a frontier, translating each point back
/// into the caller's axis order when the cache entry is canonical (the
/// point order is preserved: every objective axis is invariant under
/// the canonicalizing permutation, so ascending-vector order is too).
fn respond_pareto(
    cached: &CachedFrontier,
    canon: Option<&Canonicalization>,
    original_space: Option<&[Vec<i64>]>,
    from_cache: bool,
) -> ParetoResponse {
    let points: Vec<ParetoPointWire> = cached
        .points
        .iter()
        .map(|p| {
            let mut q = p.clone();
            if let Some(c) = canon {
                q.schedule = c.schedule_to_original(&p.schedule);
                if let Some(rows) = original_space {
                    q.space = rows.to_vec();
                }
            }
            q
        })
        .collect();
    ParetoResponse::Ok(ParetoOutcome {
        frontier_size: points.len() as u64,
        points,
        dominated_pruned: cached.dominated_pruned,
        candidates_examined: cached.candidates_examined,
        cached: from_cache,
        verified: true,
    })
}

/// Largest magnitude accepted for any `mu`/`deps`/`space` entry. Real
/// mapping problems use entries a few orders of magnitude above 1; the
/// bound keeps extreme wire values (up to `i64::MIN`, which cannot even
/// be negated) out of the canonicalizer and solver arithmetic.
const MAX_ABS_ENTRY: i64 = 1 << 40;

/// Largest problem dimensionality accepted over the wire. Every stage
/// downstream — tie-group canonicalization, the schedule search, the
/// budget-degrade fallback, exact conflict screening — is exponential in
/// `n`, so unbounded wire-supplied dimensions are a denial-of-service
/// lever, not a capability. The paper's workloads top out at `n = 5`.
const MAX_DIMS: usize = 8;

/// Largest `/pareto` space-row box `(2·entry_bound + 1)ⁿ` accepted over
/// the wire. The joint and fixed-schedule scopes build every row of that
/// box before screening one, so an unbounded `entry_bound` ends in an
/// allocation failure that aborts the process. The bound still admits
/// the default entry bound 2 at `MAX_DIMS` (5⁸ = 390,625 rows).
const MAX_PARETO_ROW_BOX: u64 = 1 << 20;

fn check_magnitude(entries: &[i64], what: &str) -> Result<(), String> {
    match entries.iter().find(|v| v.unsigned_abs() > MAX_ABS_ENTRY as u64) {
        Some(v) => Err(format!("{what} entry {v} exceeds the magnitude bound 2^40")),
        None => Ok(()),
    }
}

/// Validate a request and reduce it to its [`CanonicalProblem`] without
/// solving anything. This is the routing-tier entry point: the router
/// canonicalizes exactly the way the engine's cache does, so the
/// consistent-hash key it computes agrees with every backend's cache
/// key, and malformed requests are rejected with the same message a
/// backend would produce (no backend round-trip needed).
pub fn canonical_problem(req: &MapRequest) -> Result<CanonicalProblem, String> {
    build_problem(req).map(|(alg, space)| canonicalize(&alg, &space).problem)
}

/// Materialize `(J, D, S)` from a request, or explain why it is
/// malformed (wire analogue of the CLI's usage errors).
fn build_problem(req: &MapRequest) -> Result<(Uda, SpaceMap), String> {
    let alg = build_algorithm(req.algorithm.as_deref(), &req.mu, req.deps.as_deref())?;
    let space = build_space(&alg, &req.space)?;
    // Every answer carries `|S·J|`; refuse up front what the count could
    // only get by a bitset past the bound (or a walk of `J`).
    if let Some(span) = processor_span(alg.index_set.mu(), &req.space) {
        if span > u128::from(MAX_PROCESSOR_SPAN) {
            return Err(format!(
                "\"space\" maps J into a box of {span} points, more than the processor-span \
                 bound 2^{}",
                MAX_PROCESSOR_SPAN.ilog2()
            ));
        }
    }
    Ok((alg, space))
}

/// Materialize the algorithm half of a request — named workload or
/// structural `(μ, D)` — with the wire-level magnitude and dimension
/// guards. Shared by the `/map` and `/pareto` builders.
fn build_algorithm(
    algorithm: Option<&str>,
    mu: &[i64],
    deps: Option<&[Vec<i64>]>,
) -> Result<Uda, String> {
    check_magnitude(mu, "\"mu\"")?;
    for col in deps.iter().copied().flatten() {
        check_magnitude(col, "\"deps\"")?;
    }
    match algorithm {
        Some(name) => {
            if deps.is_some() {
                return Err("give either \"algorithm\" or \"deps\", not both".into());
            }
            if mu.len() != 1 {
                return Err("named workloads take a single size: \"mu\": [n]".into());
            }
            let mu = mu[0];
            if mu < 1 {
                return Err("\"mu\" must be ≥ 1".into());
            }
            named_algorithm(name, mu)
        }
        None => {
            let n = mu.len();
            if n == 0 {
                return Err("\"mu\" must not be empty".into());
            }
            if n > MAX_DIMS {
                return Err(format!("problems beyond n = {MAX_DIMS} axes are not served (got {n})"));
            }
            if mu.iter().any(|&m| m < 1) {
                return Err("every \"mu\" entry must be ≥ 1".into());
            }
            let deps =
                deps.ok_or("structural requests need \"deps\" (or name an \"algorithm\")")?;
            if deps.is_empty() {
                return Err("\"deps\" must contain at least one column".into());
            }
            for (i, col) in deps.iter().enumerate() {
                if col.len() != n {
                    return Err(format!(
                        "deps column {i} has {} entries, \"mu\" has n = {n}",
                        col.len()
                    ));
                }
            }
            let refs: Vec<&[i64]> = deps.iter().map(Vec::as_slice).collect();
            Ok(Uda::new("request", IndexSet::new(mu), DependenceMatrix::from_columns(&refs)))
        }
    }
}

/// Validate wire-supplied space rows against `alg` and build the map.
fn build_space(alg: &Uda, rows: &[Vec<i64>]) -> Result<SpaceMap, String> {
    for row in rows {
        check_magnitude(row, "\"space\"")?;
    }
    let n = alg.dim();
    if rows.is_empty() {
        return Err("\"space\" must contain at least one row".into());
    }
    if rows.len() >= n {
        return Err(format!(
            "\"space\" has {} rows; a (k−1)-dimensional array needs fewer than n = {n}",
            rows.len()
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        if row.len() != n {
            return Err(format!(
                "space row {i} has {} entries, the algorithm has n = {n}",
                row.len()
            ));
        }
        if row.iter().all(|&v| v == 0) {
            return Err(format!("space row {i} is all zeros"));
        }
    }
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    Ok(SpaceMap::from_rows(&refs))
}

/// Materialize a Pareto request's problem: the algorithm plus at most
/// one pinned side. Scope falls out of what is pinned — `space` →
/// frontier over schedules, `schedule` → frontier over 1-row space
/// maps, neither → joint.
fn build_pareto_problem(
    req: &ParetoRequest,
) -> Result<(Uda, Option<SpaceMap>, Option<LinearSchedule>), String> {
    if req.space.is_some() && req.schedule.is_some() {
        return Err("pin at most one of \"space\" and \"schedule\"".into());
    }
    if req.entry_bound.is_some_and(|b| b < 1) {
        return Err("\"entry_bound\" must be ≥ 1".into());
    }
    if req.cap.is_some_and(|c| c < 1) {
        return Err("\"cap\" must be ≥ 1".into());
    }
    let alg = build_algorithm(req.algorithm.as_deref(), &req.mu, req.deps.as_deref())?;
    if let Some(b) = req.entry_bound {
        let n = alg.dim();
        let row_box = u64::try_from(b)
            .ok()
            .and_then(|b| b.checked_mul(2)?.checked_add(1)?.checked_pow(u32::try_from(n).ok()?));
        if row_box.is_none_or(|rows| rows > MAX_PARETO_ROW_BOX) {
            return Err(format!(
                "\"entry_bound\" {b} spans (2·{b} + 1)^{n} space rows, more than 2^20"
            ));
        }
    }
    let space = req.space.as_ref().map(|rows| build_space(&alg, rows)).transpose()?;
    let schedule = match &req.schedule {
        None => None,
        Some(pi) => {
            check_magnitude(pi, "\"schedule\"")?;
            if pi.len() != alg.dim() {
                return Err(format!(
                    "\"schedule\" has {} entries, the algorithm has n = {}",
                    pi.len(),
                    alg.dim()
                ));
            }
            Some(LinearSchedule::new(pi))
        }
    };
    Ok((alg, space, schedule))
}

/// The named-workload table (kept in lockstep with the `cfmap` CLI).
fn named_algorithm(name: &str, mu: i64) -> Result<Uda, String> {
    Ok(match name {
        "matmul" => algorithms::matmul(mu),
        "transitive-closure" | "tc" => algorithms::transitive_closure(mu),
        "convolution" | "conv" => algorithms::convolution(mu, (mu / 2).max(1)),
        "lu" => algorithms::lu_decomposition(mu),
        "sor" => algorithms::sor(mu, mu),
        "matvec" => algorithms::matvec(mu, mu),
        "identity4" => algorithms::identity_cube(4, mu),
        "bitlevel-matmul" => algorithms::bitlevel_matmul(mu, mu + 1),
        "bitlevel-convolution" => algorithms::bitlevel_convolution(mu, mu + 1),
        "bitlevel-lu" => algorithms::bitlevel_lu(mu, mu + 1),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_request() -> MapRequest {
        MapRequest::named("matmul", 4, vec![vec![1, 1, -1]])
    }

    #[test]
    fn solves_matmul_and_caches_it() {
        let engine = Engine::new(64, 4);
        let first = engine.resolve(&matmul_request());
        let MapResponse::Ok(a) = &first else { panic!("expected ok, got {first:?}") };
        assert_eq!(a.total_time, 25);
        assert_eq!(a.objective, 24);
        assert!(!a.cached);
        assert_eq!(a.certification, Certification::Optimal);
        let second = engine.resolve(&matmul_request());
        let MapResponse::Ok(b) = &second else { panic!("expected ok") };
        assert!(b.cached);
        assert_eq!(a.schedule, b.schedule);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn permuted_request_hits_the_same_entry() {
        let engine = Engine::new(64, 4);
        let base = engine.resolve(&matmul_request());
        let MapResponse::Ok(a) = &base else { panic!("expected ok") };
        // matmul with axes relabeled by σ = [2, 0, 1], stated structurally.
        let alg = algorithms::matmul(4).permuted_axes(&[2, 0, 1]);
        let permuted = MapRequest {
            algorithm: None,
            mu: alg.index_set.mu().to_vec(),
            deps: Some(alg.deps.columns_i64()),
            space: vec![vec![-1, 1, 1]],
            cap: None,
            max_candidates: None,
            timeout_ms: None,
            deadline_ms: None,
        };
        let resp = engine.resolve(&permuted);
        let MapResponse::Ok(b) = &resp else { panic!("expected ok, got {resp:?}") };
        assert!(b.cached, "permuted variant should hit the canonical entry");
        assert_eq!(b.total_time, a.total_time);
        assert_eq!(b.processors, a.processors);
        // Same Π modulo the permutation: entry c of the permuted answer
        // is entry σ(c) of the base answer.
        let expected: Vec<i64> = [2usize, 0, 1].iter().map(|&p| a.schedule[p]).collect();
        assert_eq!(b.schedule, expected);
    }

    #[test]
    fn timeout_requests_bypass_the_cache() {
        let engine = Engine::new(64, 4);
        let mut req = matmul_request();
        req.timeout_ms = Some(10_000);
        let first = engine.resolve(&req);
        assert!(matches!(first, MapResponse::Ok(_)));
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 0, "wall-clock budgets must not be cached");
        let second = engine.resolve(&req);
        let MapResponse::Ok(o) = second else { panic!("expected ok") };
        assert!(!o.cached);
    }

    #[test]
    fn budgeted_request_is_best_effort_and_keyed_separately() {
        let engine = Engine::new(64, 4);
        let mut budgeted = matmul_request();
        budgeted.max_candidates = Some(2);
        let resp = engine.resolve(&budgeted);
        let MapResponse::Ok(o) = &resp else { panic!("expected best-effort ok, got {resp:?}") };
        assert!(matches!(o.certification, Certification::BestEffort { .. }));
        // The unlimited request must not reuse the truncated answer.
        let full = engine.resolve(&matmul_request());
        let MapResponse::Ok(f) = &full else { panic!("expected ok") };
        assert!(!f.cached);
        assert_eq!(f.certification, Certification::Optimal);
    }

    #[test]
    fn malformed_requests_are_bad_requests() {
        let engine = Engine::new(8, 1);
        let cases = vec![
            MapRequest { mu: vec![], ..matmul_request() },
            MapRequest { algorithm: Some("nope".into()), ..matmul_request() },
            MapRequest { space: vec![], ..matmul_request() },
            MapRequest { space: vec![vec![1, 1]], ..matmul_request() },
            MapRequest { space: vec![vec![0, 0, 0]], ..matmul_request() },
            // Magnitude bound: i64::MIN in a space row once reached the
            // canonicalizer, whose sign-normalization cannot negate it.
            MapRequest { space: vec![vec![1, 1, i64::MIN]], ..matmul_request() },
            MapRequest { mu: vec![i64::MAX], ..matmul_request() },
            MapRequest {
                algorithm: None,
                mu: vec![4, 4, 4],
                deps: Some(vec![vec![1, 0, (1 << 40) + 1]]),
                space: vec![vec![1, 1, -1]],
                cap: None,
                max_candidates: None,
                timeout_ms: None,
                deadline_ms: None,
            },
            // Dimension bound: every solver stage is exponential in n.
            MapRequest {
                algorithm: None,
                mu: vec![2; 25],
                deps: Some(vec![std::iter::once(1)
                    .chain(std::iter::repeat(0))
                    .take(25)
                    .collect()]),
                space: vec![std::iter::repeat_n(0, 24)
                    .chain(std::iter::once(1))
                    .collect()],
                cap: None,
                max_candidates: None,
                timeout_ms: None,
                deadline_ms: None,
            },
            MapRequest {
                algorithm: None,
                mu: vec![4, 4, 4],
                deps: None,
                space: vec![vec![1, 1, -1]],
                cap: None,
                max_candidates: None,
                timeout_ms: None,
                deadline_ms: None,
            },
        ];
        for req in cases {
            let resp = engine.resolve(&req);
            assert!(
                matches!(resp, MapResponse::BadRequest { .. }),
                "expected bad_request for {req:?}, got {resp:?}"
            );
        }
    }

    #[test]
    fn expired_deadline_degrades_and_bypasses_the_cache() {
        let engine = Engine::new(64, 4);
        let mut req = matmul_request();
        req.deadline_ms = Some(0); // expired the moment it is anchored
        let resp = engine.resolve(&req);
        let MapResponse::Ok(o) = &resp else { panic!("expected best-effort ok, got {resp:?}") };
        assert!(matches!(o.certification, Certification::BestEffort { .. }));
        assert!(!o.cached);
        assert_eq!(engine.cache_stats().entries, 0, "deadline answers must not be cached");
        let text = engine.metrics().render_prometheus();
        assert!(text.contains("cfmap_deadline_expired_total 1"), "{text}");
        assert!(
            text.contains("cfmap_search_budget_tripped_total{limit=\"deadline\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn cancelled_engine_degrades_and_does_not_cache() {
        let engine = Engine::new(64, 4);
        engine.cancel_token().cancel();
        let resp = engine.resolve(&matmul_request());
        let MapResponse::Ok(o) = &resp else { panic!("expected best-effort ok, got {resp:?}") };
        assert!(matches!(o.certification, Certification::BestEffort { .. }));
        assert_eq!(
            engine.cache_stats().entries,
            0,
            "cancellation-degraded answers must not poison the cache"
        );
    }

    #[test]
    fn search_stats_and_metrics_grow_with_solves() {
        let engine = Engine::new(64, 4);
        assert_eq!(engine.search_stats(), SearchStats::default());
        let exact_before = cfmap_core::metrics::thread_exact_conflict_tests();
        let first = engine.resolve(&matmul_request());
        assert!(matches!(first, MapResponse::Ok(_)));
        let stats = engine.search_stats();
        assert_eq!(stats.solves, 1);
        assert!(stats.candidates_enumerated > 0);
        // LexMax scans the whole winning objective level, so one solve
        // can accept several tie-broken candidates.
        assert!(stats.candidates_accepted >= 1);
        // The box-kernel table screens the solve: no Hermite form and no
        // exact lattice test.
        assert_eq!(stats.hnf_computations, 0);
        assert_eq!(cfmap_core::metrics::thread_exact_conflict_tests(), exact_before);
        // A cache hit is not a solve: no counter may move.
        let _ = engine.resolve(&matmul_request());
        assert_eq!(engine.search_stats(), stats);
        let text = engine.metrics().render_prometheus();
        assert!(text.contains("cfmap_solves_total 1"), "{text}");
        assert!(text.contains("cfmap_search_screened_total{result=\"accepted\"}"), "{text}");
        assert!(text.contains("cfmap_solve_duration_seconds_count 1"), "{text}");
        assert!(text.contains("cfmap_cache_entries 1"), "{text}");
        assert!(text.contains("cfmap_core_hnf_computations_total"), "{text}");
        // Exact-arithmetic fast-path telemetry: the spill gauge is
        // present, and a matmul-sized solve observes screen times.
        assert!(text.contains("cfmap_intlin_bigint_spills_total"), "{text}");
        assert!(text.contains("cfmap_intlin_hnf_i64_fast_total"), "{text}");
        assert!(text.contains("cfmap_intlin_hnf_i64_fallback_total"), "{text}");
        assert!(text.contains("# TYPE cfmap_candidate_screen_duration_seconds histogram"), "{text}");
        assert!(!text.contains("cfmap_candidate_screen_duration_seconds_count 0"), "{text}");
        // Symmetry-quotient / hybrid-route gauges are exported.
        assert!(text.contains("cfmap_orbits_pruned_total"), "{text}");
        assert!(text.contains("cfmap_hybrid_escalations_total"), "{text}");
    }

    #[test]
    fn hybrid_optimal_never_feeds_the_family_catalogue() {
        // Matmul μ = 70 on S = [1, 1, −1] projects past the default
        // 250k-candidate horizon and escalates to the ILP route; the
        // answer is still Optimal (the ILP proves the same objective) but
        // must not become a family observation — the ILP makes no LexMax
        // tie-break promise, and family templates must lie on enumeration
        // representatives.
        let engine = Engine::new(64, 4);
        let escalations = HYBRID_ESCALATIONS.get();
        let resp = engine.resolve(&MapRequest::named("matmul", 70, vec![vec![1, 1, -1]]));
        let MapResponse::Ok(a) = &resp else { panic!("expected ok, got {resp:?}") };
        assert_eq!(a.certification, Certification::Optimal);
        assert_eq!(a.total_time, 70 * 72 + 1, "ILP proves the enumerative optimum");
        assert!(HYBRID_ESCALATIONS.get() > escalations, "μ = 70 must take the ILP route");
        assert_eq!(
            engine.family_stats().observing,
            0,
            "an ILP-escalated optimum must never be observed by the family fitter"
        );
        // μ = 4 stays on the enumeration route and does feed the
        // catalogue — the gate is the route, not the problem.
        assert!(matches!(engine.resolve(&matmul_request()), MapResponse::Ok(_)));
        assert_eq!(engine.family_stats().observing, 1);
    }

    #[test]
    fn quotient_policy_prunes_identity_and_matches_full_search() {
        // identity n=4 has a nontrivial stabilizer (S_3 on the unpinned
        // axes); the engine quotients it, and the answer must match
        // Procedure 5.1's full LexMax enumeration bit for bit.
        let req = MapRequest::named("identity4", 2, vec![vec![1, 0, 0, 0]]);
        let engine = Engine::new(64, 4);
        let before = ORBITS_PRUNED.get();
        let q = engine.resolve(&req);
        let MapResponse::Ok(q) = &q else { panic!("expected ok, got {q:?}") };
        let alg = algorithms::identity_cube(4, 2);
        let space = SpaceMap::row(&[1, 0, 0, 0]);
        let full = Procedure51::new(&alg, &space).tie_break(TieBreak::LexMax).solve().unwrap();
        assert_eq!(full.certification, Certification::Optimal);
        let f = full.mapping.as_ref().expect("identity4 is feasible");
        assert_eq!(q.schedule, f.schedule.as_slice(), "quotient must be bit-identical");
        assert_eq!(q.objective, f.objective);
        assert_eq!(q.certification, Certification::Optimal);
        assert!(
            ORBITS_PRUNED.get() > before,
            "the quotiented engine must skip non-representatives"
        );
        assert!(
            q.candidates_examined < full.candidates_examined,
            "quotient must shrink the examined count: {} vs {}",
            q.candidates_examined,
            full.candidates_examined
        );
    }

    #[test]
    fn batch_solves_each_distinct_problem_once() {
        let engine = Engine::new(64, 4);
        // Three axis-permuted copies of the same matmul problem plus one
        // genuinely different size.
        let alg = algorithms::matmul(4);
        let mut reqs = Vec::new();
        for perm in [[0usize, 1, 2], [1, 2, 0], [2, 0, 1]] {
            let p = alg.permuted_axes(&perm);
            let s: Vec<i64> = perm.iter().map(|&c| [1i64, 1, -1][c]).collect();
            reqs.push(MapRequest {
                algorithm: None,
                mu: p.index_set.mu().to_vec(),
                deps: Some(p.deps.columns_i64()),
                space: vec![s],
                cap: None,
                max_candidates: None,
                timeout_ms: None,
                deadline_ms: None,
            });
        }
        reqs.push(MapRequest::named("matmul", 5, vec![vec![1, 1, -1]]));
        reqs.push(MapRequest { mu: vec![], ..MapRequest::named("matmul", 4, vec![]) });
        let (responses, solves) = engine.resolve_batch(&reqs);
        assert_eq!(responses.len(), 5);
        assert_eq!(solves, 2, "three permuted copies must share one search");
        let times: Vec<i64> = responses[..3]
            .iter()
            .map(|r| match r {
                MapResponse::Ok(o) => o.total_time,
                other => panic!("expected ok, got {other:?}"),
            })
            .collect();
        assert_eq!(times, vec![25, 25, 25]);
        assert!(matches!(responses[4], MapResponse::BadRequest { .. }));
    }

    fn mm(mu: i64) -> MapRequest {
        MapRequest::named("matmul", mu, vec![vec![1, 1, -1]])
    }

    /// Warm the engine on μ ∈ {2, 3, 4} and promote the observations to
    /// a certificate via the fitter entry point the server's background
    /// thread uses.
    fn warm_and_fit(engine: &Engine) {
        for mu in [2, 3, 4] {
            let resp = engine.resolve(&mm(mu));
            assert!(matches!(resp, MapResponse::Ok(_)), "{resp:?}");
        }
        assert_eq!(engine.family_stats().observing, 1);
        assert!(engine.family_fit_step(), "matmul family must be ready to fit");
        assert_eq!(engine.family_stats().certificates, 1);
    }

    #[test]
    fn family_certificate_answers_unseen_sizes_with_zero_search() {
        let engine = Engine::new(64, 4);
        warm_and_fit(&engine);
        assert!(!engine.family_fit_step(), "nothing further to fit");
        // μ = 9 was never solved here: the answer must come from the
        // certificate — zero candidates examined — yet be bit-identical
        // to what a cold engine's full search finds.
        let solves_before = engine.search_stats().solves;
        let resp = engine.resolve(&mm(9));
        let MapResponse::Ok(warm) = &resp else { panic!("expected ok, got {resp:?}") };
        assert!(warm.cached);
        assert_eq!(warm.candidates_examined, 0);
        assert_eq!(warm.certification, Certification::Optimal);
        assert_eq!(engine.search_stats().solves, solves_before, "no search may run");
        assert!(engine.family_stats().hits >= 1);
        let cold_engine = Engine::new(64, 4);
        let MapResponse::Ok(cold) = cold_engine.resolve(&mm(9)) else { panic!("cold solve") };
        assert_eq!(warm.schedule, cold.schedule);
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.total_time, cold.total_time);
        assert_eq!(warm.processors, cold.processors);
        assert_eq!(warm.array_dims, cold.array_dims);
        // The instantiated answer is now an ordinary LRU entry too.
        let MapResponse::Ok(again) = engine.resolve(&mm(9)) else { panic!("expected ok") };
        assert!(again.cached);
        let text = engine.metrics().render_prometheus();
        assert!(text.contains("cfmapd_family_hits_total 1"), "{text}");
        assert!(text.contains("cfmapd_family_fit_total{outcome=\"certified\"} 1"), "{text}");
    }

    #[test]
    fn degraded_runs_never_mint_certificates() {
        let engine = Engine::new(64, 4);
        // Candidate-budgeted (best-effort), wall-clock-budgeted, and
        // deadline-expired runs across three sizes each: none may feed
        // the family catalogue, whatever their certification.
        for mu in [2, 3, 4] {
            let mut budgeted = mm(mu);
            budgeted.max_candidates = Some(2);
            assert!(matches!(engine.resolve(&budgeted), MapResponse::Ok(_)));
            let mut timed = mm(mu);
            timed.timeout_ms = Some(10_000);
            assert!(matches!(engine.resolve(&timed), MapResponse::Ok(_)));
            let mut late = mm(mu);
            late.deadline_ms = Some(0);
            assert!(matches!(engine.resolve(&late), MapResponse::Ok(_)));
        }
        let stats = engine.family_stats();
        assert_eq!(stats.observing, 0, "degraded runs must leave no observations: {stats:?}");
        assert!(!engine.family_fit_step(), "nothing may be fitted from degraded runs");
        assert_eq!(engine.family_stats().certificates, 0);
        // A cancelled engine's answers are equally barred.
        let engine = Engine::new(64, 4);
        engine.cancel_token().cancel();
        for mu in [2, 3, 4] {
            assert!(matches!(engine.resolve(&mm(mu)), MapResponse::Ok(_)));
        }
        assert_eq!(engine.family_stats().observing, 0);
        assert!(!engine.family_fit_step());
    }

    fn pareto_matmul() -> ParetoRequest {
        ParetoRequest {
            space: Some(vec![vec![1, 1, -1]]),
            ..ParetoRequest::named("matmul", 4)
        }
    }

    #[test]
    fn pareto_fixed_space_corner_matches_the_map_route() {
        let engine = Engine::new(64, 4);
        let resp = engine.pareto(&pareto_matmul());
        let ParetoResponse::Ok(o) = &resp else { panic!("expected ok, got {resp:?}") };
        assert!(!o.cached);
        assert!(o.verified);
        assert_eq!(o.frontier_size as usize, o.points.len());
        assert!(!o.points.is_empty());
        // The time corner is the front point, and it is the /map answer.
        let MapResponse::Ok(m) = engine.resolve(&matmul_request()) else { panic!("map ok") };
        assert_eq!(o.points[0].total_time, m.total_time);
        assert_eq!(o.points[0].schedule, m.schedule);
        assert_eq!(o.points[0].space, vec![vec![1, 1, -1]]);
        // Second call hits the frontier cache.
        let ParetoResponse::Ok(again) = engine.pareto(&pareto_matmul()) else { panic!("ok") };
        assert!(again.cached);
        assert_eq!(again.points, o.points);
        let text = engine.metrics().render_prometheus();
        assert!(text.contains("cfmap_pareto_solves_total 1"), "{text}");
        assert!(text.contains("cfmap_pareto_frontier_size"), "{text}");
        assert!(text.contains("cfmap_pareto_dominated_pruned_total"), "{text}");
        assert!(text.contains("cfmap_pareto_verify_duration_seconds_count"), "{text}");
    }

    /// `/pareto` `processors` is the bounding-box site count of the
    /// frontier's cost model, `/map` `processors` the image `|S·J|`: they
    /// differ when the image has gaps. `S = [2, 3]` on a 4 × 4 box spans
    /// 16 sites, of which 14 are reached.
    #[test]
    fn pareto_counts_bounding_box_sites_where_map_counts_the_image() {
        let engine = Engine::new(64, 4);
        let (mu, deps, space) = (vec![3, 3], vec![vec![0, 1]], vec![vec![2, 3]]);
        let map = MapRequest {
            algorithm: None,
            mu: mu.clone(),
            deps: Some(deps.clone()),
            ..MapRequest::named("matmul", 4, space.clone())
        };
        let MapResponse::Ok(m) = engine.resolve(&map) else { panic!("map ok") };
        assert_eq!(m.processors, 14);
        let pareto = ParetoRequest {
            algorithm: None,
            mu,
            deps: Some(deps),
            space: Some(space),
            ..ParetoRequest::named("matmul", 4)
        };
        let ParetoResponse::Ok(p) = engine.pareto(&pareto) else { panic!("pareto ok") };
        assert_eq!(p.points.len(), 1);
        assert_eq!(p.points[0].processors, 16);
    }

    #[test]
    fn pareto_permuted_fixed_space_hits_the_canonical_entry() {
        let engine = Engine::new(64, 4);
        let ParetoResponse::Ok(base) = engine.pareto(&pareto_matmul()) else { panic!("ok") };
        // The same problem with axes relabeled by σ = [2, 0, 1].
        let alg = algorithms::matmul(4).permuted_axes(&[2, 0, 1]);
        let permuted = ParetoRequest {
            algorithm: None,
            mu: alg.index_set.mu().to_vec(),
            deps: Some(alg.deps.columns_i64()),
            space: Some(vec![vec![-1, 1, 1]]),
            ..ParetoRequest::named("matmul", 4)
        };
        let ParetoResponse::Ok(p) = engine.pareto(&permuted) else { panic!("ok") };
        assert!(p.cached, "permuted variant must hit the canonical frontier entry");
        assert_eq!(p.frontier_size, base.frontier_size);
        for (a, b) in base.points.iter().zip(&p.points) {
            assert_eq!(a.total_time, b.total_time);
            assert_eq!(a.processors, b.processors);
            assert_eq!(a.wires, b.wires);
            assert_eq!(b.space, vec![vec![-1, 1, 1]], "requester keeps its own rows");
            let expected: Vec<i64> = [2usize, 0, 1].iter().map(|&c| a.schedule[c]).collect();
            assert_eq!(b.schedule, expected, "Π translated through σ");
        }
    }

    #[test]
    fn pareto_bandwidth_axis_is_probed_and_budgeted() {
        let engine = Engine::new(64, 4);
        let req = ParetoRequest { include_bandwidth: true, ..pareto_matmul() };
        let ParetoResponse::Ok(o) = engine.pareto(&req) else { panic!("ok") };
        assert!(!o.points.is_empty());
        assert!(o.points.iter().all(|p| p.bandwidth.is_some()), "{:?}", o.points);
        // A zero-bandwidth budget on a moving-data design empties the frontier.
        let starved =
            ParetoRequest { max_bandwidth: Some(0), include_bandwidth: true, ..pareto_matmul() };
        let ParetoResponse::Ok(empty) = engine.pareto(&starved) else { panic!("ok") };
        assert!(empty.points.is_empty(), "ok-with-empty-frontier, not an error");
    }

    /// The per-point check refuses a point whose reported time,
    /// bandwidth or mapping no longer matches what the simulator and the
    /// link-load probe observe, and a bandwidth over the budget.
    #[test]
    fn pareto_point_check_refuses_tampered_points() {
        let engine = Engine::new(8, 1);
        let alg = algorithms::matmul(2);
        let probe = |m: &MappingMatrix| peak_link_load(&alg, m);
        let tracked = ResourceModel { include_bandwidth: true, ..Default::default() };
        let frontier = ParetoSearch::new(&alg)
            .max_objective(8)
            .resources(tracked.clone())
            .bandwidth_probe(&probe)
            .solve()
            .expect("matmul μ=2 has a frontier");
        let point = frontier.points[0].clone();
        let bw = point.bandwidth.expect("bandwidth tracked");
        let check = |p: &ParetoPoint, model: &ResourceModel| {
            engine.verify_pareto_point(&alg, p, model).expect("the simulator runs")
        };
        assert!(check(&point, &tracked));
        let late = ParetoPoint { total_time: point.total_time + 1, ..point.clone() };
        assert!(!check(&late, &tracked), "tampered total_time");
        let busier = ParetoPoint { bandwidth: Some(bw + 1), ..point.clone() };
        assert!(!check(&busier, &tracked), "tampered bandwidth");
        let budget = ResourceModel { max_bandwidth: Some(bw - 1), ..tracked.clone() };
        assert!(!check(&point, &budget), "bandwidth over the budget");
        // Same schedule, a space row that also maps γ = [π₂, −π₁, 0] to
        // zero: two computations share a processor and a cycle.
        let pi = point.schedule.as_slice();
        let folded = SpaceMap::row(&[pi[0], pi[1], 0]);
        let clashing = ParetoPoint {
            mapping: MappingMatrix::new(folded, point.schedule.clone()),
            ..point.clone()
        };
        let untracked = ResourceModel::default();
        assert!(check(&point, &untracked));
        assert!(!check(&clashing, &untracked), "tampered mapping");
    }

    #[test]
    fn pareto_malformed_requests_are_bad_requests() {
        let engine = Engine::new(8, 1);
        let cases = vec![
            // Pinning both sides.
            ParetoRequest { schedule: Some(vec![1, 4, 1]), ..pareto_matmul() },
            ParetoRequest { entry_bound: Some(0), ..pareto_matmul() },
            ParetoRequest { cap: Some(0), ..pareto_matmul() },
            ParetoRequest { mu: vec![], ..pareto_matmul() },
            ParetoRequest { algorithm: Some("nope".into()), ..pareto_matmul() },
            ParetoRequest { space: Some(vec![vec![0, 0, 0]]), ..pareto_matmul() },
            // Schedule length must match n.
            ParetoRequest {
                space: None,
                schedule: Some(vec![1, 4]),
                ..ParetoRequest::named("matmul", 4)
            },
            // Joint-scope row boxes past 2^20: 103³, and one whose
            // (2·b + 1)³ overflows u64.
            ParetoRequest { entry_bound: Some(51), ..ParetoRequest::named("matmul", 4) },
            ParetoRequest { entry_bound: Some(i64::MAX), ..ParetoRequest::named("matmul", 4) },
        ];
        for req in cases {
            let resp = engine.pareto(&req);
            assert!(
                matches!(resp, ParetoResponse::BadRequest { .. }),
                "expected bad_request for {req:?}, got {resp:?}"
            );
        }
    }

    #[test]
    fn pareto_entry_bound_admits_row_boxes_up_to_two_to_the_twenty() {
        // Structural requests with identity dependences, n = 3 and n = 8.
        let admitted = |n: usize, b: i64| {
            let req = ParetoRequest {
                algorithm: None,
                mu: vec![2; n],
                deps: Some((0..n).map(|i| (0..n).map(|j| i64::from(i == j)).collect()).collect()),
                entry_bound: Some(b),
                ..ParetoRequest::named("matmul", 1)
            };
            build_pareto_problem(&req).is_ok()
        };
        // n = 3: 101³ = 1,030,301 fits, 103³ does not.
        assert!(admitted(3, 50));
        assert!(!admitted(3, 51));
        // n = MAX_DIMS: the default bound 2 (5⁸) fits, 3 (7⁸) does not.
        assert!(admitted(MAX_DIMS, 2));
        assert!(!admitted(MAX_DIMS, 3));
    }

    #[test]
    fn processor_span_bound_admits_two_to_the_twenty_and_refuses_one_more() {
        // One row with a gap (steps 2 and 3), so the count marks a bitset
        // over 1 + 2·μ₀ + 3·μ₁ points. The lone dependence runs along
        // the short axis, so the search stops at its first level.
        let req = |mu0: i64, mu1: i64| MapRequest {
            algorithm: None,
            mu: vec![mu0, mu1],
            deps: Some(vec![vec![0, 1]]),
            space: vec![vec![2, 3]],
            cap: None,
            max_candidates: None,
            timeout_ms: None,
            deadline_ms: None,
        };
        let engine = Engine::new(8, 1);
        // 1 + 2·524,286 + 3·1 = 2^20 points: served.
        let resp = engine.resolve(&req(524_286, 1));
        let MapResponse::Ok(o) = &resp else { panic!("expected ok, got {resp:?}") };
        // The evens 0…1,048,572 and the odds 3…1,048,575.
        assert_eq!(o.processors, 1_048_574);
        assert_eq!(o.array_dims, 1);
        // 1 + 2·524,285 + 3·2 = 2^20 + 1 points: refused, naming the bound.
        let resp = engine.resolve(&req(524_285, 2));
        let MapResponse::BadRequest { msg } = &resp else { panic!("expected 400, got {resp:?}") };
        assert!(msg.contains("1048577 points") && msg.contains("processor-span bound 2^20"), "{msg}");
        assert_eq!(canonical_problem(&req(524_285, 2)), Err(msg.clone()), "the router refuses it too");
        // A gapless row has no bitset to bound, at any μ.
        let wide = MapRequest { mu: vec![1 << 40, 1 << 40], space: vec![vec![1, -1]], ..req(1, 1) };
        assert!(canonical_problem(&wide).is_ok());
    }

    #[test]
    fn snapshot_restores_cache_and_family_warmth() {
        let engine = Engine::new(64, 4);
        warm_and_fit(&engine);
        let text = engine.snapshot().encode();
        // A fresh engine restored from the snapshot answers a size no
        // process ever solved — from the certificate, with zero search.
        let restored = Engine::new(64, 4);
        let (entries, families) = restored.load_snapshot(&text).expect("snapshot loads");
        assert_eq!((entries, families), (3, 1));
        let MapResponse::Ok(hit) = restored.resolve(&mm(2)) else { panic!("expected ok") };
        assert!(hit.cached, "restored LRU entry must hit");
        let MapResponse::Ok(warm) = restored.resolve(&mm(9)) else { panic!("expected ok") };
        assert!(warm.cached);
        assert_eq!(warm.candidates_examined, 0);
        assert_eq!(restored.search_stats().solves, 0, "no search may run after restore");
        assert!(restored.family_stats().hits >= 1);
        // Corrupted text is refused precisely, not half-loaded.
        let tampered = text.replace("\"objective\":", "\"objectivo\":");
        let fresh = Engine::new(64, 4);
        let err = fresh.load_snapshot(&tampered).unwrap_err();
        assert!(matches!(err, CfmapError::SnapshotMismatch { .. }), "{err:?}");
    }
}
