//! Resource-aware Pareto frontiers over conflict-free mappings.
//!
//! Procedure 5.1 minimizes time alone; Problem 6.1 — the paper's stated
//! future work — minimizes PEs + wires under a fixed schedule. Real
//! array deployments trade those axes off — and per-link bandwidth
//! besides — so this module returns the *full non-dominated set* over
//!
//! > time × processors × wire length (× peak link bandwidth)
//!
//! instead of a single design. Both classic problems fall out as
//! degenerate corners: with a fixed space map the frontier collapses to
//! the minimum-time vector whose witness is exactly Procedure 5.1's
//! `LexMax` winner, and with a fixed schedule the minimum `PEs + wires`
//! corner answers Problem 6.1: *"given a linear schedule, find a space
//! map `S` such that `T = [S; Π]` is conflict-free and the number of
//! processors plus the wire length of the array is minimized"* (see
//! [`ParetoFrontier::time_corner`] / [`ParetoFrontier::space_corner`]
//! and `tests/pareto_props.rs`). With neither side fixed the same two
//! corners answer Problem 6.2, the paper's joint `(S, Π)` question:
//! a design minimizing `(time, PEs + wires)` or `(PEs + wires, time)`
//! cannot be dominated, so it is always a frontier point
//! (`crates/core/tests/space_joint_props.rs` checks Problem 6.1 against
//! a Hermite-route reference and Problem 6.2 against a per-row
//! Procedure 5.1 reference).
//!
//! The screening per candidate is the unified core every search shares:
//! the fixed side of the mapping is tabulated once as a box-kernel table
//! (`crate::box_kernel`), and the rank and exact conflict gates of each
//! candidate are dot products against it — Procedure 5.1's table of `S`
//! in the fixed-space and joint scopes, a table of `Π` in the
//! fixed-schedule scope.
//! The optional bandwidth axis is fed by an *injected probe* — the
//! simulator's per-link load accounting (`cfmap_systolic::peak_link_load`)
//! — so this crate stays independent of the simulator while the service
//! and CLI report exactly what the simulator would measure.
//!
//! **Determinism.** The frontier is a pure function of the problem and
//! the knobs: one witness design is kept per distinct objective vector —
//! the lexicographically greatest `(space rows, schedule)` among all
//! accepted candidates achieving that vector — so the symmetry quotient
//! cannot change the result (`tests/pareto_props.rs` proves it). A
//! [`SearchBudget`] may cut the scan short; a cut frontier is the exact non-dominated set of the candidates screened
//! before the cut, and the quotient is off so that set does not depend
//! on it.

use crate::box_kernel::BoxKernelTable;
use crate::budget::{BudgetMeter, SearchBudget};
use crate::canon::Stabilizer;
use crate::conflict::ConflictAnalysis;
use crate::error::CfmapError;
use crate::mapping::{MappingMatrix, SpaceMap};
use crate::metrics::{ConditionRule, SearchTelemetry};
use crate::search::{weighted_objective, Procedure51, SymmetryMode};
use cfmap_intlin::dominance::non_dominated_indices;
use cfmap_intlin::{IMat, Int, Rat};
use cfmap_model::{LinearSchedule, Uda};
use std::collections::{BTreeMap, BTreeSet};

/// The injected bandwidth evaluator: peak per-link load of a design,
/// or `None` when the design is mesh-unroutable. Production installs
/// `cfmap_systolic::peak_link_load`; tests may install fakes.
pub type BandwidthProbe<'a> = dyn Fn(&MappingMatrix) -> Option<u64> + 'a;

/// Per-array resource budgets and the axes the frontier tracks.
///
/// Budgets are hard feasibility filters: a candidate exceeding any set
/// budget is discarded before dominance is even considered, so a
/// tighter model can only shrink the frontier. `include_bandwidth`
/// adds the bandwidth axis to the objective vector without bounding it
/// (setting `max_bandwidth` implies the axis).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResourceModel {
    /// Upper bound on processor (site) count, if any.
    pub max_processors: Option<usize>,
    /// Upper bound on total wire length `Σᵢ ‖S·d̄ᵢ‖₁`, if any.
    pub max_wires: Option<i64>,
    /// Upper bound on peak per-link bandwidth (data per link per
    /// cycle, all channels aggregated), if any. Requires a bandwidth
    /// probe (see [`ParetoSearch::bandwidth_probe`]).
    pub max_bandwidth: Option<u64>,
    /// Track bandwidth as a fourth objective axis even when unbounded.
    pub include_bandwidth: bool,
}

impl ResourceModel {
    /// No budgets, three objective axes — the permissive default.
    pub fn unconstrained() -> ResourceModel {
        ResourceModel::default()
    }

    /// `true` when the objective vector carries the bandwidth axis.
    pub fn tracks_bandwidth(&self) -> bool {
        self.include_bandwidth || self.max_bandwidth.is_some()
    }

    fn admits_space(&self, processors: usize, wires: i64) -> bool {
        self.max_processors.is_none_or(|b| processors <= b)
            && self.max_wires.is_none_or(|b| wires <= b)
    }

    fn admits_bandwidth(&self, bandwidth: u64) -> bool {
        self.max_bandwidth.is_none_or(|b| bandwidth <= b)
    }
}

/// One non-dominated design.
#[derive(Clone, Debug)]
pub struct ParetoPoint {
    /// The space map `S`.
    pub space: SpaceMap,
    /// The schedule `Π`.
    pub schedule: LinearSchedule,
    /// The full mapping `T = [S; Π]`.
    pub mapping: MappingMatrix,
    /// Makespan `1 + Σ|π_i|μ_i` (Equation 2.7).
    pub total_time: i64,
    /// Processor (site) count of the array: the bounding-box cells
    /// `∏ (1 + Σ|s_i|μ_i)` of the image `S·J`, one factor per row of
    /// `S` — the area a rectangular layout provisions. `/map` reports
    /// `|S·J|` instead, which is smaller when the image has gaps (for
    /// example `S = [2, 3]` on a 4 × 4 box: 16 sites, 14 processors).
    pub processors: usize,
    /// Total wire length `Σᵢ ‖S·d̄ᵢ‖₁`.
    pub wires: i64,
    /// Peak per-link bandwidth; `Some` iff the model tracks it.
    pub bandwidth: Option<u64>,
}

impl ParetoPoint {
    /// The objective vector dominance is decided on (minimization):
    /// `[time, processors, wires]`, plus bandwidth when tracked.
    pub fn objective_vector(&self) -> Vec<Rat> {
        let mut v = vec![
            Rat::from_i64(self.total_time),
            Rat::from_i64(i64::try_from(self.processors).unwrap_or(i64::MAX)),
            Rat::from_i64(self.wires),
        ];
        if let Some(bw) = self.bandwidth {
            v.push(Rat::from_i64(i64::try_from(bw).unwrap_or(i64::MAX)));
        }
        v
    }

    /// The rows of `S` as machine integers.
    pub fn space_rows(&self) -> Vec<Vec<i64>> {
        (0..self.space.array_dims())
            .map(|r| self.space.as_mat().row(r).to_i64s().expect("space entries fit i64"))
            .collect()
    }

    /// Problem 6.1's combined VLSI cost, `processors + wires`.
    pub fn space_cost(&self) -> i64 {
        i64::try_from(self.processors).unwrap_or(i64::MAX).saturating_add(self.wires)
    }

    /// The witness identity: per distinct objective vector the frontier
    /// keeps the accepted candidate maximizing this key.
    fn witness_key(&self) -> (Vec<Vec<i64>>, Vec<i64>) {
        (self.space_rows(), self.schedule.as_slice().to_vec())
    }
}

/// The exact non-dominated set, with effort accounting.
#[derive(Clone, Debug)]
pub struct ParetoFrontier {
    /// Non-dominated points in ascending objective-vector order (time
    /// first), one witness per distinct vector.
    pub points: Vec<ParetoPoint>,
    /// Accepted, budget-admissible designs that did not survive the
    /// dominance filter (dominated vectors plus duplicate witnesses).
    pub dominated_pruned: u64,
    /// Accepted, budget-admissible designs seen in total.
    pub points_seen: u64,
    /// Candidates screened across the whole search.
    pub candidates_examined: u64,
    /// Merged screening telemetry.
    pub telemetry: SearchTelemetry,
}

impl ParetoFrontier {
    /// Number of frontier points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no feasible design exists under the model.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The time-first corner: the point minimizing `(time, processors +
    /// wires)`, ties resolved to the lex-greatest `(space rows, schedule)`
    /// witness. On a joint frontier this answers Problem 6.2 time-first;
    /// for a fixed-space search without the bandwidth axis it is
    /// bit-identical to [`Procedure51`] under
    /// [`TieBreak::LexMax`](crate::TieBreak::LexMax).
    pub fn time_corner(&self) -> Option<&ParetoPoint> {
        self.corner(|p| (p.total_time, p.space_cost()))
    }

    /// The space-first corner: the point minimizing `(processors + wires,
    /// time)` — Problem 6.1's combined VLSI cost first — ties resolved to
    /// the lex-greatest witness. On a fixed-schedule frontier this is
    /// Problem 6.1's answer, the cheapest conflict-free space map of the
    /// pool; on a joint frontier it answers Problem 6.2 space-first.
    pub fn space_corner(&self) -> Option<&ParetoPoint> {
        self.corner(|p| (p.space_cost(), p.total_time))
    }

    /// The point minimizing `key`, ties to the lex-greatest witness. No
    /// point can dominate a lexicographic minimizer, so the minimum over
    /// the frontier is the minimum over every accepted design.
    fn corner(&self, key: impl Fn(&ParetoPoint) -> (i64, i64)) -> Option<&ParetoPoint> {
        let best = self.points.iter().map(&key).min()?;
        self.points.iter().filter(|p| key(p) == best).max_by_key(|p| p.witness_key())
    }
}

/// Accumulates accepted designs into one witness per distinct vector
/// (the lex-greatest `(space rows, schedule)` achieving it), then
/// filters to the non-dominated set.
#[derive(Default)]
struct FrontierBuilder {
    by_vector: BTreeMap<Vec<Rat>, ParetoPoint>,
    points_seen: u64,
}

impl FrontierBuilder {
    fn push(&mut self, p: ParetoPoint) {
        self.points_seen += 1;
        match self.by_vector.entry(p.objective_vector()) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if p.witness_key() > e.get().witness_key() {
                    e.insert(p);
                }
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(p);
            }
        }
    }

    fn finish(self, candidates_examined: u64, telemetry: SearchTelemetry) -> ParetoFrontier {
        let vectors: Vec<Vec<Rat>> = self.by_vector.keys().cloned().collect();
        let keep: BTreeSet<usize> = non_dominated_indices(&vectors).into_iter().collect();
        let mut points = Vec::with_capacity(keep.len());
        for (i, p) in self.by_vector.into_values().enumerate() {
            if keep.contains(&i) {
                points.push(p);
            }
        }
        let dominated_pruned = self.points_seen - points.len() as u64;
        crate::metrics::PARETO_DOMINATED_PRUNED.add(dominated_pruned);
        ParetoFrontier {
            points,
            dominated_pruned,
            points_seen: self.points_seen,
            candidates_examined,
            telemetry,
        }
    }
}

/// Multi-objective frontier search. Three scopes, chosen by which side
/// of the mapping is pinned:
///
/// * **fixed space** ([`Self::fixed_space`]) — enumerate schedules for
///   a given `S`, Procedure 5.1's candidate space;
/// * **fixed schedule** ([`Self::fixed_schedule`]) — enumerate the
///   space-map pool (1- or 2-row, see [`Self::rows`]) for a given `Π`,
///   Problem 6.1's candidate space; its
///   [`ParetoFrontier::space_corner`] answers Problem 6.1;
/// * **joint** (neither pinned) — canonical 1-row space maps crossed
///   with the schedule scan per row. Its corners answer Problem 6.2:
///   [`ParetoFrontier::time_corner`] time-first,
///   [`ParetoFrontier::space_corner`] space-first.
pub struct ParetoSearch<'a> {
    alg: &'a Uda,
    space: Option<&'a SpaceMap>,
    schedule: Option<&'a LinearSchedule>,
    resources: ResourceModel,
    entry_bound: i64,
    rows: usize,
    max_objective: Option<i64>,
    symmetry: SymmetryMode,
    bandwidth_probe: Option<&'a BandwidthProbe<'a>>,
    budget: SearchBudget,
}

/// One candidate space map of the pool, priced once.
struct PoolEntry {
    rows: Vec<Vec<i64>>,
    space: SpaceMap,
    /// `sites + wires`, the order the pool is walked in.
    cost: i64,
    processors: usize,
    wires: i64,
}

impl<'a> ParetoSearch<'a> {
    /// Start a joint-scope search for `alg`.
    pub fn new(alg: &'a Uda) -> Self {
        ParetoSearch {
            alg,
            space: None,
            schedule: None,
            resources: ResourceModel::unconstrained(),
            entry_bound: 2,
            rows: 1,
            max_objective: None,
            symmetry: SymmetryMode::default(),
            bandwidth_probe: None,
            budget: SearchBudget::unlimited(),
        }
    }

    /// Pin the space map; the frontier ranges over schedules only.
    pub fn fixed_space(mut self, space: &'a SpaceMap) -> Self {
        self.space = Some(space);
        self
    }

    /// Pin the schedule; the frontier ranges over space maps only.
    pub fn fixed_schedule(mut self, schedule: &'a LinearSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Install resource budgets / extra axes (default: unconstrained).
    pub fn resources(mut self, model: ResourceModel) -> Self {
        self.resources = model;
        self
    }

    /// Bound on `|s_i|` for enumerated space rows (default 2).
    pub fn entry_bound(mut self, bound: i64) -> Self {
        self.entry_bound = bound;
        self
    }

    /// Rows of the enumerated space maps (default 1, a linear array).
    /// `rows(2)`, a mesh, walks the lex-ordered rank-2 pairs of distinct
    /// canonical rows — `O((2b+1)^{2n})` maps at entry bound `b` — and
    /// needs a fixed schedule; else it is [`CfmapError::Unsupported`].
    pub fn rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Override the schedule-objective cap (default: Procedure 5.1's
    /// `Σ μ_i(μ_i + 3)`). Unlike [`Procedure51::solve`] the frontier
    /// scan never extends the cap adaptively — the cap *is* the time
    /// horizon of the frontier.
    pub fn max_objective(mut self, cap: i64) -> Self {
        self.max_objective = Some(cap);
        self
    }

    /// Quotient the enumerated space rows by the problem's symmetry
    /// stabilizer (default: [`SymmetryMode::Full`]). Sound because the
    /// witness rule is inherently lex-max: the overall lex-greatest
    /// achiever of a vector is its own orbit's representative, so
    /// quotienting drops only candidates that could never be witnesses.
    /// Ignored while bandwidth is tracked — a stabilizer element with
    /// `Π·G = −Π` reverses time, and per-slot link contention is not
    /// proven orbit-invariant under reversal — and under a budget, whose
    /// cut depends on which candidates were screened.
    pub fn symmetry(mut self, mode: SymmetryMode) -> Self {
        self.symmetry = mode;
        self
    }

    /// Bound the work performed (default: unlimited). One candidate is
    /// charged per screened design — a schedule in the fixed-space and
    /// joint scopes, a space map in the fixed-schedule scope — and the
    /// charged candidate is still screened. A frontier cut short keeps
    /// the points found so far and records the limit in
    /// `telemetry.budget_limit`; a limit that trips before any point is
    /// found is [`CfmapError::BudgetExhausted`]. The space-map pool is
    /// walked in cost order, so the space corner of a cut fixed-schedule
    /// frontier still has Problem 6.1's optimal cost, though perhaps not
    /// the lex-greatest map of that cost.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Install the bandwidth evaluator — `cfmap_systolic::peak_link_load`
    /// in production; injected so cfmap-core stays simulator-free.
    /// Returning `None` marks a design mesh-unroutable: it is skipped,
    /// never admitted with an undefined bandwidth. Required whenever
    /// the model tracks bandwidth.
    pub fn bandwidth_probe(mut self, probe: &'a BandwidthProbe<'a>) -> Self {
        self.bandwidth_probe = Some(probe);
        self
    }

    fn validate(&self) -> Result<(), CfmapError> {
        if self.space.is_some() && self.schedule.is_some() {
            return Err(CfmapError::Unsupported {
                reason: "Pareto search pins a space map or a schedule, not both".to_string(),
            });
        }
        let pinned = [
            ("space map", self.space.map(SpaceMap::dim)),
            ("schedule", self.schedule.map(LinearSchedule::dim)),
        ];
        for (side, dim) in pinned {
            if let Some(actual) = dim.filter(|&d| d != self.alg.dim()) {
                return Err(CfmapError::DimensionMismatch {
                    context: format!("Pareto search: algorithm vs {side}"),
                    expected: self.alg.dim(),
                    actual,
                });
            }
        }
        if self.rows != 1 && (self.rows != 2 || self.schedule.is_none()) {
            return Err(CfmapError::Unsupported {
                reason: format!(
                    "space maps have 1 row, or 2 under a fixed schedule; got {} rows",
                    self.rows
                ),
            });
        }
        if self.resources.tracks_bandwidth() && self.bandwidth_probe.is_none() {
            return Err(CfmapError::Unsupported {
                reason: "bandwidth tracking needs a bandwidth probe \
                         (inject cfmap_systolic::peak_link_load)"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Run the search; the result is the exact non-dominated set of the
    /// scoped candidate space under the resource model, or of the
    /// candidates screened before a budget cut it short.
    pub fn solve(&self) -> Result<ParetoFrontier, CfmapError> {
        self.validate()?;
        // Metering is decided once per search: unlimited scans do no
        // budget work per candidate.
        let mut meter = (!self.budget.is_unlimited()).then(|| self.budget.start());
        let mut fb = FrontierBuilder::default();
        let tel = match self.space {
            Some(space) => {
                let (_, processors, wires) = vlsi_cost(self.alg, space)?;
                if self.resources.admits_space(processors, wires) {
                    self.scan_space(space, (processors, wires), meter.as_mut(), &mut fb)?
                } else {
                    SearchTelemetry::default()
                }
            }
            None => self.scan_pool(meter.as_mut(), &mut fb)?,
        };
        let examined = tel.enumerated;
        match tel.budget_limit {
            Some(limit) if fb.points_seen == 0 => {
                Err(CfmapError::BudgetExhausted { limit, candidates_examined: examined })
            }
            _ => Ok(fb.finish(examined, tel)),
        }
    }

    /// Evaluate the optional bandwidth axis for an accepted design and
    /// build its point; `None` when the design is mesh-unroutable or a
    /// bandwidth budget rejects it.
    fn eval_point(
        &self,
        space: &SpaceMap,
        schedule: LinearSchedule,
        mapping: MappingMatrix,
        total_time: i64,
        (processors, wires): (usize, i64),
    ) -> Option<ParetoPoint> {
        let bandwidth = if self.resources.tracks_bandwidth() {
            let probe = self.bandwidth_probe.expect("validated: probe present when tracking");
            match probe(&mapping) {
                Some(bw) if self.resources.admits_bandwidth(bw) => Some(bw),
                _ => return None,
            }
        } else {
            None
        };
        Some(ParetoPoint {
            space: space.clone(),
            schedule,
            mapping,
            total_time,
            processors,
            wires,
            bandwidth,
        })
    }

    /// The schedule scan of one admitted space map priced at `(processors,
    /// wires)` — the fixed-space scope, and each pool entry of the joint
    /// scope — with the shared Procedure 5.1 screening core, every
    /// admissible acceptance pushed into `fb`. Without the bandwidth axis
    /// the scan stops after the first accepting objective level — every
    /// later acceptance shares this map's sites/wires at strictly worse
    /// time, hence is dominated.
    fn scan_space(
        &self,
        space: &SpaceMap,
        (processors, wires): (usize, i64),
        meter: Option<&mut BudgetMeter>,
        fb: &mut FrontierBuilder,
    ) -> Result<SearchTelemetry, CfmapError> {
        let mut proc = Procedure51::new(self.alg, space);
        if let Some(cap) = self.max_objective {
            proc = proc.max_objective(cap);
        }
        let stop_early = !self.resources.tracks_bandwidth();
        proc.scan_accepted(stop_early, meter, &mut |opt| {
            let (schedule, mapping) = (opt.schedule, opt.mapping);
            let cost = (processors, wires);
            if let Some(p) = self.eval_point(space, schedule, mapping, opt.total_time, cost) {
                fb.push(p);
            }
        })
    }

    /// The active pool quotient, or `None` when the mode is off, the
    /// stabilizer is trivial, bandwidth is tracked, or the search is
    /// metered (see [`Self::symmetry`]). The fixed-schedule scope pins
    /// `Π` as a row of the stabilizer, so every element `G` has
    /// `Π·G = ±Π` and a map's verdict, rank and VLSI cost are invariant
    /// over its orbit; the joint scope uses the problem stabilizer.
    fn active_quotient(&self) -> Option<Stabilizer> {
        if self.symmetry != SymmetryMode::Quotient
            || self.resources.tracks_bandwidth()
            || !self.budget.is_unlimited()
        {
            return None;
        }
        let stab = match self.schedule {
            Some(pi) => crate::canon::stabilizer(self.alg, &SpaceMap::row(pi.as_slice())),
            None => crate::canon::problem_stabilizer(self.alg),
        };
        if stab.is_trivial() {
            return None;
        }
        Some(stab)
    }

    /// The space-map pool of the fixed-schedule and joint scopes: the
    /// canonical rows, or under `rows(2)` their rank-2 lex pairs. An
    /// active quotient's non-representatives are tallied in
    /// `orbits_pruned`; every other map is priced once by [`vlsi_cost`],
    /// filtered by the resource model, and stably sorted by `sites +
    /// wires`, so the pool stays lex-ascending within a cost.
    fn space_pool(&self, tel: &mut SearchTelemetry) -> Result<Vec<PoolEntry>, CfmapError> {
        let singles = canonical_rows(self.alg.dim(), self.entry_bound);
        let maps: Vec<Vec<Vec<i64>>> = if self.rows == 1 {
            singles.into_iter().map(|r| vec![r]).collect()
        } else {
            let mut pairs = Vec::new();
            for (a, r1) in singles.iter().enumerate() {
                for r2 in &singles[a + 1..] {
                    if IMat::from_rows(&[r1, r2]).rank() == 2 {
                        pairs.push(vec![r1.clone(), r2.clone()]);
                    }
                }
            }
            pairs
        };
        let quotient = self.active_quotient();
        let mut pool = Vec::with_capacity(maps.len());
        for rows in maps {
            if quotient.as_ref().is_some_and(|stab| !is_class_representative(stab, &rows)) {
                tel.orbits_pruned += 1;
                crate::metrics::ORBITS_PRUNED.inc();
                continue;
            }
            let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
            let space = SpaceMap::from_rows(&refs);
            let (cost, processors, wires) = vlsi_cost(self.alg, &space)?;
            if self.resources.admits_space(processors, wires) {
                pool.push(PoolEntry { rows, space, cost, processors, wires });
            }
        }
        pool.sort_by_key(|entry| entry.cost);
        Ok(pool)
    }

    /// Fixed-schedule and joint scopes: walk the [`Self::space_pool`] in
    /// cost order and screen each map — as the candidate itself under a
    /// fixed `Π`, by a schedule scan ([`Self::scan_space`]) in the joint
    /// scope.
    fn scan_pool(
        &self,
        mut meter: Option<&mut BudgetMeter>,
        fb: &mut FrontierBuilder,
    ) -> Result<SearchTelemetry, CfmapError> {
        let mut tel = SearchTelemetry::default();
        let fixed = match self.schedule {
            Some(pi) => {
                if !pi.is_valid_for(&self.alg.deps) {
                    // An invalid schedule admits no design at all.
                    return Ok(tel);
                }
                let mu = self.alg.index_set.mu();
                let t = weighted_objective(pi.as_slice(), mu)
                    .and_then(|o| o.checked_add(1))
                    .ok_or_else(|| CfmapError::Overflow {
                        context: format!(
                            "Pareto search makespan 1 + Σ|π_i|μ_i overflows i64 for Π = {:?}",
                            pi.as_slice()
                        ),
                    })?;
                // The fixed-schedule scope tabulates its Π once.
                Some((pi, t, BoxKernelTable::build(&IMat::from_rows(&[pi.as_slice()]), mu)))
            }
            None => None,
        };
        for entry in self.space_pool(&mut tel)? {
            if tel.budget_limit.is_some() {
                break;
            }
            let cost = (entry.processors, entry.wires);
            let Some((pi, total_time, table)) = &fixed else {
                tel.merge(&self.scan_space(&entry.space, cost, meter.as_deref_mut(), fb)?);
                continue;
            };
            if let Some(m) = meter.as_deref_mut() {
                tel.budget_limit = m.charge_candidate();
            }
            tel.enumerated += 1;
            let Some(mapping) = screen_space_rows(self.alg, pi, table.as_ref(), &entry, &mut tel)
            else {
                continue;
            };
            tel.accepted += 1;
            let point = self.eval_point(&entry.space, (*pi).clone(), mapping, *total_time, cost);
            if let Some(p) = point {
                fb.push(p);
            }
        }
        Ok(tel)
    }
}

/// Conditions 4 and 3 for the pool entry `entry` under the fixed
/// schedule: the mapping `T = [S; Π]` when `rank(T) = k` and `T` is
/// conflict-free, else `None` with the rejection charged to `tel`. With
/// the fixed `Π`'s box-kernel table both gates are dot products; without
/// one (boxes too large to tabulate), or when a dot product leaves i128,
/// one Hermite form of `T` and the exact lattice test decide them.
fn screen_space_rows(
    alg: &Uda,
    schedule: &LinearSchedule,
    table: Option<&BoxKernelTable>,
    entry: &PoolEntry,
    tel: &mut SearchTelemetry,
) -> Option<MappingMatrix> {
    let mapping = MappingMatrix::new(entry.space.clone(), schedule.clone());
    let rows: Vec<&[i64]> = entry.rows.iter().map(Vec::as_slice).collect();
    let table_gates = table.and_then(|t| {
        let full_rank = t.full_rank_rows(&rows)?;
        let conflict_free = if full_rank { t.conflict_free_rows(&rows)? } else { false };
        Some((full_rank, conflict_free))
    });
    let (full_rank, accepts) = match table_gates {
        Some(gates) => gates,
        None => {
            let analysis = ConflictAnalysis::new(&mapping, &alg.index_set);
            tel.hnf_computations += 1;
            let full_rank = analysis.rank() == mapping.k();
            (full_rank, full_rank && analysis.is_conflict_free_exact())
        }
    };
    if !full_rank {
        tel.rejected_rank += 1;
        return None; // condition 4: rank(T) = k
    }
    tel.condition_hits.record(ConditionRule::Exact);
    if !accepts {
        tel.rejected_conflict += 1;
        return None; // condition 3: conflict-freedom
    }
    Some(mapping)
}

/// The VLSI cost triple `(sites + wires, sites, wires)` of `space` under
/// `alg` — the order the space-map pool is walked in, and the space axes
/// of every frontier point.
///
/// "Sites" is the bounding-box cell count of the image `S·J`, the
/// product over the rows of `S` of `1 + Σ|s_i|μ_i` — the silicon area a
/// rectangular layout must provision (for a 1-row map whose image has no
/// gaps this is the processor count `|S·J|`). Wire length is
/// `Σᵢ ‖S·d̄ᵢ‖₁`, the per-dependence hop distance that must be wired
/// between neighbouring cells.
pub(crate) fn vlsi_cost(alg: &Uda, space: &SpaceMap) -> Result<(i64, usize, i64), CfmapError> {
    let overflow = |what: &str| CfmapError::Overflow {
        context: format!("VLSI cost: {what} does not fit in i64"),
    };
    let mut sites = 1i64;
    for r in 0..space.array_dims() {
        let mut span = Int::one();
        for (c, &m) in space.as_mat().row(r).iter().zip(alg.index_set.mu()) {
            span += &(&c.abs() * &Int::from(m));
        }
        let span = span.to_i64().ok_or_else(|| overflow("processor span"))?;
        sites = sites.checked_mul(span).ok_or_else(|| overflow("site count"))?;
    }
    let sd = space.as_mat() * alg.deps.as_mat();
    let mut wires = 0i64;
    for c in 0..sd.ncols() {
        for r in 0..sd.nrows() {
            let hop = sd.get(r, c).abs().to_i64().ok_or_else(|| overflow("wire length"))?;
            wires = wires.checked_add(hop).ok_or_else(|| overflow("total wire length"))?;
        }
    }
    let cost = sites.checked_add(wires).ok_or_else(|| overflow("sites + wires"))?;
    Ok((cost, sites as usize, wires))
}

/// The canonical row pool of the space-map searches: every nonzero row
/// with entries in `[−bound, bound]` whose first nonzero entry is
/// positive (negating a row of `S` only relabels processors), in
/// lex-ascending order.
pub(crate) fn canonical_rows(n: usize, bound: i64) -> Vec<Vec<i64>> {
    fn rec(row: &mut Vec<i64>, idx: usize, bound: i64, out: &mut Vec<Vec<i64>>) {
        if idx == row.len() {
            if row.iter().find(|&&x| x != 0).is_some_and(|&x| x > 0) {
                out.push(row.clone());
            }
            return;
        }
        for v in -bound..=bound {
            row[idx] = v;
            rec(row, idx + 1, bound, out);
        }
    }
    let mut out = Vec::new();
    rec(&mut vec![0; n], 0, bound, &mut out);
    out
}

/// Flip a row to canonical sign (first nonzero entry positive) — the
/// convention of the candidate pool. Orbit images must be re-canonicalized
/// before lex comparison because a stabilizer element may negate a row,
/// and `S` vs `−S` is the same design (processor relabeling).
fn canon_sign(mut row: Vec<i64>) -> Vec<i64> {
    if row.iter().find(|&&v| v != 0).is_some_and(|&v| v < 0) {
        row.iter_mut().for_each(|v| *v = -*v);
    }
    row
}

/// True when `rows` is its orbit's representative on the canonical
/// candidate pool: no stabilizer element maps it (after per-row sign
/// canonicalization and row sorting — rows of `S` are an unordered set up
/// to sign) to a lex-greater candidate. Every orbit has exactly one
/// representative under this rule, and it is the orbit's lex-greatest
/// member, so a lex-greatest witness is always a representative.
fn is_class_representative(stab: &Stabilizer, rows: &[Vec<i64>]) -> bool {
    stab.elements().iter().all(|g| {
        let mut image: Vec<Vec<i64>> = rows.iter().map(|r| canon_sign(g.apply(r))).collect();
        image.sort();
        image.as_slice() <= rows
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BudgetLimit;
    use crate::oracle::is_conflict_free_by_enumeration as is_conflict_free;
    use crate::search::TieBreak;
    use cfmap_model::algorithms;
    use std::time::Duration;

    /// A frontier point as `(S rows, Π, time, PEs, wires)`.
    type Design = (Vec<Vec<i64>>, Vec<i64>, i64, usize, i64);

    fn designs(f: &ParetoFrontier) -> Vec<Design> {
        let point = |p: &ParetoPoint| {
            let pi = p.schedule.as_slice().to_vec();
            (p.space_rows(), pi, p.total_time, p.processors, p.wires)
        };
        f.points.iter().map(point).collect()
    }

    /// The joint, fixed-space and fixed-schedule scopes of one problem.
    fn scoped<'a>(
        alg: &'a Uda,
        space: &'a SpaceMap,
        pi: &'a LinearSchedule,
    ) -> [ParetoSearch<'a>; 3] {
        let new = || ParetoSearch::new(alg);
        [new(), new().fixed_space(space), new().fixed_schedule(pi)]
    }

    /// Problem 6.2's answers at the CLI's entry bound 1: the lex-greatest
    /// `(S, Π)` witness of each corner.
    #[test]
    fn joint_corners_pin_problem_6_2_answers() {
        for (alg, time_first, space_first) in [
            (algorithms::matmul(3), ([1, 0, -1], [3, 1, 1], 16, 9), ([1, 0, 0], [1, 4, 1], 19, 5)),
            (
                algorithms::transitive_closure(4),
                ([1, 0, -1], [4, 1, 1], 25, 15),
                ([0, 1, 0], [5, 1, 1], 29, 8),
            ),
        ] {
            let f = ParetoSearch::new(&alg)
                .entry_bound(1)
                .symmetry(SymmetryMode::Quotient)
                .solve()
                .unwrap();
            for (corner, (s, pi, time, cost)) in
                [(f.time_corner(), time_first), (f.space_corner(), space_first)]
            {
                let p = corner.expect("a joint design exists");
                assert_eq!(p.space_rows(), vec![s.to_vec()], "{}", alg.name);
                assert_eq!(p.schedule.as_slice(), pi, "{}", alg.name);
                assert_eq!((p.total_time, p.space_cost()), (time, cost), "{}", alg.name);
            }
        }
    }

    /// A candidate budget below the full count stops every scope at
    /// exactly the budget; the points found so far are kept, and each is
    /// conflict-free.
    #[test]
    fn candidate_budget_cuts_each_scope_short() {
        let alg = algorithms::matmul(3);
        let (space, pi) = (SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, 3, 1]));
        let full = scoped(&alg, &space, &pi).map(|s| s.solve().unwrap());
        for (scope, full) in scoped(&alg, &space, &pi).into_iter().zip(&full) {
            let budget = full.candidates_examined - 1;
            let cut = scope.budget(SearchBudget::candidates(budget)).solve().unwrap();
            assert_eq!(cut.candidates_examined, budget);
            assert_eq!(cut.telemetry.budget_limit, Some(BudgetLimit::Candidates));
            assert!(!cut.is_empty());
            for p in &cut.points {
                let index_set = &alg.index_set;
                assert!(crate::oracle::is_conflict_free_by_enumeration(&p.mapping, index_set));
            }
        }
    }

    /// A one-candidate budget and a zero wall clock each stop after the
    /// first candidate, which finds no design: the search is out of
    /// budget, not infeasible.
    #[test]
    fn limits_before_any_point_are_budget_exhausted() {
        let alg = algorithms::matmul(3);
        for (search, want) in [
            (ParetoSearch::new(&alg).budget(SearchBudget::candidates(1)), BudgetLimit::Candidates),
            (
                ParetoSearch::new(&alg).budget(SearchBudget::wall_clock(Duration::ZERO)),
                BudgetLimit::WallClock,
            ),
        ] {
            match search.solve() {
                Err(CfmapError::BudgetExhausted { limit, candidates_examined }) => {
                    assert_eq!((limit, candidates_examined), (want, 1));
                }
                other => panic!("{want:?}: expected BudgetExhausted, got {other:?}"),
            }
        }
    }

    /// A budget turns the quotient off, so a cut frontier does not depend
    /// on the symmetry mode; a budget that never trips leaves the frontier
    /// and its count as they are without one.
    #[test]
    fn budgeted_frontiers_ignore_the_quotient_and_idle_budgets_change_nothing() {
        let alg = algorithms::matmul(3);
        let (space, pi) = (SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, 3, 1]));
        let full = scoped(&alg, &space, &pi).map(|s| s.solve().unwrap());
        let cut = |mode, budget| {
            scoped(&alg, &space, &pi).map(|s| {
                let out = s.symmetry(mode).budget(SearchBudget::candidates(budget)).solve();
                out.map(|f| (designs(&f), f.candidates_examined, f.telemetry.budget_limit))
                    .map_err(|e| e.to_string())
            })
        };
        for (i, full) in full.iter().enumerate() {
            let half = full.candidates_examined / 2 + 1;
            let full_cut = &cut(SymmetryMode::Full, half)[i];
            assert_eq!(full_cut, &cut(SymmetryMode::Quotient, half)[i], "scope {i}");
            let idle = &cut(SymmetryMode::Quotient, full.candidates_examined + 1)[i];
            assert_eq!(idle, &Ok((designs(full), full.candidates_examined, None)), "scope {i}");
        }
    }

    /// The fixed-schedule space corner is Problem 6.1's lex-max answer:
    /// the lex-greatest conflict-free row of the cheapest VLSI cost, found
    /// here by pricing every canonical row and enumerating its images.
    #[test]
    fn fixed_schedule_space_corner_is_space_search_lexmax() {
        let (alg, pi) = (algorithms::matmul(4), LinearSchedule::new(&[1, 4, 1]));
        let f = ParetoSearch::new(&alg).fixed_schedule(&pi).solve().unwrap();
        let corner = f.space_corner().expect("some S works");
        let clean = |m: &MappingMatrix| m.has_full_rank() && is_conflict_free(m, &alg.index_set);
        let (row, (_, sites, wires)) = canonical_rows(3, 2)
            .into_iter()
            .map(|row| (MappingMatrix::new(SpaceMap::row(&row), pi.clone()), row))
            .filter(|(m, _)| clean(m))
            .map(|(m, row)| (row, vlsi_cost(&alg, m.space()).unwrap()))
            .max_by_key(|(row, cost)| (std::cmp::Reverse(cost.0), row.clone()))
            .expect("some S works");
        let found = (corner.space_rows(), corner.processors, corner.wires);
        assert_eq!(found, (vec![row.clone()], sites, wires));
        assert_eq!((row, sites, wires), (vec![1, -1, 0], 9, 2));
    }

    #[test]
    fn fixed_space_time_corner_is_procedure51_lexmax() {
        let alg = algorithms::matmul(4);
        let space = SpaceMap::row(&[1, 1, -1]);
        let frontier =
            ParetoSearch::new(&alg).fixed_space(&space).solve().expect("frontier solves");
        assert_eq!(frontier.len(), 1, "fixed space, 3 axes: a single vector survives");
        let corner = frontier.time_corner().unwrap();
        let opt = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .solve()
            .unwrap()
            .expect_optimal("matmul is feasible");
        assert_eq!(corner.total_time, opt.total_time);
        assert_eq!(corner.schedule.as_slice(), opt.schedule.as_slice());
        assert_eq!(corner.total_time, 25, "the paper's μ=4 matmul makespan");
    }

    #[test]
    fn frontier_points_are_mutually_non_dominated() {
        let alg = algorithms::matmul(3);
        let frontier = ParetoSearch::new(&alg).solve().expect("joint frontier solves");
        assert!(!frontier.is_empty());
        for (i, a) in frontier.points.iter().enumerate() {
            for (j, b) in frontier.points.iter().enumerate() {
                if i != j {
                    assert!(
                        !cfmap_intlin::dominance::dominates(
                            &a.objective_vector(),
                            &b.objective_vector()
                        ),
                        "frontier point {j} dominated by {i}"
                    );
                }
            }
        }
        assert_eq!(
            frontier.points_seen,
            frontier.dominated_pruned + frontier.len() as u64
        );
    }

    #[test]
    fn budgets_filter_the_frontier() {
        let alg = algorithms::matmul(3);
        let full = ParetoSearch::new(&alg).solve().unwrap();
        let max_pes = full.points.iter().map(|p| p.processors).min().unwrap();
        let tight = ParetoSearch::new(&alg)
            .resources(ResourceModel { max_processors: Some(max_pes), ..Default::default() })
            .solve()
            .unwrap();
        assert!(!tight.is_empty());
        assert!(tight.points.iter().all(|p| p.processors <= max_pes));
        assert!(tight.len() <= full.len());
    }

    #[test]
    fn bandwidth_axis_requires_a_probe() {
        let alg = algorithms::matmul(2);
        let err = ParetoSearch::new(&alg)
            .resources(ResourceModel { include_bandwidth: true, ..Default::default() })
            .solve()
            .unwrap_err();
        assert!(matches!(err, CfmapError::Unsupported { .. }));
    }

    #[test]
    fn bandwidth_probe_feeds_the_fourth_axis() {
        let alg = algorithms::matmul(2);
        // A fake probe: bandwidth = wire length of the design, so the
        // axis is exercised without a simulator dependency.
        let probe = |m: &MappingMatrix| -> Option<u64> {
            vlsi_cost(&algorithms::matmul(2), m.space())
                .ok()
                .map(|(_, _, w)| w.unsigned_abs())
        };
        let frontier = ParetoSearch::new(&alg)
            .resources(ResourceModel { include_bandwidth: true, ..Default::default() })
            .bandwidth_probe(&probe)
            .solve()
            .unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier.points.iter().all(|p| p.bandwidth.is_some()));
        assert!(frontier.points.iter().all(|p| p.objective_vector().len() == 4));
    }

    #[test]
    fn pinning_both_sides_is_rejected() {
        let alg = algorithms::matmul(2);
        let space = SpaceMap::row(&[1, 1, -1]);
        let pi = LinearSchedule::new(&[1, 2, 1]);
        let err = ParetoSearch::new(&alg)
            .fixed_space(&space)
            .fixed_schedule(&pi)
            .solve()
            .unwrap_err();
        assert!(matches!(err, CfmapError::Unsupported { .. }));
    }

    #[test]
    fn every_frontier_point_is_certified_conflict_free() {
        let alg = algorithms::matmul(3);
        let frontier = ParetoSearch::new(&alg).solve().unwrap();
        for p in &frontier.points {
            assert!(p.mapping.has_full_rank());
            assert!(crate::oracle::is_conflict_free_by_enumeration(
                &p.mapping,
                &alg.index_set
            ));
        }
    }
}
