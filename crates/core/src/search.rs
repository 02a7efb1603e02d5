//! Procedure 5.1: time-optimal conflict-free schedule search.
//!
//! Candidates `Π` are enumerated in increasing order of the objective
//! `f = Σ |π_i|·μ_i` (by Theorem 2.1 the total execution time is monotone
//! in the `|π_i|`, so the first accepted candidate is optimal). Each
//! candidate is screened by the conditions of Definition 2.2:
//!
//! 1. `ΠD > 0`;
//! 2. (optional) routability `SD = PK`, `Σ_j k_{ji} ≤ Π·d̄ᵢ`;
//! 3. conflict-freedom — the paper's closed-form conditions
//!    (Theorem 3.1 / 4.7 / 4.8 / 4.5 depending on `n − k`) or the exact
//!    lattice test, selectable via [`ConditionKind`];
//! 4. `rank(T) = k`.
//!
//! With [`ConditionKind::Exact`] the search is optimal for every `k`;
//! with [`ConditionKind::Paper`] it is optimal whenever the dispatched
//! condition is necessary-and-sufficient (`k ≥ n−3` per the paper; see
//! the necessity caveat in [`crate::conditions`]) and otherwise sound but
//! possibly conservative.
//!
//! Under the exact test, conditions 4 and 3 are decided by dot products
//! against a per-search box-kernel table of the fixed `S` (see
//! `crate::box_kernel`) whenever the index box is small enough to
//! tabulate; larger boxes, and the paper's conditions, take the
//! Hermite-normal-form route.
//!
//! ## Budgets and graceful degradation
//!
//! The search accepts a [`SearchBudget`]. When a limit trips before the
//! optimum is found, [`Procedure51::solve`] does not hang or panic: it
//! falls back to a deterministic family of *mixed-radix* schedules
//! (`Π·j̄` injective on the bounding box of `J`, hence conflict-free for
//! any `S`), screens them through the same validity/rank/routability
//! gates, and returns the best one tagged
//! [`Certification::BestEffort`]. Only when even that family is empty
//! does it report [`CfmapError::BudgetExhausted`].

use crate::box_kernel::BoxKernelTable;
use crate::budget::{BudgetMeter, CancelToken, SearchBudget, SearchOutcome, SolveRoute};
use crate::canon::Stabilizer;
use crate::conditions::{check, rule_for, ConditionKind};
use crate::conflict::ConflictAnalysis;
use crate::error::{BudgetLimit, CfmapError};
use crate::mapping::{route, InterconnectionPrimitives, MappingMatrix, Routing, SpaceMap};
use crate::metrics::{ConditionRule, SearchTelemetry};
use cfmap_intlin::{hnf_prefix_i64, HnfPrefix, HnfWorkspace};
use cfmap_model::{LinearSchedule, Uda};
use std::ops::ControlFlow;
use std::time::Instant;

/// The result of a successful optimal-mapping search.
#[derive(Clone, Debug)]
pub struct OptimalMapping {
    /// The full mapping matrix `T = [S; Π°]`.
    pub mapping: MappingMatrix,
    /// The optimal schedule `Π°`.
    pub schedule: LinearSchedule,
    /// Objective value `f = Σ |π_i| μ_i` (total time − 1).
    pub objective: i64,
    /// Total execution time `t = f + 1` (Equation 2.7).
    pub total_time: i64,
    /// Routing certificate, when interconnection primitives were given.
    pub routing: Option<Routing>,
    /// Number of candidates examined before acceptance (search effort).
    pub candidates_examined: u64,
}

/// Procedure 5.1, configured via the builder methods.
///
/// # Examples
///
/// Example 5.1 of the paper — the optimal matmul linear-array schedule:
///
/// ```
/// use cfmap_core::{Procedure51, SpaceMap};
/// use cfmap_model::algorithms;
///
/// let alg = algorithms::matmul(4);
/// let s = SpaceMap::row(&[1, 1, -1]);
/// let opt = Procedure51::new(&alg, &s)
///     .solve()
///     .expect("search ran")
///     .expect_optimal("mapping exists");
/// assert_eq!(opt.total_time, 4 * (4 + 2) + 1); // t = μ(μ+2)+1
/// ```
///
/// Budgeted search degrades instead of hanging:
///
/// ```
/// use cfmap_core::{Certification, Procedure51, SearchBudget, SpaceMap};
/// use cfmap_model::algorithms;
///
/// let alg = algorithms::matmul(4);
/// let s = SpaceMap::row(&[1, 1, -1]);
/// let out = Procedure51::new(&alg, &s)
///     .budget(SearchBudget::candidates(2))
///     .solve()
///     .expect("degrades instead of failing");
/// assert!(matches!(out.certification, Certification::BestEffort { .. }));
/// assert!(out.mapping.is_some());
/// ```
pub struct Procedure51<'a> {
    alg: &'a Uda,
    space: &'a SpaceMap,
    condition: ConditionKind,
    primitives: Option<&'a InterconnectionPrimitives>,
    max_objective: i64,
    /// True when the caller pinned the cap via [`Self::max_objective`];
    /// only a defaulted cap may be extended adaptively (see
    /// [`Self::adaptive_cap_bound`]).
    cap_explicit: bool,
    /// True when the default cap `Σ μ_i(μ_i+3)` overflowed `i64`; the
    /// searches then fail fast with [`CfmapError::Overflow`] instead of
    /// iterating a wrapped (possibly tiny or negative) cap.
    cap_overflowed: bool,
    budget: SearchBudget,
    tie_break: TieBreak,
    symmetry: SymmetryMode,
    hybrid: Option<HybridPolicy>,
    cancel: Option<&'a CancelToken>,
    /// Column indices where `S` is entirely zero — used by the exact
    /// pairwise pre-filter (see [`Self::pairwise_prefilter_rejects`]).
    zero_space_cols: Vec<usize>,
    /// Test instrumentation: called with each candidate before
    /// screening (see [`Self::candidate_probe`]).
    probe: Option<CandidateProbe<'a>>,
}

/// A per-candidate instrumentation hook (see
/// [`Procedure51::candidate_probe`]).
type CandidateProbe<'a> = &'a dyn Fn(&[i64]);

/// How ties among equally-optimal schedules at the winning objective
/// level are broken.
///
/// Every candidate at the first level with an acceptance is optimal in
/// the paper's objective `Σ|π_i|μ_i`, so the choice among them is pure
/// convention — but the convention matters operationally. `FirstFound`
/// depends on which conflict vectors happen to collapse (gcd content)
/// at each concrete μ, so the representative jumps around as μ varies.
/// `LexMax` picks the extremal accepted schedule of the level, which is
/// stable across μ for the paper's algorithm families — the property
/// the family-inference layer (affine-in-μ certificates) relies on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TieBreak {
    /// Return the first accepted candidate in enumeration order and stop
    /// (the historic behavior, and the default).
    #[default]
    FirstFound,
    /// Screen the whole winning level and return the lexicographically
    /// greatest accepted schedule (standard `[i64]` ordering). Costs the
    /// remainder of one level's screening; yields a μ-stable canonical
    /// representative of the optimum.
    LexMax,
}

/// Whether the candidate space is quotiented by the problem's symmetry
/// stabilizer (see [`crate::canon::stabilizer`]).
///
/// Quotienting screens one representative per orbit — the
/// lexicographically greatest member — and is **bit-identical** to full
/// enumeration under [`TieBreak::LexMax`]: every gate of Definition 2.2
/// and the objective are invariant under the stabilizer, so an orbit is
/// accepted as a whole or not at all, and the level's lex-greatest
/// accepted candidate is always its own orbit's representative. The
/// quotient therefore activates only when its preconditions hold
/// (`LexMax`, [`ConditionKind::Exact`], no routing primitives); in any
/// other configuration — `FirstFound` order sensitivity, closed-form
/// conditions that need not be orbit-invariant, routing costs that break
/// the symmetry — it silently degrades to full enumeration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SymmetryMode {
    /// Enumerate the full candidate space (the historic behavior, and
    /// the default).
    #[default]
    Full,
    /// Enumerate one representative per stabilizer orbit when sound (see
    /// the type-level docs), counting skipped candidates in
    /// `SearchTelemetry::orbits_pruned`.
    Quotient,
}

/// When to abandon enumeration for the ILP decomposition mid-search.
///
/// After each completed objective level without an acceptance, the
/// search extrapolates the candidates-per-level growth rate; when the
/// projected total crosses `candidate_horizon`, it runs
/// [`crate::ilp::optimal_schedule_ilp`] (applicable only to
/// `(n−2)`-dimensional arrays, the `k = n−1` decomposition) and, if that
/// yields a certified-optimal schedule, returns it tagged
/// [`SolveRoute::HybridIlp`]. A failed or inapplicable escalation falls
/// back to enumeration — one attempt per solve.
///
/// Escalated answers carry no tie-break promise: the ILP route does not
/// honor the [`TieBreak::LexMax`] pin, which is why consumers minting
/// μ-family certificates must check [`SearchOutcome::route`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HybridPolicy {
    /// Escalate when the projected enumeration total (candidates
    /// screened so far plus one extrapolated next level) exceeds this.
    pub candidate_horizon: u64,
    /// Observe at least this many non-empty levels before projecting —
    /// early levels are too noisy to extrapolate from.
    pub min_levels: u32,
}

impl Default for HybridPolicy {
    fn default() -> HybridPolicy {
        HybridPolicy { candidate_horizon: 250_000, min_levels: 3 }
    }
}

/// Growth-rate tracker backing a [`HybridPolicy`] (one per solve).
struct HybridState {
    policy: Option<HybridPolicy>,
    /// One escalation attempt per solve, successful or not.
    spent: bool,
    nonempty_levels: u32,
    prev_level: u64,
    total: u64,
}

impl HybridState {
    fn new(policy: Option<HybridPolicy>) -> HybridState {
        HybridState { policy, spent: false, nonempty_levels: 0, prev_level: 0, total: 0 }
    }

    /// Feed one completed (non-accepted) level; true when the policy
    /// says to escalate now. Empty levels are skipped: with even-only
    /// objective levels (all-even μ) a zero would poison the ratio.
    fn should_escalate(&mut self, level_enumerated: u64) -> bool {
        if level_enumerated == 0 {
            return false;
        }
        let Some(p) = self.policy else { return false };
        self.total = self.total.saturating_add(level_enumerated);
        self.nonempty_levels += 1;
        // Projected next level: last · (last / prev), the observed
        // geometric growth applied once more.
        let projected = (u128::from(level_enumerated) * u128::from(level_enumerated))
            / u128::from(self.prev_level.max(1));
        self.prev_level = level_enumerated;
        !self.spent
            && self.nonempty_levels >= p.min_levels
            && u128::from(self.total).saturating_add(projected) > u128::from(p.candidate_horizon)
    }
}

/// An active symmetry quotient: the stabilizer plus, when it has the
/// class-product shape, the per-axis predecessor map that lets the
/// enumerator prune non-representative subtrees instead of filtering.
struct Quotient {
    stab: Stabilizer,
    classes: Option<Vec<Option<usize>>>,
}

/// Screening state derived once per search from the fixed `S`, `D` and
/// index box, shared read-only by every candidate.
struct ScreenPrep {
    /// The dependence columns as machine integers for the condition-1
    /// gate (see [`Procedure51::deps_columns_i64`]).
    deps: Option<Vec<Vec<i64>>>,
    /// The box-kernel table: with it, the rank and conflict gates are
    /// dot products (the table route). `None` under
    /// [`ConditionKind::Paper`] or for boxes too large to tabulate.
    table: Option<BoxKernelTable>,
    /// HNF route only: `S` pre-eliminated once, so each candidate only
    /// reduces its own `Π` row (see `HnfPrefix`). `None` on the table
    /// route or when `S` has entries beyond i64.
    prefix: Option<HnfPrefix>,
}

/// One candidate in this many has its screen timed into
/// [`crate::metrics::CANDIDATE_SCREEN_TIME`], chosen by the search's own
/// candidate counter (`enumerated % SCREEN_SAMPLE_EVERY == 1`, so the
/// first candidate of every search is timed). A clock read pair costs
/// several times a condition-1 rejection.
const SCREEN_SAMPLE_EVERY: u64 = 64;

/// Ceiling for the adaptive objective-cap extension. The extension is
/// driven by a screened mixed-radix witness, so levels up to the new cap
/// are known to terminate in an acceptance — but a witness objective in
/// the millions would still mean an impractically long enumeration, so
/// beyond this the search keeps its original cap and reports
/// `Infeasible` there, exactly as before.
const ADAPTIVE_CAP_CEILING: i64 = 1 << 20;

/// Largest objective for which [`FullCounter`] still computes exact
/// full-space level counts (the basis of `orbits_pruned` accounting).
/// The incremental DP costs `O(n · cost² / μ_min)` over a whole search;
/// past this bound the count is skipped and `orbits_pruned` becomes a
/// lower bound rather than an exact tally.
const ORBIT_COUNT_MAX: i64 = 4096;

/// The defaulted objective cap `Σ μ_i(μ_i + 3)`, floored at 16 — the
/// paper bounds the useful search at |π_i| ≤ μ_i plus slack for the
/// μ+2-style extreme points. Shared by [`Procedure51::new`] and the
/// Pareto frontier search so both agree on the default horizon.
/// Checked: μ near 2⁴⁰ (the wire bound) squares past i64, and a wrapped
/// cap would silently truncate — or explode — the level loop; `None`
/// signals the overflow.
pub(crate) fn default_objective_cap(mu: &[i64]) -> Option<i64> {
    mu.iter()
        .try_fold(0i64, |acc, &m| {
            m.checked_add(3).and_then(|s| m.checked_mul(s)).and_then(|v| acc.checked_add(v))
        })
        .map(|c| c.max(16))
}

impl<'a> Procedure51<'a> {
    /// Start a search for `alg` with the given space mapping.
    pub fn new(alg: &'a Uda, space: &'a SpaceMap) -> Self {
        assert_eq!(alg.dim(), space.dim(), "algorithm / space map dimension mismatch");
        let (max_objective, cap_overflowed) = match default_objective_cap(alg.index_set.mu()) {
            Some(c) => (c, false),
            None => (0, true),
        };
        let zero_space_cols = (0..space.dim())
            .filter(|&c| space.as_mat().col(c).is_zero())
            .collect();
        Procedure51 {
            alg,
            space,
            condition: ConditionKind::Exact,
            primitives: None,
            max_objective,
            cap_explicit: false,
            cap_overflowed,
            budget: SearchBudget::unlimited(),
            tie_break: TieBreak::default(),
            symmetry: SymmetryMode::default(),
            hybrid: None,
            cancel: None,
            zero_space_cols,
            probe: None,
        }
    }

    /// Fail fast when the defaulted objective cap overflowed `i64`
    /// (extreme μ); an explicit [`Self::max_objective`] clears the flag.
    fn check_cap(&self) -> Result<(), CfmapError> {
        if self.cap_overflowed {
            return Err(CfmapError::Overflow {
                context: format!(
                    "Procedure 5.1 default objective cap Σ μ_i(μ_i+3) exceeds i64 for μ = {:?}; \
                     set an explicit max_objective",
                    self.alg.index_set.mu()
                ),
            });
        }
        Ok(())
    }

    /// Exact O(z²) pre-filter: for columns `i < j` where `S` is zero, the
    /// vector with `γ_i = π_j/g`, `γ_j = −π_i/g` (`g = gcd(π_i, π_j)`) is
    /// a primitive kernel vector of `T`; if it fits inside the box it is a
    /// non-feasible conflict vector and the candidate can be rejected
    /// without computing a Hermite form. Only ever rejects genuinely
    /// conflicting candidates, so optimality is unaffected.
    fn pairwise_prefilter_rejects(&self, pi: &[i64]) -> bool {
        let mu = self.alg.index_set.mu();
        for (a, &i) in self.zero_space_cols.iter().enumerate() {
            for &j in &self.zero_space_cols[a + 1..] {
                let g = cfmap_intlin::gcd::gcd_i64(pi[i], pi[j]);
                let (gi, gj) = if g == 0 {
                    (1, 0) // both π entries zero: e_i itself is in the kernel
                } else {
                    (pi[j].abs() / g, pi[i].abs() / g)
                };
                if gi <= mu[i] && gj <= mu[j] {
                    return true;
                }
            }
        }
        false
    }

    /// Select the conflict-freedom test (default: exact).
    pub fn condition(mut self, kind: ConditionKind) -> Self {
        self.condition = kind;
        self
    }

    /// Require routability on the given interconnection primitives
    /// (Definition 2.2 condition 2).
    pub fn primitives(mut self, p: &'a InterconnectionPrimitives) -> Self {
        self.primitives = Some(p);
        self
    }

    /// Override the objective cap at which the search gives up. An
    /// explicit cap is never extended adaptively.
    pub fn max_objective(mut self, cap: i64) -> Self {
        self.max_objective = cap;
        self.cap_explicit = true;
        self.cap_overflowed = false;
        self
    }

    /// Select whether the candidate space is quotiented by the problem's
    /// symmetry stabilizer (default: [`SymmetryMode::Full`]). See
    /// [`SymmetryMode`] for the soundness preconditions — in
    /// configurations where they fail the setting is ignored.
    pub fn symmetry(mut self, mode: SymmetryMode) -> Self {
        self.symmetry = mode;
        self
    }

    /// Install a mid-search enumeration→ILP escape hatch (default:
    /// none). See [`HybridPolicy`].
    pub fn hybrid(mut self, policy: HybridPolicy) -> Self {
        self.hybrid = Some(policy);
        self
    }

    /// Bound the search effort (default: unlimited). With a
    /// candidate-count limit the outcome is deterministic: the
    /// enumeration order is fixed, so equal budgets give equal results.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Select how ties at the winning objective level are broken
    /// (default: [`TieBreak::FirstFound`]). With [`TieBreak::LexMax`] a
    /// budget or cancellation that trips mid-level returns the best
    /// representative screened so far — still tagged optimal, since the
    /// objective level was already proven, and still deterministic for
    /// equal budgets.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Make the search poll a [`CancelToken`] once per candidate.
    /// Cancellation degrades like a tripped budget ([`BudgetLimit::Cancelled`])
    /// within one candidate's latency.
    pub fn cancel_token(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `Some(Cancelled)` once an attached token has been tripped.
    fn cancel_tripped(&self) -> Option<BudgetLimit> {
        match self.cancel {
            Some(c) if c.is_cancelled() => Some(BudgetLimit::Cancelled),
            _ => None,
        }
    }

    /// Install a per-candidate probe, invoked with each candidate `Π`
    /// before screening. Test instrumentation (candidate recording,
    /// cancellation and deadline injection) — not part of the stable API.
    #[doc(hidden)]
    pub fn candidate_probe(mut self, probe: &'a dyn Fn(&[i64])) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Run the search: the first accepted candidate in increasing
    /// objective order is certified [`Certification::Optimal`]. If the
    /// budget trips first, a deterministic fallback mapping is returned
    /// as [`Certification::BestEffort`]; an exhausted candidate space is
    /// [`Certification::Infeasible`].
    ///
    /// [`Certification::Optimal`]: crate::Certification::Optimal
    /// [`Certification::BestEffort`]: crate::Certification::BestEffort
    /// [`Certification::Infeasible`]: crate::Certification::Infeasible
    pub fn solve(&self) -> Result<SearchOutcome<OptimalMapping>, CfmapError> {
        self.check_cap()?;
        let mut meter = self.budget.start();
        let mut tel = SearchTelemetry::default();
        if let Some(limit) = meter.check_wall().or_else(|| self.cancel_tripped()) {
            return self.degrade(limit, 0, tel);
        }
        let prep = self.screen_prep();
        let mut ws = HnfWorkspace::new();
        let quotient = self.active_quotient();
        let mut counter = quotient.as_ref().map(|_| FullCounter::new(self.alg.index_set.mu()));
        let mut hybrid = HybridState::new(self.hybrid);
        let mut cap = self.max_objective;
        let mut extended = false;
        let mut cost = 1i64;
        while cost <= cap {
            let mut found: Option<OptimalMapping> = None;
            let mut tripped: Option<BudgetLimit> = None;
            let level_start = tel.enumerated;
            self.enumerate_level(cost, quotient.as_ref(), &mut |pi| {
                if tripped.is_some()
                    || (found.is_some() && self.tie_break == TieBreak::FirstFound)
                {
                    return;
                }
                let limit = meter.charge_candidate().or_else(|| self.cancel_tripped());
                tel.enumerated += 1;
                if let Some(result) =
                    self.try_candidate(pi, cost, meter.candidates, &mut tel, &prep, &mut ws)
                {
                    tel.accepted += 1;
                    let improves = found
                        .as_ref()
                        .is_none_or(|cur| pi > cur.schedule.as_slice());
                    if improves {
                        found = Some(result);
                    }
                    tripped = tripped.or(limit);
                } else {
                    tripped = limit;
                }
            });
            let level_enumerated = tel.enumerated - level_start;
            account_orbits(cost, level_enumerated, counter.as_mut(), &mut tel);
            let level_accepted = u64::from(found.is_some());
            tel.record_level(cost, level_enumerated, level_accepted);
            if let Some(mut win) = found {
                if self.tie_break == TieBreak::LexMax {
                    // The winner may have been screened mid-level; report
                    // the whole level's effort.
                    win.candidates_examined = meter.candidates;
                }
                return Ok(SearchOutcome::optimal(win, meter.candidates).with_telemetry(tel));
            }
            if let Some(limit) = tripped {
                return self.degrade(limit, meter.candidates, tel);
            }
            if hybrid.should_escalate(level_enumerated) {
                hybrid.spent = true;
                if let Some(out) = self.escalate_to_ilp(&mut tel, meter.candidates) {
                    return Ok(out.with_telemetry(tel));
                }
            }
            cost += 1;
            if cost > cap && !extended && !self.cap_explicit {
                extended = true;
                if let Some(bound) = self.adaptive_cap_bound() {
                    if bound > cap && bound <= ADAPTIVE_CAP_CEILING {
                        cap = bound;
                    }
                }
            }
        }
        Ok(SearchOutcome::infeasible(meter.candidates).with_telemetry(tel))
    }

    /// Enumerate *every* accepted candidate up to [`Self::max_objective`],
    /// invoking `on_accept` for each — in increasing objective order,
    /// lex-ascending within each level. This is the multi-objective
    /// analogue of [`Self::solve`]: the Pareto frontier needs the whole
    /// accepted set, not just the first level's tie-break winner. No
    /// symmetry quotient, hybrid escalation or adaptive cap extension
    /// applies, and the builder's own budget, token and tie-break are not
    /// read — the scan must visit every acceptance exactly once so the
    /// caller's dominance filter sees the full picture.
    ///
    /// With `stop_after_accepting_level` the scan ends after the first
    /// level containing an acceptance: sound for the 3-axis frontier
    /// (time × sites × wires) where every later acceptance shares this
    /// space map's sites/wires but has strictly worse time, hence is
    /// dominated.
    ///
    /// With a `meter`, every screened candidate is charged to it; a trip
    /// ends the scan after the charged candidate and is recorded in the
    /// returned `budget_limit`. Whether to meter is decided here, once:
    /// the unmetered scan does no budget work per candidate.
    pub(crate) fn scan_accepted(
        &self,
        stop_after_accepting_level: bool,
        meter: Option<&mut BudgetMeter>,
        on_accept: &mut dyn FnMut(OptimalMapping),
    ) -> Result<SearchTelemetry, CfmapError> {
        self.check_cap()?;
        let stop = stop_after_accepting_level;
        Ok(match meter {
            Some(m) => self.scan_levels::<true>(stop, &mut || m.charge_candidate(), on_accept),
            None => self.scan_levels::<false>(stop, &mut || None, on_accept),
        })
    }

    /// The level loop of [`Self::scan_accepted`]; `charge` is called only
    /// when `METERED`.
    fn scan_levels<const METERED: bool>(
        &self,
        stop_after_accepting_level: bool,
        charge: &mut dyn FnMut() -> Option<BudgetLimit>,
        on_accept: &mut dyn FnMut(OptimalMapping),
    ) -> SearchTelemetry {
        let mut tel = SearchTelemetry::default();
        let prep = self.screen_prep();
        let mut ws = HnfWorkspace::new();
        for cost in 1..=self.max_objective {
            let level_start = tel.enumerated;
            let mut level_accepted = 0u64;
            self.enumerate_level(cost, None, &mut |pi| {
                if METERED {
                    if tel.budget_limit.is_some() {
                        return;
                    }
                    tel.budget_limit = charge();
                }
                tel.enumerated += 1;
                let examined = tel.enumerated;
                if let Some(result) =
                    self.try_candidate(pi, cost, examined, &mut tel, &prep, &mut ws)
                {
                    tel.accepted += 1;
                    level_accepted += 1;
                    on_accept(result);
                }
            });
            tel.record_level(cost, tel.enumerated - level_start, level_accepted);
            if (stop_after_accepting_level && level_accepted > 0) || tel.budget_limit.is_some() {
                break;
            }
        }
        tel
    }

    /// The active symmetry quotient, or `None` when the mode is off or a
    /// soundness precondition fails (see [`SymmetryMode`]): quotienting
    /// requires the `LexMax` pin (the representative rule *is* lex-max),
    /// the exact conflict test (the paper's closed forms are dispatched
    /// on data that need not be orbit-invariant), and no routing
    /// primitives (wire lengths are not symmetric under axis swaps).
    fn active_quotient(&self) -> Option<Quotient> {
        if self.symmetry != SymmetryMode::Quotient
            || self.tie_break != TieBreak::LexMax
            || self.condition != ConditionKind::Exact
            || self.primitives.is_some()
        {
            return None;
        }
        let stab = crate::canon::stabilizer(self.alg, self.space);
        if stab.is_trivial() {
            return None;
        }
        let classes = stab.symmetric_classes();
        Some(Quotient { stab, classes })
    }

    /// Enumerate one objective level — the full space, or one
    /// representative per orbit when a quotient is active. The
    /// class-product shape prunes non-representative subtrees inside the
    /// recursion; the generic shape filters full enumeration through
    /// [`Stabilizer::is_representative`].
    fn enumerate_level(&self, cost: i64, quotient: Option<&Quotient>, f: &mut impl FnMut(&[i64])) {
        let mu = self.alg.index_set.mu();
        let n = self.alg.dim();
        match quotient {
            None => enumerate_weighted(n, mu, cost, f),
            Some(q) => match &q.classes {
                Some(prev) => enumerate_weighted_classes(n, mu, cost, prev, f),
                None => enumerate_weighted(n, mu, cost, &mut |pi| {
                    if q.stab.is_representative(pi) {
                        f(pi);
                    }
                }),
            },
        }
    }

    /// One-shot enumeration→ILP escalation (see [`HybridPolicy`]).
    /// Returns the adopted outcome — route-tagged, telemetry merged into
    /// `tel` — or `None` when the decomposition is inapplicable, errors,
    /// or cannot certify optimality, in which case enumeration continues.
    fn escalate_to_ilp(
        &self,
        tel: &mut SearchTelemetry,
        examined: u64,
    ) -> Option<SearchOutcome<OptimalMapping>> {
        // The (5.1)–(5.2) decomposition solves the k = n−1 problem: an
        // (n−2)-dimensional array. Routing constraints have no ILP
        // encoding here.
        if self.space.array_dims() + 2 != self.alg.dim() || self.primitives.is_some() {
            return None;
        }
        crate::metrics::HYBRID_ESCALATIONS.inc();
        let mu_max = self.alg.index_set.mu().iter().copied().max().unwrap_or(1);
        // The appendix's extreme points fit in μ_max + 2; double it like
        // every other caller. Checked: extreme μ must not wrap the bound.
        let bound = mu_max.checked_mul(2).and_then(|b| b.checked_add(4))?;
        let out = crate::ilp::optimal_schedule_ilp(self.alg, self.space, bound, self.budget).ok()?;
        tel.merge(&out.telemetry);
        if !out.is_optimal() {
            // A budget-degraded ILP answer is worth less than continuing
            // the still-exact enumeration.
            return None;
        }
        let ilp_examined = out.candidates_examined;
        let sol = out.into_mapping()?;
        debug_assert!(sol.schedule.is_valid_for(&self.alg.deps));
        let total = examined.saturating_add(ilp_examined);
        let mapping = MappingMatrix::new(self.space.clone(), sol.schedule.clone());
        Some(
            SearchOutcome::optimal(
                OptimalMapping {
                    mapping,
                    schedule: sol.schedule,
                    objective: sol.objective,
                    total_time: sol.total_time,
                    routing: None,
                    candidates_examined: total,
                },
                total,
            )
            .with_route(SolveRoute::HybridIlp),
        )
    }

    /// A provable finite objective bound for the adaptive cap extension:
    /// the smallest objective over the mixed-radix fallback family whose
    /// variant passes the *full* acceptance screen (validity, rank,
    /// exact conflict-freedom). Such a witness guarantees the extended
    /// level loop terminates in an acceptance at or below the bound.
    /// `None` when no variant is acceptable — the search then keeps its
    /// original cap and stays `Infeasible`, exactly as before.
    fn adaptive_cap_bound(&self) -> Option<i64> {
        // Scratch telemetry: these screens are a bound probe, not search
        // effort, and must not skew the per-gate accounting invariants.
        let mut scratch = SearchTelemetry::default();
        let mut best: Option<i64> = None;
        for_each_mixed_radix(self.alg.index_set.mu(), |pi, objective| {
            // A variant that cannot improve skips the HNF screen.
            if best.is_none_or(|b| objective < b)
                && self.fallback_candidate(pi, objective, 0, &mut scratch).is_some()
            {
                best = Some(objective);
            }
            ControlFlow::Continue(())
        });
        best
    }

    /// Evaluate one candidate against all conditions of Definition 2.2,
    /// charging each gate's rejection to the telemetry. One candidate in
    /// [`SCREEN_SAMPLE_EVERY`] — by `tel.enumerated`, which the caller has
    /// already advanced for this candidate — has its screen time recorded
    /// in [`crate::metrics::CANDIDATE_SCREEN_TIME`].
    fn try_candidate(
        &self,
        pi: &[i64],
        cost: i64,
        examined: u64,
        tel: &mut SearchTelemetry,
        prep: &ScreenPrep,
        ws: &mut HnfWorkspace,
    ) -> Option<OptimalMapping> {
        let start = (tel.enumerated % SCREEN_SAMPLE_EVERY == 1).then(Instant::now);
        let out = self.screen_candidate(pi, cost, examined, tel, prep, ws);
        if let Some(start) = start {
            crate::metrics::CANDIDATE_SCREEN_TIME.observe(start.elapsed());
        }
        out
    }

    /// Build the per-search screening state. The box-kernel table is
    /// built for the exact condition when the box is small enough to
    /// tabulate; otherwise the HNF prefix is, for the HNF route.
    fn screen_prep(&self) -> ScreenPrep {
        let table = match self.condition {
            ConditionKind::Exact => {
                BoxKernelTable::build(self.space.as_mat(), self.alg.index_set.mu())
            }
            ConditionKind::Paper => None,
        };
        let prefix = match table {
            Some(_) => None,
            None => hnf_prefix_i64(self.space.as_mat()),
        };
        ScreenPrep { deps: self.deps_columns_i64(), table, prefix }
    }

    /// The dependence columns as machine integers, extracted once per
    /// search so the condition-1 gate — the reject path nearly every
    /// enumerated candidate takes — runs allocation-free i128 dot
    /// products instead of per-candidate bignum vectors. `None` when any
    /// entry exceeds i64 (the bignum route stays the fallback).
    fn deps_columns_i64(&self) -> Option<Vec<Vec<i64>>> {
        let cols: Option<Vec<Vec<i64>>> =
            (0..self.alg.deps.num_deps()).map(|i| self.alg.deps.dep(i).to_i64s()).collect();
        // The i32 ceiling keeps every i128 dot product overflow-free for
        // any i64 candidate: |π_i·d_i| < 2^94, far from the i128 edge.
        cols.filter(|cs| cs.iter().flatten().all(|&v| v.unsigned_abs() <= i32::MAX as u64))
    }

    fn screen_candidate(
        &self,
        pi: &[i64],
        cost: i64,
        examined: u64,
        tel: &mut SearchTelemetry,
        prep: &ScreenPrep,
        ws: &mut HnfWorkspace,
    ) -> Option<OptimalMapping> {
        if let Some(probe) = self.probe {
            probe(pi);
        }
        // Condition 1: ΠD > 0 — exact i128 dot products over the
        // pre-extracted columns when they fit i64, else the bignum route.
        let valid = match &prep.deps {
            Some(cols) => schedule_valid_i64(pi, cols),
            None => LinearSchedule::new(pi).is_valid_for(&self.alg.deps),
        };
        if !valid {
            tel.rejected_schedule += 1;
            return None;
        }
        // Cheap exact conflict pre-filter (see pairwise_prefilter_rejects).
        // Redundant on the table route, but kept there so the per-gate
        // counts do not depend on the route.
        if self.pairwise_prefilter_rejects(pi) {
            tel.rejected_prefilter += 1;
            return None;
        }
        let mapping = match &prep.table {
            Some(table) => {
                if !table.full_rank(pi) {
                    tel.rejected_rank += 1;
                    return None; // condition 4: rank(T) = k
                }
                tel.condition_hits.record(ConditionRule::Exact);
                if !table.conflict_free(pi) {
                    tel.rejected_conflict += 1;
                    return None; // condition 3: conflict-freedom
                }
                MappingMatrix::new(self.space.clone(), LinearSchedule::new(pi))
            }
            None => self.hnf_route_screen(pi, tel, prep.prefix.as_ref(), ws)?,
        };
        // Condition 2: routability (optional). An unroutable candidate is
        // an ordinary rejection — the search keeps looking.
        let routing = match self.primitives {
            Some(p) => match route(&mapping, &self.alg.deps, p) {
                Ok(r) => Some(r),
                Err(_) => {
                    tel.rejected_unroutable += 1;
                    return None;
                }
            },
            None => None,
        };
        Some(OptimalMapping {
            schedule: mapping.schedule().clone(),
            mapping,
            objective: cost,
            total_time: cost + 1,
            routing,
            candidates_examined: examined,
        })
    }

    /// Conditions 4 and 3 on the HNF route, for searches without a
    /// box-kernel table: the mapping matrix when `rank(T) = k` and the
    /// configured conflict test accepts, else `None` with the rejection
    /// charged. The two gates share the Hermite decomposition: complete
    /// the pre-eliminated `S` prefix with this candidate's `Π` row when
    /// possible (bit-identical to the from-scratch HNF, see
    /// `HnfPrefix::complete`), else recompute in full; its rank is
    /// `rank(T)`.
    fn hnf_route_screen(
        &self,
        pi: &[i64],
        tel: &mut SearchTelemetry,
        prefix: Option<&HnfPrefix>,
        ws: &mut HnfWorkspace,
    ) -> Option<MappingMatrix> {
        let mapping = MappingMatrix::new(self.space.clone(), LinearSchedule::new(pi));
        let hnf = match prefix.and_then(|p| p.complete(pi, ws)) {
            Some(h) => h,
            None => mapping.hnf(),
        };
        let analysis = ConflictAnalysis::with_hnf(&mapping, &self.alg.index_set, hnf);
        tel.hnf_computations += 1;
        if analysis.rank() != mapping.k() {
            tel.rejected_rank += 1;
            return None; // condition 4: rank(T) = k
        }
        tel.condition_hits.record(rule_for(self.condition, &analysis));
        if !check(self.condition, &analysis, &self.alg.index_set).accepts() {
            tel.rejected_conflict += 1;
            return None; // condition 3: conflict-freedom
        }
        Some(mapping)
    }

    /// Graceful degradation: the budget tripped before any candidate was
    /// accepted (the enumeration is in increasing objective order, so
    /// there is no "best so far" — the first acceptance *is* the
    /// optimum). Fall back to the mixed-radix schedule family: weights
    /// `w` assigned to the axes in some order with `w_next = w · (μ+1)`
    /// make `Π·j̄` injective on the bounding box of `J`, hence
    /// conflict-free for *any* space map. The `n!·2ⁿ` (permutation,
    /// sign) variants are screened deterministically — lexicographic
    /// permutations outer, sign patterns inner, capped at
    /// [`MAX_FALLBACK_VARIANTS`] — and the valid one with the smallest
    /// objective wins.
    fn degrade(
        &self,
        limit: BudgetLimit,
        candidates_examined: u64,
        mut tel: SearchTelemetry,
    ) -> Result<SearchOutcome<OptimalMapping>, CfmapError> {
        tel.budget_limit = Some(limit);
        // Time-critical trips promise an answer within one candidate's
        // latency, so take the *first* valid fallback — the enumeration
        // order is fixed, so the choice is still deterministic. Work
        // budgets (candidates/nodes) have no latency promise and keep
        // screening the whole family for the cheapest variant.
        let first_valid_suffices = matches!(
            limit,
            BudgetLimit::WallClock | BudgetLimit::Deadline | BudgetLimit::Cancelled
        );
        let mut best: Option<OptimalMapping> = None;
        let screened = for_each_mixed_radix(self.alg.index_set.mu(), |pi, objective| {
            let Some(cand) = self.fallback_candidate(pi, objective, candidates_examined, &mut tel)
            else {
                return ControlFlow::Continue(());
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    // Equal-objective ties follow the solver's tie-break
                    // pin: the fallback must return the same
                    // representative convention as `solve`, or a budgeted
                    // warm-start probe and the full search would disagree
                    // on μ-stable families.
                    let tie = match self.tie_break {
                        TieBreak::FirstFound => cand.schedule.as_slice() < b.schedule.as_slice(),
                        TieBreak::LexMax => cand.schedule.as_slice() > b.schedule.as_slice(),
                    };
                    cand.objective < b.objective || (cand.objective == b.objective && tie)
                }
            };
            if better {
                best = Some(cand);
            }
            if first_valid_suffices {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        tel.fallback_screened = screened;
        match best {
            Some(mapping) => {
                Ok(SearchOutcome::best_effort(mapping, candidates_examined).with_telemetry(tel))
            }
            None => Err(CfmapError::BudgetExhausted { limit, candidates_examined }),
        }
    }

    /// Screen a fallback schedule. Uses the *exact* conflict test
    /// regardless of the configured [`ConditionKind`] — injectivity of
    /// the mixed-radix `Π` guarantees conflict-freedom, and the exact
    /// test certifies it without the conservatism of the closed forms.
    fn fallback_candidate(
        &self,
        pi: &[i64],
        objective: i64,
        examined: u64,
        tel: &mut SearchTelemetry,
    ) -> Option<OptimalMapping> {
        let schedule = LinearSchedule::new(pi);
        if !schedule.is_valid_for(&self.alg.deps) {
            return None;
        }
        let mapping = MappingMatrix::new(self.space.clone(), schedule.clone());
        let analysis = ConflictAnalysis::new(&mapping, &self.alg.index_set);
        tel.hnf_computations += 1;
        if analysis.rank() != mapping.k() {
            return None;
        }
        tel.condition_hits.record(crate::metrics::ConditionRule::Exact);
        if !analysis.is_conflict_free_exact() {
            return None;
        }
        let routing = match self.primitives {
            Some(p) => Some(route(&mapping, &self.alg.deps, p).ok()?),
            None => None,
        };
        Some(OptimalMapping {
            mapping,
            schedule,
            objective,
            total_time: objective + 1,
            routing,
            candidates_examined: examined,
        })
    }

    /// Count (without accepting) how many candidates exist up to the given
    /// objective — the search-space measurement of experiment E9.
    pub fn count_candidates(&self, max_objective: i64) -> u64 {
        let mu = self.alg.index_set.mu();
        let n = self.alg.dim();
        let mut count = 0u64;
        for cost in 1..=max_objective {
            enumerate_weighted(n, mu, cost, &mut |_| count += 1);
        }
        count
    }

    /// [`Self::count_candidates`] over the symmetry-quotiented space:
    /// one representative per stabilizer orbit. The quotient-factor
    /// measurement of experiment E15 — counted regardless of the
    /// configured [`SymmetryMode`]/tie-break gates, since counting has
    /// no soundness preconditions.
    pub fn count_candidates_quotiented(&self, max_objective: i64) -> u64 {
        let stab = crate::canon::stabilizer(self.alg, self.space);
        let quotient = (!stab.is_trivial()).then(|| {
            let classes = stab.symmetric_classes();
            Quotient { stab, classes }
        });
        let mut count = 0u64;
        for cost in 1..=max_objective {
            self.enumerate_level(cost, quotient.as_ref(), &mut |_| count += 1);
        }
        count
    }
}

/// Fold one level's orbit-pruning tally into the telemetry and the
/// process-wide counter: the exact full-space level count (when still
/// cheap to compute, see [`ORBIT_COUNT_MAX`]) minus the representatives
/// actually enumerated.
fn account_orbits(
    cost: i64,
    reps_enumerated: u64,
    counter: Option<&mut FullCounter>,
    tel: &mut SearchTelemetry,
) {
    let Some(counter) = counter else { return };
    let Some(full) = counter.count(cost) else { return };
    let pruned = full.saturating_sub(reps_enumerated);
    if pruned > 0 {
        tel.orbits_pruned += pruned;
        crate::metrics::ORBITS_PRUNED.add(pruned);
    }
}

/// Incremental exact count of the *full* candidate space per objective
/// level, `completions[i][r]` = number of ways to assign signed values to
/// axes `i..n` with total weight exactly `r` — mirroring
/// [`enumerate_weighted`]'s semantics, including the `|π| ≤ remaining`
/// truncation of zero-weight axes. Saturating `u64` throughout. The
/// tables grow lazily with the requested cost, so a whole search costs
/// `O(n · cost_max² / μ_min)` — trivial next to the screening it meters.
struct FullCounter {
    mu: Vec<i64>,
    /// `table[i][r]` for `i ∈ 0..=n`; `table[n][r] = [r == 0]`.
    table: Vec<Vec<u64>>,
}

impl FullCounter {
    fn new(mu: &[i64]) -> FullCounter {
        FullCounter { mu: mu.to_vec(), table: vec![Vec::new(); mu.len() + 1] }
    }

    /// Full-space candidate count at exactly `cost`; `None` past
    /// [`ORBIT_COUNT_MAX`] (accounting stops, enumeration does not).
    fn count(&mut self, cost: i64) -> Option<u64> {
        if !(0..=ORBIT_COUNT_MAX).contains(&cost) {
            return None;
        }
        let c = usize::try_from(cost).expect("cost in range");
        let n = self.mu.len();
        for r in self.table[n].len()..=c {
            self.table[n].push(u64::from(r == 0));
        }
        for i in (0..n).rev() {
            let w = self.mu[i];
            for r in self.table[i].len()..=c {
                let mut acc: u64;
                if w == 0 {
                    // Zero-weight axis: 2r+1 choices of π_i, none spend.
                    let choices = 2 * (r as u64) + 1;
                    acc = self.table[i + 1][r].saturating_mul(choices);
                } else {
                    acc = self.table[i + 1][r]; // a = 0
                    let step = usize::try_from(w).expect("μ > 0 fits usize");
                    let mut spent = step;
                    while spent <= r {
                        acc = acc.saturating_add(self.table[i + 1][r - spent].saturating_mul(2));
                        spent += step;
                    }
                }
                self.table[i].push(acc);
            }
        }
        Some(self.table[0][c])
    }
}

/// Condition 1 (`Π·d̄ᵢ ≥ 1` for every dependence) on pre-extracted i64
/// columns: exact — [`Procedure51::deps_columns_i64`] bounds the entries
/// so no i128 dot product can overflow — and allocation-free, which
/// matters because this is the rejection nearly every enumerated
/// candidate takes.
fn schedule_valid_i64(pi: &[i64], deps: &[Vec<i64>]) -> bool {
    deps.iter().all(|d| {
        d.iter().zip(pi).map(|(&a, &b)| i128::from(a) * i128::from(b)).sum::<i128>() > 0
    })
}

/// `Σ |π_i|·μ_i` with overflow checking.
pub(crate) fn weighted_objective(pi: &[i64], mu: &[i64]) -> Option<i64> {
    let mut acc: i64 = 0;
    for (p, m) in pi.iter().zip(mu) {
        acc = acc.checked_add(p.checked_abs()?.checked_mul(*m)?)?;
    }
    Some(acc)
}

/// Cap on (permutation, sign) variants screened by the budget-degrade
/// fallback. Exactly `6!·2⁶`, the full variant space of a 6-axis
/// problem, so results for `n ≤ 6` are unchanged; larger problems screen
/// the deterministic lexicographic prefix. Without a cap the fallback
/// was `n!·2ⁿ` — materializing (and walking) that for a wire-supplied
/// `n` of a few dozen axes is an OOM/hang.
const MAX_FALLBACK_VARIANTS: u64 = 46_080;

/// Walk the mixed-radix schedule family: for each axis permutation in
/// lexicographic order the weights `w_next = w · (μ + 1)`, first axis
/// fastest, and for each of its `2ⁿ` sign patterns the schedule `Π`,
/// handed to `visit` with its objective `Σ|π_i|μ_i` until `visit`
/// breaks. Every variant is charged against [`MAX_FALLBACK_VARIANTS`],
/// including a permutation whose weights overflow (charged once, none of
/// its sign patterns visited) and a variant whose objective overflows
/// (not visited). Returns the number of variants charged.
fn for_each_mixed_radix(mu: &[i64], mut visit: impl FnMut(&[i64], i64) -> ControlFlow<()>) -> u64 {
    let n = mu.len();
    let mut screened = 0u64;
    let mut perm: Vec<usize> = (0..n).collect();
    'perms: loop {
        let mut w = vec![0i64; n];
        let mut acc: i64 = 1;
        let mut overflow = false;
        for &ax in &perm {
            w[ax] = acc;
            match mu[ax].checked_add(1).and_then(|radix| acc.checked_mul(radix)) {
                Some(next) => acc = next,
                None => {
                    overflow = true;
                    break;
                }
            }
        }
        if overflow {
            // Still charge the cap: with huge μ every permutation may
            // overflow, and n! of even these cheap skips must not run
            // unbounded.
            screened += 1;
            if screened >= MAX_FALLBACK_VARIANTS {
                break;
            }
        } else {
            let sign_count = match n {
                0..=62 => 1u64 << n,
                _ => u64::MAX, // the cap trips long before 2⁶³
            };
            for signs in 0u64..sign_count {
                if screened >= MAX_FALLBACK_VARIANTS {
                    break 'perms;
                }
                screened += 1;
                let pi: Vec<i64> = (0..n)
                    .map(|i| if i < 64 && signs >> i & 1 == 1 { -w[i] } else { w[i] })
                    .collect();
                let Some(objective) = weighted_objective(&pi, mu) else { continue };
                if visit(&pi, objective).is_break() {
                    break 'perms;
                }
            }
        }
        if !next_permutation(&mut perm) {
            break;
        }
    }
    screened
}

/// Advance `p` to the lexicographically next permutation in place;
/// `false` once `p` is the last (descending) one.
fn next_permutation(p: &mut [usize]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

/// Enumerate all `Π ∈ Z^n` with `Σ |π_i|·μ_i == cost` (each candidate
/// visited exactly once, sign choices included, `π_i = 0` allowed where
/// the remaining weight permits).
///
/// A zero weight `μ_i = 0` would make axis `i` cost-free and the candidate
/// set infinite; such axes are capped at `|π_i| ≤ cost` — they do not
/// affect the objective, and larger entries only worsen rank/validity, so
/// the truncation preserves optimality for the searches the paper runs.
pub(crate) fn enumerate_weighted(n: usize, mu: &[i64], cost: i64, f: &mut impl FnMut(&[i64])) {
    let mut pi = vec![0i64; n];
    rec(0, cost, n, mu, &mut pi, f);

    fn rec(i: usize, remaining: i64, n: usize, mu: &[i64], pi: &mut Vec<i64>, f: &mut impl FnMut(&[i64])) {
        if i == n {
            if remaining == 0 {
                f(pi);
            }
            return;
        }
        let w = mu[i];
        if i + 1 == n {
            // The last axis must close the level: only `|π| = remaining/w`
            // can, emitted + then − (a zero-weight axis closes it only at
            // π = 0, when nothing remains).
            match last_axis_abs(remaining, w) {
                Some(0) => f(pi),
                Some(a) => {
                    pi[i] = a;
                    f(pi);
                    pi[i] = -a;
                    f(pi);
                    pi[i] = 0;
                }
                None => {}
            }
            return;
        }
        let max_abs = if w == 0 { remaining } else { remaining / w };
        for a in 0..=max_abs {
            let used = if w == 0 { 0 } else { a * w };
            // Zero-weight axes must still terminate: spend nothing but cap |π|.
            pi[i] = a;
            rec(i + 1, remaining - used, n, mu, pi, f);
            if a != 0 {
                pi[i] = -a;
                rec(i + 1, remaining - used, n, mu, pi, f);
            }
        }
        pi[i] = 0;
    }
}

/// The `|π|` with which the last axis (weight `w`) spends exactly
/// `remaining`, if any: `remaining / w` when `w` divides it; for a
/// zero-weight axis, `0` when nothing remains.
fn last_axis_abs(remaining: i64, w: i64) -> Option<i64> {
    if w == 0 {
        (remaining == 0).then_some(0)
    } else {
        (remaining % w == 0).then(|| remaining / w)
    }
}

/// [`enumerate_weighted`] restricted to class-product orbit
/// representatives: for each axis `i` with a same-class predecessor
/// `p = prev[i]`, only values `π_i ≤ π_p` are explored — the
/// non-increasing-within-class rule that picks exactly the lex-greatest
/// member of each orbit when the stabilizer is the full symmetric group
/// on each class (with no sign flips; see
/// [`Stabilizer::symmetric_classes`]). Pruning happens inside the
/// recursion, so skipped orbit members cost nothing, not even a callback.
fn enumerate_weighted_classes(
    n: usize,
    mu: &[i64],
    cost: i64,
    prev: &[Option<usize>],
    f: &mut impl FnMut(&[i64]),
) {
    let mut pi = vec![0i64; n];
    rec(0, cost, n, mu, prev, &mut pi, f);

    #[allow(clippy::too_many_arguments)]
    fn rec(
        i: usize,
        remaining: i64,
        n: usize,
        mu: &[i64],
        prev: &[Option<usize>],
        pi: &mut Vec<i64>,
        f: &mut impl FnMut(&[i64]),
    ) {
        if i == n {
            if remaining == 0 {
                f(pi);
            }
            return;
        }
        let w = mu[i];
        let max_abs = if w == 0 { remaining } else { remaining / w };
        let hi = match prev[i] {
            Some(p) => max_abs.min(pi[p]),
            None => max_abs,
        };
        if i + 1 == n {
            // Only `|π| = remaining/w` closes the level (see
            // `last_axis_abs`); emitted in the loop's ascending order, −a
            // then +a, each only under the class ceiling.
            if let Some(a) = last_axis_abs(remaining, w) {
                if -a <= hi {
                    pi[i] = -a;
                    f(pi);
                }
                if a != 0 && a <= hi {
                    pi[i] = a;
                    f(pi);
                }
                pi[i] = 0;
            }
            return;
        }
        // Same-class axes share μ, so every value in range fits the
        // remaining weight; the loop only ascends to the class ceiling.
        for v in -max_abs..=hi {
            let used = if w == 0 { 0 } else { v.abs() * w };
            pi[i] = v;
            rec(i + 1, remaining - used, n, mu, prev, pi, f);
        }
        pi[i] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Certification;
    use cfmap_model::algorithms;

    #[test]
    fn enumerate_weighted_small() {
        // n = 2, μ = (1, 1), cost 2: vectors with |π1| + |π2| = 2:
        // (±2, 0), (0, ±2), (±1, ±1) → 8 candidates.
        let mut seen = Vec::new();
        enumerate_weighted(2, &[1, 1], 2, &mut |pi| seen.push(pi.to_vec()));
        assert_eq!(seen.len(), 8);
        let mut set: Vec<Vec<i64>> = seen.clone();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 8, "duplicates produced");
        for pi in &seen {
            assert_eq!(pi[0].abs() + pi[1].abs(), 2);
        }
    }

    /// The enumerators before the last axis was emitted in O(1): every
    /// axis, the last included, loops over all its values. Reference for
    /// [`enumerators_match_full_recursion`].
    fn reference_enumerate(
        i: usize,
        remaining: i64,
        mu: &[i64],
        prev: Option<&[Option<usize>]>,
        pi: &mut Vec<i64>,
        f: &mut impl FnMut(&[i64]),
    ) {
        if i == mu.len() {
            if remaining == 0 {
                f(pi);
            }
            return;
        }
        let w = mu[i];
        let max_abs = if w == 0 { remaining } else { remaining / w };
        let used = |a: i64| if w == 0 { 0 } else { a * w };
        match prev {
            None => {
                for a in 0..=max_abs {
                    pi[i] = a;
                    reference_enumerate(i + 1, remaining - used(a), mu, prev, pi, f);
                    if a != 0 {
                        pi[i] = -a;
                        reference_enumerate(i + 1, remaining - used(a), mu, prev, pi, f);
                    }
                }
            }
            Some(classes) => {
                let hi = match classes[i] {
                    Some(p) => max_abs.min(pi[p]),
                    None => max_abs,
                };
                for v in -max_abs..=hi {
                    pi[i] = v;
                    reference_enumerate(i + 1, remaining - used(v.abs()), mu, prev, pi, f);
                }
            }
        }
        pi[i] = 0;
    }

    #[test]
    fn enumerators_match_full_recursion() {
        // Identical emitted sequences — order, signs and zero-weight axes
        // — for n ≤ 5, μ including 0, costs ≤ 30, with and without class
        // predecessor maps (each axis's nearest earlier equal-μ axis).
        let mus: &[&[i64]] = &[
            &[],
            &[0],
            &[3],
            &[1, 1],
            &[0, 2],
            &[2, 0],
            &[1, 2, 3],
            &[0, 1, 0],
            &[2, 2, 2],
            &[3, 0, 3, 1],
            &[1, 1, 1, 1],
            &[2, 2, 0, 2, 2],
            &[3, 1, 3, 4, 1],
            &[4, 4, 4, 4, 4],
        ];
        for &mu in mus {
            let n = mu.len();
            let classes: Vec<Option<usize>> =
                (0..n).map(|i| (0..i).rev().find(|&j| mu[j] == mu[i])).collect();
            // Zero-weight axes multiply each level by 2·cost + 1; keep the
            // five-axis sweeps short enough for a debug build.
            let max_cost = if n >= 4 { 20 } else { 30 };
            for cost in 0..=max_cost {
                for prev in [None, Some(classes.as_slice())] {
                    let mut want = Vec::new();
                    let mut pi = vec![0i64; n];
                    reference_enumerate(0, cost, mu, prev, &mut pi, &mut |p| {
                        want.extend_from_slice(p)
                    });
                    let mut at = 0;
                    let mut check = |p: &[i64]| {
                        assert_eq!(&want[at..at + n], p, "μ = {mu:?}, cost {cost}, {prev:?}");
                        at += n;
                    };
                    match prev {
                        None => enumerate_weighted(n, mu, cost, &mut check),
                        Some(c) => enumerate_weighted_classes(n, mu, cost, c, &mut check),
                    }
                    assert_eq!(at, want.len(), "μ = {mu:?}, cost {cost}: sequence cut short");
                }
            }
        }
    }

    #[test]
    fn enumerate_weighted_heterogeneous() {
        // μ = (2, 3), cost 6: |π1|·2 + |π2|·3 = 6 → (±3, 0), (0, ±2).
        let mut seen = Vec::new();
        enumerate_weighted(2, &[2, 3], 6, &mut |pi| seen.push(pi.to_vec()));
        seen.sort();
        assert_eq!(
            seen,
            vec![vec![-3, 0], vec![0, -2], vec![0, 2], vec![3, 0]]
        );
    }

    #[test]
    fn matmul_search_finds_paper_optimum() {
        // Example 5.1 (μ = 4, S = [1, 1, −1]): optimum f = 24,
        // Π° ∈ {[1, 4, 1], [4, 1, 1]}, t = 25 = μ(μ+2)+1.
        let alg = algorithms::matmul(4);
        let s = SpaceMap::row(&[1, 1, -1]);
        let opt = Procedure51::new(&alg, &s)
            .solve()
            .expect("search ran")
            .expect_optimal("optimum exists");
        assert_eq!(opt.objective, 24);
        assert_eq!(opt.total_time, 25);
        // The optimum is not unique: the whole edge between the paper's
        // extreme points [1, μ, 1] and [1, 1, μ]... (strictly: the edge of
        // subset I minus the non-feasible vertex) achieves f = 24, e.g.
        // Π = [1, 2, 3]. Procedure 5.1 returns *an* optimum; verify it is
        // one, and separately that the paper's Π₂ = [1, μ, 1] is too.
        let found = opt.schedule.as_slice();
        assert_eq!(found.iter().map(|p| p.abs() * 4).sum::<i64>(), 24);
        let paper_mapping = MappingMatrix::new(s.clone(), LinearSchedule::new(&[1, 4, 1]));
        assert!(crate::oracle::is_conflict_free_by_enumeration(
            &paper_mapping,
            &alg.index_set
        ));
        // Same answer under the paper's closed-form conditions.
        let opt_paper = Procedure51::new(&alg, &s)
            .condition(ConditionKind::Paper)
            .solve()
            .expect("search ran")
            .expect_optimal("optimum exists");
        assert_eq!(opt_paper.objective, 24);
    }

    #[test]
    fn transitive_closure_search_finds_paper_optimum() {
        // Example 5.2 (μ = 4, S = [0, 0, 1]): Π° = [μ+1, 1, 1] = [5, 1, 1],
        // t = μ(μ+3)+1 = 29.
        let alg = algorithms::transitive_closure(4);
        let s = SpaceMap::row(&[0, 0, 1]);
        let opt = Procedure51::new(&alg, &s)
            .solve()
            .expect("search ran")
            .expect_optimal("optimum exists");
        assert_eq!(opt.schedule.as_slice(), &[5, 1, 1]);
        assert_eq!(opt.total_time, 29);
        assert_eq!(opt.total_time, 4 * (4 + 3) + 1);
    }

    #[test]
    fn transitive_closure_beats_prior_work() {
        // The paper's improvement claim: t = μ(μ+3)+1 improves on [22]'s
        // μ(2μ+3)+1 for every μ ≥ 1.
        for mu in 2..=6 {
            let alg = algorithms::transitive_closure(mu);
            let s = SpaceMap::row(&[0, 0, 1]);
            let opt = Procedure51::new(&alg, &s)
                .solve()
                .expect("search ran")
                .expect_optimal("optimum exists");
            assert_eq!(opt.total_time, mu * (mu + 3) + 1, "μ = {mu}");
            assert!(opt.total_time < mu * (2 * mu + 3) + 1);
        }
    }

    #[test]
    fn matmul_with_routing_requirement() {
        let alg = algorithms::matmul(4);
        let s = SpaceMap::row(&[1, 1, -1]);
        let p = InterconnectionPrimitives::from_columns(&[&[1], &[1], &[-1]]);
        let opt = Procedure51::new(&alg, &s)
            .primitives(&p)
            .solve()
            .expect("search ran")
            .expect_optimal("routable optimum exists");
        assert_eq!(opt.objective, 24);
        let routing = opt.routing.expect("routing present");
        assert!(routing.is_collision_free_by_k());
        assert_eq!(routing.total_buffers(), cfmap_intlin::Int::from(3));
    }

    #[test]
    fn telemetry_accounts_for_every_candidate() {
        let alg = algorithms::matmul(4);
        let s = SpaceMap::row(&[1, 1, -1]);
        let out = Procedure51::new(&alg, &s).solve().unwrap();
        let t = &out.telemetry;
        assert_eq!(t.enumerated, out.candidates_examined);
        assert_eq!(t.accepted, 1);
        assert_eq!(t.enumerated, t.accepted + t.rejected_total(), "{t:?}");
        // The box-kernel table decides the rank and conflict gates: no
        // Hermite form is computed, and every candidate surviving the
        // rank gate gets an exact table verdict.
        assert_eq!(t.hnf_computations, 0, "{t:?}");
        assert_eq!(
            t.condition_hits.exact,
            t.enumerated - t.rejected_schedule - t.rejected_prefilter - t.rejected_rank,
            "{t:?}"
        );
        assert_eq!(t.condition_hits.exact, t.condition_hits.total(), "default kind is Exact");
        let last = t.levels.last().expect("levels recorded");
        assert_eq!((last.objective, last.accepted), (24, 1));
        assert_eq!(t.levels.iter().map(|l| l.enumerated).sum::<u64>(), t.enumerated);
        assert!(t.budget_limit.is_none());

        // Under the paper's conditions the r = 1 dispatch (Theorem 3.1)
        // carries the load for a 3-D → linear-array search.
        let paper = Procedure51::new(&alg, &s)
            .condition(ConditionKind::Paper)
            .solve()
            .unwrap();
        assert!(paper.telemetry.condition_hits.thm_3_1 > 0, "{:?}", paper.telemetry);
        assert_eq!(paper.telemetry.condition_hits.exact, 0);
    }

    #[test]
    fn budget_telemetry_records_limit_and_fallback_effort() {
        let alg = algorithms::matmul(3);
        let s = SpaceMap::row(&[1, 1, -1]);
        let out = Procedure51::new(&alg, &s)
            .budget(SearchBudget::candidates(2))
            .solve()
            .unwrap();
        assert_eq!(out.telemetry.budget_limit, Some(BudgetLimit::Candidates));
        assert!(out.telemetry.fallback_screened > 0);
        assert!(out.telemetry.condition_hits.exact > 0, "fallback screens exactly");
    }

    #[test]
    fn search_gives_up_at_cap() {
        // An impossible requirement: tiny objective cap means the candidate
        // space is exhausted without an acceptable schedule.
        let alg = algorithms::matmul(2);
        let s = SpaceMap::row(&[1, 1, -1]);
        let out = Procedure51::new(&alg, &s).max_objective(2).solve().unwrap();
        assert_eq!(out.certification, Certification::Infeasible);
        assert!(out.mapping.is_none());
        assert!(out.candidates_examined > 0);
    }

    #[test]
    fn tiny_budget_degrades_to_best_effort() {
        let alg = algorithms::matmul(3);
        let s = SpaceMap::row(&[1, 1, -1]);
        let out = Procedure51::new(&alg, &s)
            .budget(SearchBudget::candidates(2))
            .solve()
            .expect("degrades, does not fail");
        let Certification::BestEffort { candidates_examined } = out.certification else {
            panic!("expected BestEffort, got {:?}", out.certification);
        };
        assert_eq!(candidates_examined, 2);
        let m = out.mapping.expect("fallback mapping present");
        // The fallback is a genuinely valid conflict-free mapping.
        assert!(m.mapping.respects_dependencies(&alg.deps));
        assert!(m.mapping.has_full_rank());
        assert!(crate::oracle::is_conflict_free_by_enumeration(&m.mapping, &alg.index_set));
    }

    #[test]
    fn budget_degradation_is_deterministic() {
        let alg = algorithms::matmul(3);
        let s = SpaceMap::row(&[1, 1, -1]);
        let a = Procedure51::new(&alg, &s)
            .budget(SearchBudget::candidates(3))
            .solve()
            .unwrap();
        let b = Procedure51::new(&alg, &s)
            .budget(SearchBudget::candidates(3))
            .solve()
            .unwrap();
        assert_eq!(a.certification, b.certification);
        assert_eq!(
            a.mapping.unwrap().schedule.as_slice(),
            b.mapping.unwrap().schedule.as_slice()
        );
    }

    #[test]
    fn generous_budget_still_finds_optimum() {
        let alg = algorithms::matmul(3);
        let s = SpaceMap::row(&[1, 1, -1]);
        let free = Procedure51::new(&alg, &s).solve().unwrap();
        let budgeted = Procedure51::new(&alg, &s)
            .budget(SearchBudget::candidates(1_000_000))
            .solve()
            .unwrap();
        assert!(budgeted.is_optimal());
        assert_eq!(
            free.mapping.unwrap().objective,
            budgeted.mapping.unwrap().objective
        );
    }

    #[test]
    fn zero_wall_clock_budget_degrades_immediately() {
        let alg = algorithms::matmul(3);
        let s = SpaceMap::row(&[1, 1, -1]);
        let out = Procedure51::new(&alg, &s)
            .budget(SearchBudget::wall_clock(std::time::Duration::ZERO))
            .solve()
            .expect("degrades, does not fail");
        assert!(out.certification.is_best_effort());
    }

    #[test]
    fn cancel_token_winds_search_down_mid_enumeration() {
        use crate::budget::CancelToken;
        use std::sync::atomic::{AtomicU64, Ordering};

        let alg = algorithms::matmul(4);
        let s = SpaceMap::row(&[1, 1, -1]);
        let token = CancelToken::new();
        let seen = AtomicU64::new(0);
        let cancel_after = 5u64;
        let t = token.clone();
        let probe = move |_pi: &[i64]| {
            if seen.fetch_add(1, Ordering::Relaxed) + 1 == cancel_after {
                t.cancel();
            }
        };
        let out = Procedure51::new(&alg, &s)
            .cancel_token(&token)
            .candidate_probe(&probe)
            .solve()
            .expect("cancellation degrades, does not fail");
        assert!(out.certification.is_best_effort());
        assert_eq!(out.telemetry.budget_limit, Some(BudgetLimit::Cancelled));
        // The cancelled candidate itself is still screened; the search
        // stops before the next one.
        assert_eq!(out.candidates_examined, cancel_after + 1);
        // Time-critical degradation takes the first valid fallback
        // instead of screening the full n!·2ⁿ = 48 family.
        assert!(out.telemetry.fallback_screened < 48);
        assert!(out.mapping.is_some());
    }

    #[test]
    fn pre_cancelled_search_returns_without_enumerating() {
        use crate::budget::CancelToken;

        let alg = algorithms::matmul(4);
        let s = SpaceMap::row(&[1, 1, -1]);
        let token = CancelToken::new();
        token.cancel();
        let out = Procedure51::new(&alg, &s)
            .cancel_token(&token)
            .solve()
            .expect("degrades");
        assert!(out.certification.is_best_effort());
        assert_eq!(out.candidates_examined, 0);
        assert_eq!(out.telemetry.budget_limit, Some(BudgetLimit::Cancelled));
    }

    #[test]
    fn candidate_counting_grows_with_cost() {
        let alg = algorithms::matmul(3);
        let s = SpaceMap::row(&[1, 1, -1]);
        let proc = Procedure51::new(&alg, &s);
        let c10 = proc.count_candidates(10);
        let c20 = proc.count_candidates(20);
        assert!(c20 > c10);
        assert!(c10 > 0);
    }

    #[test]
    fn paper_searches_never_spill_to_bignum() {
        // Acceptance criterion of the small-integer fast path: the full
        // Procedure 5.1 searches for the paper's worked examples stay on
        // the inline i64 representation end to end — zero heap-spilling
        // Int promotions on this thread.
        for (alg, s_row) in [
            (algorithms::matmul(4), vec![1i64, 1, -1]),
            (algorithms::transitive_closure(4), vec![0, 0, 1]),
        ] {
            let s = SpaceMap::row(&s_row);
            let before = cfmap_intlin::thread_bigint_spills();
            let opt = Procedure51::new(&alg, &s)
                .solve()
                .expect("search ran")
                .expect_optimal("optimum exists");
            assert!(opt.objective > 0);
            assert_eq!(
                cfmap_intlin::thread_bigint_spills(),
                before,
                "{}: search spilled to bignum",
                alg.name
            );
        }
    }

    #[test]
    fn first_found_is_optimal_invariant() {
        // Cross-check: no valid conflict-free candidate with a smaller
        // objective exists below the reported optimum (probe a grid).
        let alg = algorithms::matmul(3);
        let s = SpaceMap::row(&[1, 1, -1]);
        let opt = Procedure51::new(&alg, &s).solve().unwrap().into_mapping().unwrap();
        let mu = alg.index_set.mu();
        for p1 in -3i64..=3 {
            for p2 in -3i64..=3 {
                for p3 in -3i64..=3 {
                    let pi = [p1, p2, p3];
                    let cost: i64 = pi.iter().zip(mu).map(|(p, m)| p.abs() * m).sum();
                    if cost >= opt.objective || cost == 0 {
                        continue;
                    }
                    let sched = LinearSchedule::new(&pi);
                    if !sched.is_valid_for(&alg.deps) {
                        continue;
                    }
                    let m = MappingMatrix::new(s.clone(), sched);
                    if !m.has_full_rank() {
                        continue;
                    }
                    assert!(
                        !crate::oracle::is_conflict_free_by_enumeration(&m, &alg.index_set),
                        "Π = {pi:?} beats the reported optimum"
                    );
                }
            }
        }
    }
}
