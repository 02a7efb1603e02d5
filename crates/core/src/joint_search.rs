//! Problem 6.2 — optimal conflict-free mapping with **both** `S` and `Π`
//! free (the paper's second future-work problem, Section 6).
//!
//! *"Given an n-dimensional uniform dependence algorithm and a
//! (k−1)-dimensional processor array, find a conflict-free mapping matrix
//! `T ∈ Z^{k×n}` such that a certain criterion is optimized."*
//!
//! The search composes the two single-variable procedures: enumerate
//! canonical space maps (as in Problem 6.1) and run Procedure 5.1 under
//! each, ranking complete designs by the chosen criterion. Pruning: under
//! the time-first criterion, once some design achieves time `t*`, later
//! space maps only search schedules with objective `< t*` (`≤ t*` under
//! [`TieBreak::LexMax`], which must still see equal-time designs to pick
//! the lex-greatest space row among them).
//!
//! Each inner search screens by its space row's box-kernel table (see
//! `crate::box_kernel`), and the outer space-row space can be quotiented
//! by the bare problem's symmetry stabilizer
//! ([`crate::canon::problem_stabilizer`] — no `Π` is pinned here, `S`
//! itself is the variable).

use crate::budget::{CancelToken, SearchBudget, SearchOutcome};
use crate::canon::Stabilizer;
use crate::conditions::ConditionKind;
use crate::error::{BudgetLimit, CfmapError};
use crate::mapping::{MappingMatrix, SpaceMap};
use crate::metrics::SearchTelemetry;
use crate::search::{Procedure51, SymmetryMode, TieBreak};
use crate::space_search::{canonical_rows, is_class_representative, vlsi_cost};
use cfmap_model::{LinearSchedule, Uda};

/// What "optimal" means for a complete design (Problem 6.2's "certain
/// criterion").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JointCriterion {
    /// Minimize total time; break ties by VLSI cost (sites + wires).
    TimeThenSpace,
    /// Minimize VLSI cost; break ties by total time.
    SpaceThenTime,
    /// Minimize `time·tw + cost·sw`.
    WeightedSum {
        /// Weight on total execution time.
        time_weight: i64,
        /// Weight on VLSI cost.
        space_weight: i64,
    },
}

/// A complete Problem 6.2 solution.
#[derive(Clone, Debug)]
pub struct JointOptimal {
    /// The chosen space map.
    pub space: SpaceMap,
    /// The chosen schedule.
    pub schedule: LinearSchedule,
    /// The full mapping.
    pub mapping: MappingMatrix,
    /// Total execution time.
    pub total_time: i64,
    /// VLSI cost (sites + wire length, as in Problem 6.1).
    pub space_cost: i64,
    /// Space maps tried.
    pub space_maps_tried: u64,
}

/// A fully-screened outer candidate: when its inner schedule search
/// found a design under the cap it ran with, the complete design and its
/// `(time, cost)` pair.
type RowResult = Option<(i64, i64, JointOptimal)>;

/// Problem 6.2 search over 1-row space maps.
pub struct JointSearch<'a> {
    alg: &'a Uda,
    entry_bound: i64,
    criterion: JointCriterion,
    condition: ConditionKind,
    max_objective: Option<i64>,
    budget: SearchBudget,
    cancel: Option<&'a CancelToken>,
    tie_break: TieBreak,
    symmetry: SymmetryMode,
}

impl<'a> JointSearch<'a> {
    /// Start a joint search for `alg` targeting a linear array.
    pub fn new(alg: &'a Uda) -> Self {
        JointSearch {
            alg,
            entry_bound: 1,
            criterion: JointCriterion::TimeThenSpace,
            condition: ConditionKind::Exact,
            max_objective: None,
            budget: SearchBudget::unlimited(),
            cancel: None,
            tie_break: TieBreak::default(),
            symmetry: SymmetryMode::default(),
        }
    }

    /// Bound on `|s_i|` (default 1).
    pub fn entry_bound(mut self, bound: i64) -> Self {
        self.entry_bound = bound;
        self
    }

    /// The optimization criterion (default: time, then space).
    pub fn criterion(mut self, c: JointCriterion) -> Self {
        self.criterion = c;
        self
    }

    /// Conflict test (default exact).
    pub fn condition(mut self, kind: ConditionKind) -> Self {
        self.condition = kind;
        self
    }

    /// Cap each inner schedule search.
    pub fn max_objective(mut self, cap: i64) -> Self {
        self.max_objective = Some(cap);
        self
    }

    /// Bound the work performed (space maps screened / wall clock).
    /// Exhaustion degrades gracefully to the best design found so far.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Poll a [`CancelToken`] once per space map and inside every inner
    /// Procedure 5.1 run; tripping it degrades to the best design found
    /// so far within one candidate's latency.
    pub fn cancel_token(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Select how ties among equally-scored designs are broken across
    /// space rows (default: [`TieBreak::FirstFound`], the lex-least
    /// winning row). [`TieBreak::LexMax`] keeps equal-time designs alive
    /// through the time-first pruning and returns the lex-greatest
    /// minimal-score row — the pin the symmetry quotient requires.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Select whether the outer space-row space is quotiented by the bare
    /// problem's symmetry stabilizer (default: [`SymmetryMode::Full`]).
    /// Active only under [`TieBreak::LexMax`] + [`ConditionKind::Exact`]
    /// with an unlimited budget and no cancel token (the soundness
    /// preconditions); silently degrades to full enumeration otherwise.
    pub fn symmetry(mut self, mode: SymmetryMode) -> Self {
        self.symmetry = mode;
        self
    }

    fn cancel_tripped(&self) -> Option<BudgetLimit> {
        match self.cancel {
            Some(c) if c.is_cancelled() => Some(BudgetLimit::Cancelled),
            _ => None,
        }
    }

    fn score(&self, time: i64, cost: i64) -> (i64, i64) {
        match self.criterion {
            JointCriterion::TimeThenSpace => (time, cost),
            JointCriterion::SpaceThenTime => (cost, time),
            JointCriterion::WeightedSum { time_weight, space_weight } => {
                (time * time_weight + cost * space_weight, 0)
            }
        }
    }

    /// The active outer symmetry quotient, or `None` when the mode is off
    /// or a soundness precondition fails. With no `Π` pinned the group is
    /// the stabilizer of `(μ, D)` alone: each element maps a candidate
    /// space row to one of identical VLSI cost whose inner schedule
    /// search has the identical optimal objective (the map `Π ↦ Π·G` is
    /// an objective-preserving bijection of feasible schedules), so whole
    /// orbits share one score and the `LexMax` winner is always its
    /// orbit's representative.
    fn active_quotient(&self) -> Option<Stabilizer> {
        if self.symmetry != SymmetryMode::Quotient
            || self.tie_break != TieBreak::LexMax
            || self.condition != ConditionKind::Exact
            || !self.budget.is_unlimited()
            || self.cancel.is_some()
        {
            return None;
        }
        let stab = crate::canon::problem_stabilizer(self.alg);
        if stab.is_trivial() {
            return None;
        }
        Some(stab)
    }

    /// The [`canonical_rows`] pool of outer candidate rows,
    /// quotient-filtered when one is active. Returns the rows and the
    /// number of non-representatives dropped.
    fn candidate_rows(&self, quotient: Option<&Stabilizer>) -> (Vec<Vec<i64>>, u64) {
        let mut rows = canonical_rows(self.alg.dim(), self.entry_bound);
        let before = rows.len();
        if let Some(stab) = quotient {
            rows.retain(|r| is_class_representative(stab, std::slice::from_ref(r)));
        }
        let pruned = (before - rows.len()) as u64;
        (rows, pruned)
    }

    /// Run the inner Procedure 5.1 for one outer row under `cap` (when
    /// finite), producing the row's complete design if one exists within
    /// the cap.
    fn solve_row(
        &self,
        row: &[i64],
        cap: i64,
        tel: &mut SearchTelemetry,
    ) -> Result<RowResult, CfmapError> {
        let space = SpaceMap::row(row);
        let mut proc = Procedure51::new(self.alg, &space).condition(self.condition);
        if let Some(c) = self.cancel {
            proc = proc.cancel_token(c);
        }
        if let Some(d) = self.budget.deadline {
            proc = proc.budget(SearchBudget::until(d));
        }
        if cap < i64::MAX {
            proc = proc.max_objective(cap);
        }
        let inner = proc.solve()?;
        tel.merge(&inner.telemetry);
        tel.budget_limit = inner.telemetry.budget_limit;
        let design = match inner.into_mapping() {
            Some(opt) => {
                let (cost, _, _) = vlsi_cost(self.alg, &space)?;
                let time = opt.total_time;
                let sol = JointOptimal {
                    space,
                    schedule: opt.schedule.clone(),
                    mapping: opt.mapping,
                    total_time: time,
                    space_cost: cost,
                    space_maps_tried: 0, // filled at the end
                };
                Some((time, cost, sol))
            }
            None => None,
        };
        Ok(design)
    }

    /// The incumbent-driven cap the search hands an inner run: the
    /// global objective cap, tightened under the time-first criterion to
    /// the incumbent's time (exclusive for [`TieBreak::FirstFound`] —
    /// only strictly faster rows can win; inclusive for
    /// [`TieBreak::LexMax`] — equal-time rows must still be seen so the
    /// lex-greatest minimal-score row is kept).
    fn incumbent_cap(&self, incumbent: Option<i64>) -> i64 {
        let mut cap = self.max_objective.unwrap_or(i64::MAX);
        if self.criterion == JointCriterion::TimeThenSpace {
            if let Some(t) = incumbent {
                let tight = match self.tie_break {
                    TieBreak::FirstFound => t - 1,
                    TieBreak::LexMax => t,
                };
                cap = cap.min(tight);
            }
        }
        cap
    }

    /// Run the search.
    ///
    /// Completion yields [`Certification::Optimal`] (every canonical space
    /// map screened) or [`Certification::Infeasible`] (none admits a
    /// conflict-free schedule under the configured caps). A tripped
    /// [`SearchBudget`] degrades to the best complete design found so far,
    /// tagged [`Certification::BestEffort`]; if the budget trips before
    /// *any* design is found, the error is
    /// [`CfmapError::BudgetExhausted`].
    ///
    /// [`Certification::Optimal`]: crate::budget::Certification::Optimal
    /// [`Certification::Infeasible`]: crate::budget::Certification::Infeasible
    /// [`Certification::BestEffort`]: crate::budget::Certification::BestEffort
    pub fn solve(&self) -> Result<SearchOutcome<JointOptimal>, CfmapError> {
        let quotient = self.active_quotient();
        let (rows, pruned) = self.candidate_rows(quotient.as_ref());

        let mut best: Option<(JointOptimal, (i64, i64))> = None;
        let mut meter = self.budget.start();
        let mut tripped = None;
        // Aggregate telemetry of every inner Procedure 5.1 run; the
        // joint search's own per-space-map effort is `enumerated`.
        let mut tel = SearchTelemetry::default();
        tel.orbits_pruned += pruned;
        crate::metrics::ORBITS_PRUNED.add(pruned);
        for r in &rows {
            // The charged space map is still screened; the trip takes
            // effect before the *next* one, keeping degradation
            // deterministic for candidate budgets.
            let limit = meter.charge_candidate().or_else(|| self.cancel_tripped());
            let tried = meter.candidates;
            let cap = self.incumbent_cap(best.as_ref().map(|(inc, _)| inc.total_time));
            let design = self.solve_row(r, cap, &mut tel)?;
            // The inner budget carries only time-critical limits
            // (deadline / cancellation), so an inner trip ends the joint
            // search too — even on the last space map, where the
            // between-maps charge below would never see it.
            let inner_limit = tel.budget_limit;
            if let Some((time, cost, mut sol)) = design {
                let score = self.score(time, cost);
                let better = match &best {
                    None => true,
                    // LexMax admits equal scores so the lex-greatest
                    // minimal-score row (the last seen) wins.
                    Some((_, bs)) => match self.tie_break {
                        TieBreak::FirstFound => score < *bs,
                        TieBreak::LexMax => score <= *bs,
                    },
                };
                if better {
                    sol.space_maps_tried = tried;
                    best = Some((sol, score));
                }
            }
            if let Some(limit) = limit.or(inner_limit) {
                tripped = Some(limit);
                break;
            }
        }
        let examined = meter.candidates;
        tel.budget_limit = tripped;
        match (best, tripped) {
            (Some((mut sol, _)), None) => {
                sol.space_maps_tried = examined;
                Ok(SearchOutcome::optimal(sol, examined).with_telemetry(tel))
            }
            (Some((mut sol, _)), Some(_)) => {
                sol.space_maps_tried = examined;
                Ok(SearchOutcome::best_effort(sol, examined).with_telemetry(tel))
            }
            (None, None) => Ok(SearchOutcome::infeasible(examined).with_telemetry(tel)),
            (None, Some(limit)) => {
                Err(CfmapError::BudgetExhausted { limit, candidates_examined: examined })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cfmap_model::algorithms;

    #[test]
    fn joint_matmul_beats_fixed_space_design() {
        // With S also free, the μ=4 matmul admits designs at least as
        // good as the paper's S = [1,1,−1] / t = 25.
        let alg = algorithms::matmul(4);
        let sol = JointSearch::new(&alg).solve().unwrap().expect_optimal("solvable");
        assert!(sol.total_time <= 25, "joint optimum {} worse than fixed-S", sol.total_time);
        assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
        assert!(sol.mapping.has_full_rank());
    }

    #[test]
    fn joint_tc() {
        let alg = algorithms::transitive_closure(3);
        let sol = JointSearch::new(&alg).solve().unwrap().expect_optimal("solvable");
        assert!(sol.total_time <= 3 * (3 + 3) + 1);
        assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
    }

    #[test]
    fn criteria_trade_time_for_space() {
        let alg = algorithms::matmul(3);
        let fast = JointSearch::new(&alg)
            .criterion(JointCriterion::TimeThenSpace)
            .solve()
            .unwrap()
            .expect_optimal("solvable");
        let small = JointSearch::new(&alg)
            .criterion(JointCriterion::SpaceThenTime)
            .solve()
            .unwrap()
            .expect_optimal("solvable");
        assert!(fast.total_time <= small.total_time);
        assert!(small.space_cost <= fast.space_cost);
    }

    #[test]
    fn weighted_criterion_is_feasible() {
        let alg = algorithms::matmul(3);
        let sol = JointSearch::new(&alg)
            .criterion(JointCriterion::WeightedSum { time_weight: 1, space_weight: 2 })
            .solve()
            .unwrap()
            .expect_optimal("solvable");
        assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
    }

    #[test]
    fn cap_propagates() {
        let alg = algorithms::matmul(4);
        let out = JointSearch::new(&alg).max_objective(3).solve().unwrap();
        assert_eq!(out.certification, crate::budget::Certification::Infeasible);
        assert!(out.mapping().is_none());
    }

    #[test]
    fn budget_degrades_to_best_space_map_so_far() {
        let alg = algorithms::matmul(3);
        let full = JointSearch::new(&alg).solve().unwrap();
        let total = full.candidates_examined;
        assert!(total > 1, "need a multi-candidate search for this test");
        // A budget big enough to reach at least one complete design but
        // smaller than the full enumeration must degrade, not fail.
        let out = JointSearch::new(&alg)
            .budget(SearchBudget::candidates(total - 1))
            .solve()
            .unwrap();
        assert!(out.certification.is_best_effort(), "got {}", out.certification);
        assert_eq!(out.candidates_examined, total - 1);
        let sol = out.into_mapping().expect("best-effort carries a design");
        assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
        assert!(sol.mapping.has_full_rank());
    }

    #[test]
    fn outcome_aggregates_inner_search_telemetry() {
        let alg = algorithms::matmul(3);
        let exact_before = crate::metrics::thread_exact_conflict_tests();
        let out = JointSearch::new(&alg).solve().unwrap();
        let t = &out.telemetry;
        // Inner Procedure 5.1 effort across all space maps, screened by
        // each row's box-kernel table: no Hermite form, no exact lattice
        // test.
        assert!(t.enumerated > 0);
        assert_eq!(t.hnf_computations, 0, "{t:?}");
        assert_eq!(crate::metrics::thread_exact_conflict_tests(), exact_before);
        assert!(t.accepted >= 1, "at least one inner search accepted: {t:?}");
        assert!(t.budget_limit.is_none());
    }

    #[test]
    fn pre_cancelled_joint_search_degrades_promptly() {
        let alg = algorithms::matmul(3);
        let token = CancelToken::new();
        token.cancel();
        let out = JointSearch::new(&alg).cancel_token(&token).solve().unwrap();
        assert!(out.certification.is_best_effort(), "got {}", out.certification);
        assert_eq!(out.telemetry.budget_limit, Some(BudgetLimit::Cancelled));
        // Only the one charged space map was screened (via its fallback).
        assert_eq!(out.candidates_examined, 1);
        let sol = out.into_mapping().expect("fallback design");
        assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
    }

    #[test]
    fn budget_exhausted_before_any_design_is_an_error() {
        // Entry bound 0 leaves no candidate rows at all, so even one
        // charged candidate cannot exist; use a 1-candidate budget on a
        // search whose first space map admits no schedule instead.
        let alg = algorithms::matmul(4);
        let err = JointSearch::new(&alg)
            .max_objective(3) // nothing is schedulable this fast
            .budget(SearchBudget::candidates(1))
            .solve()
            .unwrap_err();
        assert!(matches!(err, CfmapError::BudgetExhausted { candidates_examined: 1, .. }));
    }

    #[test]
    fn lexmax_winner_is_lex_greatest_minimal_row() {
        let alg = algorithms::matmul(3);
        for criterion in [JointCriterion::TimeThenSpace, JointCriterion::SpaceThenTime] {
            let first = JointSearch::new(&alg)
                .criterion(criterion)
                .solve()
                .unwrap()
                .expect_optimal("ff");
            let lexmax = JointSearch::new(&alg)
                .criterion(criterion)
                .tie_break(TieBreak::LexMax)
                .solve()
                .unwrap()
                .expect_optimal("lm");
            // The LexMax design's score can only match the optimum.
            assert_eq!(lexmax.total_time, first.total_time);
            if criterion == JointCriterion::SpaceThenTime {
                assert_eq!(lexmax.space_cost, first.space_cost);
            }
        }
    }

    #[test]
    fn quotient_matches_full_enumeration_lexmax() {
        for alg in [algorithms::matmul(3), algorithms::transitive_closure(3)] {
            for criterion in [JointCriterion::TimeThenSpace, JointCriterion::SpaceThenTime] {
                let base = JointSearch::new(&alg)
                    .criterion(criterion)
                    .tie_break(TieBreak::LexMax)
                    .solve()
                    .unwrap()
                    .expect_optimal("base");
                let quot = JointSearch::new(&alg)
                    .criterion(criterion)
                    .tie_break(TieBreak::LexMax)
                    .symmetry(SymmetryMode::Quotient)
                    .solve()
                    .unwrap()
                    .expect_optimal("quot");
                assert_eq!(quot.space, base.space);
                assert_eq!(quot.schedule, base.schedule);
                assert_eq!(quot.total_time, base.total_time);
                assert_eq!(quot.space_cost, base.space_cost);
            }
        }
    }
}
