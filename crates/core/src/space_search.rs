//! Problem 6.1 — space-optimal conflict-free mappings (the paper's stated
//! future work, Section 6).
//!
//! *"Given an n-dimensional uniform dependence algorithm and a linear
//! schedule vector, find a space mapping matrix `S ∈ Z^{(k−1)×n}` such
//! that `T = [S; Π]` is conflict-free and the number of processors plus
//! the wire length of the array is minimized."*
//!
//! We implement the natural instantiation the paper sketches: enumerate
//! candidate space maps with bounded entries in increasing order of a
//! VLSI cost — processor count plus total wire length (Σ per-dependence
//! `‖S·d̄ᵢ‖₁`, the hop distance every datum must be wired for) — and keep
//! the first conflict-free, full-rank candidate. Like Procedure 5.1 this
//! is exact for the cost ordering used; it is intentionally symmetrical
//! to the time-optimal search so the two can be composed (alternate
//! Π-step / S-step, Problem 6.2 style).
//!
//! The fixed `Π` row is tabulated **once** per run: a box-kernel table
//! (`crate::box_kernel`) lists every in-box direction `γ` with
//! `Π·γ = 0`, so each candidate's rank and exact conflict gates are dot
//! products (`screen_space_rows`, shared with the fixed-schedule
//! Pareto scope). Boxes too large to tabulate and i128 overflow take one
//! from-scratch Hermite form of `[S; Π]` and the exact lattice test
//! instead. The candidate space can be quotiented by the
//! problem's symmetry stabilizer under the `LexMax` pin — bit-identical
//! to full enumeration (see `tests/space_joint_props.rs`).

use crate::box_kernel::BoxKernelTable;
use crate::budget::{SearchBudget, SearchOutcome};
use crate::canon::Stabilizer;
use crate::conflict::ConflictAnalysis;
use crate::error::{BudgetLimit, CfmapError};
use crate::mapping::{MappingMatrix, SpaceMap};
use crate::metrics::{ConditionRule, SearchTelemetry};
use crate::search::{SymmetryMode, TieBreak};
use cfmap_intlin::{IMat, Int};
use cfmap_model::{LinearSchedule, Uda};
use std::collections::BTreeMap;

/// The result of a space-optimal search.
#[derive(Clone, Debug)]
pub struct SpaceOptimalMapping {
    /// The chosen space map.
    pub space: SpaceMap,
    /// The full mapping `T = [S; Π]`.
    pub mapping: MappingMatrix,
    /// Number of processors `|S·J|`.
    pub processors: usize,
    /// Total wire length `Σᵢ ‖S·d̄ᵢ‖₁`.
    pub wire_length: i64,
    /// The combined cost that was minimized.
    pub cost: i64,
    /// Candidates examined before acceptance.
    pub candidates_examined: u64,
}

/// One cost level of the candidate space: all candidates of equal VLSI
/// cost, in lexicographically ascending row order (so the *last*
/// acceptance of a level scan is the `LexMax` winner).
struct CostLevel {
    cost: i64,
    candidates: Vec<Vec<Vec<i64>>>,
    /// Non-representative orbit members dropped by the symmetry quotient.
    pruned: u64,
}

/// Problem 6.1 search over space maps with `rows` rows (`rows = 1` for
/// linear arrays, `rows = 2` for 2-D arrays), entries in
/// `[-entry_bound, entry_bound]`.
pub struct SpaceSearch<'a> {
    alg: &'a Uda,
    schedule: &'a LinearSchedule,
    entry_bound: i64,
    rows: usize,
    budget: SearchBudget,
    tie_break: TieBreak,
    symmetry: SymmetryMode,
}

impl<'a> SpaceSearch<'a> {
    /// Start a search for `alg` under the given (fixed) schedule.
    pub fn new(alg: &'a Uda, schedule: &'a LinearSchedule) -> Self {
        SpaceSearch {
            alg,
            schedule,
            entry_bound: 2,
            rows: 1,
            budget: SearchBudget::unlimited(),
            tie_break: TieBreak::default(),
            symmetry: SymmetryMode::default(),
        }
    }

    /// Bound on `|s_i|` for enumerated space maps (default 2).
    pub fn entry_bound(mut self, bound: i64) -> Self {
        self.entry_bound = bound;
        self
    }

    /// Target array dimensionality `k − 1` (default 1 = linear array;
    /// 2 = mesh). The candidate pool is `O((2b+1)^{rows·n})`, so keep the
    /// entry bound small for 2-D searches. Values outside `1..=2` are
    /// rejected by [`SpaceSearch::solve`] with [`CfmapError::Unsupported`].
    pub fn rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Bound the work performed (candidates screened / wall clock).
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Select how ties among equally-cheap space maps are broken
    /// (default: [`TieBreak::FirstFound`], the first acceptance in lex
    /// order — i.e. the lex-*least* accepted map of the winning level).
    /// [`TieBreak::LexMax`] screens the whole winning cost level and
    /// returns the lexicographically greatest accepted map — the pin the
    /// symmetry quotient requires.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Select whether the candidate space is quotiented by the problem's
    /// symmetry stabilizer under the pinned `Π` row (default:
    /// [`SymmetryMode::Full`]). Quotienting screens one representative
    /// per orbit and is bit-identical to full enumeration when its
    /// soundness preconditions hold — [`TieBreak::LexMax`] and an
    /// unlimited budget — and silently degrades to full enumeration
    /// otherwise.
    pub fn symmetry(mut self, mode: SymmetryMode) -> Self {
        self.symmetry = mode;
        self
    }

    /// Cost of a candidate: VLSI sites + wire length. Returns the triple
    /// `(cost, sites, wires)`.
    ///
    /// "Sites" is the bounding-box cell count of the image `S·J` — the
    /// silicon area a rectangular layout must provision (for a 1-row map
    /// with coprime entries this equals the processor count exactly).
    /// Wire length is `Σᵢ ‖S·d̄ᵢ‖₁`, the per-dependence hop distance that
    /// must be wired between neighbouring cells.
    fn cost_of(&self, space: &SpaceMap) -> Result<(i64, usize, i64), CfmapError> {
        vlsi_cost(self.alg, space)
    }

    fn validate(&self) -> Result<(), CfmapError> {
        if !(1..=2).contains(&self.rows) {
            return Err(CfmapError::Unsupported {
                reason: format!(
                    "only 1- and 2-row space maps supported, got {} rows",
                    self.rows
                ),
            });
        }
        if self.alg.dim() != self.schedule.dim() {
            return Err(CfmapError::DimensionMismatch {
                context: "space search: algorithm vs schedule".to_string(),
                expected: self.alg.dim(),
                actual: self.schedule.dim(),
            });
        }
        Ok(())
    }

    /// The active symmetry quotient, or `None` when the mode is off or a
    /// soundness precondition fails. The stabilizer is computed with the
    /// fixed `Π` pinned as a row, so every element `G` satisfies
    /// `Π·G = ±Π`: the exact verdict, rank, and VLSI cost of every
    /// candidate are then invariant over its orbit, and under the
    /// `LexMax` pin the winning candidate is always its own orbit's
    /// representative. An unlimited budget is also required so every
    /// representative of the winning level is guaranteed to be screened.
    fn active_quotient(&self) -> Option<Stabilizer> {
        if self.symmetry != SymmetryMode::Quotient
            || self.tie_break != TieBreak::LexMax
            || !self.budget.is_unlimited()
        {
            return None;
        }
        let pin = SpaceMap::row(self.schedule.as_slice());
        let stab = crate::canon::stabilizer(self.alg, &pin);
        if stab.is_trivial() {
            return None;
        }
        Some(stab)
    }

    /// The box-kernel table of the fixed `Π` row, built once per run
    /// (see [`screen_space_rows`]).
    fn screen_table(&self) -> Option<BoxKernelTable> {
        BoxKernelTable::build(
            &IMat::from_rows(&[self.schedule.as_slice()]),
            self.alg.index_set.mu(),
        )
    }

    /// Materialize the candidate space as cost levels: rows of the
    /// [`canonical_rows`] pool combined into 1- or 2-row maps, grouped by
    /// cost, lex-ascending within each level. When a quotient is active,
    /// non-representative orbit members are dropped here and tallied per
    /// level.
    fn build_levels(&self, quotient: Option<&Stabilizer>) -> Result<Vec<CostLevel>, CfmapError> {
        let rows_pool = canonical_rows(self.alg.dim(), self.entry_bound);

        // The pool is generated in lex-ascending order, so candidates
        // arrive lex-ascending and each level's vector stays sorted.
        let mut levels: BTreeMap<i64, CostLevel> = BTreeMap::new();
        let push = |cost: i64, rows: Vec<Vec<i64>>, levels: &mut BTreeMap<i64, CostLevel>| {
            let level = levels
                .entry(cost)
                .or_insert_with(|| CostLevel { cost, candidates: Vec::new(), pruned: 0 });
            if quotient.is_some_and(|stab| !is_class_representative(stab, &rows)) {
                level.pruned += 1;
            } else {
                level.candidates.push(rows);
            }
        };
        match self.rows {
            1 => {
                for r in &rows_pool {
                    let space = SpaceMap::row(r);
                    let (cost, _, _) = self.cost_of(&space)?;
                    push(cost, vec![r.clone()], &mut levels);
                }
            }
            2 => {
                for (a, r1) in rows_pool.iter().enumerate() {
                    for r2 in rows_pool.iter().skip(a + 1) {
                        let refs: Vec<&[i64]> = vec![r1, r2];
                        let space = SpaceMap::from_rows(&refs);
                        if space.as_mat().rank() < 2 {
                            continue; // degenerate 2-D map
                        }
                        let (cost, _, _) = self.cost_of(&space)?;
                        push(cost, vec![r1.clone(), r2.clone()], &mut levels);
                    }
                }
            }
            _ => unreachable!("rows validated before"),
        }
        Ok(levels.into_values().collect())
    }

    /// Run the search: minimal-cost conflict-free full-rank space map.
    ///
    /// The candidate pool is screened in increasing cost order, so the
    /// first acceptable map is certified `Optimal` (under
    /// [`TieBreak::LexMax`] the whole winning level is screened and the
    /// lex-greatest acceptance returned — equally optimal). Because the
    /// search accepts within the first valid cost level there is no
    /// intermediate best-so-far: a tripped [`SearchBudget`] before any
    /// acceptance is reported as [`CfmapError::BudgetExhausted`]. A
    /// schedule that violates condition 1 (`Π·d̄ ≥ 1`) admits no design:
    /// the outcome is `Infeasible` with no candidate examined.
    pub fn solve(&self) -> Result<SearchOutcome<SpaceOptimalMapping>, CfmapError> {
        self.validate()?;
        if !self.schedule.is_valid_for(&self.alg.deps) {
            return Ok(SearchOutcome::infeasible(0));
        }
        let quotient = self.active_quotient();
        let levels = self.build_levels(quotient.as_ref())?;
        let table = self.screen_table();
        let mut meter = self.budget.start();
        let mut tel = SearchTelemetry::default();
        for level in &levels {
            tel.orbits_pruned += level.pruned;
            crate::metrics::ORBITS_PRUNED.add(level.pruned);
            let level_start = tel.enumerated;
            let mut best: Option<SpaceOptimalMapping> = None;
            let mut tripped: Option<BudgetLimit> = None;
            for rows in &level.candidates {
                // The charged candidate is still screened (budget N means
                // exactly N candidates examined); acceptance of any
                // screened candidate is the cost-order optimum, trip or
                // not.
                let limit = meter.charge_candidate();
                tel.enumerated += 1;
                let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
                if let Some(found) = self.screen(level.cost, &refs, &mut tel, table.as_ref())? {
                    tel.accepted += 1;
                    match self.tie_break {
                        TieBreak::FirstFound => {
                            let mut win = found;
                            tel.record_level(level.cost, tel.enumerated - level_start, 1);
                            win.candidates_examined = meter.candidates;
                            return Ok(SearchOutcome::optimal(win, meter.candidates)
                                .with_telemetry(tel));
                        }
                        // Lex-ascending scan: every later acceptance is
                        // lex-greater, so overwriting keeps the LexMax.
                        TieBreak::LexMax => best = Some(found),
                    }
                }
                if let Some(limit) = limit {
                    tripped = Some(limit);
                    break;
                }
            }
            let level_enumerated = tel.enumerated - level_start;
            if let Some(mut win) = best {
                // Mid-level budget trips still return the best
                // representative screened so far — the cost level is
                // already proven optimal.
                tel.record_level(level.cost, level_enumerated, 1);
                win.candidates_examined = meter.candidates;
                return Ok(SearchOutcome::optimal(win, meter.candidates).with_telemetry(tel));
            }
            tel.record_level(level.cost, level_enumerated, 0);
            if let Some(limit) = tripped {
                return Err(CfmapError::BudgetExhausted {
                    limit,
                    candidates_examined: meter.candidates,
                });
            }
        }
        Ok(SearchOutcome::infeasible(meter.candidates).with_telemetry(tel))
    }

    /// Screen a single candidate; `Some` when it is acceptable.
    fn screen(
        &self,
        cost: i64,
        refs: &[&[i64]],
        tel: &mut SearchTelemetry,
        table: Option<&BoxKernelTable>,
    ) -> Result<Option<SpaceOptimalMapping>, CfmapError> {
        let Some(mapping) =
            screen_space_rows(self.alg, self.schedule, table, refs, tel)
        else {
            return Ok(None);
        };
        let space = mapping.space().clone();
        let (_, processors, wires) = self.cost_of(&space)?;
        Ok(Some(SpaceOptimalMapping {
            space,
            mapping,
            processors,
            wire_length: wires,
            cost,
            candidates_examined: 0, // caller fills in
        }))
    }
}

/// Conditions 4 and 3 for the candidate space rows `rows` under the
/// fixed schedule: the mapping `T = [S; Π]` when `rank(T) = k` and `T`
/// is conflict-free, else `None` with the rejection charged to `tel`.
/// With the fixed `Π`'s box-kernel table both gates are dot products;
/// without one (boxes too large to tabulate), or when a dot product
/// leaves i128, one Hermite form of `T` and the exact lattice test
/// decide them.
pub(crate) fn screen_space_rows(
    alg: &Uda,
    schedule: &LinearSchedule,
    table: Option<&BoxKernelTable>,
    rows: &[&[i64]],
    tel: &mut SearchTelemetry,
) -> Option<MappingMatrix> {
    let mapping = MappingMatrix::new(SpaceMap::from_rows(rows), schedule.clone());
    let table_gates = table.and_then(|t| {
        let full_rank = t.full_rank_rows(rows)?;
        let conflict_free = if full_rank { t.conflict_free_rows(rows)? } else { false };
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

/// The VLSI cost triple `(sites + wires, sites, wires)` of `space`
/// under `alg` — the ordering Problem 6.1 minimizes, also reused as the
/// space axes of the Pareto frontier so the two searches can never
/// disagree on a candidate's cost.
pub(crate) fn vlsi_cost(alg: &Uda, space: &SpaceMap) -> Result<(i64, usize, i64), CfmapError> {
    let overflow = |what: &str| CfmapError::Overflow {
        context: format!("space-search VLSI cost: {what} does not fit in i64"),
    };
    let mut sites = 1i64;
    for r in 0..space.array_dims() {
        let row = space.as_mat().row(r);
        let (mut lo, mut hi) = (Int::zero(), Int::zero());
        for (i, c) in row.iter().enumerate() {
            let m = Int::from(alg.index_set.mu_i(i));
            if c.is_positive() {
                hi += &(c * &m);
            } else {
                lo += &(c * &m);
            }
        }
        let span = (&hi - &lo)
            .to_i64()
            .and_then(|s| s.checked_add(1))
            .ok_or_else(|| overflow("processor span"))?;
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
pub(crate) fn canon_sign(mut row: Vec<i64>) -> Vec<i64> {
    if row.iter().find(|&&v| v != 0).is_some_and(|&v| v < 0) {
        for v in &mut row {
            *v = -*v;
        }
    }
    row
}

/// True when `rows` is its orbit's representative on the canonical
/// candidate pool: no stabilizer element maps it (after per-row sign
/// canonicalization and row sorting — rows of `S` are an unordered set up
/// to sign) to a lex-greater candidate. Every orbit has exactly one
/// representative under this rule, and it is the orbit's lex-greatest
/// member, so the `LexMax` winner is always a representative.
pub(crate) fn is_class_representative(stab: &Stabilizer, rows: &[Vec<i64>]) -> bool {
    for g in stab.elements() {
        let mut image: Vec<Vec<i64>> = rows.iter().map(|r| canon_sign(g.apply(r))).collect();
        image.sort();
        if image.as_slice() > rows {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cfmap_model::algorithms;

    #[test]
    fn matmul_space_search_under_optimal_schedule() {
        // Fix the paper's optimal Π = [1, μ, 1] and search for S.
        let mu = 4;
        let alg = algorithms::matmul(mu);
        let pi = LinearSchedule::new(&[1, mu, 1]);
        let sol = SpaceSearch::new(&alg, &pi).solve().unwrap().expect_optimal("some S works");
        // Whatever is found must be genuinely conflict-free and low-cost.
        assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
        assert!(sol.mapping.has_full_rank());
        // The paper's S = [1,1,−1] costs 13 PEs + 3 wires = 16; the search
        // result can only be at most that.
        assert!(sol.cost <= 16, "cost {} worse than the paper's design", sol.cost);
        assert_eq!(sol.processors as i64 + sol.wire_length, sol.cost);
    }

    #[test]
    fn transitive_closure_space_search() {
        let mu = 4;
        let alg = algorithms::transitive_closure(mu);
        let pi = LinearSchedule::new(&[mu + 1, 1, 1]);
        let sol = SpaceSearch::new(&alg, &pi).solve().unwrap().expect_optimal("some S works");
        assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
        // The paper's S = [0, 0, 1]: 5 PEs, wires |Sd̄| = (1,0,1,0,1) → 3,
        // cost 8. The search must match or beat it.
        assert!(sol.cost <= 8, "cost {}", sol.cost);
    }

    #[test]
    fn two_row_search_for_bitlevel_kernel() {
        // 4-D bit-level convolution onto a 2-D array: fix a schedule and
        // search 2-row space maps.
        let alg = algorithms::bitlevel_convolution(2, 2);
        let pi = LinearSchedule::new(&[1, 1, 1, 3]);
        assert!(pi.is_valid_for(&alg.deps));
        let sol = SpaceSearch::new(&alg, &pi)
            .rows(2)
            .entry_bound(1)
            .solve()
            .unwrap()
            .expect_optimal("some 2-D space map works");
        assert_eq!(sol.space.array_dims(), 2);
        assert!(sol.mapping.has_full_rank());
        assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
        assert!(sol.processors >= 1);
    }

    #[test]
    fn three_rows_rejected() {
        let alg = algorithms::matmul(2);
        let pi = LinearSchedule::new(&[1, 2, 1]);
        let err = SpaceSearch::new(&alg, &pi).rows(3).solve().unwrap_err();
        assert!(matches!(&err, CfmapError::Unsupported { reason } if reason.contains("3 rows")));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let alg = algorithms::matmul(2);
        let pi = LinearSchedule::new(&[1, 2]); // 2-D schedule, 3-D algorithm
        let err = SpaceSearch::new(&alg, &pi).solve().unwrap_err();
        assert!(matches!(err, CfmapError::DimensionMismatch { expected: 3, actual: 2, .. }));
    }

    #[test]
    fn budget_exhaustion_is_reported_deterministically() {
        let alg = algorithms::matmul(4);
        let pi = LinearSchedule::new(&[1, 4, 1]);
        let full = SpaceSearch::new(&alg, &pi).solve().unwrap();
        let accepted_at = full.candidates_examined;
        assert!(accepted_at > 1, "need a multi-candidate search for this test");
        // Stop one candidate short of the acceptance point: first-accept
        // searches hold no best-so-far, so exhaustion is an error.
        let err = SpaceSearch::new(&alg, &pi)
            .budget(SearchBudget::candidates(accepted_at - 1))
            .solve()
            .unwrap_err();
        assert!(matches!(
            err,
            CfmapError::BudgetExhausted { candidates_examined, .. }
                if candidates_examined == accepted_at - 1
        ));
        // A budget that reaches the acceptance point still certifies
        // Optimal: cost-order first-accept is exact.
        let out = SpaceSearch::new(&alg, &pi)
            .budget(SearchBudget::candidates(accepted_at))
            .solve()
            .unwrap();
        assert!(out.is_optimal());
    }

    #[test]
    fn no_solution_when_schedule_forces_conflicts() {
        // Π = [1, 1, 1] over the cube: any 1-row S gives a 2×3 T whose
        // kernel contains a small vector? Not necessarily — but with
        // entry bound 0 candidates vanish entirely.
        let alg = algorithms::matmul(3);
        let pi = LinearSchedule::new(&[1, 1, 1]);
        let out = SpaceSearch::new(&alg, &pi).entry_bound(0).solve().unwrap();
        assert_eq!(out.certification, crate::budget::Certification::Infeasible);
        assert!(out.mapping().is_none());
    }

    #[test]
    fn cost_accounts_both_terms() {
        let alg = algorithms::matmul(2);
        let pi = LinearSchedule::new(&[1, 2, 1]);
        let search = SpaceSearch::new(&alg, &pi);
        let (cost, pes, wires) = search.cost_of(&SpaceMap::row(&[1, 1, -1])).unwrap();
        assert_eq!(pes, 7); // span of j1+j2−j3 over {0..2}³: −2..4
        assert_eq!(wires, 3); // |Sd̄ᵢ| = 1+1+1
        assert_eq!(cost, 10);
    }

    #[test]
    fn outcome_carries_search_telemetry() {
        let alg = algorithms::matmul(4);
        let pi = LinearSchedule::new(&[1, 4, 1]);
        let out = SpaceSearch::new(&alg, &pi).solve().unwrap();
        let t = &out.telemetry;
        assert_eq!(t.enumerated, out.candidates_examined);
        assert_eq!(t.accepted, 1);
        // The fixed Π's box-kernel table decides both gates: no Hermite
        // form, and every candidate past the rank gate is one exact
        // dispatch.
        assert_eq!(t.hnf_computations, 0);
        assert_eq!(t.condition_hits.exact, t.enumerated - t.rejected_rank);
        assert_eq!(t.condition_hits.total(), t.condition_hits.exact);
    }

    #[test]
    fn invalid_schedule_is_infeasible_without_screening() {
        // Π·e₃ = −3 violates condition 1, so no space map can help.
        let alg = algorithms::matmul(4);
        let pi = LinearSchedule::new(&[1, 1, -3]);
        assert!(!pi.is_valid_for(&alg.deps));
        for tb in [TieBreak::FirstFound, TieBreak::LexMax] {
            let out = SpaceSearch::new(&alg, &pi).tie_break(tb).solve().unwrap();
            assert_eq!(out.certification, crate::budget::Certification::Infeasible);
            assert!(out.mapping().is_none());
            assert_eq!(out.candidates_examined, 0);
            assert_eq!(out.telemetry.enumerated, 0);
        }
    }

    #[test]
    fn examined_counter_monotone_in_bound() {
        let alg = algorithms::matmul(2);
        let pi = LinearSchedule::new(&[1, 2, 1]);
        let a = SpaceSearch::new(&alg, &pi).entry_bound(1).solve().unwrap().expect_optimal("1");
        let b = SpaceSearch::new(&alg, &pi).entry_bound(2).solve().unwrap().expect_optimal("2");
        // Larger candidate pools can only find equal-or-better optima.
        assert!(b.cost <= a.cost);
    }

    #[test]
    fn lexmax_returns_lex_greatest_of_winning_level() {
        let alg = algorithms::matmul(4);
        let pi = LinearSchedule::new(&[1, 4, 1]);
        let first = SpaceSearch::new(&alg, &pi).solve().unwrap().expect_optimal("ff");
        let lexmax = SpaceSearch::new(&alg, &pi)
            .tie_break(TieBreak::LexMax)
            .solve()
            .unwrap()
            .expect_optimal("lm");
        // Same optimal cost, lex-greater-or-equal representative.
        assert_eq!(lexmax.cost, first.cost);
        let (f, l) = (first.space.as_mat().row(0), lexmax.space.as_mat().row(0));
        let f: Vec<i64> = (0..f.dim()).map(|i| f[i].to_i64().unwrap()).collect();
        let l: Vec<i64> = (0..l.dim()).map(|i| l[i].to_i64().unwrap()).collect();
        assert!(l >= f, "LexMax {l:?} must be ≥ FirstFound {f:?}");
    }

    #[test]
    fn quotient_matches_full_enumeration_lexmax() {
        for (alg, pi) in [
            (algorithms::matmul(4), LinearSchedule::new(&[1, 4, 1])),
            (algorithms::transitive_closure(4), LinearSchedule::new(&[5, 1, 1])),
        ] {
            let base = SpaceSearch::new(&alg, &pi)
                .tie_break(TieBreak::LexMax)
                .solve()
                .unwrap()
                .expect_optimal("base");
            let quot_out = SpaceSearch::new(&alg, &pi)
                .tie_break(TieBreak::LexMax)
                .symmetry(SymmetryMode::Quotient)
                .solve()
                .unwrap();
            let quot = quot_out.clone().expect_optimal("quot");
            assert_eq!(quot.space, base.space);
            assert_eq!(quot.cost, base.cost);
        }
    }
}
