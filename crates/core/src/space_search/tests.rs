use crate::error::{BudgetLimit, CfmapError};
use crate::mapping::{MappingMatrix, SpaceMap};
use crate::oracle::is_conflict_free_by_enumeration;
use crate::pareto::{canonical_rows, vlsi_cost, ParetoFrontier, ParetoSearch};
use crate::{SearchBudget, SymmetryMode};
use cfmap_model::{algorithms, algorithms::transitive_closure as tc, LinearSchedule, Uda};

/// The fixed-schedule frontier of `alg` under `pi` over 1-row maps with
/// entries in `[−bound, bound]`.
fn frontier(alg: &Uda, pi: &[i64], bound: i64, mode: SymmetryMode) -> ParetoFrontier {
    let pi = LinearSchedule::new(pi);
    let search = ParetoSearch::new(alg).fixed_schedule(&pi).entry_bound(bound).symmetry(mode);
    search.solve().unwrap()
}

/// Problem 6.1's answer as `(S rows, PEs, wires)` at entry bounds 1 and 2,
/// with and without the quotient, checked conflict-free by enumeration.
fn answers(alg: &Uda, pi: &[i64]) -> Vec<(Vec<Vec<i64>>, usize, i64)> {
    let mut out = Vec::new();
    for bound in [1, 2] {
        for mode in [SymmetryMode::Full, SymmetryMode::Quotient] {
            let f = frontier(alg, pi, bound, mode);
            let p = f.space_corner().expect("some S works");
            assert!(is_conflict_free_by_enumeration(&p.mapping, &alg.index_set));
            out.push((p.space_rows(), p.processors, p.wires));
        }
    }
    out
}

/// Matmul μ = 4 under the paper's Π° = [1, 4, 1]: [1, −1, 0] at 9 PEs +
/// 2 wires, where the paper's S = [1, 1, −1] costs 13 + 3.
#[test]
fn matmul_space_search_under_optimal_schedule() {
    let alg = algorithms::matmul(4);
    assert_eq!(vlsi_cost(&alg, &SpaceMap::row(&[1, 1, -1])).unwrap(), (16, 13, 3));
    assert_eq!(answers(&alg, &[1, 4, 1]), vec![(vec![vec![1, -1, 0]], 9, 2); 4]);
}

/// Transitive closure μ = 4 under Π° = [5, 1, 1]: [0, 1, 0] ties the
/// paper's S = [0, 0, 1] at 5 PEs + 3 wires and is lex-greater.
#[test]
fn transitive_closure_space_search() {
    let alg = tc(4);
    assert_eq!(vlsi_cost(&alg, &SpaceMap::row(&[0, 0, 1])).unwrap(), (8, 5, 3));
    assert_eq!(answers(&alg, &[5, 1, 1]), vec![(vec![vec![0, 1, 0]], 5, 3); 4]);
}

/// Matmul μ = 4 under Π = [1, 4, 1] has two conflict-free maps of the
/// cheapest cost 11; the corner is the lex-greater.
#[test]
fn lexmax_returns_lex_greatest_of_winning_level() {
    let alg = algorithms::matmul(4);
    let pi = LinearSchedule::new(&[1, 4, 1]);
    for row in [[0, 1, -1], [1, -1, 0]] {
        let mapping = MappingMatrix::new(SpaceMap::row(&row), pi.clone());
        assert!(is_conflict_free_by_enumeration(&mapping, &alg.index_set), "{row:?}");
        assert_eq!(vlsi_cost(&alg, mapping.space()).unwrap().0, 11, "{row:?}");
    }
    let f = frontier(&alg, pi.as_slice(), 2, SymmetryMode::Full);
    assert_eq!(f.space_corner().unwrap().space_rows(), vec![vec![1, -1, 0]]);
}

/// The frontier screens its whole pool, so a larger entry bound examines
/// more maps and finds a corner at most as costly.
#[test]
fn examined_counter_monotone_in_bound() {
    let alg = algorithms::matmul(2);
    let mut last = i64::MAX;
    for bound in 1..=3 {
        let f = frontier(&alg, &[1, 2, 1], bound, SymmetryMode::Full);
        assert_eq!(f.candidates_examined, canonical_rows(3, bound).len() as u64);
        let cost = f.space_corner().expect("some S works").space_cost();
        assert!(cost <= last, "entry bound {bound}: {cost} > {last}");
        last = cost;
    }
}

/// Under Π = [1, 1, 1] on matmul μ = 3, every map with entries in {−1,
/// 0, 1} leaves its conflict vector `S × Π` in the box: its 13-map pool
/// yields no design. Entry bound 0 has no pool at all.
#[test]
fn no_solution_when_schedule_forces_conflicts() {
    let alg = algorithms::matmul(3);
    for (bound, pool) in [(0, 0), (1, 13)] {
        let f = frontier(&alg, &[1, 1, 1], bound, SymmetryMode::Full);
        assert!(f.is_empty(), "entry bound {bound}");
        assert_eq!(f.candidates_examined, pool, "entry bound {bound}");
    }
}

/// The quotient drops and tallies non-representative maps, screens the
/// rest, and leaves every frontier point as full enumeration finds it.
#[test]
fn quotient_matches_full_enumeration_lexmax() {
    let designs = |f: &ParetoFrontier| -> Vec<(Vec<Vec<i64>>, i64)> {
        f.points.iter().map(|p| (p.space_rows(), p.space_cost())).collect()
    };
    for (alg, pi) in [(algorithms::matmul(4), [1, 4, 1]), (tc(4), [5, 1, 1])] {
        let full = frontier(&alg, &pi, 2, SymmetryMode::Full);
        let quot = frontier(&alg, &pi, 2, SymmetryMode::Quotient);
        assert_eq!(designs(&quot), designs(&full), "{}", alg.name);
        let pruned = quot.telemetry.orbits_pruned;
        assert!(pruned > 0, "{}", alg.name);
        assert_eq!(quot.candidates_examined + pruned, full.candidates_examined, "{}", alg.name);
    }
}

/// Matmul μ = 4 under Π = [1, 4, 1] walks its pool in cost order:
/// [0,0,1], [0,1,0], [1,0,0] at cost 6, all rejected, then [0,0,2]
/// (rejected) and [0,1,−1] at cost 11. Budgets of 1 to 4 candidates
/// find nothing, so the search is out of budget; a budget of 5 stops
/// at [0,1,−1], whose cost 11 is already optimal.
#[test]
fn budget_exhaustion_is_reported_deterministically() {
    let alg = algorithms::matmul(4);
    let pi = LinearSchedule::new(&[1, 4, 1]);
    let run = |n| ParetoSearch::new(&alg).fixed_schedule(&pi).budget(SearchBudget::candidates(n));
    for budget in 1..=4 {
        match run(budget).solve() {
            Err(CfmapError::BudgetExhausted { limit, candidates_examined }) => {
                assert_eq!((limit, candidates_examined), (BudgetLimit::Candidates, budget));
            }
            other => panic!("budget {budget}: expected BudgetExhausted, got {other:?}"),
        }
    }
    let cut = run(5).solve().unwrap();
    let (t, limit) = (&cut.telemetry, Some(BudgetLimit::Candidates));
    assert_eq!((cut.candidates_examined, t.budget_limit, t.accepted), (5, limit, 1));
    let p = cut.space_corner().expect("[0, 1, −1] is conflict-free");
    assert_eq!((p.space_rows(), p.space_cost()), (vec![vec![0, 1, -1]], 11));
}

/// A 2-row pool maps the 4-D bit-level convolution onto a mesh under a
/// fixed schedule: the corner is a full-rank, conflict-free 2-D design.
#[test]
fn two_row_search_for_bitlevel_kernel() {
    let alg = algorithms::bitlevel_convolution(2, 2);
    let pi = LinearSchedule::new(&[1, 1, 1, 3]);
    let f = ParetoSearch::new(&alg).fixed_schedule(&pi).rows(2).entry_bound(1).solve().unwrap();
    let p = f.space_corner().expect("some 2-D space map works");
    assert_eq!(p.space_rows(), vec![vec![0, 1, 0, 0], vec![1, 0, 0, 0]]);
    assert_eq!((p.processors, p.wires), (9, 4));
    assert!(p.mapping.has_full_rank());
    assert!(is_conflict_free_by_enumeration(&p.mapping, &alg.index_set));
}

/// Space maps have 1 row, or 2 under a fixed schedule: three rows in any
/// scope, and two in the joint or fixed-space scope, are unsupported.
#[test]
fn three_rows_rejected() {
    let alg = algorithms::matmul(2);
    let (space, pi) = (SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, 2, 1]));
    let err = ParetoSearch::new(&alg).fixed_schedule(&pi).rows(3).solve().unwrap_err();
    assert!(matches!(&err, CfmapError::Unsupported { reason } if reason.contains("3 rows")));
    let new = || ParetoSearch::new(&alg);
    let scopes = [(new(), 2), (new().fixed_space(&space), 2), (new().fixed_schedule(&pi), 0)];
    for (search, rows) in scopes {
        let err = search.rows(rows).solve().unwrap_err();
        assert!(matches!(err, CfmapError::Unsupported { .. }), "{rows} rows: {err:?}");
    }
}

#[test]
fn dimension_mismatch_rejected() {
    let alg = algorithms::matmul(2);
    let pi = LinearSchedule::new(&[1, 2]); // 2-D schedule, 3-D algorithm
    let err = ParetoSearch::new(&alg).fixed_schedule(&pi).solve().unwrap_err();
    assert!(matches!(err, CfmapError::DimensionMismatch { expected: 3, actual: 2, .. }));
}

#[test]
fn cost_accounts_both_terms() {
    let alg = algorithms::matmul(2);
    // j1 + j2 − j3 spans −2..4 over {0..2}³: 7 sites; |Sd̄ᵢ| = 1 + 1 + 1.
    assert_eq!(vlsi_cost(&alg, &SpaceMap::row(&[1, 1, -1])).unwrap(), (10, 7, 3));
    // Two rows multiply their spans: 3 × 3 sites, one hop per row.
    let mesh = SpaceMap::from_rows(&[&[1, 0, 0], &[0, 1, 0]]);
    assert_eq!(vlsi_cost(&alg, &mesh).unwrap(), (11, 9, 2));
}

/// Every pool entry is one candidate, the Π's box-kernel table decides
/// both gates (no Hermite form), and every candidate past the rank gate
/// is one exact dispatch.
#[test]
fn outcome_carries_search_telemetry() {
    let alg = algorithms::matmul(4);
    let f = frontier(&alg, &[1, 4, 1], 2, SymmetryMode::Full);
    let t = &f.telemetry;
    assert_eq!(t.enumerated, f.candidates_examined);
    assert_eq!(t.enumerated, canonical_rows(3, 2).len() as u64);
    assert_eq!(t.accepted, f.points_seen);
    assert_eq!(t.enumerated, t.accepted + t.rejected_rank + t.rejected_conflict);
    assert_eq!(t.hnf_computations, 0);
    assert_eq!(t.condition_hits.exact, t.enumerated - t.rejected_rank);
    assert_eq!(t.condition_hits.total(), t.condition_hits.exact);
}

/// Π·e₃ = −3 violates condition 1, so no space map can help: the
/// frontier is empty before any map is screened, over 1- and 2-row
/// pools, and a one-candidate budget is never charged.
#[test]
fn invalid_schedule_is_infeasible_without_screening() {
    let alg = algorithms::matmul(4);
    let pi = LinearSchedule::new(&[1, 1, -3]);
    assert!(!pi.is_valid_for(&alg.deps));
    for rows in [1, 2] {
        let search = ParetoSearch::new(&alg).fixed_schedule(&pi).rows(rows);
        let f = search.budget(SearchBudget::candidates(1)).solve().unwrap();
        assert!(f.is_empty(), "{rows} rows");
        assert_eq!((f.candidates_examined, f.telemetry.budget_limit), (0, None), "{rows} rows");
    }
}
