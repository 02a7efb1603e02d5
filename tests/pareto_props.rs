//! Exhaustive verification of the Pareto frontier (ISSUE 10).
//!
//! Three layers of guarantees, mirroring `space_joint_props.rs`:
//!
//! 1. **Ground truth** — on problems small enough to enumerate *every*
//!    design in the search's candidate space (canonical 1-row space
//!    maps, or rank-2 pairs of them, × schedules within the objective
//!    cap), an independent
//!    brute-force oracle recomputes feasibility (schedule validity,
//!    rank, conflict-freedom by index-point enumeration), the VLSI
//!    cost axes, and the bandwidth axis, then takes the true
//!    non-dominated set with the lex-greatest witness per vector. The
//!    frontier must equal it point for point.
//! 2. **Simulator verification** — every returned point is replayed on
//!    the cycle-level simulator: zero conflicts, the advertised
//!    makespan, and (when tracked) exactly the advertised peak link
//!    load, within the requested budget.
//! 3. **Determinism** — identical frontiers across
//!    `SymmetryMode::Quotient` on/off; and the classic-search corners:
//!    the time corner is bit-identical to `Procedure51` under
//!    `TieBreak::LexMax`, the space corner to a brute-force Problem 6.1
//!    search, across the word-level and bit-level catalogue.

use cfmap::core::{find_valid_schedule, is_schedulable, SymmetryMode};
use cfmap::intlin::non_dominated_indices;
use cfmap::prelude::*;
use cfmap::systolic::peak_link_load;
use cfmap_testkit::{gen, tk_assume};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// One brute-forced design: objective vector (`[time, PEs, wires]`,
/// plus bandwidth when tracked), space rows, schedule.
type Design = (Vec<i64>, Vec<Vec<i64>>, Vec<i64>);

fn weighted(pi: &[i64], mu: &[i64]) -> i64 {
    pi.iter().zip(mu).map(|(&p, &m)| p.abs() * m).sum()
}

/// The search's canonical row pool, recomputed independently: nonzero
/// rows with entries in `[-bound, bound]`, first nonzero entry positive.
fn canonical_rows(n: usize, bound: i64) -> Vec<Vec<i64>> {
    fn rec(n: usize, bound: i64, cur: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        if cur.len() == n {
            if cur.iter().find(|&&x| x != 0).is_some_and(|&x| x > 0) {
                out.push(cur.clone());
            }
            return;
        }
        for v in -bound..=bound {
            cur.push(v);
            rec(n, bound, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(n, bound, &mut Vec::new(), &mut out);
    out
}

/// The search's space-map pool: the canonical rows as 1-row maps, or
/// (`rows = 2`) their lex-ordered pairs of distinct rows of rank 2.
fn space_pool(n: usize, rows: usize, bound: i64) -> Vec<Vec<Vec<i64>>> {
    let singles = canonical_rows(n, bound);
    if rows == 1 {
        return singles.into_iter().map(|r| vec![r]).collect();
    }
    let mut pairs = Vec::new();
    for (a, r1) in singles.iter().enumerate() {
        for r2 in &singles[a + 1..] {
            let rank2 = (0..n).any(|i| (i + 1..n).any(|j| r1[i] * r2[j] != r1[j] * r2[i]));
            if rank2 {
                pairs.push(vec![r1.clone(), r2.clone()]);
            }
        }
    }
    pairs
}

/// Every integer schedule with `Σ|π_i|μ_i ≤ cap` — the time horizon the
/// search scans when given the same explicit `max_objective`.
fn enumerate_pis(mu: &[i64], cap: i64) -> Vec<Vec<i64>> {
    fn rec(mu: &[i64], cap: i64, cur: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        if cur.len() == mu.len() {
            out.push(cur.clone());
            return;
        }
        let bound = cap / mu[cur.len()].max(1);
        for v in -bound..=bound {
            cur.push(v);
            rec(mu, cap, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(mu, cap, &mut Vec::new(), &mut out);
    out.retain(|pi| weighted(pi, mu) <= cap);
    out
}

/// `vlsi_cost` recomputed from first principles: sites are the product
/// of per-row bounding-box spans `1 + Σ|s_i|μ_i`, wires the total L1
/// displacement `Σ‖S·d̄‖₁` over the dependence columns.
fn oracle_cost(alg: &Uda, rows: &[Vec<i64>]) -> (usize, i64) {
    let mu = alg.index_set.mu();
    let mut sites = 1i64;
    for row in rows {
        let span: i64 = row.iter().zip(mu).map(|(&s, &m)| s.abs() * m).sum();
        sites *= span + 1;
    }
    let deps = alg.deps.as_mat().to_i64_rows().expect("catalogue deps fit i64");
    let cols = deps.first().map_or(0, |r| r.len());
    let dep_cols: Vec<Vec<i64>> =
        (0..cols).map(|c| deps.iter().map(|dep_row| dep_row[c]).collect()).collect();
    let mut wires = 0i64;
    for col in &dep_cols {
        for row in rows {
            let hop: i64 = row.iter().zip(col).map(|(&s, &d)| s * d).sum();
            wires += hop.abs();
        }
    }
    (sites as usize, wires)
}

/// Ground-truth feasibility, sharing *nothing* with the search's
/// screening: schedule validity, full mapping rank, and conflict
/// freedom established by enumerating every index-point pair.
fn feasible_mapping(alg: &Uda, rows: &[Vec<i64>], pi: &[i64]) -> Option<MappingMatrix> {
    let schedule = LinearSchedule::new(pi);
    if !schedule.is_valid_for(&alg.deps) {
        return None;
    }
    let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
    let mapping = MappingMatrix::new(SpaceMap::from_rows(&refs), schedule);
    if !mapping.has_full_rank() {
        return None;
    }
    if !oracle::is_conflict_free_by_enumeration(&mapping, &alg.index_set) {
        return None;
    }
    Some(mapping)
}

/// Enumerate the complete design space of one search scope: the space
/// maps of `row_pool` (one map for a fixed space, a [`space_pool`]
/// otherwise), crossed with the given schedule (fixed schedule) or
/// every schedule within `cap`.
fn all_feasible_designs(
    alg: &Uda,
    row_pool: &[Vec<Vec<i64>>],
    schedule: Option<&[i64]>,
    cap: i64,
    with_bandwidth: bool,
) -> Vec<Design> {
    let mu = alg.index_set.mu();
    let pi_pool: Vec<Vec<i64>> = match schedule {
        Some(pi) => vec![pi.to_vec()],
        None => enumerate_pis(mu, cap),
    };
    let mut out = Vec::new();
    for rows in row_pool {
        let (pes, wires) = oracle_cost(alg, rows);
        for pi in &pi_pool {
            let Some(mapping) = feasible_mapping(alg, rows, pi) else { continue };
            let mut v = vec![1 + weighted(pi, mu), pes as i64, wires];
            if with_bandwidth {
                match peak_link_load(alg, &mapping) {
                    Some(bw) => v.push(bw as i64),
                    None => continue, // mesh-unroutable: excluded by the probe
                }
            }
            out.push((v, rows.clone(), pi.clone()));
        }
    }
    out
}

/// The true frontier: one lex-greatest `(rows, schedule)` witness per
/// distinct vector, filtered to the non-dominated set, in ascending
/// vector order — the exact contract of `ParetoFrontier::points`.
fn oracle_frontier(designs: Vec<Design>) -> Vec<Design> {
    type Witness = (Vec<Vec<i64>>, Vec<i64>);
    let mut best: BTreeMap<Vec<i64>, Witness> = BTreeMap::new();
    for (v, rows, pi) in designs {
        match best.entry(v) {
            Entry::Occupied(mut e) => {
                if (&rows, &pi) > (&e.get().0, &e.get().1) {
                    e.insert((rows, pi));
                }
            }
            Entry::Vacant(e) => {
                e.insert((rows, pi));
            }
        }
    }
    let vectors: Vec<Vec<Rat>> = best
        .keys()
        .map(|v| v.iter().map(|&x| Rat::from_i64(x)).collect())
        .collect();
    let keep: BTreeSet<usize> = non_dominated_indices(&vectors).into_iter().collect();
    best.into_iter()
        .enumerate()
        .filter(|(i, _)| keep.contains(i))
        .map(|(_, (v, (rows, pi)))| (v, rows, pi))
        .collect()
}

fn point_vector(p: &ParetoPoint) -> Vec<i64> {
    let mut v = vec![p.total_time, p.processors as i64, p.wires];
    if let Some(bw) = p.bandwidth {
        v.push(bw as i64);
    }
    v
}

/// Layer 2: replay every frontier point on the cycle-level simulator.
fn simulator_verify(alg: &Uda, frontier: &ParetoFrontier, max_bandwidth: Option<u64>, ctx: &str) {
    for p in &frontier.points {
        let report = Simulator::new(alg, &p.mapping)
            .run()
            .unwrap_or_else(|e| panic!("{ctx}: simulator rejected {:?}: {e}", point_vector(p)));
        assert!(
            report.conflicts.is_empty(),
            "{ctx}: simulator found conflicts at {:?}",
            point_vector(p)
        );
        assert_eq!(report.makespan(), p.total_time, "{ctx}: makespan vs total_time");
        if let Some(bw) = p.bandwidth {
            assert_eq!(
                peak_link_load(alg, &p.mapping),
                Some(bw),
                "{ctx}: stored bandwidth must reproduce"
            );
            if let Some(b) = max_bandwidth {
                assert!(bw <= b, "{ctx}: bandwidth {bw} exceeds budget {b}");
            }
        }
    }
}

/// Layer 1: the frontier equals the oracle point for point — vectors,
/// witness space maps, and witness schedules, in order.
fn assert_matches_oracle(
    alg: &Uda,
    frontier: &ParetoFrontier,
    oracle: &[Design],
    max_bandwidth: Option<u64>,
    ctx: &str,
) {
    let got: Vec<Vec<i64>> = frontier.points.iter().map(point_vector).collect();
    let want: Vec<Vec<i64>> = oracle.iter().map(|(v, ..)| v.clone()).collect();
    assert_eq!(got, want, "{ctx}: objective vectors");
    for (p, (_, rows, pi)) in frontier.points.iter().zip(oracle) {
        assert_eq!(&p.space_rows(), rows, "{ctx}: witness space at {:?}", point_vector(p));
        assert_eq!(p.schedule.as_slice(), &pi[..], "{ctx}: witness schedule at {:?}", point_vector(p));
    }
    simulator_verify(alg, frontier, max_bandwidth, ctx);
}

/// Determinism comparisons, `assert_space_eq`-style: the design content
/// always, the effort counters only when the two runs screen the same
/// candidate stream (`counts_too`).
fn assert_frontier_eq(a: &ParetoFrontier, b: &ParetoFrontier, counts_too: bool, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: frontier size");
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(point_vector(x), point_vector(y), "{ctx}: objective vector");
        assert_eq!(x.space_rows(), y.space_rows(), "{ctx}: space map");
        assert_eq!(x.schedule.as_slice(), y.schedule.as_slice(), "{ctx}: schedule");
    }
    if counts_too {
        assert_eq!(a.points_seen, b.points_seen, "{ctx}: points seen");
        assert_eq!(a.dominated_pruned, b.dominated_pruned, "{ctx}: dominated pruned");
        assert_eq!(a.candidates_examined, b.candidates_examined, "{ctx}: examined");
    }
}

/// Problems small enough for the full cross product in debug builds,
/// with an objective cap that still contains each optimum.
fn exhaustive_catalogue() -> Vec<(Uda, i64, &'static str)> {
    vec![
        (algorithms::matmul(2), 12, "matmul μ=2"),
        (algorithms::transitive_closure(2), 12, "tc μ=2"),
        (algorithms::convolution(3, 2), 10, "conv 3/2"),
        (algorithms::sor(2, 2), 8, "sor 2×2"),
        (algorithms::matvec(2, 2), 8, "matvec 2×2"),
    ]
}

// ---------------------------------------------------------------------
// Layer 1+2: exhaustive ground truth.
// ---------------------------------------------------------------------

/// Satellite acceptance: on every exhaustive-catalogue problem, the
/// joint frontier is exactly the non-dominated set of *all* feasible
/// designs in the candidate space — no point missing, none extra, and
/// every witness the lex-greatest achiever of its vector.
#[test]
fn joint_frontier_is_the_exact_nondominated_set() {
    for (alg, cap, name) in exhaustive_catalogue() {
        let frontier = ParetoSearch::new(&alg).max_objective(cap).solve().unwrap();
        let pool = space_pool(alg.dim(), 1, 2);
        let truth = oracle_frontier(all_feasible_designs(&alg, &pool, None, cap, false));
        assert!(!truth.is_empty(), "{name}: oracle should find feasible designs");
        assert_matches_oracle(&alg, &frontier, &truth, None, name);
    }
}

/// Same guarantee with the bandwidth axis switched on: the probe is the
/// simulator's `peak_link_load`, unroutable designs drop out, and the
/// frontier is the exact 4-axis non-dominated set.
#[test]
fn joint_bandwidth_frontier_is_the_exact_nondominated_set() {
    let alg = algorithms::matmul(2);
    let cap = 8;
    let probe = |m: &MappingMatrix| peak_link_load(&alg, m);
    let frontier = ParetoSearch::new(&alg)
        .max_objective(cap)
        .resources(ResourceModel { include_bandwidth: true, ..Default::default() })
        .bandwidth_probe(&probe)
        .solve()
        .unwrap();
    let pool = space_pool(alg.dim(), 1, 2);
    let truth = oracle_frontier(all_feasible_designs(&alg, &pool, None, cap, true));
    assert!(!truth.is_empty());
    assert!(truth.iter().all(|(v, ..)| v.len() == 4), "bandwidth axis present");
    assert_matches_oracle(&alg, &frontier, &truth, None, "matmul μ=2 +bandwidth");
}

/// A binding bandwidth budget: the frontier under `max_bandwidth = b`
/// equals the oracle frontier of the designs with peak load ≤ b.
#[test]
fn bandwidth_budget_filters_exactly() {
    let alg = algorithms::matmul(2);
    let cap = 8;
    let designs = all_feasible_designs(&alg, &space_pool(alg.dim(), 1, 2), None, cap, true);
    let min_bw = designs.iter().map(|(v, ..)| v[3]).min().expect("feasible designs exist");
    let probe = |m: &MappingMatrix| peak_link_load(&alg, m);
    let frontier = ParetoSearch::new(&alg)
        .max_objective(cap)
        .resources(ResourceModel {
            max_bandwidth: Some(min_bw as u64),
            ..Default::default()
        })
        .bandwidth_probe(&probe)
        .solve()
        .unwrap();
    let truth =
        oracle_frontier(designs.into_iter().filter(|(v, ..)| v[3] <= min_bw).collect());
    assert!(!truth.is_empty(), "the tightest-satisfiable budget keeps its achievers");
    assert_matches_oracle(&alg, &frontier, &truth, Some(min_bw as u64), "matmul μ=2 bw budget");
}

/// Fixed-schedule scope, with and without the bandwidth axis: the
/// candidate space is the canonical row pool alone, and the frontier
/// must be its exact non-dominated set.
#[test]
fn fixed_schedule_frontier_is_the_exact_nondominated_set() {
    let tc = algorithms::transitive_closure(2);
    let tc_pi = find_valid_schedule(&tc).expect("tc μ=2 is schedulable");
    // The last flag: must the *bandwidth-tracked* frontier be non-empty?
    // With Π = [1, 1, 1] every conflict-free matmul row needs an entry
    // |s_i| = 2, violating the mesh budget Π·d̄ ≥ ‖S·d̄‖₁ — the probe
    // rejects everything, and the oracle must agree the frontier is
    // empty. Π = [1, 1, 2] leaves slack (e.g. S = [1, 0, −2] routes).
    let cases: Vec<(Uda, Vec<i64>, &str, bool)> = vec![
        (algorithms::matmul(2), vec![1, 1, 1], "matmul μ=2 tight", false),
        (algorithms::matmul(2), vec![1, 1, 2], "matmul μ=2 slack", true),
        (tc, tc_pi.as_slice().to_vec(), "tc μ=2", false),
        (algorithms::convolution(3, 2), vec![1, 1], "conv 3/2", false),
        (algorithms::matvec(2, 2), vec![1, 1], "matvec 2×2", false),
    ];
    for (alg, pi, name, bw_nonempty) in cases {
        let schedule = LinearSchedule::new(&pi);
        for with_bw in [false, true] {
            let probe = |m: &MappingMatrix| peak_link_load(&alg, m);
            let mut search = ParetoSearch::new(&alg).fixed_schedule(&schedule).resources(
                ResourceModel { include_bandwidth: with_bw, ..Default::default() },
            );
            if with_bw {
                search = search.bandwidth_probe(&probe);
            }
            let frontier = search.solve().unwrap();
            let pool = space_pool(alg.dim(), 1, 2);
            let truth = oracle_frontier(all_feasible_designs(&alg, &pool, Some(&pi), 0, with_bw));
            if !with_bw {
                assert!(!truth.is_empty(), "{name}: oracle should find designs");
            } else if bw_nonempty {
                assert!(!truth.is_empty(), "{name}: routable designs should exist");
            }
            assert_matches_oracle(&alg, &frontier, &truth, None, &format!("{name} bw={with_bw}"));
        }
    }
}

/// Fixed-schedule scope over the 2-row pool at entry bound 1: on n = 3
/// problems the frontier is the exact non-dominated set of the rank-2
/// row pairs, with and without the quotient, and every point replays
/// conflict-free on the simulator.
#[test]
fn two_row_fixed_schedule_frontier_is_the_exact_nondominated_set() {
    let valid = |alg: &Uda| find_valid_schedule(alg).expect("schedulable").as_slice().to_vec();
    let (tc, lu) = (algorithms::transitive_closure(2), algorithms::lu_decomposition(2));
    let cases: Vec<(Vec<i64>, Uda, &str)> = vec![
        (vec![1, 2, 1], algorithms::matmul(2), "matmul μ=2"),
        (valid(&tc), tc, "tc μ=2"),
        (valid(&lu), lu, "lu μ=2"),
    ];
    for (pi, alg, name) in cases {
        let schedule = LinearSchedule::new(&pi);
        let pool = space_pool(alg.dim(), 2, 1);
        let truth = oracle_frontier(all_feasible_designs(&alg, &pool, Some(&pi), 0, false));
        assert!(!truth.is_empty(), "{name}: oracle should find 2-D designs");
        for mode in [SymmetryMode::Full, SymmetryMode::Quotient] {
            let frontier = ParetoSearch::new(&alg)
                .fixed_schedule(&schedule)
                .rows(2)
                .entry_bound(1)
                .symmetry(mode)
                .solve()
                .unwrap();
            assert_matches_oracle(&alg, &frontier, &truth, None, &format!("{name} 2-row {mode:?}"));
        }
    }
}

/// Fixed-space scope with the bandwidth axis (no early stop, so the
/// schedule scan is exhaustive in the horizon): the frontier equals the
/// oracle over every schedule within the cap.
#[test]
fn fixed_space_bandwidth_frontier_is_the_exact_nondominated_set() {
    let alg = algorithms::matmul(2);
    let rows = vec![vec![1i64, 1, -1]];
    let space = SpaceMap::row(&rows[0]);
    let cap = 10;
    let probe = |m: &MappingMatrix| peak_link_load(&alg, m);
    let frontier = ParetoSearch::new(&alg)
        .fixed_space(&space)
        .max_objective(cap)
        .resources(ResourceModel { include_bandwidth: true, ..Default::default() })
        .bandwidth_probe(&probe)
        .solve()
        .unwrap();
    let designs = all_feasible_designs(&alg, std::slice::from_ref(&rows), None, cap, true);
    let truth = oracle_frontier(designs);
    assert!(!truth.is_empty());
    assert_matches_oracle(&alg, &frontier, &truth, None, "matmul μ=2 fixed space +bw");
}

/// Resource budgets agree with the oracle at both edges: one notch
/// below the smallest feasible PE count the frontier is empty, at the
/// notch it equals the filtered oracle.
#[test]
fn processor_budget_edges_match_the_oracle() {
    let alg = algorithms::matmul(2);
    let cap = 10;
    let designs = all_feasible_designs(&alg, &space_pool(alg.dim(), 1, 2), None, cap, false);
    let min_pes = designs.iter().map(|(v, ..)| v[1]).min().unwrap();
    let with_budget = |pes: i64| {
        ParetoSearch::new(&alg)
            .max_objective(cap)
            .resources(ResourceModel {
                max_processors: Some(pes as usize),
                ..Default::default()
            })
            .solve()
            .unwrap()
    };
    assert!(with_budget(min_pes - 1).is_empty(), "below the minimum nothing fits");
    let truth =
        oracle_frontier(designs.into_iter().filter(|(v, ..)| v[1] <= min_pes).collect());
    assert_matches_oracle(&alg, &with_budget(min_pes), &truth, None, "matmul μ=2 pes budget");
}

/// An invalid pinned schedule admits no design — the frontier is empty
/// without screening a single candidate.
#[test]
fn invalid_fixed_schedule_yields_an_empty_frontier() {
    let alg = algorithms::matmul(2);
    let zero = LinearSchedule::new(&[0, 0, 0]);
    let frontier = ParetoSearch::new(&alg).fixed_schedule(&zero).solve().unwrap();
    assert!(frontier.is_empty());
    assert_eq!(frontier.candidates_examined, 0);
}

// ---------------------------------------------------------------------
// Layer 3: corners are bit-identical to the classic searches.
// ---------------------------------------------------------------------

/// Regression (fixed space): on the word-level and bit-level catalogue
/// the frontier's time corner is exactly `Procedure51`'s LexMax winner
/// — same schedule, same makespan — under the same objective cap.
#[test]
fn time_corner_is_bit_identical_to_procedure51_on_catalogue() {
    let cases: Vec<(Uda, SpaceMap, i64, &'static str)> = vec![
        (algorithms::matmul(3), SpaceMap::row(&[1, 1, -1]), 60, "matmul μ=3"),
        (algorithms::matmul(4), SpaceMap::row(&[1, 1, -1]), 60, "matmul μ=4"),
        (algorithms::transitive_closure(3), SpaceMap::row(&[0, 0, 1]), 60, "tc μ=3"),
        (algorithms::convolution(4, 3), SpaceMap::row(&[1, -1]), 60, "conv 4/3"),
        (algorithms::lu_decomposition(3), SpaceMap::row(&[1, 0, -1]), 60, "lu μ=3"),
        (
            algorithms::bitlevel_convolution(2, 2),
            SpaceMap::from_rows(&[&[1, 0, 0, 0], &[0, 1, 0, 0]]),
            60,
            "bitlevel conv 2/2",
        ),
        (
            algorithms::bitlevel_matmul(2, 2),
            SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]),
            80,
            "bitlevel matmul 2/2",
        ),
    ];
    for (alg, space, cap, name) in cases {
        let frontier =
            ParetoSearch::new(&alg).fixed_space(&space).max_objective(cap).solve().unwrap();
        let classic = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .max_objective(cap)
            .solve()
            .unwrap()
            .into_mapping();
        match classic {
            Some(opt) => {
                assert_eq!(frontier.len(), 1, "{name}: fixed space, 3 axes → one vector");
                let corner = frontier.time_corner().unwrap();
                assert_eq!(corner.total_time, opt.total_time, "{name}: makespan");
                assert_eq!(
                    corner.schedule.as_slice(),
                    opt.schedule.as_slice(),
                    "{name}: witness schedule"
                );
                simulator_verify(&alg, &frontier, None, name);
            }
            None => assert!(frontier.is_empty(), "{name}: feasibility parity"),
        }
    }
}

/// Problem 6.1 by brute force: the feasible design of the canonical
/// 1-row pool with the least `PEs + wires` under `pi`, ties to the
/// lex-greatest rows, as `(rows, PEs, wires)`. The pool is screened in
/// cost order (lex-ascending within a cost) up to the end of the
/// cheapest accepting cost.
fn reference_space_search(alg: &Uda, pi: &[i64]) -> Option<(Vec<Vec<i64>>, usize, i64)> {
    let cost = |rows: &[Vec<i64>]| {
        let (pes, wires) = oracle_cost(alg, rows);
        pes as i64 + wires
    };
    let mut pool = space_pool(alg.dim(), 1, 2);
    pool.sort_by_key(|rows| cost(rows));
    let mut best: Option<(Vec<Vec<i64>>, usize, i64)> = None;
    for rows in pool {
        if best.as_ref().is_some_and(|(b, ..)| cost(&rows) > cost(b)) {
            break;
        }
        if feasible_mapping(alg, &rows, pi).is_some() {
            let (pes, wires) = oracle_cost(alg, &rows);
            best = Some((rows, pes, wires));
        }
    }
    best
}

/// Regression (fixed schedule): the space corner is exactly the
/// brute-force Problem 6.1 answer — same space map, same PE count, same
/// wire length — across the catalogue including the bit-level entries.
#[test]
fn space_corner_is_bit_identical_to_space_search_on_catalogue() {
    let mut cases: Vec<(Uda, LinearSchedule, &'static str)> = vec![
        (algorithms::matmul(3), LinearSchedule::new(&[1, 3, 1]), "matmul μ=3"),
        (algorithms::matmul(4), LinearSchedule::new(&[1, 4, 1]), "matmul μ=4"),
        (algorithms::transitive_closure(4), LinearSchedule::new(&[5, 1, 1]), "tc μ=4"),
        (algorithms::sor(3, 3), LinearSchedule::new(&[2, 1]), "sor 3×3"),
        (algorithms::matvec(3, 3), LinearSchedule::new(&[1, 1]), "matvec 3×3"),
        (algorithms::convolution(5, 3), LinearSchedule::new(&[1, 1]), "conv 5/3"),
        // Π·e₃ = −3 violates condition 1: both searches find nothing.
        (algorithms::matmul(4), LinearSchedule::new(&[1, 1, -3]), "matmul μ=4, invalid Π"),
    ];
    for (alg, name) in [
        (algorithms::lu_decomposition(4), "lu μ=4"),
        (algorithms::bitlevel_matmul(2, 2), "bitlevel matmul 2/2"),
        (algorithms::bitlevel_convolution(2, 2), "bitlevel conv 2/2"),
        (algorithms::bitlevel_lu(2, 1), "bitlevel lu 2/1"),
    ] {
        let pi = find_valid_schedule(&alg)
            .unwrap_or_else(|| panic!("{name} should be schedulable"));
        cases.push((alg, pi, name));
    }
    for (alg, pi, name) in cases {
        let frontier = ParetoSearch::new(&alg).fixed_schedule(&pi).solve().unwrap();
        let corner = frontier.space_corner().map(|p| (p.space_rows(), p.processors, p.wires));
        assert_eq!(corner, reference_space_search(&alg, pi.as_slice()), "{name}");
    }
}

// ---------------------------------------------------------------------
// Layer 3: determinism across every fast route.
// ---------------------------------------------------------------------

/// The joint-scope corpus for determinism runs.
fn joint_catalogue() -> Vec<(Uda, i64, &'static str)> {
    vec![
        (algorithms::matmul(3), 25, "matmul μ=3"),
        (algorithms::transitive_closure(3), 19, "tc μ=3"),
        (algorithms::sor(3, 3), 15, "sor 3×3"),
        (algorithms::matvec(3, 3), 15, "matvec 3×3"),
        (algorithms::convolution(5, 3), 15, "conv 5/3"),
    ]
}

/// The symmetry quotient screens fewer rows but must keep the frontier:
/// the witness rule is lex-max, so orbit representatives suffice.
#[test]
fn quotient_matches_full_on_catalogue() {
    for (alg, cap, name) in joint_catalogue() {
        let full = ParetoSearch::new(&alg).max_objective(cap).solve().unwrap();
        let quot = ParetoSearch::new(&alg)
            .max_objective(cap)
            .symmetry(SymmetryMode::Quotient)
            .solve()
            .unwrap();
        assert_frontier_eq(&full, &quot, false, &format!("{name} full vs quotient"));
    }
}

/// With bandwidth tracked the quotient must deactivate (time-reversing
/// stabilizer elements need not preserve per-slot contention), so
/// quotient-on is bit-identical to quotient-off *including counters*.
#[test]
fn bandwidth_frontier_is_invariant_across_every_fast_route() {
    let alg = algorithms::matmul(2);
    let cap = 8;
    let probe = |m: &MappingMatrix| peak_link_load(&alg, m);
    let base = |search: ParetoSearch| -> ParetoFrontier {
        search
            .resources(ResourceModel { include_bandwidth: true, ..Default::default() })
            .bandwidth_probe(&probe)
            .solve()
            .unwrap()
    };
    let full = base(ParetoSearch::new(&alg).max_objective(cap));
    let quot = base(ParetoSearch::new(&alg).max_objective(cap).symmetry(SymmetryMode::Quotient));
    assert_frontier_eq(&full, &quot, true, "bw quotient is a no-op");
}

cfmap_testkit::props! {
    cases = 8;

    /// Randomized differential mirroring `space_joint_props`: on
    /// generated 3-D problems the symmetry quotient agrees with the
    /// plain frontier in both scopes.
    fn pareto_fast_routes_match_on_generated_problems(
        mu in gen::vec(2i64..=3, 3),
        extra in gen::vec(-2i64..=2, 6),
    ) {
        let (a, b) = (&extra[..3], &extra[3..]);
        tk_assume!(a.iter().any(|&x| x != 0) && b.iter().any(|&x| x != 0));
        tk_assume!(a != b);
        let identity: [[i64; 3]; 3] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]];
        tk_assume!(identity.iter().all(|e| e != a && e != b));
        let alg = UdaBuilder::new("generated")
            .bounds(&mu)
            .deps(&[&identity[0], &identity[1], &identity[2], a, b])
            .build();
        tk_assume!(is_schedulable(&alg));
        let pi = find_valid_schedule(&alg).unwrap();

        let seq = ParetoSearch::new(&alg).fixed_schedule(&pi).solve().unwrap();
        let quot = ParetoSearch::new(&alg)
            .fixed_schedule(&pi)
            .symmetry(SymmetryMode::Quotient)
            .solve()
            .unwrap();
        assert_frontier_eq(&seq, &quot, false, "generated fixed-Π quotient");

        let jseq = ParetoSearch::new(&alg).max_objective(12).solve().unwrap();
        let jquot = ParetoSearch::new(&alg)
            .max_objective(12)
            .symmetry(SymmetryMode::Quotient)
            .solve()
            .unwrap();
        assert_frontier_eq(&jseq, &jquot, false, "generated joint quotient");
    }
}
