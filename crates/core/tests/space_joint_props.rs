//! Differential guarantees behind Problems 6.1 and 6.2:
//!
//! - Problem 6.1 is answered by the space corner of the fixed-schedule
//!   Pareto frontier, which screens by the fixed `Π`'s box-kernel table;
//!   it must match an in-test reference that screens the same
//!   cost-ordered pool with the Hermite route (`rank()`,
//!   `is_conflict_free_exact()`) — same design, cost and certification.
//!   The frontier screens the whole pool, so its `candidates_examined`
//!   is the pool's size.
//! - The symmetry quotient must leave the fixed-schedule frontier
//!   bit-identical to full enumeration, point for point, but not its
//!   `candidates_examined` (the quotient screens fewer candidates by
//!   design, the convention of `quotient_props.rs`).
//! - Problem 6.2 is answered by the corners of the joint Pareto
//!   frontier; both must equal an in-test reference that runs Procedure
//!   5.1 on every canonical space row and prices each row from first
//!   principles — same time, cost, space row and schedule, with or
//!   without the symmetry quotient.

use cfmap_core::{
    find_valid_schedule, is_schedulable, Certification, ConflictAnalysis, MappingMatrix,
    ParetoFrontier, ParetoPoint, ParetoSearch, Procedure51, SpaceMap, SymmetryMode, TieBreak,
};
use cfmap_model::{algorithms, LinearSchedule, Uda, UdaBuilder};
use cfmap_testkit::{gen, tk_assume};

/// The n ≤ 4 catalogue with a fixed valid schedule per problem — the
/// Problem 6.1 differential corpus. Schedules are the paper's designs
/// where one exists, otherwise the LP witness.
fn space_catalogue() -> Vec<(Uda, LinearSchedule, &'static str)> {
    let mut out = vec![
        (algorithms::matmul(3), LinearSchedule::new(&[1, 3, 1]), "matmul μ=3"),
        (algorithms::matmul(4), LinearSchedule::new(&[1, 4, 1]), "matmul μ=4"),
        (algorithms::transitive_closure(4), LinearSchedule::new(&[5, 1, 1]), "tc μ=4"),
        (algorithms::sor(3, 3), LinearSchedule::new(&[2, 1]), "sor 3×3"),
        (algorithms::matvec(3, 3), LinearSchedule::new(&[1, 1]), "matvec 3×3"),
        (algorithms::convolution(5, 3), LinearSchedule::new(&[1, 1]), "conv 5/3"),
        (algorithms::identity_cube(3, 2), LinearSchedule::new(&[1, 1, 1]), "identity n=3"),
        (algorithms::identity_cube(4, 2), LinearSchedule::new(&[1, 1, 1, 1]), "identity n=4"),
    ];
    let lu = algorithms::lu_decomposition(4);
    let pi = find_valid_schedule(&lu).expect("lu μ=4 is schedulable");
    out.push((lu, pi, "lu μ=4"));
    for (alg, pi, name) in &out {
        assert!(pi.is_valid_for(&alg.deps), "{name}: catalogue schedule must be valid");
    }
    out
}

/// The Problem 6.2 corpus: problems small enough for the full row ×
/// schedule product in debug builds, each with an objective cap that
/// still contains both corners.
fn joint_catalogue() -> Vec<(Uda, i64, &'static str)> {
    vec![
        (algorithms::matmul(3), 25, "matmul μ=3"),
        (algorithms::transitive_closure(3), 19, "tc μ=3"),
        (algorithms::sor(3, 3), 15, "sor 3×3"),
        (algorithms::matvec(3, 3), 15, "matvec 3×3"),
        (algorithms::convolution(5, 3), 15, "conv 5/3"),
    ]
}

/// The fixed-schedule frontier of `alg` under `pi`: `rows`-row space
/// maps with entries in `[−bound, bound]`.
fn fixed_schedule_frontier(
    alg: &Uda,
    pi: &LinearSchedule,
    rows: usize,
    bound: i64,
    mode: SymmetryMode,
) -> ParetoFrontier {
    ParetoSearch::new(alg)
        .fixed_schedule(pi)
        .rows(rows)
        .entry_bound(bound)
        .symmetry(mode)
        .solve()
        .unwrap()
}

/// Every frontier point as `(S rows, PEs, wires)`, in frontier order.
fn designs(f: &ParetoFrontier) -> Vec<(Vec<Vec<i64>>, usize, i64)> {
    f.points.iter().map(|p| (p.space_rows(), p.processors, p.wires)).collect()
}

/// The canonical row pool recomputed independently: every row
/// with entries in `[−bound, bound]` whose first nonzero entry is
/// positive, lex-ascending.
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

/// VLSI cost from first principles: the product of per-row spans
/// `1 + Σ|s_i|μ_i` plus the wire length `Σ‖S·d̄‖₁`.
fn reference_cost(alg: &Uda, rows: &[Vec<i64>]) -> i64 {
    let mu = alg.index_set.mu();
    let mut sites = 1i64;
    for r in rows {
        sites *= 1 + r.iter().zip(mu).map(|(&s, &m)| s.abs() * m).sum::<i64>();
    }
    let mut wires = 0i64;
    for d in alg.deps.columns_i64() {
        for r in rows {
            wires += r.iter().zip(&d).map(|(&s, &x)| s * x).sum::<i64>().abs();
        }
    }
    sites + wires
}

/// What a Problem 6.1 search reports: certification, candidates
/// examined, and the winner's rows and cost.
type SpaceVerdict = (Certification, u64, Option<(Vec<Vec<i64>>, i64)>);

/// Problem 6.1 without the table route: the pool — 1-row maps, or
/// lex-ordered pairs of distinct rows of rank 2 — ordered by cost (a
/// stable sort, so lex-ascending within a cost), each candidate screened
/// by one Hermite form of `[S; Π]` and the exact lattice test up to the
/// end of the cheapest accepting cost, whose last acceptance is the
/// lex-greatest. The frontier screens every candidate, so the count is
/// the pool's size (0 when `Π` violates condition 1).
fn reference_space_search(
    alg: &Uda,
    pi: &LinearSchedule,
    rows: usize,
    bound: i64,
) -> SpaceVerdict {
    if !pi.is_valid_for(&alg.deps) {
        return (Certification::Infeasible, 0, None);
    }
    let pool = canonical_rows(alg.dim(), bound);
    let mut candidates: Vec<Vec<Vec<i64>>> = Vec::new();
    if rows == 1 {
        candidates.extend(pool.iter().map(|r| vec![r.clone()]));
    } else {
        for (a, r1) in pool.iter().enumerate() {
            for r2 in &pool[a + 1..] {
                let n = r1.len();
                let rank2 = (0..n)
                    .any(|i| (i + 1..n).any(|j| r1[i] * r2[j] != r1[j] * r2[i]));
                if rank2 {
                    candidates.push(vec![r1.clone(), r2.clone()]);
                }
            }
        }
    }
    candidates.sort_by_key(|c| reference_cost(alg, c));
    let examined = candidates.len() as u64;
    let mut best: Option<(Vec<Vec<i64>>, i64)> = None;
    for rows in candidates {
        let cost = reference_cost(alg, &rows);
        if best.as_ref().is_some_and(|(_, c)| cost > *c) {
            break;
        }
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let mapping = MappingMatrix::new(SpaceMap::from_rows(&refs), pi.clone());
        let analysis = ConflictAnalysis::new(&mapping, &alg.index_set);
        if analysis.rank() == mapping.k() && analysis.is_conflict_free_exact() {
            best = Some((rows, cost));
        }
    }
    let certification =
        if best.is_some() { Certification::Optimal } else { Certification::Infeasible };
    (certification, examined, best)
}

/// Compare the fixed-schedule frontier's space corner with the
/// reference on one problem, and the frontier with and without the
/// quotient.
fn assert_matches_reference(alg: &Uda, pi: &LinearSchedule, rows: usize, ctx: &str) {
    let bound = if rows == 1 { 2 } else { 1 };
    let full = fixed_schedule_frontier(alg, pi, rows, bound, SymmetryMode::Full);
    let corner = full.space_corner();
    let certification =
        if corner.is_some() { Certification::Optimal } else { Certification::Infeasible };
    let design = corner.map(|p| (p.space_rows(), p.space_cost()));
    let got = (certification, full.candidates_examined, design);
    let want = reference_space_search(alg, pi, rows, bound);
    assert_eq!(got, want, "{ctx}: {rows}-row");
    let quot = fixed_schedule_frontier(alg, pi, rows, bound, SymmetryMode::Quotient);
    assert_eq!(designs(&quot), designs(&full), "{ctx}: {rows}-row full vs quotient");
}

/// The table route against the Hermite-route reference on every
/// catalogue problem, 1- and 2-row, plus an invalid schedule.
#[test]
fn space_search_matches_hnf_reference_on_catalogue() {
    let mut cases = space_catalogue();
    cases.push((algorithms::matmul(4), LinearSchedule::new(&[1, 1, -3]), "matmul invalid Π"));
    for (alg, pi, name) in &cases {
        for rows in [1, 2] {
            assert_matches_reference(alg, pi, rows, name);
        }
    }
}

/// Quotiented enumeration leaves the fixed-schedule frontier — every
/// point, hence the space corner — as full enumeration finds it, at the
/// default entry bound.
#[test]
fn space_search_quotient_matches_full_enumeration_on_catalogue() {
    for (alg, pi, name) in space_catalogue() {
        let full = fixed_schedule_frontier(&alg, &pi, 1, 2, SymmetryMode::Full);
        let quot = fixed_schedule_frontier(&alg, &pi, 1, 2, SymmetryMode::Quotient);
        assert_eq!(designs(&quot), designs(&full), "{name} full vs quotient");
    }
}

/// A Problem 6.2 design: time, cost, space row, schedule.
type JointDesign = (i64, i64, Vec<i64>, Vec<i64>);

/// Problem 6.2 from Procedure 5.1 alone: every canonical row's fastest
/// design within `cap` (`TieBreak::LexMax`, so the lex-greatest schedule
/// of its level), priced by [`reference_cost`]; then the design
/// minimizing `key`, ties to the lex-greatest (row, schedule).
fn reference_joint(
    alg: &Uda,
    bound: i64,
    cap: i64,
    key: fn(&JointDesign) -> (i64, i64),
) -> Option<JointDesign> {
    let designs: Vec<JointDesign> = canonical_rows(alg.dim(), bound)
        .into_iter()
        .filter_map(|row| {
            let opt = Procedure51::new(alg, &SpaceMap::row(&row))
                .tie_break(TieBreak::LexMax)
                .max_objective(cap)
                .solve()
                .unwrap()
                .into_mapping()?;
            let cost = reference_cost(alg, std::slice::from_ref(&row));
            Some((opt.total_time, cost, row, opt.schedule.as_slice().to_vec()))
        })
        .collect();
    let best = designs.iter().map(key).min()?;
    designs.into_iter().filter(|d| key(d) == best).max_by(|a, b| (&a.2, &a.3).cmp(&(&b.2, &b.3)))
}

/// Both corners of the joint frontier, with and without the quotient,
/// against [`reference_joint`].
fn assert_corners_match_reference(alg: &Uda, bound: i64, cap: i64, ctx: &str) {
    let design = |p: &ParetoPoint| -> JointDesign {
        let cost = p.processors as i64 + p.wires;
        (p.total_time, cost, p.space_rows()[0].clone(), p.schedule.as_slice().to_vec())
    };
    let time_first = reference_joint(alg, bound, cap, |d| (d.0, d.1));
    let space_first = reference_joint(alg, bound, cap, |d| (d.1, d.0));
    for mode in [SymmetryMode::Full, SymmetryMode::Quotient] {
        let frontier = ParetoSearch::new(alg)
            .entry_bound(bound)
            .max_objective(cap)
            .symmetry(mode)
            .solve()
            .unwrap();
        let ctx = format!("{ctx}, entry bound {bound}, {mode:?}");
        assert_eq!(frontier.time_corner().map(design), time_first, "{ctx}: time-first");
        assert_eq!(frontier.space_corner().map(design), space_first, "{ctx}: space-first");
    }
}

/// Problem 6.2 differential: the joint frontier's corners are the
/// per-row Procedure 5.1 reference's answers, on the catalogue at both
/// entry bounds.
#[test]
fn joint_corners_match_procedure51_reference_on_catalogue() {
    let mut cases = joint_catalogue();
    cases.push((algorithms::lu_decomposition(3), 25, "lu μ=3"));
    cases.push((algorithms::identity_cube(3, 2), 15, "identity n=3"));
    for (alg, cap, name) in &cases {
        for bound in [1, 2] {
            assert_corners_match_reference(alg, bound, *cap, name);
        }
    }
}

/// Table-route accounting: the fixed `Π`'s box-kernel table decides
/// both gates, so no Hermite form is computed and every candidate past
/// the rank gate is one exact dispatch — on every catalogue problem, 1-
/// and 2-row.
#[test]
fn table_route_accounts_for_every_exact_dispatch() {
    for (alg, pi, name) in space_catalogue() {
        for (rows, bound) in [(1, 2), (2, 1)] {
            let f = fixed_schedule_frontier(&alg, &pi, rows, bound, SymmetryMode::Full);
            let t = &f.telemetry;
            assert_eq!(t.hnf_computations, 0, "{name} {rows}-row: {t:?}");
            assert_eq!(t.condition_hits.exact, t.enumerated - t.rejected_rank, "{name}: {t:?}");
            assert_eq!(t.condition_hits.total(), t.condition_hits.exact, "{name}: {t:?}");
        }
    }
}

cfmap_testkit::props! {
    cases = 12;

    /// Randomized differential, mirroring `quotient_props`: on generated
    /// 3-D problems (identity deps plus two extra columns — mostly
    /// trivial stabilizers, some symmetric), the fixed-schedule
    /// frontier's space corner matches the Hermite-route reference and
    /// its quotient agrees with full enumeration, and the joint
    /// frontier's corners match the Procedure 5.1 reference.
    fn fast_routes_match_on_generated_problems(
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
        for rows in [1, 2] {
            assert_matches_reference(&alg, &pi, rows, "generated");
        }

        for bound in [1, 2] {
            assert_corners_match_reference(&alg, bound, 12, "generated");
        }
    }
}
