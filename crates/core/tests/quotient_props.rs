//! Differential guarantees behind the symmetry quotient (ISSUE 8): on
//! every n ≤ 4 catalogue problem, `SymmetryMode::Quotient` under the
//! `TieBreak::LexMax` pin returns a bit-identical `OptimalMapping`
//! (schedule, objective, certification) to full enumeration. The
//! quotient's soundness rests on orbit expansion — every skipped
//! candidate is a non-representative of an orbit whose representative
//! is screened — so the orbit structure itself is property-tested here
//! too.

use cfmap_core::{
    stabilizer, HybridPolicy, Procedure51, SearchBudget, SolveRoute, SpaceMap, SymmetryMode,
    TieBreak,
};
use cfmap_model::{algorithms, Uda, UdaBuilder};
use cfmap_testkit::{gen, tk_assume};

/// Every catalogue problem with n ≤ 4 (plus the paper-default space map
/// used across the experiments) — the differential corpus.
fn catalogue() -> Vec<(Uda, SpaceMap, &'static str)> {
    vec![
        (algorithms::matmul(3), SpaceMap::row(&[1, 1, -1]), "matmul μ=3"),
        (algorithms::matmul(4), SpaceMap::row(&[1, 1, -1]), "matmul μ=4"),
        (algorithms::transitive_closure(4), SpaceMap::row(&[0, 0, 1]), "tc μ=4"),
        (algorithms::lu_decomposition(4), SpaceMap::row(&[1, 1, -1]), "lu μ=4"),
        (algorithms::sor(3, 3), SpaceMap::row(&[0, 1]), "sor 3×3"),
        (algorithms::matvec(3, 3), SpaceMap::row(&[1, 0]), "matvec 3×3"),
        (algorithms::convolution(5, 3), SpaceMap::row(&[1, 0]), "conv 5/3"),
        (
            algorithms::identity_cube(3, 2),
            SpaceMap::row(&[1, 0, 0]),
            "identity n=3 μ=2",
        ),
        (
            algorithms::identity_cube(4, 2),
            SpaceMap::row(&[1, 0, 0, 0]),
            "identity n=4 μ=2",
        ),
    ]
}

/// Tentpole acceptance: quotiented enumeration is bit-identical to full
/// enumeration under LexMax on every n ≤ 4 catalogue problem.
#[test]
fn quotient_is_bit_identical_to_full_enumeration_on_catalogue() {
    for (alg, space, name) in catalogue() {
        let full = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .solve()
            .unwrap();
        let quot = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .symmetry(SymmetryMode::Quotient)
            .solve()
            .unwrap();
        assert_eq!(quot.certification, full.certification, "{name}");
        assert_eq!(quot.route, full.route, "{name}");
        match (&full.mapping, &quot.mapping) {
            (Some(f), Some(q)) => {
                assert_eq!(q.objective, f.objective, "{name}");
                assert_eq!(
                    q.schedule.as_slice(),
                    f.schedule.as_slice(),
                    "{name}: LexMax winner must be an orbit representative"
                );
            }
            (None, None) => {}
            _ => panic!("{name}: mapping presence diverged"),
        }
    }
}

/// Orbit expansion, tested directly: within any stabilizer orbit of any
/// candidate, exactly one element is the representative, every orbit
/// element has the same objective, and orbits are closed (applying any
/// group element lands inside the orbit). Together these prove the
/// quotient skips only candidates dominated by a screened representative.
#[test]
fn orbits_partition_candidates_with_one_representative_each() {
    let alg = algorithms::identity_cube(4, 2);
    let space = SpaceMap::row(&[1, 0, 0, 0]);
    let stab = stabilizer(&alg, &space);
    // Axes 1..3 are interchangeable (equal μ, identity dep columns, zero
    // space-row entries); axis 0 is pinned by the space row: |S_3| = 6.
    assert_eq!(stab.order(), 6);
    let mu = alg.index_set.mu();
    let objective =
        |pi: &[i64]| pi.iter().zip(mu).map(|(&p, &m)| p.abs() * m).sum::<i64>();
    // Exhaustive small box.
    let mut seen = std::collections::BTreeSet::new();
    for a in -2i64..=2 {
        for b in -2i64..=2 {
            for c in -2i64..=2 {
                for d in -2i64..=2 {
                    let pi = vec![a, b, c, d];
                    if seen.contains(&pi) {
                        continue;
                    }
                    let orbit = stab.orbit(&pi);
                    let reps: Vec<_> =
                        orbit.iter().filter(|p| stab.is_representative(p)).collect();
                    assert_eq!(reps.len(), 1, "orbit of {pi:?} has {} reps", reps.len());
                    assert_eq!(*reps[0], *orbit.first().unwrap(), "rep is the lex-max element");
                    for p in &orbit {
                        assert_eq!(objective(p), objective(&pi), "objective is orbit-invariant");
                        assert_eq!(stab.orbit(p), orbit, "orbits are closed");
                        seen.insert(p.clone());
                    }
                }
            }
        }
    }
}

/// The quotient factor is real: the representative count below the
/// optimum is strictly smaller than the full count, and the pruned
/// difference is what `orbits_pruned` telemetry reports.
#[test]
fn quotient_prunes_and_accounts_for_orbits() {
    let alg = algorithms::identity_cube(4, 2);
    let space = SpaceMap::row(&[1, 0, 0, 0]);
    let quot = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .symmetry(SymmetryMode::Quotient)
        .solve()
        .unwrap();
    let proc = Procedure51::new(&alg, &space);
    let opt = quot.mapping.as_ref().expect("identity n=4 is solvable");
    let full = proc.count_candidates(opt.objective);
    let reps = proc.count_candidates_quotiented(opt.objective);
    assert!(reps < full, "quotient must shrink the space: {reps} vs {full}");
    assert_eq!(
        quot.telemetry.orbits_pruned,
        full - reps,
        "orbit accounting must match the counted difference"
    );
    assert!(quot.telemetry.orbits_pruned > 0);
}

/// Acceptance criterion: identity n=5 (μ=2) — the instance E9 records as
/// "gives up entirely" — now returns Optimal under the default
/// `SearchBudget` via quotient + adaptive cap extension, without ever
/// taking the ILP route (a 1-row space map is not ILP-decomposable).
#[test]
fn identity_n5_solves_under_default_budget() {
    let alg = algorithms::identity_cube(5, 2);
    let space = SpaceMap::row(&[1, 0, 0, 0, 0]);
    assert_eq!(stabilizer(&alg, &space).order(), 24, "S_4 on the unpinned axes");
    let out = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .symmetry(SymmetryMode::Quotient)
        .hybrid(HybridPolicy::default())
        .budget(SearchBudget::unlimited())
        .solve()
        .unwrap();
    assert_eq!(out.route, SolveRoute::Enumeration, "1-row S is not ILP-decomposable");
    let opt = out.expect_optimal("identity n=5 must now solve");
    // The optimum needs schedule entries far beyond the default cap
    // Σ μ(μ+3) = 50 — the adaptive extension is what reaches it.
    assert!(opt.objective > 50, "objective {} should exceed the static cap", opt.objective);
    assert!(
        cfmap_core::oracle::is_conflict_free_by_enumeration(&opt.mapping, &alg.index_set),
        "exact certificate must hold"
    );
}

cfmap_testkit::props! {
    cases = 24;

    /// Randomized differential: quotient ≡ full on generated 3-D
    /// problems (mostly trivial stabilizers, some symmetric — both
    /// paths must agree either way).
    fn quotient_matches_full_on_generated_problems(
        mu in gen::vec(2i64..=3, 3),
        extra in gen::vec(-2i64..=2, 6),
        s_row in gen::vec(-1i64..=1, 3),
    ) {
        tk_assume!(s_row.iter().any(|&x| x != 0));
        let (a, b) = (&extra[..3], &extra[3..]);
        tk_assume!(a.iter().any(|&x| x != 0) && b.iter().any(|&x| x != 0));
        tk_assume!(a != b);
        let identity: [[i64; 3]; 3] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]];
        tk_assume!(identity.iter().all(|e| e != a && e != b));
        let alg = UdaBuilder::new("generated")
            .bounds(&mu)
            .deps(&[&identity[0], &identity[1], &identity[2], a, b])
            .build();
        let space = SpaceMap::row(&s_row);
        let full = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .max_objective(12)
            .solve()
            .unwrap();
        let quot = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .symmetry(SymmetryMode::Quotient)
            .max_objective(12)
            .solve()
            .unwrap();
        assert_eq!(quot.certification, full.certification);
        match (&full.mapping, &quot.mapping) {
            (Some(f), Some(q)) => {
                assert_eq!(q.objective, f.objective);
                assert_eq!(q.schedule.as_slice(), f.schedule.as_slice());
            }
            (None, None) => {}
            _ => panic!("mapping presence diverged"),
        }
    }
}

/// Hybrid escalation: with an absurdly low candidate horizon, matmul
/// escalates to the ILP route, returns the same optimal objective, and
/// tags the outcome `SolveRoute::HybridIlp` so downstream consumers
/// (family fitter, cache) can tell it apart.
#[test]
fn hybrid_escalates_matmul_to_ilp_at_tiny_horizon() {
    let alg = algorithms::matmul(3);
    let space = SpaceMap::row(&[1, 1, -1]);
    let enumerated = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .solve()
        .unwrap();
    let expected = enumerated.expect_optimal("matmul solvable").objective;
    let hybrid = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .hybrid(HybridPolicy { candidate_horizon: 1, min_levels: 1 })
        .solve()
        .unwrap();
    assert_eq!(hybrid.route, SolveRoute::HybridIlp, "tiny horizon must trip escalation");
    let opt = hybrid.expect_optimal("ILP route proves the same optimum");
    assert_eq!(opt.objective, expected, "ILP optimum must equal the enumerative optimum");
    assert!(cfmap_core::oracle::is_conflict_free_by_enumeration(&opt.mapping, &alg.index_set));
}

/// Hybrid applicability guard: a problem outside the ILP decomposition's
/// shape (k ≠ n − 1) never escalates, even at horizon 1 — it keeps
/// enumerating and still reports the enumeration route.
#[test]
fn hybrid_never_escalates_outside_ilp_shape() {
    let alg = algorithms::identity_cube(4, 2);
    let space = SpaceMap::row(&[1, 0, 0, 0]); // array_dims 1, n 4: not k = n−1
    let out = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .symmetry(SymmetryMode::Quotient)
        .hybrid(HybridPolicy { candidate_horizon: 1, min_levels: 1 })
        .solve()
        .unwrap();
    assert_eq!(out.route, SolveRoute::Enumeration);
    out.expect_optimal("still solved by enumeration");
}

/// `degrade()` regression (satellite): the BestEffort fallback must obey
/// the configured tie-break. Under LexMax it returns the lex-greatest of
/// the minimal-objective fallback variants — deterministically, at any
/// repetition — and FirstFound keeps its historical first-variant pick,
/// so the fallback can no longer hand LexMax callers a FirstFound-shaped
/// representative.
#[test]
fn degrade_respects_the_tie_break() {
    let alg = algorithms::matmul(3);
    let space = SpaceMap::row(&[1, 1, -1]);
    let budget = SearchBudget::unlimited().with_candidates(2);
    let lex1 = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .budget(budget)
        .solve()
        .unwrap();
    let lex2 = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .budget(budget)
        .solve()
        .unwrap();
    let first = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::FirstFound)
        .budget(budget)
        .solve()
        .unwrap();
    let l1 = lex1.mapping.as_ref().expect("fallback finds a mapping");
    let l2 = lex2.mapping.as_ref().expect("fallback finds a mapping");
    let ff = first.mapping.as_ref().expect("fallback finds a mapping");
    assert_eq!(l1.schedule.as_slice(), l2.schedule.as_slice(), "deterministic");
    assert_eq!(l1.objective, ff.objective, "same minimal fallback objective");
    assert!(
        l1.schedule.as_slice() >= ff.schedule.as_slice(),
        "LexMax fallback {:?} must be lex-≥ FirstFound's {:?}",
        l1.schedule.as_slice(),
        ff.schedule.as_slice()
    );
}

/// Calibration printer for the E15 table (run with
/// `cargo test -p cfmap-core --release -- --ignored calibration --nocapture`).
#[test]
#[ignore = "manual calibration helper, not a gate"]
fn calibration_print() {
    for n in [3usize, 4, 5] {
        let alg = algorithms::identity_cube(n, 2);
        let s_row: Vec<i64> = (0..n).map(|i| i64::from(i == 0)).collect();
        let space = SpaceMap::row(&s_row);
        let out = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .symmetry(SymmetryMode::Quotient)
            .solve()
            .unwrap();
        let opt = out.mapping.as_ref().expect("solvable");
        let proc = Procedure51::new(&alg, &space);
        eprintln!(
            "identity n={n}: objective={} schedule={:?} examined={} full={} quotiented={} pruned={}",
            opt.objective,
            opt.schedule.as_slice(),
            out.candidates_examined,
            proc.count_candidates(opt.objective),
            proc.count_candidates_quotiented(opt.objective),
            out.telemetry.orbits_pruned,
        );
    }
    let alg = algorithms::matmul(3);
    let space = SpaceMap::row(&[1, 1, -1]);
    let budget = SearchBudget::unlimited().with_candidates(2);
    for tb in [TieBreak::LexMax, TieBreak::FirstFound] {
        let out = Procedure51::new(&alg, &space).tie_break(tb).budget(budget).solve().unwrap();
        let m = out.mapping.as_ref().unwrap();
        eprintln!("degrade {tb:?}: objective={} schedule={:?}", m.objective, m.schedule.as_slice());
    }
}
