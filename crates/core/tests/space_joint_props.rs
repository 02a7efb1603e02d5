//! Differential guarantees behind the unified screening core (ISSUE 9):
//! the fast routes ported from Procedure 5.1 into `SpaceSearch` and
//! `JointSearch` — the kernel-lattice conflict memo and the symmetry
//! quotient under the `TieBreak::LexMax` pin — must both be
//! bit-identical to the plain search. "Bit-identical" means: same design
//! (space map / schedule), same cost/score, same certification, and —
//! where the convention of `quotient_props.rs` requires it — the same
//! `candidates_examined`: memo on/off compares examined counts too;
//! full-vs-quotient does not (the quotient screens fewer candidates by
//! design).

use cfmap_core::{
    find_valid_schedule, is_schedulable, JointCriterion, JointOptimal, JointSearch,
    SearchOutcome, SpaceOptimalMapping, SpaceSearch, SymmetryMode, TieBreak,
};
use cfmap_model::{algorithms, LinearSchedule, Uda, UdaBuilder};
use cfmap_testkit::{gen, tk_assume};

/// The n ≤ 4 catalogue with a fixed valid schedule per problem — the
/// `SpaceSearch` differential corpus. Schedules are the paper's designs
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

/// The `JointSearch` corpus: problems small enough for the full outer ×
/// inner product in debug builds, each with an objective cap that still
/// contains its optimum.
fn joint_catalogue() -> Vec<(Uda, i64, &'static str)> {
    vec![
        (algorithms::matmul(3), 25, "matmul μ=3"),
        (algorithms::transitive_closure(3), 19, "tc μ=3"),
        (algorithms::sor(3, 3), 15, "sor 3×3"),
        (algorithms::matvec(3, 3), 15, "matvec 3×3"),
        (algorithms::convolution(5, 3), 15, "conv 5/3"),
    ]
}

fn assert_space_eq(
    a: &SearchOutcome<SpaceOptimalMapping>,
    b: &SearchOutcome<SpaceOptimalMapping>,
    examined_too: bool,
    ctx: &str,
) {
    assert_eq!(a.certification, b.certification, "{ctx}: certification");
    if examined_too {
        assert_eq!(a.candidates_examined, b.candidates_examined, "{ctx}: examined");
    }
    match (&a.mapping, &b.mapping) {
        (Some(x), Some(y)) => {
            assert_eq!(x.space, y.space, "{ctx}: space map");
            assert_eq!(x.cost, y.cost, "{ctx}: cost");
            assert_eq!(x.processors, y.processors, "{ctx}: processors");
            assert_eq!(x.wire_length, y.wire_length, "{ctx}: wires");
        }
        (None, None) => {}
        _ => panic!("{ctx}: mapping presence diverged"),
    }
}

fn assert_joint_eq(
    a: &SearchOutcome<JointOptimal>,
    b: &SearchOutcome<JointOptimal>,
    examined_too: bool,
    ctx: &str,
) {
    assert_eq!(a.certification, b.certification, "{ctx}: certification");
    if examined_too {
        assert_eq!(a.candidates_examined, b.candidates_examined, "{ctx}: examined");
    }
    match (&a.mapping, &b.mapping) {
        (Some(x), Some(y)) => {
            assert_eq!(x.space, y.space, "{ctx}: space map");
            assert_eq!(x.schedule, y.schedule, "{ctx}: schedule");
            assert_eq!(x.total_time, y.total_time, "{ctx}: time");
            assert_eq!(x.space_cost, y.space_cost, "{ctx}: space cost");
            if examined_too {
                assert_eq!(x.space_maps_tried, y.space_maps_tried, "{ctx}: maps tried");
            }
        }
        (None, None) => {}
        _ => panic!("{ctx}: mapping presence diverged"),
    }
}

/// Satellite acceptance (memo): disabling the kernel-lattice conflict
/// memo changes nothing observable under either tie-break, on every
/// catalogue problem — the memo is a pure cache, never a semantic knob.
#[test]
fn space_search_memo_off_is_bit_identical_on_catalogue() {
    for (alg, pi, name) in space_catalogue() {
        for tb in [TieBreak::FirstFound, TieBreak::LexMax] {
            let on = SpaceSearch::new(&alg, &pi).tie_break(tb).solve().unwrap();
            let off = SpaceSearch::new(&alg, &pi).tie_break(tb).memo(false).solve().unwrap();
            assert_space_eq(&on, &off, true, &format!("{name} {tb:?} memo on/off"));
        }
    }
}

#[test]
fn joint_search_memo_off_is_bit_identical_on_catalogue() {
    for (alg, cap, name) in joint_catalogue() {
        for tb in [TieBreak::FirstFound, TieBreak::LexMax] {
            let on =
                JointSearch::new(&alg).tie_break(tb).max_objective(cap).solve().unwrap();
            let off = JointSearch::new(&alg)
                .tie_break(tb)
                .max_objective(cap)
                .memo(false)
                .solve()
                .unwrap();
            assert_joint_eq(&on, &off, true, &format!("{name} {tb:?} memo on/off"));
        }
    }
}

/// Tentpole acceptance (quotient): quotiented enumeration under the
/// LexMax pin matches full enumeration on the design.
#[test]
fn space_search_quotient_and_shards_match_sequential_on_catalogue() {
    for (alg, pi, name) in space_catalogue() {
        let full =
            SpaceSearch::new(&alg, &pi).tie_break(TieBreak::LexMax).solve().unwrap();
        let quot = SpaceSearch::new(&alg, &pi)
            .tie_break(TieBreak::LexMax)
            .symmetry(SymmetryMode::Quotient)
            .solve()
            .unwrap();
        assert_space_eq(&full, &quot, false, &format!("{name} full vs quotient"));
    }
}

#[test]
fn joint_search_quotient_and_shards_match_sequential_on_catalogue() {
    for (alg, cap, name) in joint_catalogue() {
        for criterion in [JointCriterion::TimeThenSpace, JointCriterion::SpaceThenTime] {
            let full = JointSearch::new(&alg)
                .criterion(criterion)
                .tie_break(TieBreak::LexMax)
                .max_objective(cap)
                .solve()
                .unwrap();
            let quot = JointSearch::new(&alg)
                .criterion(criterion)
                .tie_break(TieBreak::LexMax)
                .symmetry(SymmetryMode::Quotient)
                .max_objective(cap)
                .solve()
                .unwrap();
            assert_joint_eq(&full, &quot, false, &format!("{name} {criterion:?} quotient"));
        }
    }
}

/// Exact-route memo accounting: on an exact search every condition
/// dispatch is answered by the memo (hit or miss) — the telemetry
/// invariant the /metrics gauges are built on.
#[test]
fn memo_accounts_for_every_exact_dispatch() {
    let alg = algorithms::matmul(4);
    let pi = LinearSchedule::new(&[1, 4, 1]);
    let out = SpaceSearch::new(&alg, &pi).solve().unwrap();
    let t = &out.telemetry;
    assert_eq!(t.memo_hits + t.memo_misses, t.condition_hits.exact);
    let off = SpaceSearch::new(&alg, &pi).memo(false).solve().unwrap();
    assert_eq!(off.telemetry.memo_hits, 0);
    assert_eq!(off.telemetry.memo_misses, 0);
}

cfmap_testkit::props! {
    cases = 12;

    /// Randomized differential, mirroring `quotient_props`: on generated
    /// 3-D problems (identity deps plus two extra columns — mostly
    /// trivial stabilizers, some symmetric), every fast route agrees
    /// with the plain sequential search for both searches.
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
        for tb in [TieBreak::FirstFound, TieBreak::LexMax] {
            let on = SpaceSearch::new(&alg, &pi).tie_break(tb).solve().unwrap();
            let off = SpaceSearch::new(&alg, &pi).tie_break(tb).memo(false).solve().unwrap();
            assert_space_eq(&on, &off, true, "generated memo");
        }
        let full = SpaceSearch::new(&alg, &pi).tie_break(TieBreak::LexMax).solve().unwrap();
        let quot = SpaceSearch::new(&alg, &pi)
            .tie_break(TieBreak::LexMax)
            .symmetry(SymmetryMode::Quotient)
            .solve()
            .unwrap();
        assert_space_eq(&full, &quot, false, "generated quotient");

        let jfull = JointSearch::new(&alg)
            .tie_break(TieBreak::LexMax)
            .max_objective(12)
            .solve()
            .unwrap();
        let jquot = JointSearch::new(&alg)
            .tie_break(TieBreak::LexMax)
            .symmetry(SymmetryMode::Quotient)
            .max_objective(12)
            .solve()
            .unwrap();
        assert_joint_eq(&jfull, &jquot, false, "generated joint quotient");
        let joff = JointSearch::new(&alg)
            .tie_break(TieBreak::LexMax)
            .max_objective(12)
            .memo(false)
            .solve()
            .unwrap();
        assert_joint_eq(&jfull, &joff, true, "generated joint memo");
    }
}
