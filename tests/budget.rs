//! Budget-guarded search: graceful degradation under exhausted budgets.
//!
//! A search that runs out of budget must still hand back a *valid*
//! conflict-free mapping, honestly tagged [`Certification::BestEffort`] —
//! never a panic, never a silent wrong answer — and the degraded result
//! must be deterministic so CI runs are reproducible.

use cfmap::prelude::*;
use std::time::Duration;

/// A candidate budget far too small for the 5-D bit-level search trips
/// the meter and degrades to a tagged, valid, conflict-free fallback.
#[test]
fn tiny_budget_degrades_to_best_effort() {
    let alg = algorithms::bitlevel_matmul(2, 3);
    let s = SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]);
    let outcome = Procedure51::new(&alg, &s)
        .budget(SearchBudget::candidates(3))
        .solve()
        .expect("degradation is not an error");

    assert!(outcome.certification.is_best_effort(), "{:?}", outcome.certification);
    let opt = outcome.into_mapping().expect("best-effort carries a mapping");

    // The degraded mapping satisfies every condition of Definition 2.2.
    assert!(opt.mapping.has_full_rank());
    assert!(opt.schedule.is_valid_for(&alg.deps));
    let analysis = ConflictAnalysis::new(&opt.mapping, &alg.index_set);
    assert!(analysis.is_conflict_free_exact());

    // And it actually runs conflict-free on the simulated hardware.
    let report = Simulator::new(&alg, &opt.mapping).run().unwrap();
    assert!(report.conflicts.is_empty());
}

/// Degradation is deterministic: the same exhausted budget yields the
/// same fallback schedule every time.
#[test]
fn degraded_result_is_deterministic() {
    let alg = algorithms::bitlevel_matmul(2, 3);
    let s = SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]);
    let solve = || {
        Procedure51::new(&alg, &s)
            .budget(SearchBudget::candidates(3))
            .solve()
            .unwrap()
            .into_mapping()
            .unwrap()
    };
    let a = solve();
    let b = solve();
    assert_eq!(a.schedule.as_slice(), b.schedule.as_slice());
    assert_eq!(a.objective, b.objective);
    assert_eq!(a.total_time, b.total_time);
}

/// An unlimited budget on the same problem certifies optimality, and the
/// best-effort fallback is never better than it (sanity of the tag).
#[test]
fn best_effort_never_beats_optimal() {
    let alg = algorithms::bitlevel_matmul(2, 3);
    let s = SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]);
    let optimal = Procedure51::new(&alg, &s)
        .solve()
        .unwrap()
        .expect_optimal("unlimited budget completes");
    let degraded = Procedure51::new(&alg, &s)
        .budget(SearchBudget::candidates(3))
        .solve()
        .unwrap()
        .into_mapping()
        .unwrap();
    assert!(degraded.objective >= optimal.objective);
}

/// A zero wall-clock budget trips before the first candidate; the search
/// still degrades rather than erroring out.
#[test]
fn zero_wall_clock_still_degrades() {
    let alg = algorithms::matmul(4);
    let s = SpaceMap::row(&[1, 1, -1]);
    let outcome = Procedure51::new(&alg, &s)
        .budget(SearchBudget::wall_clock(Duration::ZERO))
        .solve()
        .expect("degradation is not an error");
    assert!(outcome.certification.is_best_effort());
    let opt = outcome.into_mapping().unwrap();
    let analysis = ConflictAnalysis::new(&opt.mapping, &alg.index_set);
    assert!(analysis.is_conflict_free_exact());
}

/// Budgets thread through the joint frontier (Problem 6.2) the same way:
/// a frontier cut short keeps the points it found, each conflict-free.
#[test]
fn joint_frontier_degrades_under_budget() {
    let alg = algorithms::matmul(3);
    let full = ParetoSearch::new(&alg).solve().expect("unbudgeted frontier");
    let frontier = ParetoSearch::new(&alg)
        .budget(SearchBudget::candidates(full.candidates_examined / 2))
        .solve()
        .expect("degradation is not an error");
    assert_eq!(
        frontier.telemetry.budget_limit,
        Some(BudgetLimit::Candidates),
        "half the candidates cannot finish the joint frontier"
    );
    assert!(!frontier.is_empty(), "half the candidates reach some design");
    for p in &frontier.points {
        let analysis = ConflictAnalysis::new(&p.mapping, &alg.index_set);
        assert!(analysis.is_conflict_free_exact());
    }
}

/// A request deadline that expires *mid-search* — driven by the
/// injected test clock, so no real time passes — degrades within one
/// candidate screen to a valid, conflict-free BestEffort mapping, and
/// the telemetry records the deadline as the tripped gate.
#[test]
fn deadline_expiry_mid_search_degrades_within_one_candidate() {
    use cfmap::core::budget::clock;
    use std::sync::atomic::{AtomicU64, Ordering};

    let alg = algorithms::matmul(4);
    let s = SpaceMap::row(&[1, 1, -1]);
    let clock = clock::TestClock::start_at(1_000);
    let screened = AtomicU64::new(0);
    // The 4th candidate screen pushes the clock past the deadline; the
    // meter is checked before each subsequent candidate, so the search
    // must wind down after exactly one more charge.
    let probe = |_: &[i64]| {
        if screened.fetch_add(1, Ordering::Relaxed) + 1 == 4 {
            clock.advance(9_000);
        }
    };
    let outcome = Procedure51::new(&alg, &s)
        .budget(SearchBudget::until(Deadline::at_micros(5_000)))
        .candidate_probe(&probe)
        .solve()
        .expect("deadline expiry degrades, it is not an error");

    assert!(outcome.certification.is_best_effort(), "{:?}", outcome.certification);
    assert_eq!(
        outcome.telemetry.budget_limit,
        Some(BudgetLimit::Deadline),
        "telemetry must record the deadline gate"
    );
    assert_eq!(
        outcome.candidates_examined, 5,
        "expiry at candidate 4 must stop after one more charge"
    );
    // Partial but *valid*: the fallback satisfies Definition 2.2 and
    // runs conflict-free on the simulated hardware.
    let opt = outcome.into_mapping().expect("best-effort carries a mapping");
    assert!(opt.mapping.has_full_rank());
    assert!(opt.schedule.is_valid_for(&alg.deps));
    let analysis = ConflictAnalysis::new(&opt.mapping, &alg.index_set);
    assert!(analysis.is_conflict_free_exact());
    let report = Simulator::new(&alg, &opt.mapping).run().unwrap();
    assert!(report.conflicts.is_empty());
}

/// The deadline-degraded result is deterministic: two runs under the
/// identical injected clock schedule produce the identical schedule.
#[test]
fn deadline_degraded_result_is_deterministic() {
    use cfmap::core::budget::clock;
    use std::sync::atomic::{AtomicU64, Ordering};

    let alg = algorithms::matmul(4);
    let s = SpaceMap::row(&[1, 1, -1]);
    let solve = || {
        let clock = clock::TestClock::start_at(0);
        let screened = AtomicU64::new(0);
        let probe = |_: &[i64]| {
            if screened.fetch_add(1, Ordering::Relaxed) + 1 == 3 {
                clock.advance(1_000_000);
            }
        };
        Procedure51::new(&alg, &s)
            .budget(SearchBudget::until(Deadline::at_micros(500)))
            .candidate_probe(&probe)
            .solve()
            .unwrap()
    };
    let (a, b) = (solve(), solve());
    assert_eq!(a.telemetry.budget_limit, Some(BudgetLimit::Deadline));
    assert_eq!(a.candidates_examined, b.candidates_examined);
    let (ma, mb) = (a.into_mapping().unwrap(), b.into_mapping().unwrap());
    assert_eq!(ma.schedule.as_slice(), mb.schedule.as_slice());
    assert_eq!(ma.objective, mb.objective);
    assert_eq!(ma.total_time, mb.total_time);
}

/// A deadline already expired at solve() returns BestEffort without
/// screening a single enumerated candidate.
#[test]
fn pre_expired_deadline_skips_enumeration() {
    use cfmap::core::budget::clock;

    let alg = algorithms::matmul(4);
    let s = SpaceMap::row(&[1, 1, -1]);
    let clock = clock::TestClock::start_at(9_000);
    let _ = &clock;
    let outcome = Procedure51::new(&alg, &s)
        .budget(SearchBudget::until(Deadline::at_micros(5_000)))
        .solve()
        .expect("degrades");
    assert_eq!(outcome.telemetry.budget_limit, Some(BudgetLimit::Deadline));
    assert_eq!(outcome.telemetry.enumerated, 0, "no candidate may be screened");
    assert!(outcome.certification.is_best_effort());
    assert!(outcome.into_mapping().is_some(), "fallback still hands back a mapping");
}

/// `candidates_examined` reports honest effort: the exhausted search
/// stops at its cap.
#[test]
fn candidates_examined_respects_cap() {
    let alg = algorithms::bitlevel_matmul(2, 3);
    let s = SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]);
    let outcome = Procedure51::new(&alg, &s)
        .budget(SearchBudget::candidates(3))
        .solve()
        .unwrap();
    assert!(outcome.candidates_examined <= 3, "{}", outcome.candidates_examined);
}
