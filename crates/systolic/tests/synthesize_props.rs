//! Differential test of `SystolicArray::synthesize` against the
//! per-point formula: map every index point with
//! `MappingMatrix::apply`, collect the processors into a sorted set and
//! track the time span. The array must hold exactly that: the same
//! sorted processors, the same bounds and the same time range. Every
//! case also checks that `count_processors`, which never walks the box,
//! counts exactly the processors the walk lists.

use cfmap_core::{find_valid_schedule, MappingMatrix, SpaceMap};
use cfmap_model::{algorithms, LinearSchedule, Uda, UdaBuilder};
use cfmap_systolic::{count_processors, processor_span, SystolicArray, MAX_PROCESSOR_SPAN};
use cfmap_testkit::gen;
use std::collections::BTreeSet;

/// Processors, bounds and time range, computed point by point.
type Geometry = (Vec<Vec<i64>>, Vec<(i64, i64)>, (i64, i64));

fn per_point(alg: &Uda, mapping: &MappingMatrix) -> Geometry {
    let mut procs = BTreeSet::new();
    let (mut tmin, mut tmax) = (i64::MAX, i64::MIN);
    for j in alg.index_set.iter() {
        let (p, t) = mapping.apply(&j);
        procs.insert(p);
        tmin = tmin.min(t);
        tmax = tmax.max(t);
    }
    let processors: Vec<Vec<i64>> = procs.into_iter().collect();
    let bounds = (0..mapping.k() - 1)
        .map(|d| {
            let min = processors.iter().map(|p| p[d]).min().unwrap();
            let max = processors.iter().map(|p| p[d]).max().unwrap();
            (min, max)
        })
        .collect();
    (processors, bounds, (tmin, tmax))
}

fn assert_synthesis_matches(alg: &Uda, mapping: &MappingMatrix, what: &str) {
    let array = SystolicArray::synthesize(alg, mapping);
    let (processors, bounds, time_range) = per_point(alg, mapping);
    assert_eq!(array.dims(), mapping.k() - 1, "{what}: dims");
    assert_eq!(
        array.processors(),
        processors.as_slice(),
        "{what}: processors"
    );
    assert_eq!(array.bounds(), bounds.as_slice(), "{what}: bounds");
    assert_eq!(array.time_range(), time_range, "{what}: time range");
    let space = mapping.space().as_mat().to_i64_rows().expect("space entries fit i64");
    assert_eq!(
        count_processors(alg.index_set.mu(), &space),
        Some(processors.len() as u64),
        "{what}: count"
    );
}

fn mapping(space: &[&[i64]], pi: &[i64]) -> MappingMatrix {
    MappingMatrix::new(SpaceMap::from_rows(space), LinearSchedule::new(pi))
}

#[test]
fn served_family_designs_match_up_to_mu_24() {
    // The shapes a family certificate answers with, at the sizes the
    // fleet serves: S fixed, Π any valid schedule of the instance.
    for mu in 1..=24 {
        let cases: [(Uda, &[i64]); 5] = [
            (algorithms::matmul(mu), &[1, 1, -1]),
            (algorithms::transitive_closure(mu), &[0, 0, 1]),
            (algorithms::lu_decomposition(mu), &[0, 0, 1]),
            (algorithms::sor(mu, mu), &[0, 1]),
            (algorithms::matvec(mu, mu), &[0, 1]),
        ];
        for (alg, s) in cases {
            let pi = find_valid_schedule(&alg).expect("catalogue algorithm is schedulable");
            let m = MappingMatrix::new(SpaceMap::row(s), pi);
            assert_synthesis_matches(&alg, &m, &format!("{} μ={mu}", alg.name));
        }
    }
}

#[test]
fn catalogue_matches_under_one_and_two_row_space_maps() {
    let mut corpus = algorithms::all_small();
    corpus.push(algorithms::identity_cube(3, 2));
    corpus.push(algorithms::identity_cube(4, 2));
    for alg in corpus {
        let n = alg.dim();
        let pi = find_valid_schedule(&alg).expect("catalogue algorithm is schedulable");
        // One row with mixed signs, and two rows that split the axes.
        let row: Vec<i64> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        assert_synthesis_matches(
            &alg,
            &mapping(&[&row], pi.as_slice()),
            &format!("{} one row", alg.name),
        );
        let first: Vec<i64> = (0..n).map(|i| i64::from(i == 0)).collect();
        let second: Vec<i64> = (0..n).map(|i| if i == 0 { 0 } else { i as i64 }).collect();
        assert_synthesis_matches(
            &alg,
            &mapping(&[&first, &second], pi.as_slice()),
            &format!("{} two rows", alg.name),
        );
    }
}

#[test]
fn degenerate_boxes_match() {
    // n = 1, a single point, and boxes with μᵢ = 0 axes.
    for (mu, space, pi) in [
        (vec![0], vec![vec![3]], vec![1]),
        (vec![6], vec![vec![-2]], vec![1]),
        (vec![6], vec![vec![1], vec![-1]], vec![2]),
        (vec![0, 0, 0], vec![vec![1, 1, -1]], vec![1, 1, 1]),
        (vec![4, 0, 3], vec![vec![1, 5, -1]], vec![1, 9, 4]),
        (
            vec![0, 3, 0, 2],
            vec![vec![1, 0, 2, 0], vec![0, 1, 0, -1]],
            vec![3, 1, 1, 2],
        ),
    ] {
        let alg = UdaBuilder::new("box")
            .bounds(&mu)
            .dep(&unit(mu.len()))
            .build();
        let rows: Vec<&[i64]> = space.iter().map(Vec::as_slice).collect();
        assert_synthesis_matches(&alg, &mapping(&rows, &pi), &format!("μ={mu:?} S={space:?}"));
    }
}

#[test]
fn rows_with_gaps_match() {
    // One row whose sorted steps outrun the reach of the smaller ones
    // leaves holes in its image, so the count takes the bitset.
    for (mu, row) in [
        (vec![3, 3], vec![2, 3]),
        (vec![1, 2], vec![-1, 3]),
        (vec![4, 2, 2], vec![2, 2, 3]),
        (vec![2, 1, 5], vec![3, -3, 2]),
        (vec![5, 5, 0], vec![4, -6, 1]),
        (vec![2, 2, 2, 2], vec![1, 7, -15, 31]),
    ] {
        assert!(processor_span(&mu, std::slice::from_ref(&row)).is_some(), "{row:?} has a gap");
        let alg = UdaBuilder::new("box").bounds(&mu).dep(&unit(mu.len())).build();
        let pi: Vec<i64> = (1..=mu.len() as i64).collect();
        assert_synthesis_matches(&alg, &mapping(&[&row], &pi), &format!("μ={mu:?} S={row:?}"));
    }
}

#[test]
fn boxes_at_the_span_bound_match() {
    // Few points, but a bounding box of exactly 2²⁰: one row with a
    // gap, and two rows of widths 2¹⁰ × 2¹⁰.
    let bound = MAX_PROCESSOR_SPAN as i64;
    for (mu, space) in [
        (vec![1, 1], vec![vec![2, bound - 3]]),
        (vec![1, 1, 1], vec![vec![1, 1022, 0], vec![0, 1, 1022]]),
        (vec![1, 2, 1], vec![vec![-1, 0, 1022], vec![0, 511, -1]]),
    ] {
        assert_eq!(processor_span(&mu, &space), Some(u128::from(MAX_PROCESSOR_SPAN)));
        let alg = UdaBuilder::new("box").bounds(&mu).dep(&unit(mu.len())).build();
        let rows: Vec<&[i64]> = space.iter().map(Vec::as_slice).collect();
        let pi: Vec<i64> = (1..=mu.len() as i64).collect();
        assert_synthesis_matches(&alg, &mapping(&rows, &pi), &format!("μ={mu:?} S={space:?}"));
    }
}

/// The first unit vector of `Zⁿ`: a dependence every generated box can
/// carry (synthesis reads only the index set).
fn unit(n: usize) -> Vec<i64> {
    (0..n).map(|i| i64::from(i == 0)).collect()
}

cfmap_testkit::props! {
    cases = 256;

    /// Generated boxes of dimension 1–4 with bounds 0–4 under one- or
    /// two-row space maps and arbitrary schedules (entries −3…3).
    fn generated_mappings_match_the_per_point_formula(
        n in 1usize..=4,
        mu in gen::vec(0i64..=4, 4),
        space in gen::vec(-3i64..=3, 8),
        two_rows in gen::bools(),
        pi in gen::vec(-3i64..=3, 4),
    ) {
        let alg = UdaBuilder::new("generated").bounds(&mu[..n]).dep(&unit(n)).build();
        let mut rows: Vec<&[i64]> = vec![&space[..n]];
        if two_rows {
            rows.push(&space[4..4 + n]);
        }
        assert_synthesis_matches(&alg, &mapping(&rows, &pi[..n]), "generated");
    }
}
