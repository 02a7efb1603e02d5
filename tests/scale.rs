//! Moderate-scale stress: larger index sets through the full stack.

use cfmap::prelude::*;

/// μ = 12 matmul: 2197 computations on a 37-PE linear array — analysis,
/// simulation and numeric execution all hold up.
#[test]
fn matmul_mu_12_full_stack() {
    let mu = 12;
    let alg = algorithms::matmul(mu);
    let mapping =
        MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, mu, 1]));

    // Theory: conflict-free, rank 2.
    let analysis = ConflictAnalysis::new(&mapping, &alg.index_set);
    assert!(analysis.is_conflict_free_exact());
    let gamma = analysis.unique_conflict_vector().unwrap();
    assert_eq!(gamma.to_i64s().unwrap(), vec![mu + 1, -2, mu - 1]);

    // Simulation agrees with the formula.
    let report = Simulator::new(&alg, &mapping).run().unwrap();
    assert!(report.conflicts.is_empty());
    assert_eq!(report.makespan(), mu * (mu + 2) + 1);
    assert_eq!(report.computations, 13u64.pow(3));

    // Numeric: a 13×13 matrix product.
    let kernel = MatmulKernel::random((mu + 1) as usize, 3);
    let result = execute(&alg, &mapping, &kernel);
    assert!(result.causality_violations.is_empty());
    assert_eq!(kernel.extract_product(&result, mu), kernel.reference_product());
}

/// μ = 10 transitive closure with the paper-optimal schedule: the oracle
/// (1331 points) and the lattice test agree, and the speedup over the
/// [22] baseline approaches its asymptote.
#[test]
fn transitive_closure_mu_10() {
    let mu = 10;
    let alg = algorithms::transitive_closure(mu);
    let mapping =
        MappingMatrix::new(SpaceMap::row(&[0, 0, 1]), LinearSchedule::new(&[mu + 1, 1, 1]));
    assert!(oracle::is_conflict_free_by_enumeration(&mapping, &alg.index_set));
    let analysis = ConflictAnalysis::new(&mapping, &alg.index_set);
    assert!(analysis.is_conflict_free_exact());
    let t_opt = mapping.schedule().total_time(&alg.index_set);
    let t_base = mu * (2 * mu + 3) + 1;
    assert_eq!(t_opt, mu * (mu + 3) + 1);
    assert!((t_base as f64 / t_opt as f64) > 1.7);
}

/// A 6-dimensional synthetic algorithm through analysis (kernel dimension
/// 4 exercises the generalized conditions and the LLL path).
#[test]
fn six_dimensional_analysis() {
    let alg = algorithms::identity_cube(6, 2);
    let mapping = MappingMatrix::from_rows(&[
        &[1, 0, 0, 0, 0, 0],
        &[1, 3, 9, 27, 81, 243],
    ]);
    let analysis = ConflictAnalysis::new(&mapping, &alg.index_set);
    assert_eq!(analysis.lattice_basis().len(), 4);
    // Powers of 3 with μ = 2: any kernel vector needs an entry ≥ 3 in
    // magnitude ⇒ conflict-free.
    assert!(analysis.is_conflict_free_exact());
    assert!(oracle::is_conflict_free_by_enumeration(&mapping, &alg.index_set));
    // And the repaired subset condition must not contradict (it may be
    // Unknown, never a false refutation of a clean mapping is possible
    // since refutations come from Theorem 4.4 which is necessary).
    let verdict = conditions::paper_condition(&analysis, &alg.index_set);
    assert_ne!(verdict, ConditionVerdict::HasConflict);
}

/// Bit-expanded convolution at a larger size: derived algorithm maps and
/// simulates cleanly on a 2-D array.
#[test]
fn expanded_convolution_scale() {
    let word = algorithms::convolution(4, 4);
    let bit = expand_to_bit_level(&word, 2);
    assert_eq!(bit.dim(), 4);
    let rows = extend_space_rows(&[vec![1, 0], vec![0, 1]]);
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    let design = ArrayDesign::synthesize(&bit, SpaceMap::from_rows(&refs))
        .build()
        .expect("synthesizable");
    assert!(design.report.is_clean());
    assert_eq!(design.report.computations as u128, bit.num_computations());
    assert!(design.stats.mean_utilization() > 0.5);
}
