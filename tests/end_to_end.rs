//! End-to-end integration: every library algorithm gets mapped, analyzed,
//! simulated and (where semantics exist) numerically verified.

use cfmap::prelude::*;

/// For each algorithm: pick a natural space map, find the optimal
/// conflict-free schedule, synthesize the array, simulate, and check that
/// the theory and the simulation agree on every observable.
#[test]
fn full_pipeline_over_the_library() {
    let cases: Vec<(Uda, SpaceMap, i64)> = vec![
        (algorithms::matmul(3), SpaceMap::row(&[1, 1, -1]), 60),
        (algorithms::transitive_closure(3), SpaceMap::row(&[0, 0, 1]), 60),
        (algorithms::convolution(4, 3), SpaceMap::row(&[1, -1]), 60),
        (algorithms::lu_decomposition(3), SpaceMap::row(&[1, 0, -1]), 60),
        (
            algorithms::bitlevel_convolution(2, 2),
            SpaceMap::from_rows(&[&[1, 0, 0, 0], &[0, 1, 0, 0]]),
            60,
        ),
        (
            algorithms::bitlevel_matmul(2, 2),
            SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]),
            80,
        ),
    ];
    for (alg, s, cap) in cases {
        let opt = Procedure51::new(&alg, &s)
            .max_objective(cap)
            .solve()
            .unwrap()
            .into_mapping()
            .unwrap_or_else(|| panic!("no mapping for {}", alg.name));

        // Theory side.
        assert!(opt.mapping.has_full_rank(), "{}", alg.name);
        assert!(opt.schedule.is_valid_for(&alg.deps), "{}", alg.name);
        let analysis = ConflictAnalysis::new(&opt.mapping, &alg.index_set);
        assert!(analysis.is_conflict_free_exact(), "{}", alg.name);

        // Simulation side must agree observable by observable.
        let report = Simulator::new(&alg, &opt.mapping).run().unwrap();
        assert!(report.conflicts.is_empty(), "{}", alg.name);
        assert_eq!(report.makespan(), opt.total_time, "{}", alg.name);
        assert_eq!(report.computations as u128, alg.num_computations(), "{}", alg.name);

        // Array geometry is consistent.
        let array = SystolicArray::synthesize(&alg, &opt.mapping);
        assert_eq!(array.total_time(), opt.total_time, "{}", alg.name);
        assert_eq!(array.dims(), s.array_dims(), "{}", alg.name);
        assert!(report.peak_parallelism <= array.num_processors(), "{}", alg.name);

        // Structural execution: causal, chain-depth bounded by makespan.
        let depth = execute(&alg, &opt.mapping, &DepthKernel);
        assert!(depth.causality_violations.is_empty(), "{}", alg.name);
        let max_depth = depth.values.values().copied().max().unwrap();
        assert!(max_depth <= opt.total_time, "{}", alg.name);
    }
}

/// Numeric end-to-end: the mapped matmul array multiplies matrices for a
/// range of sizes.
#[test]
fn matmul_numeric_sweep() {
    for mu in 2..=5i64 {
        let alg = algorithms::matmul(mu);
        let s = SpaceMap::row(&[1, 1, -1]);
        let opt = Procedure51::new(&alg, &s).solve().unwrap().expect_optimal("solvable");
        let kernel = MatmulKernel::random((mu + 1) as usize, mu as u64);
        let result = execute(&alg, &opt.mapping, &kernel);
        assert!(result.causality_violations.is_empty());
        assert_eq!(kernel.extract_product(&result, mu), kernel.reference_product(), "μ = {mu}");
    }
}

/// Numeric end-to-end: convolution on its systolic mapping.
#[test]
fn convolution_numeric() {
    let (mu_y, mu_w) = (7, 4);
    let alg = algorithms::convolution(mu_y, mu_w);
    let s = SpaceMap::row(&[1, -1]);
    let opt = Procedure51::new(&alg, &s).solve().unwrap().expect_optimal("solvable");
    let kernel = ConvolutionKernel {
        x: vec![2, -3, 5, 7, -11, 13, 0, 1],
        w: vec![1, -2, 4, 0, 3],
    };
    let result = execute(&alg, &opt.mapping, &kernel);
    assert!(result.causality_violations.is_empty());
    let y: Vec<i64> = (0..=mu_y).map(|i| result.values[&vec![i, mu_w]].y).collect();
    assert_eq!(y, kernel.reference(mu_y));
}

/// The routing layer composes with the optimizer for every 1-D design.
#[test]
fn routed_linear_designs() {
    let prims = InterconnectionPrimitives::from_columns(&[&[1], &[-1]]);
    for (alg, s) in [
        (algorithms::transitive_closure(3), SpaceMap::row(&[0, 0, 1])),
        (algorithms::convolution(4, 3), SpaceMap::row(&[1, -1])),
    ] {
        let opt = Procedure51::new(&alg, &s)
            .primitives(&prims)
            .solve()
            .unwrap()
            .into_mapping()
            .unwrap_or_else(|| panic!("no routable mapping for {}", alg.name));
        let routing = opt.routing.expect("routing present");
        // P·K = S·D.
        let sd = opt.mapping.space().as_mat() * alg.deps.as_mat();
        assert_eq!(&(prims.as_mat() * &routing.k), &sd, "{}", alg.name);
        // Simulated link traffic is collision-free.
        let report = Simulator::new(&alg, &opt.mapping).with_routing(&routing).run().unwrap();
        assert!(report.is_clean(), "{}", alg.name);
    }
}

/// Smith and Hermite agree on every mapping the optimizer produces.
#[test]
fn normal_forms_cross_check() {
    for (alg, s) in [
        (algorithms::matmul(4), SpaceMap::row(&[1, 1, -1])),
        (algorithms::transitive_closure(4), SpaceMap::row(&[0, 0, 1])),
    ] {
        let opt = Procedure51::new(&alg, &s).solve().unwrap().expect_optimal("solvable");
        let t = opt.mapping.as_mat();
        let hnf = hermite_normal_form(t);
        let smith = smith_normal_form(t);
        assert_eq!(hnf.rank, smith.rank);
        assert_eq!(hnf.kernel_cols().len(), smith.kernel_cols().len());
        // Both designs are onto Z^k: dense processor/time utilization.
        assert!(smith.is_surjective_onto_zk());
    }
}
