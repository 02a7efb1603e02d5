//! E11/E12 — Problems 6.1 and 6.2: cost of the fixed-schedule and joint
//! frontier searches whose corners answer them.

use cfmap_bench::timing::{bench, group};
use cfmap_core::pareto::ParetoSearch;
use cfmap_core::search::SymmetryMode;
use cfmap_model::{algorithms, bounds, LinearSchedule};
use std::hint::black_box;

fn main() {
    group("e11_space_search");
    for mu in [3i64, 4] {
        let alg = algorithms::matmul(mu);
        let pi = LinearSchedule::new(&[1, mu, 1]);
        let search = |bound| ParetoSearch::new(black_box(&alg)).fixed_schedule(&pi).entry_bound(bound);
        bench(&format!("bound1/{mu}"), || search(1).solve().unwrap());
        bench(&format!("bound2/{mu}"), || search(2).solve().unwrap());
    }
    {
        let alg = algorithms::bitlevel_convolution(2, 2);
        let pi = LinearSchedule::new(&[1, 1, 1, 3]);
        bench("two_rows_bitlevel", || {
            let search = ParetoSearch::new(black_box(&alg)).fixed_schedule(&pi);
            search.rows(2).entry_bound(1).solve().unwrap()
        });
    }

    group("e12_joint_corners");
    for mu in [3i64, 4] {
        let alg = algorithms::matmul(mu);
        // One frontier solve yields both corners; picking one is free.
        bench(&format!("frontier/{mu}"), || {
            ParetoSearch::new(black_box(&alg))
                .entry_bound(1)
                .symmetry(SymmetryMode::Quotient)
                .solve()
                .unwrap()
        });
    }

    group("e12_bounds");
    for mu in [3i64, 4, 6] {
        let alg = algorithms::matmul(mu);
        bench(&format!("critical_path/{mu}"), || bounds::critical_path(black_box(&alg)));
    }
}
