//! Bring your own loop nest: build a custom uniform dependence algorithm,
//! synthesize a validated array design in one call, and inspect it.
//!
//! The loop nest here is a 3-D stencil relaxation:
//!
//! ```text
//! for t in 0..=T { for i in 0..=N { for j in 0..=N {
//!     u[i][j] = f(u_prev[i][j], u_prev[i-1][j], u[i][j-1])
//! } } }
//! ```
//!
//! ```sh
//! cargo run --release --example custom_algorithm
//! ```

use cfmap::prelude::*;

fn main() {
    // 1. Describe the loop nest: axes (t, i, j), three dependencies.
    let alg = UdaBuilder::new("stencil-relaxation")
        .bounds(&[4, 5, 5])
        .dep(&[1, 0, 0]) // u_prev[i][j]   — previous sweep
        .dep(&[1, 1, 0]) // u_prev[i−1][j] — previous sweep, neighbour row
        .dep(&[0, 0, 1]) // u[i][j−1]      — current sweep, left neighbour
        .build();
    println!("{alg}\n");

    // 2. One-call synthesis: PE per grid row (S = [0, 1, 0]), optimal
    //    conflict-free schedule, cycle-level validation.
    let design = ArrayDesign::synthesize(&alg, SpaceMap::row(&[0, 1, 0]))
        .build()
        .expect("synthesizable design");

    println!(
        "Mapping:\n{}\nt = {} cycles on {} PEs ({}-D array)",
        design.mapping,
        design.total_time,
        design.array.num_processors(),
        design.array.dims()
    );
    println!(
        "Utilization: mean {:.1}%, peak parallelism {}, load imbalance {:.2}",
        design.stats.mean_utilization() * 100.0,
        design.report.peak_parallelism,
        design.stats.load_imbalance()
    );
    assert!(design.report.conflicts.is_empty());

    // 3. Why that schedule? Inspect the conflict analysis.
    let analysis = ConflictAnalysis::new(&design.mapping, &alg.index_set);
    println!("\nConflict-lattice basis (kernel columns of the Hermite multiplier U):");
    for u in analysis.lattice_basis() {
        println!(
            "  {} → {:?}",
            u,
            feasibility(&u, &alg.index_set)
        );
    }

    // 4. Compare against the space-optimal alternative (Problem 6.1):
    //    keep the found schedule, search for the cheapest space map.
    let frontier = ParetoSearch::new(&alg)
        .fixed_schedule(design.mapping.schedule())
        .entry_bound(1)
        .solve()
        .expect("search ran to completion");
    let sol = frontier.space_corner().expect("space-optimal design exists");
    println!(
        "\nProblem 6.1 (space-optimal for the same schedule): S = {}  →  {} PEs + {} wire units (cost {})",
        sol.space,
        sol.processors,
        sol.wires,
        sol.space_cost()
    );

    // 5. Execute structurally and report the critical path.
    let depth = execute(&alg, &design.mapping, &DepthKernel);
    let critical = depth.values.values().copied().max().unwrap();
    println!(
        "\nCritical dependence chain: {critical} cycles (schedule achieves {})",
        design.total_time
    );
}
