//! Problem 6.1 — the paper's stated future work, implemented: given a
//! linear schedule, find the space map minimizing processors + wire
//! length, subject to conflict-freedom. The answer is the space corner
//! of the fixed-schedule Pareto frontier.
//!
//! ```sh
//! cargo run --release --example space_optimal
//! ```

use cfmap::prelude::*;

fn main() {
    println!("═══ Problem 6.1: space-optimal conflict-free mappings ═══\n");

    // Matmul under the paper's optimal schedule Π = [1, μ, 1].
    let mu = 4;
    let alg = algorithms::matmul(mu);
    let pi = LinearSchedule::new(&[1, mu, 1]);
    println!("matmul(μ = {mu}) with fixed {pi}:");
    let paper_space = SpaceMap::row(&[1, 1, -1]);
    let paper_design =
        MappingMatrix::new(paper_space.clone(), pi.clone());
    let paper_pes = SystolicArray::synthesize(&alg, &paper_design).num_processors();
    println!("  paper's S = [1, 1, −1]: {paper_pes} PEs");

    let frontier = ParetoSearch::new(&alg).fixed_schedule(&pi).solve().expect("search ran to completion");
    let sol = frontier.space_corner().expect("solvable");
    println!(
        "  space-optimal:  S = {} → {} PEs + {} wire units (cost {}), {} candidates examined",
        sol.space, sol.processors, sol.wires, sol.space_cost(), frontier.candidates_examined
    );
    assert!(oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set));
    let report = Simulator::new(&alg, &sol.mapping).run().unwrap();
    assert!(report.conflicts.is_empty());
    println!(
        "  validated: conflict-free by enumeration and simulation; makespan {}",
        report.makespan()
    );

    // Transitive closure under its optimal schedule.
    let alg = algorithms::transitive_closure(mu);
    let pi = LinearSchedule::new(&[mu + 1, 1, 1]);
    println!("\ntransitive-closure(μ = {mu}) with fixed {pi}:");
    let frontier = ParetoSearch::new(&alg).fixed_schedule(&pi).solve().expect("search ran to completion");
    let sol = frontier.space_corner().expect("solvable");
    println!(
        "  space-optimal: S = {} → {} PEs + {} wire units (cost {})",
        sol.space, sol.processors, sol.wires, sol.space_cost()
    );
    println!("  (the paper's S = [0, 0, 1] costs 5 PEs + 3 wires = 8)");

    // The time/space trade-off made visible: sweep schedules by total
    // time and report the space-optimal cost for each.
    println!("\nTime/space trade-off for matmul(μ = 4):");
    println!("{:>14} {:>8} {:>10}", "Π", "t", "space cost");
    let alg = algorithms::matmul(mu);
    for pi_entries in [[1i64, 2, 3], [1, 4, 1], [2, 1, 4], [2, 4, 2], [1, 6, 1]] {
        let pi = LinearSchedule::new(&pi_entries);
        if !pi.is_valid_for(&alg.deps) {
            continue;
        }
        let t = pi.total_time(&alg.index_set);
        let frontier = ParetoSearch::new(&alg).fixed_schedule(&pi).entry_bound(1).solve().unwrap();
        match frontier.space_corner() {
            Some(sol) => println!("{:>14} {:>8} {:>10}", format!("{pi_entries:?}"), t, sol.space_cost()),
            None => println!("{:>14} {:>8} {:>10}", format!("{pi_entries:?}"), t, "—"),
        }
    }
}
