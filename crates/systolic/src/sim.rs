//! Cycle-level structural simulation: conflicts, link traffic, collisions.
//!
//! The simulator executes the mapped algorithm synchronously and records
//! what a logic analyzer on the array would see. Nothing here consults the
//! conflict theory — that is the point: the theory's guarantees are
//! *observed* on the simulated hardware (experiments E4/E5), and
//! deliberately broken mappings must be caught (failure-injection tests).
//!
//! Data movement model (Definition 2.2 condition 2 with source-side
//! buffers): the datum for dependence `d̄ᵢ` produced at `j̄ − d̄ᵢ` sits in
//! `Π·d̄ᵢ − hᵢ` buffer stages at its source, then makes its `hᵢ` routed
//! hops at one primitive per cycle, arriving at `S·j̄` exactly at `Π·j̄` —
//! the inequality of Equation 2.3 guarantees the slack is non-negative.
//! Each dependence rides its own channel (the paper's per-datum links in
//! Figure 2), so a collision is two *different* data instances of one
//! dependence occupying the same directed link in the same cycle.

use cfmap_core::mapping::Routing;
use cfmap_core::{CfmapError, MappingMatrix};
use cfmap_model::{Point, Uda};
use std::collections::HashMap;

/// A computational conflict observed by the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedConflict {
    /// Processor coordinates.
    pub processor: Vec<i64>,
    /// Cycle.
    pub time: i64,
    /// The (≥ 2) index points that collided.
    pub points: Vec<Point>,
}

/// A link collision observed by the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedCollision {
    /// Which dependence channel.
    pub dep: usize,
    /// Source-end processor of the contested link.
    pub link_from: Vec<i64>,
    /// Cycle.
    pub time: i64,
    /// Producer points of the two colliding data.
    pub producers: (Point, Point),
}

/// Everything the simulation observed.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Computations per (time → processor → points).
    pub schedule: HashMap<i64, HashMap<Vec<i64>, Vec<Point>>>,
    /// Computational conflicts (must be empty for conflict-free mappings).
    pub conflicts: Vec<ObservedConflict>,
    /// Link collisions (empty for the paper's designs).
    pub link_collisions: Vec<ObservedCollision>,
    /// First and last busy cycles.
    pub time_range: (i64, i64),
    /// Total computations executed.
    pub computations: u64,
    /// Peak number of simultaneously busy processors.
    pub peak_parallelism: usize,
    /// Total link-hop events simulated.
    pub hop_events: u64,
}

impl SimReport {
    /// Observed makespan (busy span in cycles) — Equation 2.7's `t` when
    /// the mapping is valid.
    pub fn makespan(&self) -> i64 {
        self.time_range.1 - self.time_range.0 + 1
    }

    /// `true` iff no conflicts and no collisions were observed.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty() && self.link_collisions.is_empty()
    }

    /// Average busy-PE count per cycle.
    pub fn average_parallelism(&self) -> f64 {
        let busy: usize = self
            .schedule
            .values()
            .map(|per_proc| per_proc.len())
            .sum();
        busy as f64 / self.makespan() as f64
    }
}

/// The structural simulator.
pub struct Simulator<'a> {
    alg: &'a Uda,
    mapping: &'a MappingMatrix,
    routing: Option<&'a Routing>,
}

impl<'a> Simulator<'a> {
    /// Simulate `alg` under `mapping`. Pass `routing` (from
    /// [`cfmap_core::mapping::route`]) to also simulate data movement and
    /// detect link collisions; without it only computation placement is
    /// simulated.
    pub fn new(alg: &'a Uda, mapping: &'a MappingMatrix) -> Self {
        Simulator { alg, mapping, routing: None }
    }

    /// Fail fast on shape errors instead of producing garbage placements.
    fn check_dims(&self) -> Result<(), CfmapError> {
        if self.alg.dim() != self.mapping.dim() {
            return Err(CfmapError::DimensionMismatch {
                context: "simulator: algorithm vs mapping".into(),
                expected: self.alg.dim(),
                actual: self.mapping.dim(),
            });
        }
        Ok(())
    }

    /// Attach a routing certificate for link-level simulation.
    pub fn with_routing(mut self, routing: &'a Routing) -> Self {
        self.routing = Some(routing);
        self
    }

    /// Run the simulation.
    pub fn run(&self) -> Result<SimReport, CfmapError> {
        self.check_dims()?;
        let mut schedule: HashMap<i64, HashMap<Vec<i64>, Vec<Point>>> = HashMap::new();
        let mut tmin = i64::MAX;
        let mut tmax = i64::MIN;
        let mut computations = 0u64;

        for j in self.alg.index_set.iter() {
            let (p, t) = self.mapping.apply(&j);
            tmin = tmin.min(t);
            tmax = tmax.max(t);
            computations += 1;
            schedule.entry(t).or_default().entry(p).or_default().push(j);
        }

        Ok(self.finish(schedule, tmin, tmax, computations))
    }

    fn finish(
        &self,
        schedule: HashMap<i64, HashMap<Vec<i64>, Vec<Point>>>,
        tmin: i64,
        tmax: i64,
        computations: u64,
    ) -> SimReport {
        let mut conflicts = Vec::new();
        let mut peak = 0usize;
        for (&t, per_proc) in &schedule {
            peak = peak.max(per_proc.len());
            for (p, points) in per_proc {
                if points.len() > 1 {
                    conflicts.push(ObservedConflict {
                        processor: p.clone(),
                        time: t,
                        points: points.clone(),
                    });
                }
            }
        }
        conflicts.sort_by_key(|c| (c.time, c.processor.clone()));

        let (link_collisions, hop_events) = match self.routing {
            Some(routing) => self.simulate_links(routing),
            None => (Vec::new(), 0),
        };

        let time_range = if tmin == i64::MAX { (0, 0) } else { (tmin, tmax) };
        SimReport {
            schedule,
            conflicts,
            link_collisions,
            time_range,
            computations,
            peak_parallelism: peak,
            hop_events,
        }
    }

    /// Delegate data movement to the channel model in [`crate::links`]
    /// and convert its findings to the report's types.
    fn simulate_links(&self, routing: &Routing) -> (Vec<ObservedCollision>, u64) {
        let channel_report = crate::links::simulate_channels(self.alg, self.mapping, routing);
        let hops = channel_report.total_hop_events();
        let collisions = channel_report
            .collisions
            .into_iter()
            .map(|c| ObservedCollision {
                dep: c.dep,
                link_from: c.link_from,
                time: c.time,
                producers: c.producers,
            })
            .collect();
        (collisions, hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmap_core::mapping::{route, InterconnectionPrimitives};
    use cfmap_core::{MappingMatrix, SpaceMap};
    use cfmap_model::{algorithms, LinearSchedule};

    fn matmul_setup(mu: i64, pi: &[i64]) -> (Uda, MappingMatrix) {
        let alg = algorithms::matmul(mu);
        let m = MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(pi));
        (alg, m)
    }

    #[test]
    fn optimal_matmul_simulation_is_clean() {
        let (alg, m) = matmul_setup(4, &[1, 4, 1]);
        let report = Simulator::new(&alg, &m).run().unwrap();
        assert!(report.conflicts.is_empty(), "paper design must be conflict-free");
        assert_eq!(report.makespan(), 25);
        assert_eq!(report.computations, 125);
        assert!(report.peak_parallelism <= 13);
    }

    #[test]
    fn conflicting_mapping_is_caught() {
        // Failure injection: Π1 = [1, 1, μ] conflicts; the simulator must
        // observe it.
        let (alg, m) = matmul_setup(4, &[1, 1, 4]);
        let report = Simulator::new(&alg, &m).run().unwrap();
        assert!(!report.conflicts.is_empty());
        let c = &report.conflicts[0];
        assert!(c.points.len() >= 2);
        // The witnesses really collide under T.
        let im: Vec<_> = c.points.iter().map(|p| m.apply(p)).collect();
        assert!(im.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn makespan_matches_eq_2_7_even_with_conflicts() {
        let (alg, m) = matmul_setup(3, &[2, 1, 3]);
        let report = Simulator::new(&alg, &m).run().unwrap();
        assert_eq!(report.makespan(), m.schedule().total_time(&alg.index_set));
    }

    #[test]
    fn link_simulation_example_5_1() {
        // Full Example 5.1 with routing: no conflicts, no collisions.
        let (alg, m) = matmul_setup(4, &[1, 4, 1]);
        let p = InterconnectionPrimitives::from_columns(&[&[1], &[1], &[-1]]);
        let routing = route(&m, &alg.deps, &p).expect("routable");
        let report = Simulator::new(&alg, &m).with_routing(&routing).run().unwrap();
        assert!(report.is_clean(), "collisions: {:?}", report.link_collisions);
        assert!(report.hop_events > 0);
    }

    #[test]
    fn link_simulation_baseline_23() {
        // [23]'s design is also collision-free (just slower).
        let (alg, m) = matmul_setup(4, &[2, 1, 4]);
        let p = InterconnectionPrimitives::from_columns(&[&[1], &[1], &[-1]]);
        let routing = route(&m, &alg.deps, &p).expect("routable");
        let report = Simulator::new(&alg, &m).with_routing(&routing).run().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.makespan(), 4 * (4 + 3) + 1);
    }

    #[test]
    fn link_simulation_transitive_closure() {
        let alg = algorithms::transitive_closure(4);
        let m = MappingMatrix::new(SpaceMap::row(&[0, 0, 1]), LinearSchedule::new(&[5, 1, 1]));
        let p = InterconnectionPrimitives::from_columns(&[&[1], &[-1]]);
        let routing = route(&m, &alg.deps, &p).expect("routable");
        let report = Simulator::new(&alg, &m).with_routing(&routing).run().unwrap();
        assert!(report.is_clean(), "collisions: {:?}", report.link_collisions);
        assert_eq!(report.makespan(), 29);
    }

    #[test]
    fn average_parallelism_sane() {
        let (alg, m) = matmul_setup(4, &[1, 4, 1]);
        let report = Simulator::new(&alg, &m).run().unwrap();
        let avg = report.average_parallelism();
        assert!(avg > 1.0 && avg <= 13.0, "avg parallelism {avg}");
        // 125 computations over 25 cycles = 5 busy-PE-cycles per cycle.
        assert!((avg - 5.0).abs() < 1e-9);
    }
}
