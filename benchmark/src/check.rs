//! Answer checks, run once per distinct answer after the timed phase.
//!
//! Every check recomputes the answer's claims from first principles in the
//! caller's axis order: schedule validity, full rank, conflict freedom by
//! enumerating every index point, and the cost axes. Optimality is checked
//! against the paper's closed forms, against an exhaustive search over all
//! cheaper schedules, or against a cold Procedure 5.1 solve.

use crate::workload::{MapProblem, ParetoProblem};
use cfmap::core::oracle::is_conflict_free_by_enumeration;
use cfmap::core::{
    canonicalize, CanonicalProblem, Certification, MappingMatrix, Procedure51, SpaceMap, TieBreak,
};
use cfmap::intlin::{non_dominated_indices, Rat};
use cfmap::model::{LinearSchedule, Uda};
use cfmap::service::wire::{MapOutcome, MapResponse, ParetoOutcome, ParetoResponse};
use cfmap::systolic::{peak_link_load, SystolicArray};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::str::FromStr;

fn weighted(pi: &[i64], mu: &[i64]) -> i64 {
    pi.iter().zip(mu).map(|(p, m)| p.abs() * m).sum()
}

fn space_map(rows: &[Vec<i64>]) -> SpaceMap {
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    SpaceMap::from_rows(&refs)
}

/// `Π·d̄ ≥ 1` for every dependence column, in machine integers.
fn valid(alg: &Uda, pi: &[i64]) -> bool {
    alg.deps
        .columns_i64()
        .iter()
        .all(|d| d.iter().zip(pi).map(|(a, b)| a * b).sum::<i64>() >= 1)
}

/// The mapping `[S; Π]` if it is valid, of full rank and conflict-free by
/// enumeration of every index point.
fn feasible(alg: &Uda, rows: &[Vec<i64>], pi: &[i64]) -> Option<MappingMatrix> {
    if !valid(alg, pi) {
        return None;
    }
    let mapping = MappingMatrix::new(space_map(rows), LinearSchedule::new(pi));
    (mapping.has_full_rank() && is_conflict_free_by_enumeration(&mapping, &alg.index_set))
        .then_some(mapping)
}

/// Every integer schedule with `Σ|π_i|μ_i ≤ cap`.
fn schedules_within(mu: &[i64], cap: i64) -> Vec<Vec<i64>> {
    fn rec(mu: &[i64], left: i64, cur: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        if cur.len() == mu.len() {
            out.push(cur.clone());
            return;
        }
        let m = mu[cur.len()].max(1);
        for v in -(left / m)..=left / m {
            cur.push(v);
            rec(mu, left - v.abs() * m, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    if cap >= 0 {
        rec(mu, cap, &mut Vec::new(), &mut out);
    }
    out
}

/// Decode a `/map` answer and check every claim it makes.
pub fn map_answer(p: &MapProblem, body: &str) -> Result<MapOutcome, String> {
    let resp = MapResponse::from_str(body).map_err(|e| format!("undecodable /map answer: {e}"))?;
    let MapResponse::Ok(o) = resp else {
        return Err(format!("expected a mapping, got {body}"));
    };
    let mu = p.alg.index_set.mu();
    if o.certification != Certification::Optimal {
        return Err(format!(
            "answer not certified optimal: {:?}",
            o.certification
        ));
    }
    if o.schedule.len() != mu.len()
        || o.objective != weighted(&o.schedule, mu)
        || o.total_time != o.objective + 1
    {
        return Err(format!(
            "schedule {:?} does not have objective {}",
            o.schedule, o.objective
        ));
    }
    let mapping = feasible(&p.alg, &p.space, &o.schedule).ok_or_else(|| {
        format!(
            "schedule {:?} is invalid, rank-deficient or conflicting",
            o.schedule
        )
    })?;
    let array = SystolicArray::synthesize(&p.alg, &mapping);
    if o.processors != array.num_processors() as u64 || o.array_dims != p.space.len() as u64 {
        return Err(format!(
            "array size {}×{} disagrees with the synthesized design",
            o.processors, o.array_dims
        ));
    }
    if let Some(t) = p.closed_form {
        if o.total_time != t {
            return Err(format!(
                "total time {} but the closed form gives {t}",
                o.total_time
            ));
        }
    }
    Ok(o)
}

/// No schedule cheaper than the answer's is feasible: an exhaustive search
/// of every integer schedule below its objective.
pub fn map_optimal_by_brute_force(p: &MapProblem, o: &MapOutcome) -> Result<(), String> {
    match schedules_within(p.alg.index_set.mu(), o.objective - 1)
        .into_iter()
        .find(|pi| feasible(&p.alg, &p.space, pi).is_some())
    {
        Some(pi) => Err(format!(
            "schedule {pi:?} beats the answer's objective {}",
            o.objective
        )),
        None => Ok(()),
    }
}

/// Cold Procedure 5.1 `LexMax` solves of canonical problems, each solved
/// once however many presentations of it are checked.
#[derive(Default)]
pub struct ColdSolves(HashMap<CanonicalProblem, Result<(Vec<i64>, i64), String>>);

impl ColdSolves {
    /// The answer equals the cold solve of its canonical problem,
    /// translated back into the caller's axis order.
    pub fn check(&mut self, p: &MapProblem, o: &MapOutcome) -> Result<(), String> {
        let canon = canonicalize(&p.alg, &space_map(&p.space));
        let (canonical, total_time) = self
            .0
            .entry(canon.problem.clone())
            .or_insert_with(|| cold_solve(&canon.problem))
            .clone()?;
        let schedule = canon.schedule_to_original(&canonical);
        if schedule != o.schedule || total_time != o.total_time {
            return Err(format!(
                "answer {:?} (t = {}) differs from the cold solve {schedule:?} (t = {total_time})",
                o.schedule, o.total_time
            ));
        }
        Ok(())
    }
}

fn cold_solve(problem: &CanonicalProblem) -> Result<(Vec<i64>, i64), String> {
    let alg = problem.uda("canonical");
    let space = problem.space_map();
    let opt = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .solve()
        .map_err(|e| format!("cold solve failed: {e}"))?
        .into_mapping()
        .ok_or("cold solve found no mapping")?;
    Ok((opt.schedule.as_slice().to_vec(), opt.total_time))
}

/// Sites and wire length of one space map: `Π(1 + Σ|s_i|μ_i)` over the rows
/// and `Σ_d Σ_rows |s·d̄|`.
fn cost(alg: &Uda, rows: &[Vec<i64>]) -> (u64, i64) {
    let mu = alg.index_set.mu();
    let sites = rows.iter().map(|r| (1 + weighted(r, mu)) as u64).product();
    let wires = alg
        .deps
        .columns_i64()
        .iter()
        .flat_map(|d| {
            rows.iter()
                .map(move |r| r.iter().zip(d).map(|(a, b)| a * b).sum::<i64>().abs())
        })
        .sum();
    (sites, wires)
}

fn dominates(a: &[i64], b: &[i64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a != b
}

/// A design: objective vector, space rows, schedule.
type Design = (Vec<i64>, Vec<Vec<i64>>, Vec<i64>);

/// Decode a `/pareto` answer and check every point and the dominance
/// relation among them.
pub fn pareto_answer(p: &ParetoProblem, body: &str) -> Result<ParetoOutcome, String> {
    let resp =
        ParetoResponse::from_str(body).map_err(|e| format!("undecodable /pareto answer: {e}"))?;
    let ParetoResponse::Ok(o) = resp else {
        return Err(format!("expected a frontier, got {body}"));
    };
    if !o.verified || o.frontier_size != o.points.len() as u64 {
        return Err("frontier not verified or miscounted".into());
    }
    let mu = p.alg.index_set.mu();
    let bound = p.request.entry_bound.unwrap_or(2);
    let mut vectors = Vec::new();
    for pt in &o.points {
        let in_pool = pt.space.len() == 1
            && pt.space[0].len() == mu.len()
            && pt.space[0].iter().all(|s| s.abs() <= bound);
        if !in_pool || pt.total_time != 1 + weighted(&pt.schedule, mu) {
            return Err(format!("point {pt:?} is outside the request's scope"));
        }
        if p.request.cap.is_some_and(|cap| pt.total_time - 1 > cap) {
            return Err(format!("point {pt:?} exceeds the objective cap"));
        }
        let mapping = feasible(&p.alg, &pt.space, &pt.schedule)
            .ok_or_else(|| format!("point {pt:?} is invalid, rank-deficient or conflicting"))?;
        if cost(&p.alg, &pt.space) != (pt.processors, pt.wires) {
            return Err(format!("point {pt:?} misreports its sites or wires"));
        }
        let probed = peak_link_load(&p.alg, &mapping);
        match (p.request.include_bandwidth, pt.bandwidth) {
            (false, None) => {}
            (true, Some(bw)) if probed == Some(bw) => {}
            _ => {
                return Err(format!(
                    "point {pt:?} misreports its bandwidth ({probed:?})"
                ))
            }
        }
        let mut v = vec![pt.total_time, pt.processors as i64, pt.wires];
        v.extend(pt.bandwidth.map(|b| b as i64));
        vectors.push(v);
    }
    for a in &vectors {
        if let Some(b) = vectors.iter().find(|b| dominates(b, a)) {
            return Err(format!("frontier point {a:?} is dominated by {b:?}"));
        }
    }
    Ok(o)
}

/// The frontier equals the exact non-dominated set of every feasible
/// design in the request's candidate space, computed by exhaustive
/// enumeration: per space row, every schedule of the first feasible
/// objective level (later levels keep the row's sites and wires at a worse
/// time), or every level within the cap when bandwidth is an axis. One
/// witness per vector, the lexicographically greatest `(rows, Π)`.
pub fn pareto_matches_brute_force(p: &ParetoProblem, o: &ParetoOutcome) -> Result<(), String> {
    let mu = p.alg.index_set.mu();
    let cap = p
        .request
        .cap
        .unwrap_or_else(|| mu.iter().map(|m| m * (m + 3)).sum::<i64>().max(16));
    let bound = p.request.entry_bound.unwrap_or(2);
    let mut levels: BTreeMap<i64, Vec<Vec<i64>>> = BTreeMap::new();
    for pi in schedules_within(mu, cap) {
        levels.entry(weighted(&pi, mu)).or_default().push(pi);
    }
    let mut designs: Vec<Design> = Vec::new();
    for row in canonical_rows(mu.len(), bound) {
        let rows = vec![row];
        let (sites, wires) = cost(&p.alg, &rows);
        for candidates in levels.values() {
            let before = designs.len();
            for pi in candidates {
                let Some(mapping) = feasible(&p.alg, &rows, pi) else {
                    continue;
                };
                let mut v = vec![1 + weighted(pi, mu), sites as i64, wires];
                if p.request.include_bandwidth {
                    match peak_link_load(&p.alg, &mapping) {
                        Some(bw) => v.push(bw as i64),
                        None => continue,
                    }
                }
                designs.push((v, rows.clone(), pi.clone()));
            }
            if designs.len() > before && !p.request.include_bandwidth {
                break;
            }
        }
    }
    let truth = frontier_of(designs);
    let got: Vec<Design> = o
        .points
        .iter()
        .map(|pt| {
            let mut v = vec![pt.total_time, pt.processors as i64, pt.wires];
            v.extend(pt.bandwidth.map(|b| b as i64));
            (v, pt.space.clone(), pt.schedule.clone())
        })
        .collect();
    if got != truth {
        return Err(format!(
            "frontier {got:?} differs from the exhaustive frontier {truth:?}"
        ));
    }
    Ok(())
}

/// Nonzero rows with entries in `[−bound, bound]` whose first nonzero entry
/// is positive: the joint scope's space-row pool.
fn canonical_rows(n: usize, bound: i64) -> Vec<Vec<i64>> {
    schedules_within(&vec![1; n], bound * n as i64)
        .into_iter()
        .filter(|r| r.iter().all(|x| x.abs() <= bound))
        .filter(|r| r.iter().find(|&&x| x != 0).is_some_and(|&x| x > 0))
        .collect()
}

fn frontier_of(designs: Vec<Design>) -> Vec<Design> {
    type Witness = (Vec<Vec<i64>>, Vec<i64>);
    let mut best: BTreeMap<Vec<i64>, Witness> = BTreeMap::new();
    for (v, rows, pi) in designs {
        match best.entry(v) {
            Entry::Occupied(mut e) => {
                if (&rows, &pi) > (&e.get().0, &e.get().1) {
                    e.insert((rows, pi));
                }
            }
            Entry::Vacant(e) => {
                e.insert((rows, pi));
            }
        }
    }
    let vectors: Vec<Vec<Rat>> = best
        .keys()
        .map(|v| v.iter().map(|&x| Rat::from_i64(x)).collect())
        .collect();
    let keep: BTreeSet<usize> = non_dominated_indices(&vectors).into_iter().collect();
    best.into_iter()
        .enumerate()
        .filter(|(i, _)| keep.contains(i))
        .map(|(_, (v, (rows, pi)))| (v, rows, pi))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmap::model::algorithms;
    use cfmap::service::engine::Engine;
    use cfmap::service::wire::{MapRequest, ParetoRequest};

    fn matmul(mu: i64) -> MapProblem {
        let request = MapRequest::named("matmul", mu, vec![vec![1, 1, -1]]);
        let body = request.to_json().serialize();
        MapProblem {
            alg: algorithms::matmul(mu),
            space: vec![vec![1, 1, -1]],
            closed_form: Some(mu * (mu + 2) + 1),
            request,
            body,
        }
    }

    #[test]
    fn engine_answers_pass_and_tampered_answers_fail() {
        let p = matmul(3);
        let body = Engine::new(8, 1).resolve(&p.request).to_json().serialize();
        let o = map_answer(&p, &body).expect("the engine's answer checks out");
        map_optimal_by_brute_force(&p, &o).expect("nothing beats the optimum");
        ColdSolves::default()
            .check(&p, &o)
            .expect("equal to a cold solve");
        let slower = body.replace("\"total_time\":16", "\"total_time\":17");
        assert!(map_answer(&p, &slower).is_err());
        let wrong = body.replace("\"schedule\":[2,1,2]", "\"schedule\":[2,2,1]");
        assert_ne!(wrong, body, "the tamper must apply: {body}");
        assert!(map_answer(&p, &wrong).is_err());
    }

    #[test]
    fn engine_frontier_matches_brute_force() {
        let alg = algorithms::matvec(2, 2);
        for bandwidth in [false, true] {
            let request = ParetoRequest {
                algorithm: None,
                mu: alg.index_set.mu().to_vec(),
                deps: Some(alg.deps.columns_i64()),
                include_bandwidth: bandwidth,
                entry_bound: bandwidth.then_some(1),
                cap: bandwidth.then_some(12),
                ..ParetoRequest::named("", 1)
            };
            let body = request.to_json().serialize();
            let p = ParetoProblem {
                alg: alg.clone(),
                request,
                body,
            };
            let answer = Engine::new(8, 1).pareto(&p.request).to_json().serialize();
            let o = pareto_answer(&p, &answer).expect("the engine's frontier checks out");
            pareto_matches_brute_force(&p, &o).expect("equal to the exhaustive frontier");
        }
    }
}
