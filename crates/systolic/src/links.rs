//! Data-link channel simulation and analytics.
//!
//! Each dependence rides its own channel (the paper's per-datum links of
//! Figure 2). The journey model implements Definition 2.2 condition 2
//! with source-side buffers: a datum produced at `j̄ − d̄ᵢ` waits
//! `Π·d̄ᵢ − hᵢ` cycles in buffers, then hops one primitive per cycle,
//! arriving at `S·j̄` exactly at `Π·j̄`.
//!
//! Beyond the collision detection the paper's appendix argues about, this
//! module reports per-channel traffic analytics (data in flight, busiest
//! link, occupancy) used by the experiment harness to compare designs.

use cfmap_core::mapping::Routing;
use cfmap_core::MappingMatrix;
use cfmap_model::{Point, Uda};
use std::collections::HashMap;

/// A link collision: two different data instances of one channel on the
/// same directed link in the same cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Collision {
    /// Which dependence channel.
    pub dep: usize,
    /// Source-end processor of the contested link.
    pub link_from: Vec<i64>,
    /// Cycle.
    pub time: i64,
    /// Producer points of the two colliding data.
    pub producers: (Point, Point),
}

/// Per-channel traffic statistics.
#[derive(Clone, Debug)]
pub struct ChannelStats {
    /// The dependence index this channel carries.
    pub dep: usize,
    /// Total data instances transported.
    pub data_count: u64,
    /// Total hop events.
    pub hop_events: u64,
    /// Maximum simultaneous occupancy of any single directed link.
    pub peak_link_occupancy: u64,
    /// Number of distinct directed links used.
    pub links_used: usize,
}

/// The result of simulating all channels.
#[derive(Clone, Debug)]
pub struct ChannelReport {
    /// All collisions observed (empty for valid designs).
    pub collisions: Vec<Collision>,
    /// Per-channel statistics, one entry per dependence.
    pub channels: Vec<ChannelStats>,
}

impl ChannelReport {
    /// Total hop events across channels.
    pub fn total_hop_events(&self) -> u64 {
        self.channels.iter().map(|c| c.hop_events).sum()
    }

    /// `true` iff no collisions anywhere.
    pub fn is_collision_free(&self) -> bool {
        self.collisions.is_empty()
    }
}

/// Simulate every channel's traffic for `alg` under `mapping`/`routing`.
///
/// The displacement `S·d̄ᵢ` is decomposed into unit steps along array
/// axes (exact for unit-vector primitive sets, which is what the paper's
/// designs use); `k`-columns routing farther than the net displacement
/// are padded with zero-sum hop pairs.
pub fn simulate_channels(
    alg: &Uda,
    mapping: &MappingMatrix,
    routing: &Routing,
) -> ChannelReport {
    let deps = &alg.deps;
    let m = deps.num_deps();
    let prim_dims = mapping.k() - 1;
    let sd_mat = mapping.space().as_mat() * deps.as_mat();

    let mut collisions = Vec::new();
    let mut channels = Vec::with_capacity(m);

    for i in 0..m {
        let d = deps.dep_i64(i);
        let hops = routing.hops[i].to_i64().expect("hops fit i64");
        let buffers = routing.buffers[i].to_i64().expect("buffers fit i64");
        let mut stats = ChannelStats {
            dep: i,
            data_count: 0,
            hop_events: 0,
            peak_link_occupancy: 0,
            links_used: 0,
        };
        if hops == 0 {
            channels.push(stats);
            continue; // stationary datum: no link traffic
        }
        let sd: Vec<i64> = sd_mat.col(i).to_i64s().expect("SD fits i64");
        let mut steps: Vec<(usize, i64)> = Vec::with_capacity(hops as usize);
        for (dim, &delta) in sd.iter().enumerate().take(prim_dims) {
            for _ in 0..delta.abs() {
                steps.push((dim, delta.signum()));
            }
        }
        while (steps.len() as i64) < hops {
            steps.push((0, 1));
            steps.push((0, -1));
        }

        // Occupancy per (link position, slot) and per-link counters.
        let mut occupancy: HashMap<(Vec<i64>, i64), Point> = HashMap::new();
        let mut per_link: HashMap<Vec<i64>, u64> = HashMap::new();
        for j in alg.index_set.iter() {
            let producer: Point = j.iter().zip(&d).map(|(&ji, &di)| ji - di).collect();
            if !alg.index_set.contains(&producer) {
                continue;
            }
            stats.data_count += 1;
            let (src, t_prod) = mapping.apply(&producer);
            let depart = t_prod + buffers;
            let mut pos = src.clone();
            for (h, &(dim, sgn)) in steps.iter().enumerate() {
                let slot = depart + h as i64;
                stats.hop_events += 1;
                *per_link.entry(pos.clone()).or_insert(0) += 1;
                match occupancy.get(&(pos.clone(), slot)) {
                    Some(prev) if prev != &producer => collisions.push(Collision {
                        dep: i,
                        link_from: pos.clone(),
                        time: slot,
                        producers: (prev.clone(), producer.clone()),
                    }),
                    Some(_) => {}
                    None => {
                        occupancy.insert((pos.clone(), slot), producer.clone());
                    }
                }
                pos[dim] += sgn;
            }
            debug_assert_eq!(pos, mapping.apply(&j).0, "datum must arrive at consumer");
        }
        stats.links_used = per_link.len();
        stats.peak_link_occupancy = per_link.values().copied().max().unwrap_or(0);
        channels.push(stats);
    }

    ChannelReport { collisions, channels }
}

/// Peak concurrent load on any *directed link* in any single cycle,
/// with every dependence channel aggregated onto shared wires — the
/// bandwidth each physical link must sustain. A directed link is
/// `(source PE, axis, sign)`; a datum loads it in the cycle it hops.
///
/// The mapping is routed over the mesh primitives `±e₁ … ±e_{k−1}`
/// (the paper's nearest-neighbour example set). Returns `None` when
/// that routing is infeasible — some dependence has a negative buffer
/// budget `Π·d̄ᵢ < ‖S·d̄ᵢ‖₁` — or a routed quantity leaves the `i64`
/// interchange range; such a design has no well-defined link traffic
/// and the resource model treats it as unschedulable.
///
/// On the mesh each primitive moves one coordinate by one, so a datum
/// needs exactly `‖S·d̄ᵢ‖₁` hops: the routing of Definition 2.2
/// condition 2 is closed-form — hops `‖S·d̄ᵢ‖₁`, buffers
/// `Π·d̄ᵢ − ‖S·d̄ᵢ‖₁`, feasible iff no buffer count is negative — and
/// equals what [`route`](cfmap_core::mapping::route) finds over
/// [`InterconnectionPrimitives::mesh`](cfmap_core::mapping::InterconnectionPrimitives::mesh).
/// A datum produced at `p̄` waits out its buffers at `S·p̄`, then hops
/// along array axis 0 first, then axis 1, and so on, one link per
/// cycle. Each hop is one `(PE, cycle, link)` event in one flat buffer;
/// sorted, the longest run of equal events is the peak.
pub fn peak_link_load(alg: &Uda, mapping: &MappingMatrix) -> Option<u64> {
    let dims = mapping.k() - 1;
    let n = mapping.dim();
    let mu = alg.index_set.mu();
    // `T = [S; Π]` by rows, as machine integers: rows `0..dims` place a
    // point on the array, row `dims` times it.
    let t = mapping.as_mat().to_i64_rows()?;
    let deps = alg.deps.as_mat();

    // Route every channel before any traffic moves, as `route` does:
    // `T·d̄ᵢ` exactly, then hops and buffers. The walks are the moving
    // channels with their producers `lo ≤ p̄ ≤ hi` (`p̄` and its consumer
    // `p̄ + d̄` both in the box); `low ≤ (PE, cycle) ≤ high` holds all
    // their hop events.
    let mut walks = Vec::with_capacity(deps.ncols());
    let (mut low, mut high) = (vec![i64::MAX; dims + 1], vec![i64::MIN; dims + 1]);
    for i in 0..deps.ncols() {
        let d: Vec<i64> = (0..n).map(|c| deps.get(c, i).to_i64()).collect::<Option<_>>()?;
        let td: Vec<i64> = t
            .iter()
            .map(|row| i64::try_from(dot_i128(row, &d)?).ok())
            .collect::<Option<_>>()?;
        let hops: i128 = td[..dims].iter().map(|&x| i128::from(x).abs()).sum();
        let buffers = td[dims].checked_sub(i64::try_from(hops).ok()?)?;
        if buffers < 0 {
            return None; // unroutable: the datum cannot arrive in time
        }
        if hops == 0 {
            continue; // stationary datum: no link traffic
        }
        let lo: Vec<i64> = d.iter().map(|&x| x.saturating_neg().max(0)).collect();
        let hi: Vec<i64> = d.iter().zip(mu).map(|(&x, &m)| m.min(m.saturating_sub(x))).collect();
        if lo.iter().zip(&hi).any(|(l, h)| l > h) {
            continue; // the dependence is longer than the box
        }
        // A datum visits `T·p̄` up to `T·p̄ + T·d̄`, minus one cycle: the
        // last hop leaves one cycle before the consumer runs.
        for (r, row) in t.iter().enumerate() {
            let reach = if r < dims { td[r] } else { td[r] - 1 };
            let (mut min, mut max) = (0i128, 0i128);
            for c in 0..n {
                let a = i128::from(row[c]) * i128::from(lo[c]);
                let b = i128::from(row[c]) * i128::from(hi[c]);
                min = min.checked_add(a.min(b))?;
                max = max.checked_add(a.max(b))?;
            }
            let (min, max) = (i64::try_from(min).ok()?, i64::try_from(max).ok()?);
            low[r] = low[r].min(min).min(min.checked_add(reach)?);
            high[r] = high[r].max(max).max(max.checked_add(reach)?);
        }
        walks.push((lo, hi, td, buffers));
    }

    // An event `(PE, cycle, link)`, link `2·axis + [sign > 0]`, read in
    // mixed radix over the box `low..=high` and the `2·dims` links, is
    // one `u64` key. That radix, `2·dims` times the product of the
    // `dims + 1` box widths, outgrows `u64` already at modest widths
    // when `dims` is large (widths near 2⁷·⁵ at `dims = 7`); then each
    // event is a fixed-stride record in `records` instead, and records
    // are sorted as slices, about half as fast as keys.
    let mut radix = Some(2 * dims as u64);
    let mut weight = Vec::with_capacity(dims + 1);
    for (&l, &h) in low.iter().zip(&high) {
        weight.push(radix.unwrap_or(0));
        let width = (h.wrapping_sub(l) as u64).checked_add(1);
        radix = radix.zip(width).and_then(|(a, b)| a.checked_mul(b));
    }
    let exact = radix.is_some();
    let mut keys: Vec<u64> = Vec::new();
    let mut records: Vec<i64> = Vec::new();
    // `base` is `T·p̄` and `at` the datum's `(PE, cycle)`, both indexed
    // like the rows of `T`.
    let (mut p, mut at, mut base) = (vec![0i64; n], vec![0i64; dims + 1], vec![0i64; dims + 1]);
    for (lo, hi, td, buffers) in &walks {
        p.copy_from_slice(lo);
        for (x, row) in base.iter_mut().zip(&t) {
            *x = dot_wrapping(row, &p);
        }
        loop {
            at.copy_from_slice(&base);
            at[dims] += buffers;
            for (axis, &delta) in td[..dims].iter().enumerate() {
                let link = 2 * axis as u64 + u64::from(delta > 0);
                for _ in 0..delta.unsigned_abs() {
                    if exact {
                        let rebased = at.iter().zip(&low).map(|(&x, &l)| x.wrapping_sub(l) as u64);
                        keys.push(rebased.zip(&weight).fold(link, |key, (x, &w)| key + x * w));
                    } else {
                        records.extend_from_slice(&at);
                        records.push(link as i64);
                    }
                    at[axis] += delta.signum();
                    at[dims] = at[dims].wrapping_add(1); // one past the last hop may leave i64
                }
            }
            // Lexicographic successor within the producer box: one step
            // on axis `c`, every later axis back to `lo`; `T·p̄` follows.
            let Some(c) = (0..n).rev().find(|&c| p[c] < hi[c]) else { break };
            p[c] += 1;
            for (x, row) in base.iter_mut().zip(&t) {
                *x = x.wrapping_add(row[c]);
                for j in c + 1..n {
                    *x = x.wrapping_sub(row[j].wrapping_mul(hi[j] - lo[j]));
                }
            }
            p[c + 1..].copy_from_slice(&lo[c + 1..]);
        }
    }

    let peak = if exact {
        longest_run(&mut keys)
    } else {
        longest_run(&mut records.chunks_exact(dims + 2).collect::<Vec<_>>())
    };
    Some(peak as u64)
}

/// The length of the longest run of equal items once `items` is
/// sorted, where equal items sit side by side; 0 when empty.
fn longest_run<T: Ord>(items: &mut [T]) -> usize {
    items.sort_unstable();
    items.chunk_by(|a, b| a == b).map(<[T]>::len).max().unwrap_or(0)
}

/// `a·b` in `i128`; `None` when even that overflows.
fn dot_i128(a: &[i64], b: &[i64]) -> Option<i128> {
    a.iter()
        .zip(b)
        .try_fold(0i128, |acc, (&x, &y)| acc.checked_add(i128::from(x) * i128::from(y)))
}

/// `a·b` in wrapping `i64` arithmetic: exact whenever the true value
/// fits `i64`, whatever its partial sums do.
fn dot_wrapping(a: &[i64], b: &[i64]) -> i64 {
    a.iter().zip(b).fold(0i64, |acc, (&x, &y)| acc.wrapping_add(x.wrapping_mul(y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmap_core::mapping::{route, InterconnectionPrimitives};
    use cfmap_core::{MappingMatrix, SpaceMap};
    use cfmap_model::{algorithms, LinearSchedule};

    #[test]
    fn matmul_channels_match_figure_2() {
        let alg = algorithms::matmul(4);
        let m = MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, 4, 1]));
        let p = InterconnectionPrimitives::from_columns(&[&[1], &[1], &[-1]]);
        let routing = route(&m, &alg.deps, &p).unwrap();
        let report = simulate_channels(&alg, &m, &routing);
        assert!(report.is_collision_free());
        assert_eq!(report.channels.len(), 3);
        // Each dependence ships (μ+1)²·μ = 100 data instances (producers
        // with the consumer still inside the box).
        for c in &report.channels {
            assert_eq!(c.data_count, 100, "dep {}", c.dep);
            assert_eq!(c.hop_events, 100, "single hop per datum");
            assert!(c.links_used > 0);
        }
        assert_eq!(report.total_hop_events(), 300);
    }

    #[test]
    fn stationary_channel_has_no_traffic() {
        // TC: d̄₂ = [0,1,0] maps to displacement 0 under S = [0,0,1].
        let alg = algorithms::transitive_closure(4);
        let m = MappingMatrix::new(SpaceMap::row(&[0, 0, 1]), LinearSchedule::new(&[5, 1, 1]));
        let p = InterconnectionPrimitives::from_columns(&[&[1], &[-1]]);
        let routing = route(&m, &alg.deps, &p).unwrap();
        let report = simulate_channels(&alg, &m, &routing);
        assert!(report.is_collision_free());
        assert_eq!(report.channels[1].hop_events, 0);
        assert_eq!(report.channels[1].links_used, 0);
    }

    #[test]
    fn peak_link_load_on_paper_matmul_design() {
        let alg = algorithms::matmul(4);
        let m = MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, 4, 1]));
        let peak = peak_link_load(&alg, &m).expect("mesh-routable design");
        // Three single-hop channels share the mesh; at least one datum
        // moves every cycle, and no link ever carries more data than the
        // total channel count in one cycle.
        assert!(peak >= 1);
        assert!(peak <= 3, "peak {peak} exceeds channel count");
    }

    #[test]
    fn peak_link_load_rejects_unroutable_designs() {
        // S·d̄₁ = 3 hops but Π·d̄₁ = 1 cycle: negative buffer budget.
        let alg = algorithms::matmul(4);
        let m = MappingMatrix::new(SpaceMap::row(&[3, 1, -1]), LinearSchedule::new(&[1, 4, 1]));
        assert_eq!(peak_link_load(&alg, &m), None);
    }

    #[test]
    fn peak_occupancy_counts_reuse() {
        let alg = algorithms::matmul(2);
        let m = MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, 2, 1]));
        let p = InterconnectionPrimitives::from_columns(&[&[1], &[1], &[-1]]);
        let routing = route(&m, &alg.deps, &p).unwrap();
        let report = simulate_channels(&alg, &m, &routing);
        // Central links carry several data (different cycles, no collision).
        assert!(report.channels.iter().any(|c| c.peak_link_occupancy > 1));
        assert!(report.is_collision_free());
    }
}
