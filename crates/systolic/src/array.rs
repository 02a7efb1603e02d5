//! Processor-array geometry synthesized from a mapping.
//!
//! The processor set is the image `S·J` of the index set under the space
//! map — for the paper's linear-array designs a contiguous segment of
//! `Z`, for 2-D bit-level designs a region of `Z²`.
//! [`SystolicArray::synthesize`] lists it by walking `J`;
//! [`count_processors`] counts it from `μ` and `S` alone.

use cfmap_core::MappingMatrix;
use cfmap_model::Uda;
use std::collections::BTreeSet;

/// Largest bounding box, in points, that [`count_processors`] marks in a
/// bitset: 2²⁰ bits, 128 KiB. A one-row image without gaps needs no
/// bitset at any size.
pub const MAX_PROCESSOR_SPAN: u64 = 1 << 20;

/// The points of the bitset [`count_processors`] needs to count the
/// image `S·J` of the box `0 ≤ j ≤ μ`, or `None` when `S` is one row
/// whose image has no gaps and the count is closed-form. The span is the
/// volume of the image's bounding box after each row is divided by the
/// gcd of its entries on axes with `μ_i > 0`; it saturates at
/// `u128::MAX`. Permuting axes, reordering rows, negating or scaling a
/// row leave it unchanged, so a problem and its canonical form agree.
pub fn processor_span(mu: &[i64], space: &[Vec<i64>]) -> Option<u128> {
    if let [row] = space {
        if gapless_count(mu, row).is_some() {
            return None;
        }
    }
    let widths = space.iter().map(|row| reach(&steps(mu, row)).saturating_add(1));
    Some(widths.fold(1, u128::saturating_mul))
}

/// `|S·J|` for the box `0 ≤ j ≤ μ`, counted without walking it; equal
/// to [`SystolicArray::synthesize`]`(..).num_processors()`.
///
/// One row `s` maps the box onto the sumset of `{0, s_i, …, μ_i·s_i}`.
/// Divide the steps by their gcd `g` and sort their magnitudes
/// ascending: if each is at most one more than the reach `Σ a_j·μ_j` of
/// the smaller ones, the image is every multiple of `g` between its
/// extremes, `1 + Σ|s_i|·μ_i/g` processors (every row with entries in
/// {−1, 0, 1}). Otherwise, and for several rows, the image is marked in
/// a bitset over its bounding box: adding axis `i` ORs in copies of the
/// set shifted by `c·s_i` for `c` = 1, 2, 4, … (the last `c` what is
/// left of `μ_i`), so it costs `O(log μ_i)` word-shifted passes.
///
/// `None` when the bitset would exceed [`MAX_PROCESSOR_SPAN`] points or
/// the count exceeds `u64`.
pub fn count_processors(mu: &[i64], space: &[Vec<i64>]) -> Option<u64> {
    let count = match processor_span(mu, space) {
        None => gapless_count(mu, &space[0])?,
        Some(span) if span <= u128::from(MAX_PROCESSOR_SPAN) => bitset_count(mu, space),
        Some(_) => return None,
    };
    u64::try_from(count).ok()
}

/// The steps `(axis, s_i/g, μ_i)` of `row` on axes with `μ_i > 0` and
/// `s_i ≠ 0`, `g` the gcd of those `|s_i|`.
fn steps(mu: &[i64], row: &[i64]) -> Vec<(usize, i128, i128)> {
    let live = || mu.iter().zip(row).enumerate().filter(|(_, (&m, &s))| m > 0 && s != 0);
    let g = live().fold(0, |g, (_, (_, &s))| gcd(g, s.unsigned_abs()));
    live()
        .map(|(i, (&m, &s))| {
            let a = i128::from(s.unsigned_abs() / g);
            (i, if s < 0 { -a } else { a }, i128::from(m))
        })
        .collect()
}

/// `Σ |a_i|·μ_i`, saturating: one less than the row's width.
fn reach(steps: &[(usize, i128, i128)]) -> u128 {
    steps.iter().fold(0, |sum: u128, &(_, a, m)| {
        sum.saturating_add(a.unsigned_abs().saturating_mul(m.unsigned_abs()))
    })
}

/// `|row·J|` when the image has no gaps: sorted ascending, each step is
/// at most one more than the reach of the smaller ones. Saturates.
fn gapless_count(mu: &[i64], row: &[i64]) -> Option<u128> {
    let mut steps: Vec<(u128, u128)> = steps(mu, row)
        .into_iter()
        .map(|(_, a, m)| (a.unsigned_abs(), m.unsigned_abs()))
        .collect();
    steps.sort_unstable();
    let mut reach = 0u128;
    for (a, m) in steps {
        if a > reach.saturating_add(1) {
            return None;
        }
        reach = reach.saturating_add(a.saturating_mul(m));
    }
    Some(reach.saturating_add(1))
}

/// `|S·J|` by marking the image in a bitset over its bounding box. Row
/// `r`'s reduced coordinate lies in `[lo_r, lo_r + width_r)`, and a
/// point's bit is `Σ_r (p_r − lo_r)·stride_r` with `stride_0 = 1` and
/// `stride_{r+1} = stride_r·width_r`. Every partial sum of the axes'
/// multiples lies in the box, so shifting the whole set by the linear
/// offset of `c·s_i` moves every point exactly and none wraps. Callers
/// bound the box by [`MAX_PROCESSOR_SPAN`], which keeps every offset
/// below 2²⁰ in magnitude.
fn bitset_count(mu: &[i64], space: &[Vec<i64>]) -> u128 {
    const SMALL: &str = "the span bound keeps every offset below 2^20";
    let mut offset = vec![0i128; mu.len()];
    let (mut origin, mut stride) = (0i128, 1i128);
    for row in space {
        let steps = steps(mu, row);
        let lo: i128 = steps.iter().map(|&(_, a, m)| (a * m).min(0)).sum();
        for &(i, a, _) in &steps {
            offset[i] += a * stride;
        }
        origin -= lo * stride;
        stride *= i128::try_from(reach(&steps)).expect(SMALL) + 1;
    }
    let mut set = vec![0u64; usize::try_from(stride).expect(SMALL).div_ceil(64)];
    let origin = usize::try_from(origin).expect(SMALL);
    set[origin / 64] |= 1 << (origin % 64);
    for (&m, &offset) in mu.iter().zip(&offset) {
        if offset == 0 {
            continue;
        }
        // {0, 1, …, μ}·s as {0, 1}·s + {0, 2}·s + {0, 4}·s + …
        let (mut left, mut chunk) = (i128::from(m), 1i128);
        while left > 0 {
            let c = chunk.min(left);
            or_shifted(&mut set, i64::try_from(c * offset).expect(SMALL));
            left -= c;
            chunk *= 2;
        }
    }
    set.iter().map(|w| u128::from(w.count_ones())).sum()
}

/// `set |= set` shifted by `d` bits toward higher indices (`d > 0`) or
/// lower ones (`d < 0`), in place: each word reads only words the pass
/// has not written yet.
fn or_shifted(set: &mut [u64], d: i64) {
    let (q, r) = ((d.unsigned_abs() / 64) as usize, (d.unsigned_abs() % 64) as u32);
    let n = set.len();
    if d > 0 {
        for i in (q..n).rev() {
            let mut w = set[i - q] << r;
            if r > 0 && i > q {
                w |= set[i - q - 1] >> (64 - r);
            }
            set[i] |= w;
        }
    } else {
        for i in 0..n.saturating_sub(q) {
            let mut w = set[i + q] >> r;
            if r > 0 && i + q + 1 < n {
                w |= set[i + q + 1] << (64 - r);
            }
            set[i] |= w;
        }
    }
}

/// Greatest common divisor of two magnitudes (a `u64` holds `|i64::MIN|`).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A synthesized `(k−1)`-dimensional processor array.
#[derive(Clone, Debug)]
pub struct SystolicArray {
    /// Array dimensionality `k − 1`.
    dims: usize,
    /// All processor coordinates, sorted.
    processors: Vec<Vec<i64>>,
    /// Bounding box: per-dimension (min, max).
    bounds: Vec<(i64, i64)>,
    /// First and last execution times.
    time_range: (i64, i64),
}

impl SystolicArray {
    /// Synthesize the array for `alg` under `mapping`: enumerate `S·J` and
    /// the schedule's time span.
    ///
    /// The walk allocates nothing per index point: `S` is converted to
    /// machine integers once, the point advances in place as an
    /// odometer, `S·j̄` lands in one reused buffer, and only a processor
    /// not seen before is copied into the set. The result equals mapping
    /// every point with [`MappingMatrix::apply`].
    pub fn synthesize(alg: &Uda, mapping: &MappingMatrix) -> SystolicArray {
        assert_eq!(alg.dim(), mapping.dim(), "algorithm / mapping dimension mismatch");
        let dims = mapping.k() - 1;
        let space = mapping.space().as_mat().to_i64_rows().expect("space map entries fit i64");
        let pi = mapping.schedule().as_slice();
        let mu = alg.index_set.mu();
        let mut j = vec![0i64; mu.len()];
        let mut p = vec![0i64; dims];
        let mut procs: BTreeSet<Vec<i64>> = BTreeSet::new();
        let mut tmin = i64::MAX;
        let mut tmax = i64::MIN;
        loop {
            for (coord, row) in p.iter_mut().zip(&space) {
                *coord = dot(row, &j);
            }
            if !procs.contains(p.as_slice()) {
                procs.insert(p.clone());
            }
            let t = dot(pi, &j);
            tmin = tmin.min(t);
            tmax = tmax.max(t);
            // Lexicographic successor: bump the last axis below its
            // bound and zero the axes after it; none left means done.
            let Some(axis) = (0..j.len()).rev().find(|&i| j[i] < mu[i]) else { break };
            j[axis] += 1;
            j[axis + 1..].fill(0);
        }
        let processors: Vec<Vec<i64>> = procs.into_iter().collect();
        let bounds = (0..dims)
            .map(|d| {
                let min = processors.iter().map(|p| p[d]).min().unwrap_or(0);
                let max = processors.iter().map(|p| p[d]).max().unwrap_or(0);
                (min, max)
            })
            .collect();
        // The box always holds the origin, so the walk saw a time.
        SystolicArray { dims, processors, bounds, time_range: (tmin, tmax) }
    }

    /// Array dimensionality `k − 1`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of processors actually used.
    pub fn num_processors(&self) -> usize {
        self.processors.len()
    }

    /// All processor coordinates (sorted lexicographically).
    pub fn processors(&self) -> &[Vec<i64>] {
        &self.processors
    }

    /// Per-dimension coordinate bounds (min, max).
    pub fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    /// `(first, last)` execution times.
    pub fn time_range(&self) -> (i64, i64) {
        self.time_range
    }

    /// Total execution time `last − first + 1` — must equal Equation 2.7's
    /// `1 + Σ|π_i|μ_i` (asserted by the simulator's tests).
    pub fn total_time(&self) -> i64 {
        self.time_range.1 - self.time_range.0 + 1
    }

    /// `true` iff every integer point of the bounding box hosts a
    /// processor (no holes — full utilization of the VLSI span).
    pub fn is_dense(&self) -> bool {
        let volume: i64 = self.bounds.iter().map(|(lo, hi)| hi - lo + 1).product();
        volume == self.processors.len() as i64
    }
}

/// `a · b` in machine integers.
fn dot(a: &[i64], b: &[i64]) -> i64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmap_core::{MappingMatrix, SpaceMap};
    use cfmap_model::{algorithms, LinearSchedule};

    #[test]
    fn matmul_linear_array_geometry() {
        // Example 5.1, μ = 4: S = [1, 1, −1] over {0..4}³ spans
        // processors −4 .. 8 → 13 PEs; t ∈ [0, 24] → 25 cycles.
        let alg = algorithms::matmul(4);
        let m = MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, 4, 1]));
        let arr = SystolicArray::synthesize(&alg, &m);
        assert_eq!(arr.dims(), 1);
        assert_eq!(arr.num_processors(), 13);
        assert_eq!(arr.bounds(), &[(-4, 8)]);
        assert_eq!(arr.time_range(), (0, 24));
        assert_eq!(arr.total_time(), 25);
        assert!(arr.is_dense());
    }

    #[test]
    fn transitive_closure_array_geometry() {
        // Example 5.2, μ = 4: S = [0, 0, 1] → processors 0..4 (5 PEs);
        // Π = [5, 1, 1] → t ∈ [0, 28], 29 cycles.
        let alg = algorithms::transitive_closure(4);
        let m = MappingMatrix::new(SpaceMap::row(&[0, 0, 1]), LinearSchedule::new(&[5, 1, 1]));
        let arr = SystolicArray::synthesize(&alg, &m);
        assert_eq!(arr.num_processors(), 5);
        assert_eq!(arr.total_time(), 29);
        assert_eq!(arr.total_time(), 4 * (4 + 3) + 1);
    }

    #[test]
    fn two_dimensional_array() {
        // 4-D bit-level algorithm into a 2-D array.
        let alg = algorithms::bitlevel_convolution(2, 2);
        let m = MappingMatrix::from_rows(&[
            &[1, 0, 0, 0],
            &[0, 1, 0, 0],
            &[1, 1, 3, 9],
        ]);
        let arr = SystolicArray::synthesize(&alg, &m);
        assert_eq!(arr.dims(), 2);
        assert_eq!(arr.num_processors(), 9); // 3×3 grid
        assert!(arr.is_dense());
    }

    #[test]
    fn gapless_rows_count_in_closed_form() {
        // Matmul on S = [1, 1, −1] is a segment of 3μ + 1 PEs at any μ,
        // and so is every multiple of the row.
        for mu in [1i64, 4, 400, 1 << 40] {
            for row in [vec![1, 1, -1], vec![-2, -2, 2]] {
                assert_eq!(processor_span(&[mu; 3], std::slice::from_ref(&row)), None);
                let count = count_processors(&[mu; 3], &[row]);
                assert_eq!(count, Some(3 * mu as u64 + 1));
            }
        }
        // A μᵢ = 0 axis adds no step: {1, 1} over μ = (4, 0, 3).
        assert_eq!(count_processors(&[4, 0, 3], &[vec![1, 5, -1]]), Some(8));
        // Steps 1, 2, 4 with μ = 1 each reach every point of 0..=7.
        assert_eq!(count_processors(&[1, 1, 1], &[vec![4, -2, 1]]), Some(8));
    }

    #[test]
    fn rows_with_gaps_and_several_rows_count_by_bitset() {
        // Steps {2, 3} over μ = (1, 1): {0, 2, 3, 5}, not 0..=5.
        assert_eq!(processor_span(&[1, 1], &[vec![2, 3]]), Some(6));
        assert_eq!(count_processors(&[1, 1], &[vec![2, 3]]), Some(4));
        // Steps {1, 3} over μ = (1, 2): {0, 1, 3, 4, 6, 7}.
        assert_eq!(count_processors(&[1, 2], &[vec![-1, 3]]), Some(6));
        // Two rows that split the axes: a 3 × 3 grid in a 3 × 3 box.
        let grid = [vec![1, 0, 0, 0], vec![0, 1, 0, 0]];
        assert_eq!(processor_span(&[2, 2, 1, 1], &grid), Some(9));
        assert_eq!(count_processors(&[2, 2, 1, 1], &grid), Some(9));
    }

    #[test]
    fn the_bitset_stops_at_the_span_bound() {
        // One row with a gap whose box spans exactly 2²⁰ points is
        // counted; one point more is refused.
        let at = [vec![2, (1 << 20) - 3]];
        assert_eq!(processor_span(&[1, 1], &at), Some(1 << 20));
        assert_eq!(count_processors(&[1, 1], &at), Some(4));
        let above = [vec![3, (1 << 20) - 3]];
        assert_eq!(processor_span(&[1, 1], &above), Some((1 << 20) + 1));
        assert_eq!(count_processors(&[1, 1], &above), None);
        // Boxes beyond u128 saturate instead of overflowing.
        let huge = [vec![1, i64::MAX, 0], vec![0, 1, i64::MIN]];
        assert_eq!(processor_span(&[i64::MAX; 3], &huge), Some(u128::MAX));
        assert_eq!(count_processors(&[i64::MAX; 3], &huge), None);
        // A gapless row needs no bitset, but 1 + 2⁴⁰ + 2⁸⁰ is no u64.
        let wide = [vec![1, 1 << 40]];
        assert_eq!(processor_span(&[1 << 40; 2], &wide), None);
        assert_eq!(count_processors(&[1 << 40; 2], &wide), None);
    }

    #[test]
    fn total_time_matches_eq_2_7() {
        for (alg, pi) in [
            (algorithms::matmul(3), vec![1i64, 3, 1]),
            (algorithms::matmul(5), vec![1, 5, 1]),
            (algorithms::transitive_closure(3), vec![4, 1, 1]),
        ] {
            let m = MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&pi));
            let arr = SystolicArray::synthesize(&alg, &m);
            assert_eq!(arr.total_time(), m.schedule().total_time(&alg.index_set));
        }
    }
}
