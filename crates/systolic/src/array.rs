//! Processor-array geometry synthesized from a mapping.
//!
//! The processor set is the image `S·J` of the index set under the space
//! map — for the paper's linear-array designs a contiguous segment of
//! `Z`, for 2-D bit-level designs a region of `Z²`.

use cfmap_core::MappingMatrix;
use cfmap_model::Uda;
use std::collections::BTreeSet;

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
