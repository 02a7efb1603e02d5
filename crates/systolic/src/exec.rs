//! Semantic execution: the array really computes things.
//!
//! Definition 2.1's `v(j̄) = g_j̄(v(j̄−d̄₁), …, v(j̄−d̄_m))` is executed in
//! schedule order, giving end-to-end evidence that a mapped design
//! computes what the original nested loop computed (Figure 3's
//! `c_{j₁j₂} += a_{j₁j₃}·b_{j₃j₂}` cells). Execution also *checks* the
//! schedule: every operand must have been produced at a strictly earlier
//! cycle (`ΠD > 0` made observable).
//!
//! A [`Kernel`] supplies the computation and boundary inputs. Provided
//! kernels:
//!
//! * [`MatmulKernel`] — word-level matrix product (Example 3.1 semantics);
//! * [`ConvolutionKernel`] — 1-D convolution;
//! * [`DepthKernel`] — the generic "longest dependence chain" kernel,
//!   usable with *any* algorithm to validate scheduling structurally.
//!
//! [`execute`] runs the cycles in order; values computed in a cycle become
//! visible only to later cycles, exactly like the hardware's registers.

use cfmap_core::MappingMatrix;
use cfmap_model::{Point, Uda};
use std::collections::HashMap;
use std::fmt::Debug;

/// A computation semantics for a uniform dependence algorithm.
pub trait Kernel {
    /// The value type flowing through the array.
    type Value: Clone + Debug + PartialEq;

    /// Compute `v(j̄)`. `inputs[i]` is `Some(v(j̄ − d̄ᵢ))` when the
    /// predecessor is inside the index set, `None` when `j̄ − d̄ᵢ` falls
    /// outside (the kernel supplies the boundary datum itself).
    fn compute(&self, j: &[i64], inputs: &[Option<Self::Value>]) -> Self::Value;
}

/// The result of a semantic execution.
#[derive(Clone, Debug)]
pub struct ExecutionResult<V> {
    /// `v(j̄)` for every index point.
    pub values: HashMap<Point, V>,
    /// Cycles simulated.
    pub cycles: i64,
    /// Causality violations: operands read in the same-or-later cycle
    /// than production (empty for valid schedules).
    pub causality_violations: Vec<(Point, usize)>,
}

/// Execute `alg` under `mapping` with `kernel`, sequentially, in schedule
/// order.
pub fn execute<K: Kernel>(alg: &Uda, mapping: &MappingMatrix, kernel: &K) -> ExecutionResult<K::Value> {
    let mut by_time: HashMap<i64, Vec<Point>> = HashMap::new();
    for j in alg.index_set.iter() {
        by_time.entry(mapping.schedule().time_of(&j)).or_default().push(j);
    }
    let mut times: Vec<i64> = by_time.keys().copied().collect();
    times.sort_unstable();

    let mut values: HashMap<Point, K::Value> = HashMap::with_capacity(alg.num_computations().min(1 << 24) as usize);
    let mut violations = Vec::new();
    for &t in &times {
        // Values computed *this* cycle are not visible to this cycle —
        // use a staging buffer, like hardware registers.
        let mut staged: Vec<(Point, K::Value)> = Vec::new();
        for j in &by_time[&t] {
            let (inputs, viols) = gather_inputs(alg, mapping, &values, j, t);
            violations.extend(viols);
            staged.push((j.clone(), kernel.compute(j, &inputs)));
        }
        values.extend(staged);
    }
    let cycles = times.last().map_or(0, |last| last - times[0] + 1);
    ExecutionResult { values, cycles, causality_violations: violations }
}

fn gather_inputs<V: Clone>(
    alg: &Uda,
    mapping: &MappingMatrix,
    values: &HashMap<Point, V>,
    j: &[i64],
    t: i64,
) -> (Vec<Option<V>>, Vec<(Point, usize)>) {
    let m = alg.num_deps();
    let mut inputs = Vec::with_capacity(m);
    let mut violations = Vec::new();
    for i in 0..m {
        let d = alg.deps.dep_i64(i);
        let pred: Point = j.iter().zip(&d).map(|(&ji, &di)| ji - di).collect();
        if alg.index_set.contains(&pred) {
            let t_pred = mapping.schedule().time_of(&pred);
            if t_pred >= t {
                violations.push((j.to_vec(), i));
                inputs.push(None);
            } else {
                inputs.push(values.get(&pred).cloned());
            }
        } else {
            inputs.push(None);
        }
    }
    (inputs, violations)
}

/// Matrix-multiplication semantics (Example 3.1 / Figure 3).
///
/// At `j̄ = [j₁, j₂, j₃]ᵀ` the cell computes
/// `c_{j₁j₂} += a_{j₁j₃}·b_{j₃j₂}`; `b` rides `d̄₁ = e₁`, `a` rides
/// `d̄₂ = e₂`, the `c` partial sum rides `d̄₃ = e₃`. Boundary cells load
/// `a`/`b` from the input matrices and start `c` at zero.
pub struct MatmulKernel {
    /// Left operand, `(μ+1)×(μ+1)`.
    pub a: Vec<Vec<i64>>,
    /// Right operand, `(μ+1)×(μ+1)`.
    pub b: Vec<Vec<i64>>,
}

/// The value tuple flowing through a matmul cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatmulValue {
    /// `a_{j₁j₃}` passing through.
    pub a: i64,
    /// `b_{j₃j₂}` passing through.
    pub b: i64,
    /// Partial sum `Σ_{j₃' ≤ j₃} a_{j₁j₃'}·b_{j₃'j₂}`.
    pub c: i64,
}

impl MatmulKernel {
    /// Random matrices of the given size (deterministic from `seed`).
    pub fn random(n: usize, seed: u64) -> MatmulKernel {
        // Tiny LCG: reproducible without external dependencies.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 19) as i64 - 9
        };
        let a = (0..n).map(|_| (0..n).map(|_| next()).collect()).collect();
        let b = (0..n).map(|_| (0..n).map(|_| next()).collect()).collect();
        MatmulKernel { a, b }
    }

    /// Reference product computed directly.
    pub fn reference_product(&self) -> Vec<Vec<i64>> {
        let n = self.a.len();
        let mut c = vec![vec![0i64; n]; n];
        for (i, row) in c.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..n).map(|k| self.a[i][k] * self.b[k][j]).sum();
            }
        }
        c
    }

    /// Extract `C` from an execution result (values at `j₃ = μ`).
    pub fn extract_product(&self, result: &ExecutionResult<MatmulValue>, mu: i64) -> Vec<Vec<i64>> {
        Self::extract_from_values(&result.values, mu)
    }

    /// Extract `C` from an RTL execution result.
    pub fn extract_product_rtl(
        &self,
        result: &crate::rtl::RtlResult<MatmulValue>,
        mu: i64,
    ) -> Vec<Vec<i64>> {
        Self::extract_from_values(&result.values, mu)
    }

    fn extract_from_values(values: &HashMap<Point, MatmulValue>, mu: i64) -> Vec<Vec<i64>> {
        let n = (mu + 1) as usize;
        let mut c = vec![vec![0i64; n]; n];
        for (i, row) in c.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = values[&vec![i as i64, j as i64, mu]].c;
            }
        }
        c
    }
}

impl Kernel for MatmulKernel {
    type Value = MatmulValue;

    fn compute(&self, j: &[i64], inputs: &[Option<MatmulValue>]) -> MatmulValue {
        let (j1, j2, j3) = (j[0] as usize, j[1] as usize, j[2] as usize);
        // b rides d̄₁ (along j₁), a rides d̄₂ (along j₂), c rides d̄₃.
        let b = match &inputs[0] {
            Some(v) => v.b,
            None => self.b[j3][j2],
        };
        let a = match &inputs[1] {
            Some(v) => v.a,
            None => self.a[j1][j3],
        };
        let c_in = match &inputs[2] {
            Some(v) => v.c,
            None => 0,
        };
        MatmulValue { a, b, c: c_in + a * b }
    }
}

/// 1-D convolution semantics for [`cfmap_model::algorithms::convolution`]:
/// at `j̄ = [i, j]ᵀ` the cell computes `y_i += w_j·x_{i−j}`.
pub struct ConvolutionKernel {
    /// Input samples `x` (indexed by `i − j`; negative indices read 0).
    pub x: Vec<i64>,
    /// Filter taps `w`.
    pub w: Vec<i64>,
}

/// Value tuple of a convolution cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvValue {
    /// Running sum of `y_i`.
    pub y: i64,
    /// The tap `w_j` passing through.
    pub w: i64,
    /// The sample `x_{i−j}` passing through.
    pub x: i64,
}

impl ConvolutionKernel {
    /// Direct reference convolution `y_i = Σ_j w_j·x_{i−j}`.
    pub fn reference(&self, mu_out: i64) -> Vec<i64> {
        (0..=mu_out)
            .map(|i| {
                self.w
                    .iter()
                    .enumerate()
                    .map(|(j, &wj)| wj * self.sample(i - j as i64))
                    .sum()
            })
            .collect()
    }

    fn sample(&self, idx: i64) -> i64 {
        if idx < 0 {
            0
        } else {
            self.x.get(idx as usize).copied().unwrap_or(0)
        }
    }
}

impl Kernel for ConvolutionKernel {
    type Value = ConvValue;

    fn compute(&self, j: &[i64], inputs: &[Option<ConvValue>]) -> ConvValue {
        let (i, tap) = (j[0], j[1] as usize);
        // D columns: y along [0,1], w along [1,0], x along [1,1].
        let y_in = inputs[0].as_ref().map_or(0, |v| v.y);
        let w = inputs[1].as_ref().map_or(self.w[tap], |v| v.w);
        let x = inputs[2].as_ref().map_or_else(|| self.sample(i - tap as i64), |v| v.x);
        ConvValue { y: y_in + w * x, w, x }
    }
}

/// LU-decomposition semantics for
/// [`cfmap_model::algorithms::lu_decomposition`] (axes `[k, i, j]ᵀ`):
/// Gaussian elimination without pivoting, in the Kung–Leiserson systolic
/// formulation. At step `k`, cell `(k, i, j)` updates
/// `a_{ij} ← a_{ij} − l_{ik}·u_{kj}`; the pivot row propagates down `i`
/// (`d̄₂`), the multiplier column across `j` (`d̄₃`), the updated matrix
/// value feeds step `k+1` (`d̄₁`).
///
/// To keep the arithmetic exact (no floats anywhere in this workspace)
/// the input is constructed as `A = L·U` with *unit* lower-triangular
/// integer `L` — then every division the elimination performs is exact in
/// the integers, and the array must recover `L` and `U` bit for bit.
pub struct LuKernel {
    /// The input matrix `A = L·U`.
    pub a: Vec<Vec<i64>>,
}

/// The value tuple flowing through an LU cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LuValue {
    /// Current matrix entry `a_{ij}` after the first `k+1` steps.
    pub a: i64,
    /// Multiplier `l_{ik}` travelling along `j`.
    pub l: i64,
    /// Pivot-row entry `u_{kj}` travelling along `i`.
    pub u: i64,
}

impl LuKernel {
    /// Build `A = L·U` from a seed: `L` unit lower triangular, `U` upper
    /// triangular with unit diagonal-divisibility (here simply ±1, 2 on
    /// the diagonal is avoided to keep quotients exact — we use 1).
    pub fn random(n: usize, seed: u64) -> LuKernel {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 9) as i64 - 4
        };
        let mut l = vec![vec![0i64; n]; n];
        let mut u = vec![vec![0i64; n]; n];
        for i in 0..n {
            l[i][i] = 1;
            u[i][i] = 1; // unit diagonal ⇒ all elimination divisions exact
            for cell in l[i][..i].iter_mut() {
                *cell = next();
            }
            for cell in u[i][i + 1..].iter_mut() {
                *cell = next();
            }
        }
        let mut a = vec![vec![0i64; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (0..n).map(|k| l[i][k] * u[k][j]).sum();
            }
        }
        LuKernel { a }
    }

    /// Reference factorization by direct Doolittle elimination.
    pub fn reference_factors(&self) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
        let n = self.a.len();
        let mut work = self.a.clone();
        let mut l = vec![vec![0i64; n]; n];
        for (i, row) in l.iter_mut().enumerate() {
            row[i] = 1;
        }
        for k in 0..n {
            // Row k is frozen during this elimination step.
            let pivot_row = work[k].clone();
            let pivot = pivot_row[k];
            for i in k + 1..n {
                assert_eq!(work[i][k] % pivot, 0, "non-exact elimination");
                let m = work[i][k] / pivot;
                l[i][k] = m;
                for (cell, p) in work[i][k..].iter_mut().zip(&pivot_row[k..]) {
                    *cell -= m * p;
                }
            }
        }
        (l, work) // work is now U
    }

    /// Extract `(L, U)` from an execution result.
    ///
    /// `u_{kj}` is the pivot-row value at cell `(k, k, j)`; `l_{ik}` is
    /// the multiplier computed at cell `(k, i, k)`.
    pub fn extract_factors(
        &self,
        result: &ExecutionResult<LuValue>,
        mu: i64,
    ) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
        let n = (mu + 1) as usize;
        let mut l = vec![vec![0i64; n]; n];
        let mut u = vec![vec![0i64; n]; n];
        for k in 0..n {
            for (j, cell) in u[k].iter_mut().enumerate().skip(k) {
                *cell = result.values[&vec![k as i64, k as i64, j as i64]].u;
            }
            for (i, row) in l.iter_mut().enumerate().skip(k + 1) {
                row[k] = result.values[&vec![k as i64, i as i64, k as i64]].l;
            }
            l[k][k] = 1; // unit diagonal by construction
        }
        (l, u)
    }
}

impl Kernel for LuKernel {
    type Value = LuValue;

    fn compute(&self, j: &[i64], inputs: &[Option<LuValue>]) -> LuValue {
        let (k, i, jj) = (j[0] as usize, j[1] as usize, j[2] as usize);
        // d̄₁ = e₁: previous step's matrix value; step 0 loads A.
        let a_prev = inputs[0].as_ref().map_or(self.a[i][jj], |v| v.a);
        // d̄₂ = e₂: pivot-row value travelling down i.
        // d̄₃ = e₃: multiplier travelling across j.
        // Cells above/left of the active region pass values through.
        if i < k || jj < k {
            // Inactive cell at this step: hold the value.
            return LuValue { a: a_prev, l: 0, u: 0 };
        }
        let u = if i == k {
            a_prev // pivot row defines u_{kj}
        } else {
            inputs[1].as_ref().map(|v| v.u).unwrap_or(0)
        };
        let l = if i == k {
            0
        } else if jj == k {
            // Multiplier: a_{ik} / u_{kk}; exact by construction.
            let pivot = inputs[1].as_ref().map(|v| v.u).unwrap_or(1);
            debug_assert_ne!(pivot, 0, "zero pivot");
            debug_assert_eq!(a_prev % pivot, 0, "non-exact division");
            a_prev / pivot
        } else {
            inputs[2].as_ref().map(|v| v.l).unwrap_or(0)
        };
        let a = if i == k { a_prev } else { a_prev - l * u };
        LuValue { a, l, u }
    }
}

/// The generic structural kernel: `v(j̄) = 1 + max` over present inputs
/// (longest dependence chain ending at `j̄`). Works with *any* algorithm
/// and doubles as a schedule lower-bound probe: `Π·j̄ − Π·j̄₀ ≥ depth`.
pub struct DepthKernel;

impl Kernel for DepthKernel {
    type Value = i64;

    fn compute(&self, _j: &[i64], inputs: &[Option<i64>]) -> i64 {
        1 + inputs.iter().flatten().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmap_core::{MappingMatrix, SpaceMap};
    use cfmap_model::{algorithms, LinearSchedule};

    #[test]
    fn matmul_array_computes_correct_product() {
        // Figure 3's computation, end-to-end: C = A·B on the linear array.
        let mu = 4;
        let alg = algorithms::matmul(mu);
        let m =
            MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[1, 4, 1]));
        let kernel = MatmulKernel::random((mu + 1) as usize, 42);
        let result = execute(&alg, &m, &kernel);
        assert!(result.causality_violations.is_empty());
        assert_eq!(result.cycles, 25);
        assert_eq!(kernel.extract_product(&result, mu), kernel.reference_product());
    }

    #[test]
    fn matmul_baseline_also_correct_but_slower() {
        let mu = 4;
        let alg = algorithms::matmul(mu);
        let m =
            MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[2, 1, 4]));
        let kernel = MatmulKernel::random((mu + 1) as usize, 7);
        let result = execute(&alg, &m, &kernel);
        assert!(result.causality_violations.is_empty());
        assert_eq!(result.cycles, 29); // μ(μ+3)+1
        assert_eq!(kernel.extract_product(&result, mu), kernel.reference_product());
    }

    #[test]
    fn convolution_array_computes_reference() {
        let (mu_out, mu_w) = (6, 3);
        let alg = algorithms::convolution(mu_out, mu_w);
        // Simple valid mapping: S = [1, 0] (PE per output... actually per
        // i), Π = [1, μ_out+1]? ΠD > 0 needs π2 > 0, π1 > 0, π1+π2 > 0.
        let m = MappingMatrix::new(SpaceMap::row(&[1, -1]), LinearSchedule::new(&[1, 7]));
        let kernel = ConvolutionKernel { x: vec![3, -1, 4, 1, 5, -9, 2], w: vec![2, 0, -1, 5] };
        let result = execute(&alg, &m, &kernel);
        assert!(result.causality_violations.is_empty());
        // y_i is the value at (i, μ_w).
        let y: Vec<i64> = (0..=mu_out).map(|i| result.values[&vec![i, mu_w]].y).collect();
        assert_eq!(y, kernel.reference(mu_out));
    }

    #[test]
    fn lu_array_recovers_exact_factors() {
        let mu = 4;
        let alg = algorithms::lu_decomposition(mu);
        // Any valid schedule works; use the plain wavefront with a
        // row-projection space map.
        let m = MappingMatrix::new(SpaceMap::row(&[0, 1, 0]), LinearSchedule::new(&[1, 1, 1]));
        assert!(m.schedule().is_valid_for(&alg.deps));
        let kernel = LuKernel::random((mu + 1) as usize, 17);
        let result = execute(&alg, &m, &kernel);
        assert!(result.causality_violations.is_empty());
        let (l, u) = kernel.extract_factors(&result, mu);
        let (l_ref, u_ref) = kernel.reference_factors();
        assert_eq!(l, l_ref, "L factor mismatch");
        assert_eq!(u, u_ref, "U factor mismatch");
        // And L·U really reconstructs A.
        for (i, l_row) in l.iter().enumerate() {
            for (j, &a_ij) in kernel.a[i].iter().enumerate() {
                let prod: i64 = l_row.iter().zip(&u).map(|(&lv, u_row)| lv * u_row[j]).sum();
                assert_eq!(prod, a_ij, "A reconstruction at ({i},{j})");
            }
        }
    }

    #[test]
    fn depth_kernel_bounds_schedule() {
        // Longest chain depth ≤ makespan for any valid schedule.
        for alg in [algorithms::matmul(3), algorithms::transitive_closure(3)] {
            let pi: Vec<i64> = match alg.dim() {
                3 if alg.num_deps() == 3 => vec![1, 1, 1],
                _ => vec![4, 1, 1],
            };
            let s_row: Vec<i64> = vec![0, 0, 1];
            let m = MappingMatrix::new(SpaceMap::row(&s_row), LinearSchedule::new(&pi));
            assert!(m.schedule().is_valid_for(&alg.deps), "{}", alg.name);
            let result = execute(&alg, &m, &DepthKernel);
            assert!(result.causality_violations.is_empty());
            let max_depth = result.values.values().copied().max().unwrap();
            assert!(max_depth <= result.cycles, "{}", alg.name);
        }
    }

    #[test]
    fn causality_violation_detected_for_invalid_schedule() {
        // Π = [0, 1, 1] violates ΠD > 0 for matmul (π1 = 0): predecessors
        // along d̄₁ execute in the same cycle.
        let alg = algorithms::matmul(2);
        let m = MappingMatrix::new(SpaceMap::row(&[1, 1, -1]), LinearSchedule::new(&[0, 1, 1]));
        let result = execute(&alg, &m, &DepthKernel);
        assert!(!result.causality_violations.is_empty());
    }
}
