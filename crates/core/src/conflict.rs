//! Conflict vectors and their feasibility (Definition 2.3, Theorem 2.2,
//! Equation 3.2 / Theorem 3.1).
//!
//! A *conflict vector* of `T` is a primitive integral `γ ≠ 0` with
//! `Tγ = 0`. It is *feasible* iff no two points of the index set differ by
//! it; for constant-bounded index sets Theorem 2.2 reduces this to
//! `∃ i: |γ_i| > μ_i`. `T` is *conflict-free* iff **all** its conflict
//! vectors are feasible — equivalently (this module's
//! [`ConflictAnalysis::is_conflict_free_exact`]) iff the integer kernel
//! lattice of `T` contains no nonzero point of the box `[−μ, μ]^n`.

use crate::error::CfmapError;
use crate::mapping::MappingMatrix;
use cfmap_intlin::{Hnf, IMat, IVec, Int, Rat};
use cfmap_model::IndexSet;

/// Feasibility of a single conflict vector (Theorem 2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// Some entry exceeds its box bound: `j̄` and `j̄ + γ̄` are never both
    /// in `J`.
    Feasible,
    /// Every entry fits inside the box: a conflict witness pair exists.
    NonFeasible,
}

/// Theorem 2.2: `γ` is feasible for the box `{0 ≤ j_i ≤ μ_i}` iff some
/// `|γ_i| > μ_i`.
pub fn feasibility(gamma: &IVec, index_set: &IndexSet) -> Feasibility {
    assert_eq!(gamma.dim(), index_set.dim(), "feasibility: dimension mismatch");
    for i in 0..gamma.dim() {
        if gamma[i].abs() > Int::from(index_set.mu_i(i)) {
            return Feasibility::Feasible;
        }
    }
    Feasibility::NonFeasible
}

/// A conflict witness: two distinct index points with `T·j̄₁ = T·j̄₂`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictWitness {
    /// First index point.
    pub j1: Vec<i64>,
    /// Second index point.
    pub j2: Vec<i64>,
}

/// HNF-backed conflict analysis of a mapping matrix over an index set.
///
/// # Examples
///
/// The Example 2.1 mapping is *not* conflict-free — `γ₃ = [1, 0, −1, 0]`
/// stays inside the box:
///
/// ```
/// use cfmap_core::{ConflictAnalysis, MappingMatrix};
/// use cfmap_model::IndexSet;
///
/// let t = MappingMatrix::from_rows(&[&[1, 7, 1, 1], &[1, 7, 1, 0]]);
/// let j = IndexSet::cube(4, 6);
/// let analysis = ConflictAnalysis::new(&t, &j);
/// assert!(!analysis.is_conflict_free_exact());
/// let gamma = analysis.find_small_kernel_vector().unwrap();
/// let witness = analysis.witness_from_kernel_vector(&gamma).unwrap();
/// assert_eq!(t.apply(&witness.j1), t.apply(&witness.j2));
/// ```
pub struct ConflictAnalysis<'a> {
    mapping: &'a MappingMatrix,
    index_set: &'a IndexSet,
    hnf: Hnf,
}

impl<'a> ConflictAnalysis<'a> {
    /// Analyze `T` over `J`. Computes the Hermite normal form once.
    pub fn new(mapping: &'a MappingMatrix, index_set: &'a IndexSet) -> Self {
        Self::with_hnf(mapping, index_set, mapping.hnf())
    }

    /// Analyze `T` over `J` reusing an already-computed Hermite normal
    /// form of `T` — the incremental screening path of Procedure 5.1
    /// completes a pre-eliminated `S` prefix per candidate instead of
    /// recomputing from scratch. The caller must pass the HNF of exactly
    /// this mapping matrix.
    pub fn with_hnf(mapping: &'a MappingMatrix, index_set: &'a IndexSet, hnf: Hnf) -> Self {
        assert_eq!(mapping.dim(), index_set.dim(), "T and J dimension mismatch");
        crate::metrics::HNF_COMPUTATIONS.inc();
        ConflictAnalysis { mapping, index_set, hnf }
    }

    /// The Hermite normal form of `T`.
    pub fn hnf(&self) -> &Hnf {
        &self.hnf
    }

    /// `rank(T)`.
    pub fn rank(&self) -> usize {
        self.hnf.rank
    }

    /// The conflict-lattice basis: the last `n − rank` columns of the
    /// Hermite multiplier `U` (Theorem 4.2). Every conflict vector of `T`
    /// is a primitive *integral* combination of these.
    pub fn lattice_basis(&self) -> Vec<IVec> {
        self.hnf.kernel_cols()
    }

    /// For `k = n−1` and full-rank `T`: the **unique** conflict vector
    /// (Theorem 3.1), canonicalized to primitive form with a positive
    /// first nonzero entry. `None` if `rank(T) < n−1` (kernel dimension
    /// exceeds 1) or `rank(T) = n`.
    pub fn unique_conflict_vector(&self) -> Option<IVec> {
        let basis = self.lattice_basis();
        if basis.len() != 1 {
            return None;
        }
        basis[0].primitive_part()
    }

    /// Equation 3.2: the unique conflict vector of a full-rank
    /// `(n−1)×n` mapping via the adjugate formula
    /// `γ = λ·[−B*·b̄; det B]`, where `T = [B, b̄]`.
    ///
    /// This is the closed form the paper's Section 3 derives; it must (and
    /// in tests does) agree with [`Self::unique_conflict_vector`]. Returns
    /// `None` when the leading `(n−1)×(n−1)` block `B` is singular — the
    /// formula's precondition `rank(B) = n−1` (the paper assumes it
    /// "without loss of generality" by column reordering, which we also
    /// try).
    pub fn conflict_vector_eq_3_2(&self) -> Option<IVec> {
        let t = self.mapping.as_mat();
        let n = t.ncols();
        if t.nrows() + 1 != n {
            return None;
        }
        // Try each column as the "b̄" column until B is nonsingular.
        for bcol in (0..n).rev() {
            let cols: Vec<usize> = (0..n).filter(|&c| c != bcol).collect();
            let b_mat = t.select_cols(&cols);
            let det_b = b_mat.det();
            if det_b.is_zero() {
                continue;
            }
            let b_vec = t.col(bcol);
            // γ over the reordered columns: [−B*·b̄; det B].
            let adj = b_mat.adjugate();
            let minus_adj_b = -&adj.mul_vec(&b_vec);
            // Scatter back into original column order.
            let mut gamma = IVec::zeros(n);
            for (pos, &c) in cols.iter().enumerate() {
                gamma[c] = minus_adj_b[pos].clone();
            }
            gamma[bcol] = det_b;
            return gamma.primitive_part();
        }
        None
    }

    /// Exact conflict-freedom decision (the ground truth the paper's
    /// closed-form conditions are checked against in our tests):
    ///
    /// `T` is conflict-free iff `ker_Z(T) ∩ ([−μ, μ]^n \ {0}) = ∅`.
    ///
    /// The kernel lattice has full column-rank basis `U_ker`; pick
    /// `n−k` rows forming a nonsingular square block `M`, so
    /// `β = M⁻¹·γ_rows`; `|γ_i| ≤ μ_i` bounds `β` in a computable box,
    /// which is enumerated exactly.
    pub fn is_conflict_free_exact(&self) -> bool {
        self.find_small_kernel_vector().is_none()
    }

    /// A nonzero kernel-lattice vector inside the box `[−μ, μ]^n`, if one
    /// exists — i.e. a *non-feasible* conflict direction (after
    /// normalization to primitive form).
    ///
    /// The raw HNF kernel basis is first LLL-reduced: the reduced basis
    /// generates the same lattice (so the decision is unchanged) but its
    /// shorter, more orthogonal vectors both surface small conflict
    /// vectors directly and shrink the coefficient box the enumeration
    /// must cover.
    pub fn find_small_kernel_vector(&self) -> Option<IVec> {
        crate::metrics::count_exact_conflict_test();
        let basis = cfmap_intlin::lll_reduce(&self.lattice_basis());
        let d = basis.len();
        if d == 0 {
            return None; // injective on all of Z^n
        }
        // Fast path: a reduced basis vector already inside the box.
        let mu_box: Vec<Int> = self.index_set.mu().iter().map(|&m| Int::from(m)).collect();
        for b in &basis {
            if (0..b.dim()).all(|i| b[i].abs() <= mu_box[i]) {
                return Some(b.clone());
            }
        }
        let n = self.mapping.dim();
        let u_ker = IMat::from_cols(&basis);

        // Find d linearly independent rows of U_ker.
        let rows = independent_rows(&u_ker, d)?;
        let m = u_ker.select_rows(&rows);
        let m_inv = m.inverse_rational().expect("chosen rows are independent");

        // |β_j| ≤ Σ_i |(M⁻¹)_{ji}|·μ_{rows[i]}.
        let mut bounds = Vec::with_capacity(d);
        for inv_row in m_inv.iter().take(d) {
            let mut acc = Rat::zero();
            for (i, &row) in rows.iter().enumerate() {
                let mu = Rat::from_i64(self.index_set.mu_i(row));
                acc += &(&inv_row[i].abs() * &mu);
            }
            let b = acc.floor().to_i64().unwrap_or(i64::MAX);
            bounds.push(b.max(0));
        }

        // Enumerate β in the box, skip 0, test the full γ against μ.
        let mu: Vec<Int> = self.index_set.mu().iter().map(|&m| Int::from(m)).collect();
        let mut beta = vec![0i64; d];
        self.search_beta(&basis, &bounds, &mu, n, 0, &mut beta)
    }

    fn search_beta(
        &self,
        basis: &[IVec],
        bounds: &[i64],
        mu: &[Int],
        n: usize,
        idx: usize,
        beta: &mut Vec<i64>,
    ) -> Option<IVec> {
        if idx == beta.len() {
            if beta.iter().all(|&b| b == 0) {
                return None;
            }
            let mut gamma = IVec::zeros(n);
            for (b, col) in beta.iter().zip(basis) {
                if *b != 0 {
                    gamma = &gamma + &col.scale(&Int::from(*b));
                }
            }
            for i in 0..n {
                if gamma[i].abs() > mu[i] {
                    return None;
                }
            }
            return Some(gamma);
        }
        for b in -bounds[idx]..=bounds[idx] {
            beta[idx] = b;
            if let Some(g) = self.search_beta(basis, bounds, mu, n, idx + 1, beta) {
                return Some(g);
            }
        }
        beta[idx] = 0;
        None
    }

    /// Turn a small kernel vector into a concrete conflict witness pair
    /// (the construction in the proof of Theorem 2.2): `j_i = 0` where
    /// `γ_i ≥ 0`, `j_i = −γ_i` where `γ_i < 0`.
    ///
    /// Kernel vectors produced by [`Self::find_small_kernel_vector`] are
    /// box-bounded and always convert; a caller-supplied `γ` with
    /// entries outside the `i64` interchange range reports
    /// [`CfmapError::Overflow`] instead of aborting (the exact `Int`
    /// layer promotes past `i128` internally, so such vectors exist).
    pub fn witness_from_kernel_vector(
        &self,
        gamma: &IVec,
    ) -> Result<ConflictWitness, CfmapError> {
        let n = gamma.dim();
        let overflow = || CfmapError::Overflow {
            context: "witness_from_kernel_vector: kernel vector entry".into(),
        };
        let mut j1 = vec![0i64; n];
        for i in 0..n {
            let g = gamma[i].to_i64().ok_or_else(overflow)?;
            if g < 0 {
                j1[i] = g.checked_neg().ok_or_else(overflow)?;
            }
        }
        let mut j2 = Vec::with_capacity(n);
        for i in 0..n {
            let g = gamma[i].to_i64().ok_or_else(overflow)?;
            j2.push(j1[i].checked_add(g).ok_or_else(overflow)?);
        }
        Ok(ConflictWitness { j1, j2 })
    }
}

/// Choose `d` rows of `m` that are linearly independent (exact rank
/// computation on candidate sets, greedy).
fn independent_rows(m: &IMat, d: usize) -> Option<Vec<usize>> {
    let mut chosen: Vec<usize> = Vec::with_capacity(d);
    for r in 0..m.nrows() {
        if chosen.len() == d {
            break;
        }
        let mut candidate = chosen.clone();
        candidate.push(r);
        if m.select_rows(&candidate).rank() == candidate.len() {
            chosen = candidate;
        }
    }
    (chosen.len() == d).then_some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingMatrix;
    use cfmap_model::IndexSet;

    fn mapping(rows: &[&[i64]]) -> MappingMatrix {
        MappingMatrix::from_rows(rows)
    }

    #[test]
    fn theorem_2_2_feasibility() {
        let j = IndexSet::new(&[4, 4]);
        assert_eq!(feasibility(&IVec::from_i64s(&[1, 1]), &j), Feasibility::NonFeasible);
        assert_eq!(feasibility(&IVec::from_i64s(&[3, 5]), &j), Feasibility::Feasible);
        assert_eq!(feasibility(&IVec::from_i64s(&[-5, 0]), &j), Feasibility::Feasible);
        assert_eq!(feasibility(&IVec::from_i64s(&[4, -4]), &j), Feasibility::NonFeasible);
    }

    #[test]
    fn example_2_1_classification() {
        // J = {0..6}⁴, T from Eq 2.8. γ1, γ2 feasible; γ3 non-feasible.
        let j = IndexSet::cube(4, 6);
        let g1 = IVec::from_i64s(&[0, 1, -7, 0]);
        let g2 = IVec::from_i64s(&[7, -1, 0, 0]);
        let g3 = IVec::from_i64s(&[1, 0, -1, 0]);
        assert_eq!(feasibility(&g1, &j), Feasibility::Feasible);
        assert_eq!(feasibility(&g2, &j), Feasibility::Feasible);
        assert_eq!(feasibility(&g3, &j), Feasibility::NonFeasible);
        // All three are genuine conflict vectors of T.
        let t = mapping(&[&[1, 7, 1, 1], &[1, 7, 1, 0]]);
        for g in [&g1, &g2, &g3] {
            assert!(t.as_mat().mul_vec(g).is_zero());
            assert!(g.is_primitive());
        }
        // And T is NOT conflict-free (γ3 is the culprit).
        let analysis = ConflictAnalysis::new(&t, &j);
        assert!(!analysis.is_conflict_free_exact());
        let small = analysis.find_small_kernel_vector().unwrap();
        assert_eq!(feasibility(&small, &j), Feasibility::NonFeasible);
    }

    #[test]
    fn eq_3_2_matches_hnf_for_matmul() {
        // T = [[1,1,-1],[π1,π2,π3]]: Eq 3.5 says γ ∝ [−π2−π3, π1+π3, π1−π2].
        for pi in [[1i64, 4, 1], [2, 1, 4], [1, 1, 1], [3, 5, 2]] {
            let t = mapping(&[&[1, 1, -1], &pi]);
            let j = IndexSet::cube(3, 4);
            let analysis = ConflictAnalysis::new(&t, &j);
            if t.as_mat().rank() < 2 {
                continue;
            }
            let via_hnf = analysis.unique_conflict_vector().unwrap();
            let via_adj = analysis.conflict_vector_eq_3_2().unwrap();
            assert_eq!(via_hnf, via_adj, "Π = {pi:?}");
            // Explicit formula check.
            let raw = IVec::from_i64s(&[-(pi[1] + pi[2]), pi[0] + pi[2], pi[0] - pi[1]]);
            assert_eq!(via_adj, raw.primitive_part().unwrap());
        }
    }

    #[test]
    fn eq_3_2_matches_for_transitive_closure() {
        // T = [[0,0,1],[π1,π2,π3]] → γ ∝ [π2, −π1, 0] (Eq 3.7).
        let t = mapping(&[&[0, 0, 1], &[5, 1, 1]]);
        let j = IndexSet::cube(3, 4);
        let analysis = ConflictAnalysis::new(&t, &j);
        let gamma = analysis.conflict_vector_eq_3_2().unwrap();
        assert_eq!(gamma, IVec::from_i64s(&[1, -5, 0]));
        assert_eq!(analysis.unique_conflict_vector().unwrap(), gamma);
        // Feasible (|−5| > μ = 4) ⇒ conflict-free.
        assert_eq!(feasibility(&gamma, &j), Feasibility::Feasible);
        assert!(analysis.is_conflict_free_exact());
    }

    #[test]
    fn eq_3_2_reorders_columns_past_singular_leading_block() {
        // T = [[1,1,2],[1,1,3]]: removing the last column leaves
        // B = [[1,1],[1,1]], which is singular — the paper's "without
        // loss of generality" reordering is load-bearing here. The
        // bcol = 2 attempt must be skipped and the bcol = 1 block
        // ([[1,2],[1,3]], det 1) used instead.
        let t = mapping(&[&[1, 1, 2], &[1, 1, 3]]);
        let j = IndexSet::cube(3, 4);
        let analysis = ConflictAnalysis::new(&t, &j);
        let gamma = analysis.conflict_vector_eq_3_2().expect("reordering finds a block");
        assert!(t.as_mat().mul_vec(&gamma).is_zero(), "γ = {gamma:?} not in ker T");
        assert!(gamma.is_primitive());
        assert_eq!(gamma, analysis.unique_conflict_vector().unwrap());
        // The only primitive kernel direction of this T is ±[1, −1, 0].
        assert_eq!(gamma, IVec::from_i64s(&[1, -1, 0]).primitive_part().unwrap());
    }

    #[test]
    fn eq_3_2_declines_fully_singular_mappings() {
        // Every (n−1)×(n−1) block of T = [[1,1,1],[1,1,1]] is singular:
        // no column choice works and the formula must return None
        // instead of dividing by a zero determinant.
        let t = mapping(&[&[1, 1, 1], &[1, 1, 1]]);
        let j = IndexSet::cube(3, 4);
        let analysis = ConflictAnalysis::new(&t, &j);
        assert_eq!(analysis.conflict_vector_eq_3_2(), None);
    }

    #[test]
    fn exact_checker_on_paper_optimal_matmul() {
        // Π = [1, μ, 1] with even μ: conflict vector [μ+1, −2, μ−1] is
        // feasible ⇒ conflict-free.
        let t = mapping(&[&[1, 1, -1], &[1, 4, 1]]);
        let j = IndexSet::cube(3, 4);
        let analysis = ConflictAnalysis::new(&t, &j);
        assert!(analysis.is_conflict_free_exact());
        // Π1 = [1, 1, μ] has conflict vector ∝ [−(1+μ), 1+μ, 0] →
        // primitive [1, −1, 0]: non-feasible ⇒ conflicts. (The paper's
        // appendix prints this vector as "[1, 1, 0]ᵀ", which does not
        // satisfy Tγ = 0 — an evident typo; the conclusion that Π1 is
        // rejected is unchanged.)
        let t_bad = mapping(&[&[1, 1, -1], &[1, 1, 4]]);
        let analysis_bad = ConflictAnalysis::new(&t_bad, &j);
        assert!(!analysis_bad.is_conflict_free_exact());
        let gamma = analysis_bad.unique_conflict_vector().unwrap();
        assert_eq!(gamma, IVec::from_i64s(&[1, -1, 0]));
    }

    #[test]
    fn witness_construction_matches_theorem_2_2_proof() {
        let t = mapping(&[&[1, 1, -1], &[1, 1, 4]]);
        let j = IndexSet::cube(3, 4);
        let analysis = ConflictAnalysis::new(&t, &j);
        let gamma = analysis.find_small_kernel_vector().unwrap();
        let w = analysis.witness_from_kernel_vector(&gamma).unwrap();
        assert!(j.contains(&w.j1));
        assert!(j.contains(&w.j2));
        assert_ne!(w.j1, w.j2);
        assert_eq!(t.apply(&w.j1), t.apply(&w.j2), "witness must collide");
    }

    #[test]
    fn rank_deficient_has_no_unique_vector() {
        let t = mapping(&[&[1, 1, -1], &[2, 2, -2]]);
        let j = IndexSet::cube(3, 4);
        let analysis = ConflictAnalysis::new(&t, &j);
        assert_eq!(analysis.rank(), 1);
        assert!(analysis.unique_conflict_vector().is_none());
    }

    #[test]
    fn square_full_rank_is_always_conflict_free() {
        let t = mapping(&[&[1, 0], &[0, 1]]);
        let j = IndexSet::new(&[9, 9]);
        let analysis = ConflictAnalysis::new(&t, &j);
        assert!(analysis.lattice_basis().is_empty());
        assert!(analysis.is_conflict_free_exact());
    }

    #[test]
    fn witness_overflow_is_reported_not_fatal() {
        // A kernel vector with entries past i64 cannot index the box;
        // the conversion must surface CfmapError::Overflow.
        let t = mapping(&[&[1, 1, -1], &[1, 1, 4]]);
        let j = IndexSet::cube(3, 4);
        let analysis = ConflictAnalysis::new(&t, &j);
        let huge = Int::from(i64::MAX) * Int::from(4);
        let gamma = IVec::new(vec![huge.clone(), -&huge, Int::zero()]);
        match analysis.witness_from_kernel_vector(&gamma) {
            Err(crate::CfmapError::Overflow { context }) => {
                assert!(context.contains("witness"));
            }
            other => panic!("expected Overflow, got {other:?}"),
        }
    }

    #[test]
    fn two_dimensional_kernel_interaction() {
        // Example 4.1: γ1 and γ2 feasible but γ = (γ1+γ2)/7 is a
        // non-feasible conflict vector — the exact checker must find it.
        let t = mapping(&[&[1, 7, 1, 1], &[1, 7, 1, 0]]);
        let j = IndexSet::cube(4, 6);
        let analysis = ConflictAnalysis::new(&t, &j);
        let small = analysis.find_small_kernel_vector().unwrap();
        // The found vector is (±) [1, 0, -1, 0] or another in-box kernel
        // point; any is a valid refutation.
        assert!(t.as_mat().mul_vec(&small).is_zero());
        assert!(!small.is_zero());
        for i in 0..4 {
            assert!(small[i].abs() <= Int::from(6));
        }
    }
}
