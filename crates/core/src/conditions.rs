//! The closed-form conflict-freedom conditions of Sections 3 and 4.
//!
//! All conditions operate on the Hermite multiplier `U` of `T·U = [L, 0]`
//! (Theorem 4.1): writing `r = n − k` for the kernel dimension and
//! `ū_{k+1}, …, ū_n` for the last `r` columns of `U`, every conflict
//! vector of `T` is a primitive integral combination `γ = Σ β_l·ū_{k+l}`
//! (Theorem 4.2).
//!
//! | `r` | condition | paper | status |
//! |---|---|---|---|
//! | 1 | unique `γ` feasible | Thm 3.1 | necessary & sufficient |
//! | any | each `V` column has a nonzero among its first `k` entries | Thm 4.3 | necessary |
//! | any | each `ū_l` feasible | Thm 4.4 | necessary |
//! | any | row-gcd bound on an invertible row subset | Thm 4.5 | sufficient |
//! | 2 | gcd + annihilator condition | Thm 4.6 | sufficient |
//! | 2 | sign-pattern conditions (1)–(3) | Thm 4.7 | sufficient; **necessity fails** (see below) |
//! | 3 | sign-pattern conditions (1)–(5) | Thm 4.8 | sufficient; necessity inherits the same flaw |
//!
//! **Reproduction finding 1 (necessity gap).** The necessity direction of
//! Theorem 4.7 assumes that when no *same-sign* row has
//! `|u_{i,n−1} + u_{i,n}| > μ_i`, the conflict vector `ū_{n−1} + ū_n` is
//! non-feasible. That inference overlooks mixed-sign rows: with kernel
//! columns `ū₁ = [10, −3, 1, 0]ᵀ`, `ū₂ = [−3, 10, 0, 1]ᵀ` and
//! `μ = (5, 5, 1, 1)`, every conflict vector is feasible (the mapping *is*
//! conflict-free — confirmed by exhaustive enumeration in the tests), yet
//! condition (1) of Theorem 4.7 fails. The conditions remain *sufficient*,
//! which is what Procedure 5.1's soundness needs; our optimizer therefore
//! offers both the paper's conditions and the exact lattice test
//! ([`crate::conflict::ConflictAnalysis::is_conflict_free_exact`]).
//!
//! **Reproduction finding 2 (Theorem 4.8 soundness repair).** For kernel
//! dimension 3, conflict vectors `γ = β₁ū₁ + β₂ū₂ + β₃ū₃` with exactly one
//! zero coefficient (e.g. `β = (1, −1, 0)`) are covered by **neither** the
//! four full sign-pattern conditions (their bound `|±u₁ ± u₂ ± u₃| > μ_i`
//! includes the third column, which contributes nothing to this `γ`) nor
//! condition (5)'s axis feasibility. Concretely, for
//! `T = [[1,1,0,0,0], [1,3,6,6,1]]` over `μ = (2,2,2,1,1)` the conditions
//! (1)–(5) as stated all pass, yet `γ = [0,0,1,−1,0]ᵀ` is an in-box kernel
//! vector — a conflict (regression test below). The repaired — and, for
//! any kernel dimension, sound — form adds the analogous condition for
//! **every nonempty support subset** of the coefficients; for dimension 2
//! the repair coincides with Theorem 4.7. [`sign_pattern_condition_on_basis`]
//! implements the repaired form.

use crate::conflict::{feasibility, ConflictAnalysis, Feasibility};
use cfmap_intlin::{IVec, Int};
use cfmap_model::IndexSet;

/// Which conflict-freedom test to use (Procedure 5.1 step 5(3) plug-in).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConditionKind {
    /// The paper's closed-form conditions, dispatched on `n − k` exactly
    /// as Procedure 5.1 prescribes (Thm 3.1 / 4.7 / 4.8 / 4.5).
    Paper,
    /// The exact integer-lattice test (ground truth; still closed-form in
    /// the sense that no index point is ever enumerated).
    Exact,
}

/// Outcome of a closed-form test: the paper's `r > 3` fallback
/// (Theorem 4.5) is only sufficient, so "fails the test" does not always
/// mean "has conflicts".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConditionVerdict {
    /// Certified conflict-free.
    ConflictFree,
    /// Certified to have a conflict (a non-feasible conflict vector
    /// exists).
    HasConflict,
    /// The (sufficient-only) condition did not fire; no certificate.
    Unknown,
}

impl ConditionVerdict {
    /// Collapse to a boolean the way Procedure 5.1 does: only a positive
    /// certificate counts.
    pub fn accepts(self) -> bool {
        self == ConditionVerdict::ConflictFree
    }
}

/// Theorem 3.1 (`r = 1`): `T ∈ Z^{(n−1)×n}` is conflict-free iff its
/// unique conflict vector is feasible.
pub fn theorem_3_1(analysis: &ConflictAnalysis<'_>, index_set: &IndexSet) -> ConditionVerdict {
    let Some(gamma) = analysis.unique_conflict_vector() else {
        return ConditionVerdict::Unknown; // not an r = 1 instance
    };
    match feasibility(&gamma, index_set) {
        Feasibility::Feasible => ConditionVerdict::ConflictFree,
        Feasibility::NonFeasible => ConditionVerdict::HasConflict,
    }
}

/// Theorem 4.3 (necessary): every column of `V = U⁻¹` must have a nonzero
/// entry among its first `k` rows. Returns `false` if the necessary
/// condition is violated (⇒ `T` is certainly not conflict-free, because a
/// unit vector is then a conflict vector).
pub fn theorem_4_3_necessary(analysis: &ConflictAnalysis<'_>) -> bool {
    let v = analysis.hnf().v();
    let k = analysis.rank();
    (0..v.ncols()).all(|c| (0..k).any(|r| !v.get(r, c).is_zero()))
}

/// Theorem 4.4 (necessary): the kernel columns `ū_{k+1}, …, ū_n`
/// themselves must be feasible conflict vectors.
pub fn theorem_4_4_necessary(analysis: &ConflictAnalysis<'_>, index_set: &IndexSet) -> bool {
    analysis
        .lattice_basis()
        .iter()
        .all(|u| feasibility(u, index_set) == Feasibility::Feasible)
}

/// Theorem 4.5 (sufficient, any `r`): if there are rows `i₁ < … < i_r`
/// such that the `r×r` block `U[{i}, kernel cols]` is nonsingular and each
/// chosen row's gcd `gcd(u_{i,k+1}, …, u_{i,n}) ≥ μ_i + 1`, then `T` is
/// conflict-free.
pub fn theorem_4_5_sufficient(
    analysis: &ConflictAnalysis<'_>,
    index_set: &IndexSet,
) -> ConditionVerdict {
    let basis = analysis.lattice_basis();
    let r = basis.len();
    if r == 0 {
        return ConditionVerdict::ConflictFree; // injective on Z^n
    }
    let n = index_set.dim();
    // Candidate rows: gcd already large enough.
    let candidates: Vec<usize> = (0..n)
        .filter(|&i| {
            let g = basis.iter().fold(Int::zero(), |acc, u| acc.gcd(&u[i]));
            g > Int::from(index_set.mu_i(i))
        })
        .collect();
    if candidates.len() < r {
        return ConditionVerdict::Unknown;
    }
    // Search candidate subsets of size r for a nonsingular block.
    let u_ker = cfmap_intlin::IMat::from_cols(&basis);
    let mut chosen: Vec<usize> = Vec::new();
    if pick_nonsingular(&u_ker, &candidates, r, 0, &mut chosen) {
        ConditionVerdict::ConflictFree
    } else {
        ConditionVerdict::Unknown
    }
}

fn pick_nonsingular(
    u_ker: &cfmap_intlin::IMat,
    candidates: &[usize],
    r: usize,
    start: usize,
    chosen: &mut Vec<usize>,
) -> bool {
    if chosen.len() == r {
        return !u_ker.select_rows(chosen).det().is_zero();
    }
    for idx in start..candidates.len() {
        chosen.push(candidates[idx]);
        if pick_nonsingular(u_ker, candidates, r, idx + 1, chosen) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// Theorem 4.6 (sufficient, `r = 2`): (1) some row `i` has
/// `gcd(u_{i,n−1}, u_{i,n}) ≥ μ_i + 1`; (2) for the (unique up to sign)
/// primitive `β` annihilating row `i`, some other row `j` has
/// `|β_{n−1}·u_{j,n−1} + β_n·u_{j,n}| > μ_j`.
pub fn theorem_4_6_sufficient(
    analysis: &ConflictAnalysis<'_>,
    index_set: &IndexSet,
) -> ConditionVerdict {
    let basis = analysis.lattice_basis();
    if basis.len() != 2 {
        return ConditionVerdict::Unknown;
    }
    let (u1, u2) = (&basis[0], &basis[1]);
    let n = index_set.dim();
    for i in 0..n {
        let g = u1[i].gcd(&u2[i]);
        if g <= Int::from(index_set.mu_i(i)) {
            continue; // condition (1) fails at this row
        }
        // β annihilating row i: (u2[i], −u1[i]) reduced to primitive form.
        // (g > μ_i ≥ 0 ⇒ not both entries are zero.)
        let beta = IVec::new(vec![u2[i].clone(), -&u1[i]]);
        let beta = beta.primitive_part().expect("nonzero by condition (1)");
        let ok = (0..n).filter(|&j| j != i).any(|j| {
            let val = &(&beta[0] * &u1[j]) + &(&beta[1] * &u2[j]);
            val.abs() > Int::from(index_set.mu_i(j))
        });
        if ok {
            return ConditionVerdict::ConflictFree;
        }
    }
    ConditionVerdict::Unknown
}

/// The sign-pattern conditions shared by Theorems 4.7 and 4.8 (and their
/// natural generalization to any `r`): for every sign pattern
/// `σ ∈ {±1}^r` up to global negation, some row `i` must have its
/// σ-weighted kernel entries `σ_l·u_{i,l}` all of one sign (zeros are
/// wildcards — the paper's "sign of zero is either positive or negative")
/// with `|Σ_l σ_l·u_{i,l}| > μ_i`; plus Theorem 4.4's axis feasibility.
///
/// For `r = 2` this is exactly Theorem 4.7 (conditions (1) = pattern
/// `(+,+)`, (2) = pattern `(+,−)`, (3) = axis feasibility); for `r = 3`
/// exactly Theorem 4.8.
pub fn sign_pattern_condition(
    analysis: &ConflictAnalysis<'_>,
    index_set: &IndexSet,
) -> ConditionVerdict {
    let basis = analysis.lattice_basis();
    if basis.len() == 1 {
        return theorem_3_1(analysis, index_set);
    }
    sign_pattern_condition_on_basis(&basis, index_set)
}

/// [`sign_pattern_condition`] on an explicitly supplied kernel basis.
///
/// The theorem's verdict depends on *which* Hermite multiplier was
/// computed — different valid `U`s can make the (sufficient-only)
/// condition fire or not. This entry point lets callers (and the
/// necessity-counterexample test) pin the basis; the sufficiency proof
/// only uses that the kernel is the integral span of the basis, so a
/// `ConflictFree` verdict is sound for any basis of the lattice.
pub fn sign_pattern_condition_on_basis(
    basis: &[IVec],
    index_set: &IndexSet,
) -> ConditionVerdict {
    let r = basis.len();
    if r == 0 {
        return ConditionVerdict::ConflictFree;
    }
    // Condition "axis": each ū_l feasible (Theorem 4.4, also necessary).
    if basis.iter().any(|u| feasibility(u, index_set) == Feasibility::NonFeasible) {
        return ConditionVerdict::HasConflict; // a necessary condition failed
    }
    let n = index_set.dim();
    // Every nonempty support subset of the β coefficients, every sign
    // pattern on it up to global negation (fix the first chosen σ = +1).
    // Subsets of size 1 are the axis condition above; subsets of size r
    // are the paper's conditions; the intermediate sizes are the
    // **soundness repair** the module docs describe — a conflict vector
    // with zero β components is covered by no full pattern.
    for subset_bits in 1u32..(1 << r) {
        let support: Vec<usize> = (0..r).filter(|l| subset_bits >> l & 1 == 1).collect();
        let s = support.len();
        if s < 2 {
            continue; // singletons handled by the axis condition
        }
        for pattern_bits in 0..(1u32 << (s - 1)) {
            let sigma: Vec<i8> = std::iter::once(1i8)
                .chain((0..s - 1).map(|b| if pattern_bits >> b & 1 == 1 { -1 } else { 1 }))
                .collect();
            let satisfied = (0..n).any(|i| {
                let weighted: Vec<Int> = support
                    .iter()
                    .zip(&sigma)
                    .map(|(&l, &sg)| if sg > 0 { basis[l][i].clone() } else { -&basis[l][i] })
                    .collect();
                let all_nonneg = weighted.iter().all(|w| !w.is_negative());
                let all_nonpos = weighted.iter().all(|w| !w.is_positive());
                if !(all_nonneg || all_nonpos) {
                    return false;
                }
                let sum: Int = weighted.iter().sum();
                sum.abs() > Int::from(index_set.mu_i(i))
            });
            if !satisfied {
                return ConditionVerdict::Unknown;
            }
        }
    }
    ConditionVerdict::ConflictFree
}

/// Theorem 4.7: the `r = 2` (i.e. `T ∈ Z^{(n−2)×n}`) conditions.
/// Sufficient always; see the module docs for the necessity caveat.
pub fn theorem_4_7(analysis: &ConflictAnalysis<'_>, index_set: &IndexSet) -> ConditionVerdict {
    if analysis.lattice_basis().len() != 2 {
        return ConditionVerdict::Unknown;
    }
    sign_pattern_condition(analysis, index_set)
}

/// Theorem 4.8: the `r = 3` (i.e. `T ∈ Z^{(n−3)×n}`) conditions.
pub fn theorem_4_8(analysis: &ConflictAnalysis<'_>, index_set: &IndexSet) -> ConditionVerdict {
    if analysis.lattice_basis().len() != 3 {
        return ConditionVerdict::Unknown;
    }
    sign_pattern_condition(analysis, index_set)
}

/// The dispatch Procedure 5.1 step 5(3) prescribes: Theorem 3.1 for
/// `r = 1`, Theorem 4.7 for `r = 2`, Theorem 4.8 for `r = 3`,
/// Theorem 4.5 otherwise.
pub fn paper_condition(analysis: &ConflictAnalysis<'_>, index_set: &IndexSet) -> ConditionVerdict {
    match analysis.lattice_basis().len() {
        0 => ConditionVerdict::ConflictFree,
        1 => theorem_3_1(analysis, index_set),
        2 | 3 => sign_pattern_condition(analysis, index_set),
        _ => theorem_4_5_sufficient(analysis, index_set),
    }
}

/// Which rule [`check`] will dispatch to for this analysis — the
/// telemetry label of a conflict-freedom test. Mirrors the dispatch in
/// [`paper_condition`] exactly (Theorem 4.7 and 4.8 both route through
/// the repaired sign-pattern condition, but remain distinct rules for
/// the effort statistics).
pub fn rule_for(
    kind: ConditionKind,
    analysis: &ConflictAnalysis<'_>,
) -> crate::metrics::ConditionRule {
    use crate::metrics::ConditionRule;
    match kind {
        ConditionKind::Exact => ConditionRule::Exact,
        ConditionKind::Paper => match analysis.lattice_basis().len() {
            0 => ConditionRule::Trivial,
            1 => ConditionRule::Theorem31,
            2 => ConditionRule::Theorem47,
            3 => ConditionRule::Theorem48,
            _ => ConditionRule::Theorem45,
        },
    }
}

/// Run the configured condition kind.
pub fn check(
    kind: ConditionKind,
    analysis: &ConflictAnalysis<'_>,
    index_set: &IndexSet,
) -> ConditionVerdict {
    match kind {
        ConditionKind::Paper => paper_condition(analysis, index_set),
        ConditionKind::Exact => {
            if analysis.is_conflict_free_exact() {
                ConditionVerdict::ConflictFree
            } else {
                ConditionVerdict::HasConflict
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingMatrix;
    use crate::oracle;
    use cfmap_model::IndexSet;

    fn mapping(rows: &[&[i64]]) -> MappingMatrix {
        MappingMatrix::from_rows(rows)
    }

    #[test]
    fn theorem_3_1_on_matmul_candidates() {
        let j = IndexSet::cube(3, 4);
        // Optimal Π = [1, 4, 1]: conflict-free.
        let t = mapping(&[&[1, 1, -1], &[1, 4, 1]]);
        let a = ConflictAnalysis::new(&t, &j);
        assert_eq!(theorem_3_1(&a, &j), ConditionVerdict::ConflictFree);
        // Rejected Π1 = [1, 1, 4]: conflict.
        let t = mapping(&[&[1, 1, -1], &[1, 1, 4]]);
        let a = ConflictAnalysis::new(&t, &j);
        assert_eq!(theorem_3_1(&a, &j), ConditionVerdict::HasConflict);
    }

    #[test]
    fn theorem_4_3_violated_by_unit_kernel() {
        // T whose kernel contains a unit vector: T = [[1,0,0],[0,1,0]]
        // has kernel e₃, so V's third column has zeros in its first two
        // rows ⇒ Theorem 4.3 necessary condition fails.
        let t = mapping(&[&[1, 0, 0], &[0, 1, 0]]);
        let j = IndexSet::cube(3, 2);
        let a = ConflictAnalysis::new(&t, &j);
        assert!(!theorem_4_3_necessary(&a));
        // And indeed there is a conflict (e₃ stays inside the box).
        assert!(!a.is_conflict_free_exact());
    }

    #[test]
    fn theorem_4_3_holds_for_clean_mapping() {
        let t = mapping(&[&[1, 1, -1], &[1, 4, 1]]);
        let j = IndexSet::cube(3, 4);
        let a = ConflictAnalysis::new(&t, &j);
        assert!(theorem_4_3_necessary(&a));
        assert!(theorem_4_4_necessary(&a, &j));
    }

    #[test]
    fn theorem_4_5_certifies_scaled_kernel() {
        // Kernel basis with a row of large-gcd entries: T = [[1,0,-7],[0,1,0]]
        // has kernel ū = [7, 0, 1]... compute: Tγ=0 ⇒ γ1 = 7γ3, γ2 = 0.
        // Basis [7, 0, 1]: row 0 gcd = 7 ≥ μ0+1 for μ0 ≤ 6.
        let t = mapping(&[&[1, 0, -7], &[0, 1, 0]]);
        let j = IndexSet::new(&[6, 6, 6]);
        let a = ConflictAnalysis::new(&t, &j);
        assert_eq!(theorem_4_5_sufficient(&a, &j), ConditionVerdict::ConflictFree);
        assert!(a.is_conflict_free_exact());
        // With μ0 = 7 the certificate must not fire (γ = [7,0,1] fits).
        let j_big = IndexSet::new(&[7, 6, 6]);
        let a2 = ConflictAnalysis::new(&t, &j_big);
        assert_eq!(theorem_4_5_sufficient(&a2, &j_big), ConditionVerdict::Unknown);
        assert!(!a2.is_conflict_free_exact());
    }

    #[test]
    fn theorem_4_7_on_eq_2_8() {
        // Example 2.1 / 4.1 / 4.2: T of Eq 2.8 over {0..6}⁴ is NOT
        // conflict-free (γ3 = [1,0,−1,0]); Theorem 4.7 must not certify it.
        let t = mapping(&[&[1, 7, 1, 1], &[1, 7, 1, 0]]);
        let j = IndexSet::cube(4, 6);
        let a = ConflictAnalysis::new(&t, &j);
        let verdict = theorem_4_7(&a, &j);
        assert_ne!(verdict, ConditionVerdict::ConflictFree);
        assert!(!a.is_conflict_free_exact());
    }

    #[test]
    fn theorem_4_7_certifies_good_4d_mapping() {
        // Build a 2×4 mapping that is conflict-free over {0..6}⁴ and check
        // the paper condition fires. T = [[1,7,1,1],[0,1,15,3]] — search
        // in tests below found such; here use a hand-verified one:
        // kernel of T = [[1, 0, 0, -7], [0, 1, 0, -7]] is spanned by
        // [0,0,1,0] → unit kernel vector: conflicts. Instead take
        // T = [[1,0,0,7],[0,1,7,0]]: kernel basis {[0,-7,1,0],[-7,0,0,1]}.
        let t = mapping(&[&[1, 0, 0, 7], &[0, 1, 7, 0]]);
        let j = IndexSet::cube(4, 6);
        let a = ConflictAnalysis::new(&t, &j);
        assert_eq!(theorem_4_7(&a, &j), ConditionVerdict::ConflictFree);
        assert!(a.is_conflict_free_exact());
        assert!(oracle::is_conflict_free_by_enumeration(&t, &j));
    }

    #[test]
    fn theorem_4_7_necessity_counterexample() {
        // The reproduction finding documented in the module docs: a
        // conflict-free T ∈ Z^{2×4} that Theorem 4.7 fails to certify.
        // Kernel columns ū₁ = [10,−3,1,0], ū₂ = [−3,10,0,1];
        // T = [[1,0,−10,3],[0,1,3,−10]] annihilates both.
        let t = mapping(&[&[1, 0, -10, 3], &[0, 1, 3, -10]]);
        let j = IndexSet::new(&[5, 5, 1, 1]);
        let a = ConflictAnalysis::new(&t, &j);
        // Exhaustive ground truth: conflict-free.
        assert!(oracle::is_conflict_free_by_enumeration(&t, &j));
        assert!(a.is_conflict_free_exact());
        // With the kernel basis {ū₁, ū₂} (a valid Hermite-multiplier
        // kernel block: it generates exactly ker_Z(T)), the theorem's
        // condition (1) has no qualifying row, so the test cannot certify
        // the (actually conflict-free) mapping: the necessity gap.
        let u1 = IVec::from_i64s(&[10, -3, 1, 0]);
        let u2 = IVec::from_i64s(&[-3, 10, 0, 1]);
        assert!(t.as_mat().mul_vec(&u1).is_zero());
        assert!(t.as_mat().mul_vec(&u2).is_zero());
        let verdict = sign_pattern_condition_on_basis(&[u1, u2], &j);
        assert_eq!(verdict, ConditionVerdict::Unknown);
    }

    #[test]
    fn theorem_4_8_soundness_repair_regression() {
        // Reproduction finding 2: conditions (1)–(5) of Theorem 4.8 as
        // literally stated pass for this mapping, but β = (1,−1,0)-type
        // conflict vectors slip through; the repaired subset condition
        // must NOT certify it.
        let t = mapping(&[&[1, 1, 0, 0, 0], &[1, 3, 6, 6, 1]]);
        let j = IndexSet::new(&[2, 2, 2, 1, 1]);
        let a = ConflictAnalysis::new(&t, &j);
        assert_eq!(a.lattice_basis().len(), 3);
        // Ground truth: γ = [0,0,1,−1,0] is an in-box kernel vector.
        let gamma = IVec::from_i64s(&[0, 0, 1, -1, 0]);
        assert!(t.as_mat().mul_vec(&gamma).is_zero());
        assert!(!a.is_conflict_free_exact());
        assert!(!oracle::is_conflict_free_by_enumeration(&t, &j));
        // Repaired condition: no false certificate.
        assert_ne!(theorem_4_8(&a, &j), ConditionVerdict::ConflictFree);
        assert_ne!(paper_condition(&a, &j), ConditionVerdict::ConflictFree);
    }

    #[test]
    fn paper_condition_dispatch() {
        let j3 = IndexSet::cube(3, 4);
        let t1 = mapping(&[&[1, 1, -1], &[1, 4, 1]]); // r = 1
        let a1 = ConflictAnalysis::new(&t1, &j3);
        assert!(paper_condition(&a1, &j3).accepts());

        let j4 = IndexSet::cube(4, 6);
        let t2 = mapping(&[&[1, 0, 0, 7], &[0, 1, 7, 0]]); // r = 2
        let a2 = ConflictAnalysis::new(&t2, &j4);
        assert!(paper_condition(&a2, &j4).accepts());

        // Full-rank square: r = 0.
        let t0 = mapping(&[&[1, 0], &[0, 1]]);
        let j2 = IndexSet::cube(2, 4);
        let a0 = ConflictAnalysis::new(&t0, &j2);
        assert!(paper_condition(&a0, &j2).accepts());
    }

    #[test]
    fn check_dispatches_both_kinds() {
        let t = mapping(&[&[1, 1, -1], &[1, 4, 1]]);
        let j = IndexSet::cube(3, 4);
        let a = ConflictAnalysis::new(&t, &j);
        assert!(check(ConditionKind::Paper, &a, &j).accepts());
        assert!(check(ConditionKind::Exact, &a, &j).accepts());
        let bad = mapping(&[&[1, 1, -1], &[1, 1, 4]]);
        let ab = ConflictAnalysis::new(&bad, &j);
        assert_eq!(check(ConditionKind::Exact, &ab, &j), ConditionVerdict::HasConflict);
    }

    cfmap_testkit::props! {
        cases = 60;

        /// Soundness of every closed-form certificate: whenever any paper
        /// condition answers ConflictFree/HasConflict, the exhaustive
        /// oracle agrees.
        fn certificates_are_sound_3d(
            s in cfmap_testkit::gen::vec(-3i64..=3, 3),
            pi in cfmap_testkit::gen::vec(-3i64..=3, 3),
            mu in 1i64..5,
        ) {
            let t = MappingMatrix::from_rows(&[&s[..], &pi[..]]);
            let j = IndexSet::cube(3, mu);
            let a = ConflictAnalysis::new(&t, &j);
            let truth = oracle::is_conflict_free_by_enumeration(&t, &j);
            match paper_condition(&a, &j) {
                ConditionVerdict::ConflictFree => assert!(truth, "false certificate"),
                ConditionVerdict::HasConflict => assert!(!truth, "false refutation"),
                ConditionVerdict::Unknown => {}
            }
            // Necessary conditions really are necessary.
            if truth {
                assert!(theorem_4_3_necessary(&a));
                assert!(theorem_4_4_necessary(&a, &j));
            }
        }

        fn certificates_are_sound_4d(
            s in cfmap_testkit::gen::vec(-2i64..=2, 4),
            pi in cfmap_testkit::gen::vec(-2i64..=2, 4),
            mu in 1i64..4,
        ) {
            let t = MappingMatrix::from_rows(&[&s[..], &pi[..]]);
            let j = IndexSet::cube(4, mu);
            let a = ConflictAnalysis::new(&t, &j);
            let truth = oracle::is_conflict_free_by_enumeration(&t, &j);
            match paper_condition(&a, &j) {
                ConditionVerdict::ConflictFree => assert!(truth, "false certificate"),
                ConditionVerdict::HasConflict => assert!(!truth, "false refutation"),
                ConditionVerdict::Unknown => {}
            }
            if let ConditionVerdict::ConflictFree = theorem_4_5_sufficient(&a, &j) {
                assert!(truth, "Thm 4.5 false certificate");
            }
            if let ConditionVerdict::ConflictFree = theorem_4_6_sufficient(&a, &j) {
                assert!(truth, "Thm 4.6 false certificate");
            }
        }

        /// Kernel dimension 3 (the repaired Theorem 4.8): soundness against
        /// the oracle on random 2×5 mappings.
        fn certificates_are_sound_5d(
            s in cfmap_testkit::gen::vec(-2i64..=2, 5),
            pi in cfmap_testkit::gen::vec(-2i64..=2, 5),
            mu in 1i64..3,
        ) {
            let t = MappingMatrix::from_rows(&[&s[..], &pi[..]]);
            let j = IndexSet::cube(5, mu);
            let a = ConflictAnalysis::new(&t, &j);
            let truth = oracle::is_conflict_free_by_enumeration(&t, &j);
            match paper_condition(&a, &j) {
                ConditionVerdict::ConflictFree => assert!(truth, "false certificate (5d)"),
                ConditionVerdict::HasConflict => assert!(!truth, "false refutation (5d)"),
                ConditionVerdict::Unknown => {}
            }
        }

        /// For r = 1 (Theorem 3.1) the condition is exactly
        /// necessary-and-sufficient — verify equivalence with the oracle.
        fn theorem_3_1_is_exact(
            s in cfmap_testkit::gen::vec(-3i64..=3, 3),
            pi in cfmap_testkit::gen::vec(-3i64..=3, 3),
            mu in 1i64..5,
        ) {
            let t = MappingMatrix::from_rows(&[&s[..], &pi[..]]);
            let j = IndexSet::cube(3, mu);
            let a = ConflictAnalysis::new(&t, &j);
            if a.lattice_basis().len() != 1 {
                return; // rank-deficient: Thm 3.1 out of scope
            }
            let truth = oracle::is_conflict_free_by_enumeration(&t, &j);
            match theorem_3_1(&a, &j) {
                ConditionVerdict::ConflictFree => assert!(truth),
                ConditionVerdict::HasConflict => assert!(!truth),
                ConditionVerdict::Unknown => panic!("must decide r = 1"),
            }
        }
    }
}
