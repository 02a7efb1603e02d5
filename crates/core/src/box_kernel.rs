//! The box-kernel table: Theorem 2.2 as a fixed list of linear
//! disequalities once either row block of `T = [S; Π]` is fixed.
//!
//! `T` conflicts iff some nonzero `γ` with `|γ_i| ≤ μ_i` has `Tγ = 0`,
//! that is `Sγ = 0` and `Π·γ = 0`. When one block `F` — the space map
//! `S` of a Procedure 5.1 search, or the schedule row `Π` of a
//! fixed-schedule `ParetoSearch` — and the index box
//! never change, half of that condition is a property of the search,
//! not of the candidate: the set `K = {γ ≠ 0 : Fγ = 0, |γ_i| ≤ μ_i}` is
//! listed once, up to sign and scaling (primitive, first nonzero entry
//! positive). A candidate block `R` with `rank([F; R]) = k` is then
//! conflict-free iff every tabled `γ` has `r·γ ≠ 0` for some row `r` of
//! `R` — once `rank(T) = k`, the table holds exactly
//! `ker_Z(T) ∩ box \ {0}` of every candidate, up to sign and scaling.
//!
//! The rank gate (condition 4) needs only an integer basis `B` of
//! `ker(F)`: `rank([F; R]) = rank(F) + rank(R·B)`, so `rank(T) = k` iff
//! `rank(F) = rows(F)` and `rank(R·B) = rows(R)`.
//!
//! Both gates are dot products against data built once per search,
//! replacing a per-candidate Hermite completion and (for the exact
//! test) an LLL-reduced bignum β-box search.
//!
//! The build walks an odometer over the free coordinates of `F`'s
//! integer reduced row echelon form and solves for the pivot
//! coordinates, so it visits `∏_{j free} (2μ_j + 1)` points. Boxes above
//! [`BUILD_POINTS_MAX`] are not tabulated: [`BoxKernelTable::build`]
//! returns `None` and the search takes the HNF route, the only route for
//! boxes too large to list.

use cfmap_intlin::IMat;

/// Largest number of free-coordinate points the build may visit. Every
/// point is a kernel point (the pivot coordinates are solved, not
/// searched), so each costs a pivot solve and a content check — about
/// 26 ns on a 2-core x86-64 host, keeping the largest build near 0.4 ms.
/// Matmul with `S = [1, 1, −1]`, or with `Π = [1, μ, 1]`, is tabulated
/// up to μ = 63 (`127² = 16,129` points).
pub(crate) const BUILD_POINTS_MAX: u64 = 1 << 14;

/// The per-search box-kernel table of a fixed row block `F` over a fixed
/// index box (see the module docs).
#[derive(Debug)]
pub(crate) struct BoxKernelTable {
    n: usize,
    /// An integer basis of `ker(F)`, row-major, `n` entries per vector —
    /// empty when `rank(F) < rows(F)`, since then `rank(T) < k` for every
    /// candidate and the rank gate must reject them all. Entries are
    /// bounded by `i32::MAX`, so `r·v` in i128 is exact for every i64 row.
    basis: Vec<i64>,
    /// Every primitive `γ` with first nonzero entry positive,
    /// `|γ_i| ≤ μ_i` and `Fγ = 0`, row-major, shortest (L1) first so that
    /// conflicting candidates tend to exit early.
    gammas: Vec<i64>,
}

impl BoxKernelTable {
    /// Tabulate the fixed block `fixed` over the box `|γ_i| ≤ μ_i`. `None`
    /// when the box has more than [`BUILD_POINTS_MAX`] free-coordinate
    /// points, when `F` or its kernel basis does not fit machine
    /// integers, or for a zero-dimensional problem.
    pub(crate) fn build(fixed: &IMat, mu: &[i64]) -> Option<BoxKernelTable> {
        let n = fixed.ncols();
        debug_assert_eq!(n, mu.len(), "fixed block / box dimension mismatch");
        if n == 0 {
            return None;
        }
        let rows: Vec<Vec<i128>> = fixed
            .to_i64_rows()?
            .into_iter()
            .map(|r| r.into_iter().map(i128::from).collect())
            .collect();
        let f_rows = rows.len();
        let (pivots, echelon) = integer_rref(rows, n)?;
        if pivots.len() < f_rows {
            return Some(BoxKernelTable { n, basis: Vec::new(), gammas: Vec::new() });
        }
        let free: Vec<usize> = (0..n).filter(|c| !pivots.contains(c)).collect();
        let points = free.iter().try_fold(1u64, |acc, &j| {
            let side = u64::try_from(mu[j]).ok()?.checked_mul(2)?.checked_add(1)?;
            acc.checked_mul(side)
        })?;
        if points > BUILD_POINTS_MAX {
            return None;
        }
        let basis = kernel_basis(&pivots, &echelon, &free, n)?;
        let gammas = box_kernel_vectors(&pivots, &echelon, &free, mu)?;
        Some(BoxKernelTable { n, basis, gammas })
    }

    /// Condition 4 for one candidate row `Π` under a fixed `S`:
    /// `rank([S; Π]) = rows(S) + 1`.
    pub(crate) fn full_rank(&self, pi: &[i64]) -> bool {
        self.basis.chunks_exact(self.n).any(|v| {
            v.iter().zip(pi).map(|(&a, &b)| i128::from(a) * i128::from(b)).sum::<i128>() != 0
        })
    }

    /// Condition 3 for a candidate that passed [`Self::full_rank`]:
    /// `Π·γ ≠ 0` for every tabled `γ`. Exact in i64 because
    /// `|Π·γ| ≤ Σ|π_i|·μ_i`, the candidate's own objective (and every
    /// partial sum is bounded the same way).
    pub(crate) fn conflict_free(&self, pi: &[i64]) -> bool {
        self.gammas
            .chunks_exact(self.n)
            .all(|g| g.iter().zip(pi).map(|(&a, &b)| a * b).sum::<i64>() != 0)
    }

    /// Condition 4 for a candidate block `R` of any number of rows:
    /// `rank([F; R]) = rows(F) + rows(R)`, decided as
    /// `rank(R·B) = rows(R)`. `None` when the elimination of `R·B`
    /// leaves i128.
    pub(crate) fn full_rank_rows(&self, rows: &[&[i64]]) -> Option<bool> {
        let rb: Vec<Vec<i128>> = rows
            .iter()
            .map(|r| self.basis.chunks_exact(self.n).map(|v| checked_dot(r, v)).collect())
            .collect::<Option<_>>()?;
        let (pivots, _) = integer_rref(rb, self.basis.len() / self.n)?;
        Some(pivots.len() == rows.len())
    }

    /// Condition 3 for a candidate block `R` that passed
    /// [`Self::full_rank_rows`]: every tabled `γ` has `r·γ ≠ 0` for some
    /// row `r` of `R`. `None` when a dot product leaves i128.
    pub(crate) fn conflict_free_rows(&self, rows: &[&[i64]]) -> Option<bool> {
        for g in self.gammas.chunks_exact(self.n) {
            let mut separated = false;
            for r in rows {
                if checked_dot(r, g)? != 0 {
                    separated = true;
                    break;
                }
            }
            if !separated {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Number of tabled conflict directions.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.gammas.len() / self.n
    }
}

/// `a·b` in i128 for any i64 entries: each product is below 2¹²⁶, and
/// the sum is checked.
fn checked_dot(a: &[i64], b: &[i64]) -> Option<i128> {
    a.iter().zip(b).try_fold(0i128, |acc, (&x, &y)| acc.checked_add(i128::from(x) * i128::from(y)))
}

/// Integer reduced row echelon form over checked i128: returns the pivot
/// columns and one row per pivot, where row `r` has a positive entry at
/// `pivots[r]`, zeros in every other pivot column, and content 1. Zero
/// rows are dropped, so `pivots.len()` is the rank. `None` on overflow.
fn integer_rref(mut rows: Vec<Vec<i128>>, n: usize) -> Option<(Vec<usize>, Vec<Vec<i128>>)> {
    let mut pivots = Vec::new();
    for c in 0..n {
        let r = pivots.len();
        let Some(p) = (r..rows.len()).find(|&i| rows[i][c] != 0) else {
            continue;
        };
        rows.swap(r, p);
        if rows[r][c] < 0 {
            for x in rows[r].iter_mut() {
                *x = x.checked_neg()?;
            }
        }
        remove_content(&mut rows[r]);
        let pivot_row = rows[r].clone();
        for (i, row) in rows.iter_mut().enumerate() {
            if i == r || row[c] == 0 {
                continue;
            }
            let g = gcd_i128(pivot_row[c], row[c]);
            let (fr, fi) = (pivot_row[c] / g, row[c] / g);
            for (x, &y) in row.iter_mut().zip(&pivot_row) {
                *x = fr.checked_mul(*x)?.checked_sub(fi.checked_mul(y)?)?;
            }
            remove_content(row);
        }
        pivots.push(c);
    }
    rows.truncate(pivots.len());
    Some((pivots, rows))
}

/// The kernel basis read off the echelon form: one primitive vector per
/// free column `j`, with `v_j > 0` and the pivot coordinates solved for.
/// `None` when an entry exceeds `i32::MAX` (see [`BoxKernelTable::basis`]).
fn kernel_basis(
    pivots: &[usize],
    echelon: &[Vec<i128>],
    free: &[usize],
    n: usize,
) -> Option<Vec<i64>> {
    let mut basis = Vec::with_capacity(free.len() * n);
    for &j in free {
        // v_j = L with L a multiple of every d_r / gcd(d_r, e_rj), so each
        // pivot coordinate −e_rj·L/d_r is an integer.
        let mut l: i128 = 1;
        for (r, &p) in pivots.iter().enumerate() {
            let d = echelon[r][p];
            let need = d / gcd_i128(d, echelon[r][j]);
            l = l.checked_mul(need / gcd_i128(l, need))?;
        }
        let mut v = vec![0i128; n];
        v[j] = l;
        for (r, &p) in pivots.iter().enumerate() {
            v[p] = -(echelon[r][j].checked_mul(l)? / echelon[r][p]);
        }
        remove_content(&mut v);
        for x in v {
            if x.unsigned_abs() > i32::MAX as u128 {
                return None;
            }
            basis.push(x as i64);
        }
    }
    Some(basis)
}

/// One echelon row as the build's odometer uses it: the pivot column,
/// the pivot entry `d_r`, and the entries of the free columns.
struct PivotRow {
    pivot: usize,
    d: i64,
    free_coeffs: Vec<i64>,
}

/// Every primitive, sign-normalized `γ` in the box with `Sγ = 0`, shortest
/// first: an odometer over the free coordinates that keeps each echelon
/// row's numerator `num_r = Σ_{j free} e_rj·γ_j` current as it turns and
/// solves `d_r·γ_{p_r} = −num_r` for the pivot coordinates. `None` when a
/// numerator could leave i64.
fn box_kernel_vectors(
    pivots: &[usize],
    echelon: &[Vec<i128>],
    free: &[usize],
    mu: &[i64],
) -> Option<Vec<i64>> {
    let n = mu.len();
    let rows: Vec<PivotRow> = pivots
        .iter()
        .zip(echelon)
        .map(|(&pivot, row)| {
            let free_coeffs: Vec<i64> =
                free.iter().map(|&j| i64::try_from(row[j]).ok()).collect::<Option<_>>()?;
            // |num_r| ≤ Σ_j |e_rj|·μ_j throughout; the wrap step of the
            // odometer moves it by up to twice one term.
            let bound = free.iter().zip(&free_coeffs).try_fold(0i64, |acc, (&j, &e)| {
                acc.checked_add(e.checked_abs()?.checked_mul(mu[j])?)
            })?;
            bound.checked_mul(2)?;
            Some(PivotRow { pivot, d: i64::try_from(row[pivot]).ok()?, free_coeffs })
        })
        .collect::<Option<_>>()?;
    let mut g = vec![0i64; n];
    for &j in free {
        g[j] = -mu[j];
    }
    let mut num: Vec<i64> = rows
        .iter()
        .map(|r| free.iter().zip(&r.free_coeffs).map(|(&j, &e)| e * g[j]).sum())
        .collect();
    let mut found: Vec<i64> = Vec::new();
    let mut norms: Vec<u64> = Vec::new();
    'points: loop {
        if solve_pivots(&rows, &num, mu, &mut g) && is_canonical(&g) {
            norms.push(g.iter().map(|x| x.unsigned_abs()).sum());
            found.extend_from_slice(&g);
        }
        // Advance the odometer; the first free coordinate turns fastest.
        for (k, &j) in free.iter().enumerate() {
            if g[j] < mu[j] {
                g[j] += 1;
                for (nr, r) in num.iter_mut().zip(&rows) {
                    *nr += r.free_coeffs[k];
                }
                continue 'points;
            }
            for (nr, r) in num.iter_mut().zip(&rows) {
                *nr -= 2 * mu[j] * r.free_coeffs[k];
            }
            g[j] = -mu[j];
        }
        break;
    }
    // Shortest (L1) first; the stable sort keeps odometer order on ties.
    let mut order: Vec<usize> = (0..norms.len()).collect();
    order.sort_by_key(|&i| norms[i]);
    Some(order.iter().flat_map(|&i| &found[i * n..(i + 1) * n]).copied().collect())
}

/// Solve every pivot coordinate of the current odometer point into `g`;
/// `false` when one is not an integer or leaves the box.
fn solve_pivots(rows: &[PivotRow], num: &[i64], mu: &[i64], g: &mut [i64]) -> bool {
    for (r, &nr) in rows.iter().zip(num) {
        let x = if r.d == 1 {
            -nr
        } else if nr % r.d == 0 {
            -nr / r.d
        } else {
            return false;
        };
        if x.abs() > mu[r.pivot] {
            return false;
        }
        g[r.pivot] = x;
    }
    true
}

/// Nonzero, first nonzero entry positive, entries coprime.
fn is_canonical(g: &[i64]) -> bool {
    if g.iter().find(|&&x| x != 0).is_none_or(|&x| x < 0) {
        return false;
    }
    let mut content = 0;
    for &x in g {
        content = cfmap_intlin::gcd::gcd_i64(content, x);
        if content == 1 {
            return true;
        }
    }
    false
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    // Only 2¹²⁷ (every entry 0 or i128::MIN) wraps, to a negative value
    // that `remove_content` ignores; a positive pivot bounds every other
    // gcd taken.
    a as i128
}

/// Divide `v` by the gcd of its entries (no-op for the zero vector).
fn remove_content(v: &mut [i128]) {
    let g = v.iter().fold(0, |acc, &x| gcd_i128(acc, x));
    if g > 1 {
        v.iter_mut().for_each(|x| *x /= g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::ConflictAnalysis;
    use crate::mapping::{MappingMatrix, SpaceMap};
    use crate::pareto::{canonical_rows, ParetoSearch};
    use crate::search::{enumerate_weighted, Procedure51};
    use cfmap_model::{algorithms, LinearSchedule, Uda, UdaBuilder};
    use cfmap_testkit::gen;

    /// Every candidate of every objective level up to `last_level` must
    /// get the HNF route's verdicts: the rank of `ConflictAnalysis`, and
    /// — when the rank gate passes — `is_conflict_free_exact`. Levels are
    /// compared whole; the sweep stops before a level that would take it
    /// past `budget` candidates. Returns the number compared.
    fn check_against_hnf_route(alg: &Uda, space: &SpaceMap, last_level: i64, budget: u64) -> u64 {
        let mu = alg.index_set.mu();
        let n = alg.dim();
        let table = BoxKernelTable::build(space.as_mat(), mu).expect("box within the build cap");
        let mut compared = 0u64;
        for cost in 1..=last_level {
            let mut level = 0u64;
            enumerate_weighted(n, mu, cost, &mut |_| level += 1);
            if compared + level > budget {
                break;
            }
            enumerate_weighted(n, mu, cost, &mut |pi| {
                let t = MappingMatrix::new(space.clone(), LinearSchedule::new(pi));
                let analysis = ConflictAnalysis::new(&t, &alg.index_set);
                let rank_ok = analysis.rank() == t.k();
                assert_eq!(
                    table.full_rank(pi),
                    rank_ok,
                    "{}: rank verdict for Π = {pi:?}",
                    alg.name
                );
                if rank_ok {
                    assert_eq!(
                        table.conflict_free(pi),
                        analysis.is_conflict_free_exact(),
                        "{}: conflict verdict for Π = {pi:?}",
                        alg.name
                    );
                }
            });
            compared += level;
        }
        compared
    }

    /// The optimum objective of the (table-route) search, or `cap` when
    /// none exists within it.
    fn optimum_or(alg: &Uda, space: &SpaceMap, cap: i64) -> i64 {
        let out = Procedure51::new(alg, space).max_objective(cap).solve().expect("search runs");
        out.mapping.map_or(cap, |m| m.objective)
    }

    #[test]
    fn catalogue_verdicts_match_the_hnf_route() {
        let row = |r: &[i64]| SpaceMap::row(r);
        let cases: Vec<(Uda, SpaceMap)> = vec![
            (algorithms::matmul(4), row(&[1, 1, -1])),
            (algorithms::matmul(3), row(&[0, 0, 1])),
            (algorithms::transitive_closure(4), row(&[0, 0, 1])),
            (algorithms::lu_decomposition(3), row(&[0, 0, 1])),
            (algorithms::lu_decomposition(3), row(&[1, 1, 1])),
            (algorithms::sor(4, 4), row(&[0, 1])),
            (algorithms::sor(4, 4), row(&[1, 1])),
            (algorithms::matvec(4, 4), row(&[0, 1])),
            (algorithms::convolution(5, 3), row(&[1, 0])),
            (algorithms::convolution(5, 3), row(&[1, -1])),
            (algorithms::identity_cube(2, 3), row(&[1, 0])),
            (algorithms::identity_cube(3, 2), row(&[1, 0, 0])),
            (algorithms::identity_cube(3, 3), row(&[1, 1, 0])),
            (algorithms::identity_cube(4, 1), row(&[1, 0, 0, 0])),
            (algorithms::identity_cube(4, 2), row(&[1, -1, 0, 1])),
            (algorithms::bitlevel_matmul(2, 1), row(&[1, 1, 0, 0, 0])),
            (
                algorithms::bitlevel_matmul(2, 1),
                SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]),
            ),
            (algorithms::bitlevel_lu(1, 1), row(&[0, 0, 1, 0, 1])),
        ];
        for (alg, space) in &cases {
            let last = optimum_or(alg, space, 40);
            let compared = check_against_hnf_route(alg, space, last, 6_000);
            assert!(compared > 0, "{}: nothing compared", alg.name);
        }
    }

    cfmap_testkit::props! {
        cases = 40;

        /// Generated problems: n ≤ 5, μ ≤ 4 with zero axes, one or two
        /// space rows over {−1, 0, 1} (rank-deficient `S` included).
        fn generated_verdicts_match_the_hnf_route(
            n in 2usize..=5,
            mu in gen::vec(0i64..=4, 5),
            zero_axis in 0usize..=5,
            s in gen::vec(-1i64..=1, 10),
            two_rows in gen::bools(),
        ) {
            let mut mu = mu[..n].to_vec();
            if zero_axis < n {
                mu[zero_axis] = 0;
            }
            let rows: Vec<&[i64]> =
                if two_rows { vec![&s[..n], &s[5..5 + n]] } else { vec![&s[..n]] };
            let space = SpaceMap::from_rows(&rows);
            // Identity dependences keep the instances schedulable when
            // every μ is positive; the verdicts themselves ignore `D`.
            let unit: Vec<Vec<i64>> =
                (0..n).map(|i| (0..n).map(|j| i64::from(i == j)).collect()).collect();
            let deps: Vec<&[i64]> = unit.iter().map(Vec::as_slice).collect();
            let alg = UdaBuilder::new("generated").bounds(&mu).deps(&deps).build();
            let last = optimum_or(&alg, &space, 12);
            check_against_hnf_route(&alg, &space, last, 1_500);
        }
    }

    /// The schedule side: under the fixed `pi`, every row of the
    /// fixed-schedule frontier's pool with entries in `[−bound, bound]` and, up to
    /// `pairs_max` of them spread evenly over the pool, its 2-row pairs
    /// (rank-deficient pairs included) must get the HNF route's
    /// verdicts: `full_rank_rows` is `rank() == k` and, past the rank
    /// gate, `conflict_free_rows` is `is_conflict_free_exact()`. Returns
    /// the number compared.
    fn check_rows_against_hnf_route(alg: &Uda, pi: &[i64], bound: i64, pairs_max: u64) -> u64 {
        let mu = alg.index_set.mu();
        let table = BoxKernelTable::build(&IMat::from_rows(&[pi]), mu).expect("box within the cap");
        let pool = canonical_rows(alg.dim(), bound);
        let mut candidates: Vec<Vec<&[i64]>> = pool.iter().map(|r| vec![r.as_slice()]).collect();
        let pairs = (pool.len() * pool.len().saturating_sub(1) / 2) as u64;
        let stride = pairs.div_ceil(pairs_max.max(1)).max(1);
        let mut index = 0u64;
        for (a, r1) in pool.iter().enumerate() {
            for r2 in &pool[a + 1..] {
                if index.is_multiple_of(stride) {
                    candidates.push(vec![r1.as_slice(), r2.as_slice()]);
                }
                index += 1;
            }
        }
        for rows in &candidates {
            let t = MappingMatrix::new(SpaceMap::from_rows(rows), LinearSchedule::new(pi));
            let analysis = ConflictAnalysis::new(&t, &alg.index_set);
            let rank_ok = analysis.rank() == t.k();
            let ctx = format!("{}: Π = {pi:?}, S = {rows:?}", alg.name);
            assert_eq!(table.full_rank_rows(rows), Some(rank_ok), "rank verdict, {ctx}");
            if rank_ok {
                let exact = analysis.is_conflict_free_exact();
                assert_eq!(table.conflict_free_rows(rows), Some(exact), "conflict verdict, {ctx}");
            }
        }
        candidates.len() as u64
    }

    #[test]
    fn schedule_side_catalogue_verdicts_match_the_hnf_route() {
        let valid = |alg: &Uda| crate::find_valid_schedule(alg).expect("schedulable");
        let mut cases: Vec<(Uda, Vec<i64>)> = vec![
            (algorithms::matmul(4), vec![1, 4, 1]),
            (algorithms::matmul(4), vec![1, 1, -3]), // invalid: Π·e₃ < 0
            (algorithms::matmul(4), vec![0, 0, 0]),  // zero: every rank gate fails
            (algorithms::transitive_closure(4), vec![5, 1, 1]),
            (algorithms::convolution(5, 3), vec![1, 1]),
            (algorithms::identity_cube(4, 2), vec![1, 1, 1, 1]),
        ];
        for alg in [
            algorithms::lu_decomposition(3),
            algorithms::sor(4, 4),
            algorithms::matvec(4, 4),
            algorithms::bitlevel_matmul(2, 1),
        ] {
            let pi = valid(&alg).as_slice().to_vec();
            cases.push((alg, pi));
        }
        for (alg, pi) in &cases {
            let bound = if alg.dim() <= 3 { 2 } else { 1 };
            let compared = check_rows_against_hnf_route(alg, pi, bound, 2_000);
            assert!(compared > 0, "{}: nothing compared", alg.name);
        }
    }

    cfmap_testkit::props! {
        cases = 24;

        /// Generated problems: n ≤ 5, μ ≤ 4 with a zero axis, and a
        /// schedule over {−2, …, 2} — valid, invalid or zero.
        fn schedule_side_generated_verdicts_match_the_hnf_route(
            n in 2usize..=5,
            mu in gen::vec(0i64..=4, 5),
            zero_axis in 0usize..=5,
            pi in gen::vec(-2i64..=2, 5),
        ) {
            let mut mu = mu[..n].to_vec();
            if zero_axis < n {
                mu[zero_axis] = 0;
            }
            let unit: Vec<Vec<i64>> =
                (0..n).map(|i| (0..n).map(|j| i64::from(i == j)).collect()).collect();
            let deps: Vec<&[i64]> = unit.iter().map(Vec::as_slice).collect();
            let alg = UdaBuilder::new("generated").bounds(&mu).deps(&deps).build();
            check_rows_against_hnf_route(&alg, &pi[..n], 1, 300);
        }
    }

    #[test]
    fn space_search_tabulates_its_schedule_up_to_the_build_cap() {
        // Matmul with Π = [1, μ, 1] has two free coordinates: μ = 63
        // needs 127² = 16,129 build points (tabulated), μ = 64 needs 129²
        // (one Hermite form per screened space map instead).
        for (mu, tabulated) in [(63, true), (64, false)] {
            let alg = algorithms::matmul(mu);
            let pi = LinearSchedule::new(&[1, mu, 1]);
            let f = ParetoSearch::new(&alg).fixed_schedule(&pi).solve().unwrap();
            let t = &f.telemetry;
            assert!(f.space_corner().is_some(), "μ = {mu}: {t:?}");
            assert_eq!(t.condition_hits.exact, t.enumerated - t.rejected_rank, "{t:?}");
            if tabulated {
                assert_eq!(t.hnf_computations, 0, "μ = {mu}: {t:?}");
            } else {
                assert_eq!(t.hnf_computations, t.enumerated, "μ = {mu}: {t:?}");
            }
        }
    }

    #[test]
    fn table_lists_the_box_kernel_up_to_sign() {
        // ker [1, 1, −1] ∩ [−1, 1]³: γ₃ = γ₁ + γ₂ with every entry in
        // {−1, 0, 1} — [1,−1,0], [1,0,1], [0,1,1] up to sign.
        let t = BoxKernelTable::build(SpaceMap::row(&[1, 1, -1]).as_mat(), &[1, 1, 1]).unwrap();
        let mut listed: Vec<&[i64]> = t.gammas.chunks_exact(3).collect();
        listed.sort();
        assert_eq!(listed, vec![&[0, 1, 1][..], &[1, -1, 0], &[1, 0, 1]]);
        // Matmul μ = 24 on the same S: 540 directions.
        let t = BoxKernelTable::build(SpaceMap::row(&[1, 1, -1]).as_mat(), &[24; 3]).unwrap();
        assert_eq!(t.len(), 540);
        // A rank-deficient S rejects every candidate at the rank gate.
        let s = SpaceMap::from_rows(&[&[1, 1, 0], &[2, 2, 0]]);
        let t = BoxKernelTable::build(s.as_mat(), &[3, 3, 3]).unwrap();
        assert!(!t.full_rank(&[1, 2, 3]));
        // Π in the row space of S fails it too; Π outside passes.
        let t = BoxKernelTable::build(SpaceMap::row(&[1, 1, -1]).as_mat(), &[4; 3]).unwrap();
        assert!(!t.full_rank(&[2, 2, -2]));
        assert!(t.full_rank(&[1, 4, 1]));
    }

    #[test]
    fn boxes_past_the_build_cap_keep_the_hnf_route() {
        // Matmul on S = [1, 1, −1] has two free coordinates: μ = 63 needs
        // 127² = 16,129 build points (tabulated), μ = 64 needs 129² (not).
        let space = SpaceMap::row(&[1, 1, -1]);
        for (mu, tabulated) in [(63, true), (64, false)] {
            let alg = algorithms::matmul(mu);
            assert_eq!(
                BoxKernelTable::build(space.as_mat(), alg.index_set.mu()).is_some(),
                tabulated,
                "μ = {mu}"
            );
            // Five nonempty levels (|Π|₁ ≤ 5), well short of the optimum.
            let out = Procedure51::new(&alg, &space).max_objective(5 * mu).solve().unwrap();
            let t = &out.telemetry;
            assert!(out.mapping.is_none());
            assert!(t.condition_hits.exact > 0, "μ = {mu}: {t:?}");
            if tabulated {
                assert_eq!(t.hnf_computations, 0, "μ = {mu}: {t:?}");
            } else {
                assert!(t.hnf_computations > 0, "μ = {mu}: {t:?}");
                assert_eq!(t.hnf_computations - t.rejected_rank, t.condition_hits.exact);
            }
        }
    }
}
