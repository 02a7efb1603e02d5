//! Machine-word (`i64`) Hermite normal form kernel.
//!
//! The search hot path of Procedure 5.1 computes one HNF per candidate
//! schedule over matrices whose entries are tiny (|entry| ≤ Σμ). Running
//! the elimination of [`crate::hnf`] on heap-allocated [`Int`]s there is
//! pure overhead, so this module provides:
//!
//! * [`try_hermite_i64`] — the identical extended-gcd column elimination
//!   on flat `i64` buffers (intermediates in `i128`, every store
//!   overflow-checked), reusing a caller-provided [`HnfWorkspace`] so a
//!   screening loop performs no per-candidate allocation beyond the final
//!   [`Hnf`] assembly.
//! * [`hnf_prefix_i64`] / [`HnfPrefix::complete`] — incremental
//!   screening for a stack `[S; π]` whose leading block `S` is fixed
//!   across the whole enumeration (the space rows of `T = [S; Π]` in
//!   Procedure 5.1's HNF route): eliminate `S` once, then per candidate
//!   only transform and reduce the varying last row. Its column
//!   operations touch only columns ≥ rank(S), which are zero in the
//!   eliminated `S` block, so the result is bit-identical to running the
//!   full elimination from scratch.
//!
//! On any overflow every routine returns `None` and the caller falls back
//! to [`crate::hnf::hermite_normal_form_bignum`]; the fallback frequency
//! is tracked by [`crate::stats`].
//!
//! [`Int`]: crate::int::Int

use std::ops::Range;

use crate::hnf::Hnf;
use crate::int::Int;
use crate::mat::IMat;

/// Reusable flat buffers for the `i64` elimination. Create once per
/// thread (or per search) and pass to every call; buffers grow to the
/// largest problem seen and are then recycled.
#[derive(Default)]
pub struct HnfWorkspace {
    h: Vec<i64>,
    u: Vec<i64>,
}

impl HnfWorkspace {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        HnfWorkspace::default()
    }
}

/// Extended gcd in `i128` with exactly the truncated-division update loop
/// of [`Int::extended_gcd`], so both tiers produce identical multipliers.
/// For `i64` inputs no intermediate can overflow `i128`.
fn ext_gcd_i128(a: i128, b: i128) -> (i128, i128, i128) {
    let (mut old_r, mut r) = (a, b);
    let (mut old_s, mut s) = (1i128, 0i128);
    let (mut old_t, mut t) = (0i128, 1i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
        (old_t, t) = (t, old_t - q * t);
    }
    if old_r < 0 {
        (old_r, old_s, old_t) = (-old_r, -old_s, -old_t);
    }
    (old_r, old_s, old_t)
}

fn swap_cols(m: &mut [i64], rows: usize, n: usize, a: usize, b: usize) {
    for r in 0..rows {
        m.swap(r * n + a, r * n + b);
    }
}

fn negate_col(m: &mut [i64], rows: usize, n: usize, c: usize) -> Option<()> {
    for r in 0..rows {
        m[r * n + c] = m[r * n + c].checked_neg()?;
    }
    Some(())
}

/// Coefficients of one extended-gcd column combination (see
/// [`combine_cols`]): Bezout pair `x, y` and the cofactors `bg = b/g`,
/// `ag = a/g`.
#[derive(Clone, Copy)]
struct Combo {
    x: i128,
    y: i128,
    bg: i128,
    ag: i128,
}

/// `[col_i, col_j] ← [x·col_i + y·col_j, −bg·col_i + ag·col_j]`, all
/// products in `i128` and every store checked back into `i64`.
fn combine_cols(m: &mut [i64], rows: usize, n: usize, i: usize, j: usize, co: Combo) -> Option<()> {
    for r in 0..rows {
        let vi = m[r * n + i] as i128;
        let vj = m[r * n + j] as i128;
        let ni = co.x.checked_mul(vi)?.checked_add(co.y.checked_mul(vj)?)?;
        let nj = co.ag.checked_mul(vj)?.checked_sub(co.bg.checked_mul(vi)?)?;
        m[r * n + i] = i64::try_from(ni).ok()?;
        m[r * n + j] = i64::try_from(nj).ok()?;
    }
    Some(())
}

/// The elimination loop of [`crate::hnf::hermite_normal_form_bignum`] on
/// flat buffers: process `rows` of `h` (a `hrows × n` matrix), starting at
/// pivot column `pivot`, mirroring every column operation into `u`
/// (`n × n`). Returns the final pivot count (the rank) or `None` on
/// overflow, in which case the buffers hold garbage and must be discarded.
fn eliminate(
    h: &mut [i64],
    hrows: usize,
    u: &mut [i64],
    n: usize,
    rows: Range<usize>,
    mut pivot: usize,
) -> Option<usize> {
    for row in rows {
        if pivot >= n {
            break;
        }
        let Some(first) = (pivot..n).find(|&c| h[row * n + c] != 0) else {
            continue; // dependent row: no pivot here
        };
        if first != pivot {
            swap_cols(h, hrows, n, pivot, first);
            swap_cols(u, n, n, pivot, first);
        }
        for c in pivot + 1..n {
            if h[row * n + c] == 0 {
                continue;
            }
            let a = h[row * n + pivot];
            let b = h[row * n + c];
            let (g, x, y) = ext_gcd_i128(a as i128, b as i128);
            let co = Combo { x, y, bg: b as i128 / g, ag: a as i128 / g };
            combine_cols(h, hrows, n, pivot, c, co)?;
            combine_cols(u, n, n, pivot, c, co)?;
            debug_assert_eq!(h[row * n + pivot] as i128, g);
            debug_assert_eq!(h[row * n + c], 0);
        }
        if h[row * n + pivot] < 0 {
            negate_col(h, hrows, n, pivot)?;
            negate_col(u, n, n, pivot)?;
        }
        pivot += 1;
    }
    Some(pivot)
}

fn load_i64(t: &IMat, out: &mut Vec<i64>) -> Option<()> {
    out.clear();
    out.reserve(t.nrows() * t.ncols());
    for r in 0..t.nrows() {
        for c in 0..t.ncols() {
            out.push(t.get(r, c).to_i64()?);
        }
    }
    Some(())
}

fn load_identity(n: usize, out: &mut Vec<i64>) {
    out.clear();
    out.resize(n * n, 0);
    for i in 0..n {
        out[i * n + i] = 1;
    }
}

fn build_hnf(h: &[i64], k: usize, u: &[i64], n: usize, rank: usize) -> Hnf {
    let hm = IMat::from_fn(k, n, |i, j| Int::from(h[i * n + j]));
    let um = IMat::from_fn(n, n, |i, j| Int::from(u[i * n + j]));
    Hnf::from_parts(hm, um, rank)
}

/// Attempt the full Hermite normal form entirely in `i64`. Returns `None`
/// when an entry or intermediate does not fit, leaving the workspace ready
/// for reuse. The caller is responsible for the fast/fallback counters.
pub(crate) fn try_hermite_i64(t: &IMat, ws: &mut HnfWorkspace) -> Option<Hnf> {
    let k = t.nrows();
    let n = t.ncols();
    load_i64(t, &mut ws.h)?;
    load_identity(n, &mut ws.u);
    let HnfWorkspace { h, u } = ws;
    let rank = eliminate(h, k, u, n, 0..k, 0)?;
    Some(build_hnf(h, k, u, n, rank))
}

/// The eliminated state of the fixed rows `S` of `T = [S; Π]`, ready to be
/// completed with any number of candidate `Π` rows via
/// [`HnfPrefix::complete`].
pub struct HnfPrefix {
    n: usize,
    k_s: usize,
    rank_s: usize,
    /// `S · U_S`, the eliminated `k_s × n` block (columns ≥ `rank_s` zero).
    h_s: Vec<i64>,
    /// The accumulated `n × n` unimodular multiplier for the `S` rows.
    u_s: Vec<i64>,
}

/// Pre-eliminate the fixed `S` block once. Returns `None` when `S` does
/// not fit the `i64` kernel — the caller then screens candidates with the
/// ordinary full HNF instead.
pub fn hnf_prefix_i64(s: &IMat) -> Option<HnfPrefix> {
    let k_s = s.nrows();
    let n = s.ncols();
    let mut h_s = Vec::new();
    load_i64(s, &mut h_s)?;
    let mut u_s = Vec::new();
    load_identity(n, &mut u_s);
    let rank_s = eliminate(&mut h_s, k_s, &mut u_s, n, 0..k_s, 0)?;
    Some(HnfPrefix { n, k_s, rank_s, h_s, u_s })
}

impl HnfPrefix {
    /// Number of columns of the prefixed matrix.
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Complete the HNF of `[S; pi]` for one candidate row `pi`,
    /// continuing the saved elimination state. Bit-identical to
    /// `hermite_normal_form(&[S; pi])`: the elimination of the first `k_s`
    /// rows never inspects the last row, and the last row's column
    /// operations only touch columns ≥ rank(S), which are zero throughout
    /// the eliminated `S` block.
    ///
    /// Counts a fast-path HNF on success; on overflow returns `None`
    /// (count nothing — the caller's full-HNF retry records its own
    /// outcome).
    pub fn complete(&self, pi: &[i64], ws: &mut HnfWorkspace) -> Option<Hnf> {
        let n = self.n;
        assert_eq!(pi.len(), n, "candidate row dimension mismatch");
        let k = self.k_s + 1;
        ws.h.clear();
        ws.h.extend_from_slice(&self.h_s);
        // The last row after the S eliminations is pi · U_S.
        for c in 0..n {
            let mut acc: i128 = 0;
            for (r, &p) in pi.iter().enumerate() {
                acc = acc.checked_add(p as i128 * self.u_s[r * n + c] as i128)?;
            }
            ws.h.push(i64::try_from(acc).ok()?);
        }
        ws.u.clear();
        ws.u.extend_from_slice(&self.u_s);
        let HnfWorkspace { h, u } = ws;
        let rank = eliminate(h, k, u, n, self.k_s..k, self.rank_s)?;
        let hnf = build_hnf(h, k, u, n, rank);
        crate::stats::note_hnf_i64_fast();
        Some(hnf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnf::{hermite_normal_form, hermite_normal_form_bignum};

    fn mat_from(v: &[i64], k: usize, n: usize) -> IMat {
        IMat::from_fn(k, n, |i, j| Int::from(v[i * n + j]))
    }

    fn assert_same_hnf(a: &Hnf, b: &Hnf) {
        assert_eq!(a.h, b.h, "H differs");
        assert_eq!(a.u, b.u, "U differs");
        assert_eq!(a.rank, b.rank, "rank differs");
        assert_eq!(a.kernel_cols(), b.kernel_cols(), "kernel differs");
    }

    #[test]
    fn i64_kernel_matches_bignum_on_paper_examples() {
        for t in [
            mat_from(&[1, 7, 1, 1, 1, 7, 1, 0], 2, 4),
            mat_from(&[1, 1, -1, 1, 4, 1], 2, 3),
            mat_from(&[6, 10, 15], 1, 3),
        ] {
            let mut ws = HnfWorkspace::new();
            let fast = try_hermite_i64(&t, &mut ws).expect("small entries must stay i64");
            assert_same_hnf(&fast, &hermite_normal_form_bignum(&t));
        }
    }

    #[test]
    fn mid_elimination_overflow_falls_back() {
        // Entries ~2^40: the first extended-gcd combo produces multiplier
        // entries of the same magnitude, and the second column combination
        // must then form products ~2^80 — far outside i64. The i64 kernel
        // must bail out and the public dispatch must still agree with the
        // bignum path.
        let t = mat_from(
            &[(1 << 40) + 1, 1 << 40, 3, 5, (1 << 40) + 3, (1 << 40) - 7],
            2,
            3,
        );
        let mut ws = HnfWorkspace::new();
        assert!(
            try_hermite_i64(&t, &mut ws).is_none(),
            "engineered overflow case unexpectedly fit i64"
        );
        let fallback_before = crate::stats::hnf_i64_fallback_total();
        let via_dispatch = hermite_normal_form(&t);
        assert_same_hnf(&via_dispatch, &hermite_normal_form_bignum(&t));
        assert!(
            crate::stats::hnf_i64_fallback_total() > fallback_before,
            "fallback counter must record the bignum retry"
        );
    }

    #[test]
    fn entries_beyond_i64_fall_back() {
        let huge: Int = "123456789012345678901234567890".parse().unwrap();
        let t = IMat::from_fn(1, 2, |_, j| if j == 0 { huge.clone() } else { Int::from(3) });
        let mut ws = HnfWorkspace::new();
        assert!(try_hermite_i64(&t, &mut ws).is_none());
        // Dispatch still yields a correct HNF via the bignum path.
        let hnf = hermite_normal_form(&t);
        assert_eq!(&(&t * &hnf.u), &hnf.h);
    }

    #[test]
    fn prefix_completion_matches_full_hnf_on_matmul_enumeration() {
        // S = the paper's matmul space row, Π sweeping a few candidates —
        // exactly the [S; Π] shape Procedure 5.1 screens.
        let s = mat_from(&[1, 1, -1], 1, 3);
        let prefix = hnf_prefix_i64(&s).expect("small S must pre-eliminate");
        let mut ws = HnfWorkspace::new();
        for pi in [[1i64, 4, 1], [1, 0, 0], [0, 0, 0], [2, -3, 5], [-1, -1, 1]] {
            let inc = prefix.complete(&pi, &mut ws).expect("small candidate row");
            let t = mat_from(&[1, 1, -1, pi[0], pi[1], pi[2]], 2, 3);
            assert_same_hnf(&inc, &hermite_normal_form_bignum(&t));
        }
    }

    #[test]
    fn prefix_handles_rank_deficient_s() {
        // S itself is rank-deficient (row 2 = 2·row 1).
        let s = mat_from(&[1, 2, 3, 4, 2, 4, 6, 8], 2, 4);
        let prefix = hnf_prefix_i64(&s).unwrap();
        let mut ws = HnfWorkspace::new();
        for pi in [[0i64, 1, 0, 0], [3, 1, 4, 1], [0, 0, 0, 0]] {
            let inc = prefix.complete(&pi, &mut ws).unwrap();
            let t = mat_from(
                &[1, 2, 3, 4, 2, 4, 6, 8, pi[0], pi[1], pi[2], pi[3]],
                3,
                4,
            );
            assert_same_hnf(&inc, &hermite_normal_form_bignum(&t));
        }
    }

    cfmap_testkit::props! {
        cases = 64;

        /// Differential: the i64 kernel and the bignum elimination are
        /// bit-identical wherever the former applies.
        fn i64_kernel_matches_bignum_2x4(v in cfmap_testkit::gen::vec(-9i64..=9, 8)) {
            let t = mat_from(&v, 2, 4);
            let mut ws = HnfWorkspace::new();
            let fast = try_hermite_i64(&t, &mut ws).expect("single-digit entries fit i64");
            assert_same_hnf(&fast, &hermite_normal_form_bignum(&t));
        }

        fn i64_kernel_matches_bignum_3x5(v in cfmap_testkit::gen::vec(-9i64..=9, 15)) {
            let t = mat_from(&v, 3, 5);
            let mut ws = HnfWorkspace::new();
            let fast = try_hermite_i64(&t, &mut ws).expect("single-digit entries fit i64");
            assert_same_hnf(&fast, &hermite_normal_form_bignum(&t));
        }

        /// Differential: S-prefix incremental completion equals the full
        /// HNF of the stacked matrix for every candidate last row.
        fn prefix_matches_full_2x4(
            s_v in cfmap_testkit::gen::vec(-9i64..=9, 4),
            pi in cfmap_testkit::gen::vec(-9i64..=9, 4),
        ) {
            let s = mat_from(&s_v, 1, 4);
            let prefix = hnf_prefix_i64(&s).unwrap();
            let mut ws = HnfWorkspace::new();
            let inc = prefix.complete(&pi, &mut ws).expect("small rows fit i64");
            let mut t_v = s_v.clone();
            t_v.extend_from_slice(&pi);
            let t = mat_from(&t_v, 2, 4);
            assert_same_hnf(&inc, &hermite_normal_form_bignum(&t));
        }

        fn prefix_matches_full_3x5(
            s_v in cfmap_testkit::gen::vec(-9i64..=9, 10),
            pi in cfmap_testkit::gen::vec(-9i64..=9, 5),
        ) {
            let s = mat_from(&s_v, 2, 5);
            let prefix = hnf_prefix_i64(&s).unwrap();
            let mut ws = HnfWorkspace::new();
            let inc = prefix.complete(&pi, &mut ws).expect("small rows fit i64");
            let mut t_v = s_v.clone();
            t_v.extend_from_slice(&pi);
            let t = mat_from(&t_v, 3, 5);
            assert_same_hnf(&inc, &hermite_normal_form_bignum(&t));
        }

        /// Overflow honesty: matrices with huge entries either fit (and
        /// agree) or return None — never a wrong answer.
        fn i64_kernel_never_wrong_on_big_entries(
            v in cfmap_testkit::gen::vec(-(1i64 << 45)..=(1i64 << 45), 6),
        ) {
            let t = mat_from(&v, 2, 3);
            let mut ws = HnfWorkspace::new();
            if let Some(fast) = try_hermite_i64(&t, &mut ws) {
                assert_same_hnf(&fast, &hermite_normal_form_bignum(&t));
            }
        }
    }
}
