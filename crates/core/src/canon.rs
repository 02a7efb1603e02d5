//! Canonical forms of mapping problems.
//!
//! A mapping request is a pure function of the problem `(J, D, S)` (plus
//! solver knobs), but many syntactically different requests describe the
//! *same* problem:
//!
//! * **axis permutation** — relabeling loop indices permutes the entries
//!   of `μ`, the rows of `D` and the columns of `S` simultaneously;
//! * **dependence column order** — the columns of `D` are a set;
//! * **space row scaling / negation / order** — scaling a row of `S` by a
//!   nonzero integer, negating it, or reordering rows changes neither
//!   `ker [S; Π]` nor `rank [S; Π]`, so the conflict structure and the
//!   time-optimal schedule search are untouched (the physical array is a
//!   relabeled/mirrored version of the same design).
//!
//! [`canonicalize`] maps every member of such an equivalence class to one
//! [`CanonicalProblem`] — a plain `Hash`/`Eq` value usable as a design
//! cache key — together with the axis permutation needed to translate a
//! canonical-coordinates schedule back into the caller's coordinates.
//!
//! Note the row normalization above is sound for *schedule* search
//! (Problem 2.2). It deliberately ignores routing costs: wire lengths and
//! interconnection primitives are **not** part of the canonical form, so
//! requests that constrain routing must not be answered from this key.

use crate::mapping::SpaceMap;
use cfmap_intlin::gcd::gcd_i64;
use cfmap_model::{DependenceMatrix, IndexSet, Uda};

/// A mapping problem in canonical coordinates. Derives `Hash`/`Eq`, so it
/// can key a design cache directly.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalProblem {
    /// Index-set bounds `μ`, ascending (ties broken by minimizing the
    /// encoded `(deps, space)` pair over the tie group's permutations).
    pub mu: Vec<i64>,
    /// Dependence columns, lexicographically sorted.
    pub deps: Vec<Vec<i64>>,
    /// Space-map rows: gcd-reduced, sign-normalized (first nonzero entry
    /// positive), lexicographically sorted.
    pub space: Vec<Vec<i64>>,
}

impl CanonicalProblem {
    /// Rebuild the canonical algorithm `(J, D)` (for running a search in
    /// canonical coordinates).
    pub fn uda(&self, name: impl Into<String>) -> Uda {
        let refs: Vec<&[i64]> = self.deps.iter().map(Vec::as_slice).collect();
        Uda::new(name, IndexSet::new(&self.mu), DependenceMatrix::from_columns(&refs))
    }

    /// Rebuild the canonical space map.
    pub fn space_map(&self) -> SpaceMap {
        let refs: Vec<&[i64]> = self.space.iter().map(Vec::as_slice).collect();
        SpaceMap::from_rows(&refs)
    }
}

/// The result of [`canonicalize`]: the canonical problem plus the axis
/// permutation connecting it to the original coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Canonicalization {
    /// The canonical problem (the cache key).
    pub problem: CanonicalProblem,
    /// `perm[c]` is the *original* axis that canonical axis `c` renames.
    pub perm: Vec<usize>,
}

impl Canonicalization {
    /// Translate a schedule found in canonical coordinates back to the
    /// original axis order: `π_original[perm[c]] = π_canonical[c]`.
    pub fn schedule_to_original(&self, pi_canonical: &[i64]) -> Vec<i64> {
        assert_eq!(pi_canonical.len(), self.perm.len(), "schedule dimension mismatch");
        let mut out = vec![0i64; pi_canonical.len()];
        for (c, &orig) in self.perm.iter().enumerate() {
            out[orig] = pi_canonical[c];
        }
        out
    }
}

/// Above this many candidate permutations the tie groups are left in
/// their stable-sorted order instead of being searched exhaustively —
/// still deterministic, but permuted variants of a problem with ≥ 7
/// equal-`μ` axes may then miss each other in the cache (never answering
/// incorrectly, only re-searching).
const MAX_TIE_PERMUTATIONS: usize = 5040;

/// Canonicalize a mapping problem. Panics if `alg` and `space` disagree
/// on the dimension `n` (callers validate shapes first).
pub fn canonicalize(alg: &Uda, space: &SpaceMap) -> Canonicalization {
    assert_eq!(alg.dim(), space.dim(), "algorithm / space map dimension mismatch");
    let n = alg.dim();
    let mu = alg.index_set.mu();

    // Axes sorted by μ (stable), partitioned into equal-μ tie groups.
    let mut base: Vec<usize> = (0..n).collect();
    base.sort_by_key(|&i| mu[i]);
    let mut groups: Vec<(usize, usize)> = Vec::new(); // [start, end) in `base`
    let mut start = 0;
    for i in 1..=n {
        if i == n || mu[base[i]] != mu[base[start]] {
            groups.push((start, i));
            start = i;
        }
    }
    // Saturating throughout: a single group of ≥ 21 axes already
    // overflows `usize` factorially, and a wrapped count could slip
    // under MAX_TIE_PERMUTATIONS and ask for 10²⁰ permutations.
    let tie_count: usize = groups
        .iter()
        .try_fold(1usize, |acc, &(s, e)| {
            let fact = (2..=(e - s)).try_fold(1usize, usize::checked_mul)?;
            acc.checked_mul(fact)
        })
        .unwrap_or(usize::MAX);

    let candidates: Vec<Vec<usize>> = if tie_count > MAX_TIE_PERMUTATIONS {
        vec![base.clone()]
    } else {
        let mut out = vec![Vec::with_capacity(n)];
        for &(s, e) in &groups {
            let group_perms = permutations_of(&base[s..e]);
            out = out
                .into_iter()
                .flat_map(|prefix| {
                    group_perms.iter().map(move |g| {
                        let mut p = prefix.clone();
                        p.extend_from_slice(g);
                        p
                    })
                })
                .collect();
        }
        out
    };

    let mut best: Option<Canonicalization> = None;
    for perm in candidates {
        let cand = encode(alg, space, &perm);
        if best.as_ref().is_none_or(|b| cand.problem < b.problem) {
            best = Some(cand);
        }
    }
    best.expect("at least one candidate permutation")
}

/// Encode the problem under one axis permutation.
fn encode(alg: &Uda, space: &SpaceMap, perm: &[usize]) -> Canonicalization {
    let mu: Vec<i64> = perm.iter().map(|&p| alg.index_set.mu_i(p)).collect();

    let mut deps: Vec<Vec<i64>> = (0..alg.num_deps())
        .map(|i| {
            let col = alg.deps.dep_i64(i);
            perm.iter().map(|&p| col[p]).collect()
        })
        .collect();
    deps.sort();

    let mut rows: Vec<Vec<i64>> = (0..space.array_dims())
        .map(|r| {
            let row = space.as_mat().row(r).to_i64s().expect("space entries fit i64");
            let permuted: Vec<i64> = perm.iter().map(|&p| row[p]).collect();
            normalize_row(permuted)
        })
        .collect();
    rows.sort();

    Canonicalization {
        problem: CanonicalProblem { mu, deps, space: rows },
        perm: perm.to_vec(),
    }
}

/// Divide a row by the gcd of its entries and make the first nonzero
/// entry positive. Kernel- and rank-preserving for `T = [S; Π]`.
///
/// A row containing `i64::MIN` cannot be negated (and `gcd_i64` may
/// return a negative "gcd" for it); such a row is left as-is — still
/// deterministic, merely a weaker canonical form. The service layer
/// bounds wire-input magnitudes well below that.
fn normalize_row(mut row: Vec<i64>) -> Vec<i64> {
    let g = row.iter().fold(0i64, |acc, &v| gcd_i64(acc, v));
    if g > 1 {
        for v in &mut row {
            *v /= g;
        }
    }
    if row.iter().find(|&&v| v != 0).is_some_and(|&first| first < 0)
        && row.iter().all(|v| v.checked_neg().is_some())
    {
        for v in &mut row {
            *v = -*v;
        }
    }
    row
}

/// A digest of the canonicalization's observable *behavior*, not its
/// source: canonicalize a fixed probe set spanning the interesting cases
/// (tie groups, permuted axes, scaled/negated space rows, a 4-D
/// bit-level problem) and hash the resulting canonical keys with FNV-1a.
/// Any change to the canonical form — sort orders, row normalization,
/// tie-breaking — moves this value, which is exactly when persisted
/// cache snapshots keyed under the old form must be refused.
pub fn canon_fingerprint() -> u64 {
    use cfmap_model::algorithms;
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x00000100000001b3;
    let mut h = FNV_OFFSET;
    let mut eat = |v: i64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let probes: Vec<(Uda, Vec<Vec<i64>>)> = vec![
        (algorithms::matmul(3), vec![vec![1, 1, -1]]),
        // The same problem permuted and with the space row scaled and
        // negated — must collapse onto the matmul key above.
        (algorithms::matmul(3).permuted_axes(&[2, 0, 1]), vec![vec![2, -2, -2]]),
        (algorithms::transitive_closure(3), vec![vec![0, 0, 1]]),
        (algorithms::bitlevel_convolution(2, 3), vec![vec![1, 0, 0, 0], vec![0, 1, 0, 0]]),
    ];
    for (alg, rows) in &probes {
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let canon = canonicalize(alg, &SpaceMap::from_rows(&refs));
        let p = &canon.problem;
        eat(p.mu.len() as i64);
        p.mu.iter().for_each(|&v| eat(v));
        eat(p.deps.len() as i64);
        p.deps.iter().flatten().for_each(|&v| eat(v));
        eat(p.space.len() as i64);
        p.space.iter().flatten().for_each(|&v| eat(v));
        eat(canon.perm.len() as i64);
        canon.perm.iter().for_each(|&v| eat(v as i64));
    }
    h
}

/// One signed axis symmetry `g = (σ, ε)`: the monomial matrix `G` whose
/// column `j` is `ε_j · e_{σ(j)}`. Acting on a schedule row on the right,
/// `(Π G)[j] = ε_j · Π[σ(j)]`; acting on an index/dependence column on
/// the left, `(G v)[σ(j)] = ε_j · v[j]`.
///
/// When `g` stabilizes the problem (see [`stabilizer`]), `Π G` is
/// accepted by Procedure 5.1 at the same objective exactly when `Π` is:
/// validity, rank, conflict-freedom and the objective are all invariant
/// because `G` maps the index set, the dependence columns and the space
/// row span onto themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedPerm {
    /// `perm[j] = σ(j)`: schedule position `j` reads original axis `σ(j)`.
    pub perm: Vec<usize>,
    /// `signs[j] = ε_j ∈ {+1, −1}`.
    pub signs: Vec<i64>,
}

impl SignedPerm {
    /// Apply the symmetry to a schedule row: `out[j] = ε_j · π[σ(j)]`.
    ///
    /// Multiplication saturates, so degenerate `i64::MIN` entries cannot
    /// wrap; [`stabilizer`] refuses to build sign-flipping elements for
    /// problems containing such entries, and enumeration candidates are
    /// objective-bounded, so in-range inputs are exact.
    pub fn apply(&self, pi: &[i64]) -> Vec<i64> {
        assert_eq!(pi.len(), self.perm.len(), "schedule dimension mismatch");
        self.perm.iter().zip(&self.signs).map(|(&p, &s)| pi[p].saturating_mul(s)).collect()
    }

    /// True for the identity element.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(j, &p)| p == j) && self.signs.iter().all(|&s| s == 1)
    }
}

/// Combined cap on `(permutation, sign-pattern)` candidates examined by
/// [`stabilizer`]. When sign patterns would push past it, only the
/// all-positive pattern is tried (sound: the stabilizer shrinks, the
/// quotient gets coarser, correctness is untouched).
const MAX_STABILIZER_CANDIDATES: usize = 100_000;

/// The stabilizer subgroup of a problem `(J, D, S)`: every signed axis
/// permutation fixing the index-set extents, the dependence-column
/// multiset, and the space-map row span. The schedule search quotients
/// its candidate space by this group, screening only the lexicographically
/// greatest member of each orbit (see `Procedure51::symmetry`).
///
/// The identity is never stored; [`Stabilizer::order`] counts it.
#[derive(Clone, Debug)]
pub struct Stabilizer {
    n: usize,
    elements: Vec<SignedPerm>,
}

impl Stabilizer {
    /// The trivial group (identity only) on `n` axes.
    pub fn trivial(n: usize) -> Stabilizer {
        Stabilizer { n, elements: Vec::new() }
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Group order, counting the identity.
    pub fn order(&self) -> usize {
        self.elements.len() + 1
    }

    /// True when only the identity fixes the problem — the quotient
    /// degenerates to full enumeration.
    pub fn is_trivial(&self) -> bool {
        self.elements.is_empty()
    }

    /// The non-identity elements.
    pub fn elements(&self) -> &[SignedPerm] {
        &self.elements
    }

    /// True when `pi` is its orbit's representative: no element maps it
    /// to a lexicographically greater row. Every orbit has exactly one
    /// representative under this rule, and the lex-greatest *accepted*
    /// candidate of a level is always its own orbit's representative —
    /// which is what makes quotiented `TieBreak::LexMax` search
    /// bit-identical to full enumeration.
    pub fn is_representative(&self, pi: &[i64]) -> bool {
        debug_assert_eq!(pi.len(), self.n);
        'outer: for g in &self.elements {
            for j in 0..self.n {
                let v = pi[g.perm[j]].saturating_mul(g.signs[j]);
                if v > pi[j] {
                    return false;
                }
                if v < pi[j] {
                    continue 'outer;
                }
            }
            // g fixes pi: the image is pi itself, not lex-greater.
        }
        true
    }

    /// The full orbit of `pi` (deduplicated, `pi` included, sorted
    /// descending so the representative is first). Used by the
    /// orbit-expansion check proving skipped candidates are dominated.
    pub fn orbit(&self, pi: &[i64]) -> Vec<Vec<i64>> {
        let mut out: Vec<Vec<i64>> = Vec::with_capacity(self.order());
        out.push(pi.to_vec());
        for g in &self.elements {
            out.push(g.apply(pi));
        }
        out.sort_by(|a, b| b.cmp(a));
        out.dedup();
        out
    }

    /// Detect the *class-product* shape: the group is exactly the full
    /// symmetric group acting independently on each class of
    /// interchangeable axes, with no sign flips. Returns, for each axis,
    /// the previous axis of the same class (`None` for class leaders).
    ///
    /// In this shape the orbit representatives are exactly the schedules
    /// whose values are non-increasing along each class, so the
    /// enumerator can prune whole subtrees instead of filtering
    /// candidates one by one.
    pub fn symmetric_classes(&self) -> Option<Vec<Option<usize>>> {
        if self.is_trivial() {
            return None;
        }
        if self.elements.iter().any(|g| g.signs.iter().any(|&s| s != 1)) {
            return None;
        }
        // Union axes connected by any element; each element permutes
        // within these classes by construction of the closure.
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for g in &self.elements {
            for j in 0..self.n {
                let (a, b) = (find(&mut parent, j), find(&mut parent, g.perm[j]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut class_size = vec![0usize; self.n];
        for i in 0..self.n {
            let r = find(&mut parent, i);
            class_size[r] += 1;
        }
        // Full product check: |G| must equal the product of class-size
        // factorials. A proper subgroup (e.g. only a cyclic rotation of
        // three axes) has smaller order and must fall back to the
        // generic representative filter.
        let expected = class_size
            .iter()
            .filter(|&&s| s > 0)
            .try_fold(1usize, |acc, &s| {
                let fact = (2..=s).try_fold(1usize, usize::checked_mul)?;
                acc.checked_mul(fact)
            });
        if expected != Some(self.order()) {
            return None;
        }
        let mut last_seen: Vec<Option<usize>> = vec![None; self.n];
        let mut prev = vec![None; self.n];
        for (i, slot) in prev.iter_mut().enumerate() {
            let r = find(&mut parent, i);
            *slot = last_seen[r];
            last_seen[r] = Some(i);
        }
        Some(prev)
    }
}

/// Compute the stabilizer subgroup of `(J, D, S)`: all signed axis
/// permutations `g` with `μ ∘ σ = μ`, `G·D = D` as a column multiset, and
/// `S·G` row-equivalent to `S` (equal normalized-row multisets, hence
/// equal kernel). Deterministic; conservative under resource caps — when
/// the candidate space is too large the result degrades toward (or to)
/// the trivial group, never an unsound one.
pub fn stabilizer(alg: &Uda, space: &SpaceMap) -> Stabilizer {
    assert_eq!(alg.dim(), space.dim(), "algorithm / space map dimension mismatch");
    let space_rows: Vec<Vec<i64>> = (0..space.array_dims())
        .map(|r| space.as_mat().row(r).to_i64s().expect("space entries fit i64"))
        .collect();
    stabilizer_of_rows(alg, space_rows)
}

/// The stabilizer of the bare problem `(J, D)` with **no** space map
/// pinned: all signed axis permutations with `μ ∘ σ = μ` and `G·D = D` as
/// a column multiset. This is the symmetry group the joint-scope Pareto
/// frontier (Problem 6.2) quotients by — there `S` itself is the search variable,
/// so orbits act on candidate space rows: every element maps a candidate
/// onto one of identical VLSI cost whose inner schedule search has the
/// identical optimum.
pub fn problem_stabilizer(alg: &Uda) -> Stabilizer {
    stabilizer_of_rows(alg, Vec::new())
}

fn stabilizer_of_rows(alg: &Uda, space_rows: Vec<Vec<i64>>) -> Stabilizer {
    let n = alg.dim();
    let mu = alg.index_set.mu();

    let dep_cols: Vec<Vec<i64>> = (0..alg.num_deps()).map(|i| alg.deps.dep_i64(i)).collect();
    // i64::MIN cannot be negated; such degenerate problems get the
    // trivial stabilizer rather than overflow-prone sign arithmetic.
    if dep_cols.iter().chain(&space_rows).flatten().any(|&v| v == i64::MIN) {
        return Stabilizer::trivial(n);
    }
    let mut deps_sorted = dep_cols.clone();
    deps_sorted.sort();
    let mut rows_sorted: Vec<Vec<i64>> =
        space_rows.iter().map(|r| normalize_row(r.clone())).collect();
    rows_sorted.sort();

    // Candidate permutations: products of permutations within equal-μ
    // axis groups (any other permutation already breaks μ invariance).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| mu[i]);
    for &axis in &order {
        match groups.last_mut() {
            Some(g) if mu[g[0]] == mu[axis] => g.push(axis),
            _ => groups.push(vec![axis]),
        }
    }
    let tie_count: usize = groups
        .iter()
        .try_fold(1usize, |acc, g| {
            let fact = (2..=g.len()).try_fold(1usize, usize::checked_mul)?;
            acc.checked_mul(fact)
        })
        .unwrap_or(usize::MAX);
    if tie_count > MAX_TIE_PERMUTATIONS {
        return Stabilizer::trivial(n);
    }
    let mut perms: Vec<Vec<usize>> = vec![vec![usize::MAX; n]];
    for g in &groups {
        let group_perms = permutations_of(g);
        perms = perms
            .into_iter()
            .flat_map(|partial| {
                group_perms.iter().map(move |assignment| {
                    let mut p = partial.clone();
                    // Positions of this group (ascending) receive the
                    // assigned ordering of its members.
                    for (slot, &axis) in g.iter().zip(assignment) {
                        p[*slot] = axis;
                    }
                    p
                })
            })
            .collect();
    }

    let sign_masks: u32 = if n <= 16 && tie_count.saturating_mul(1usize << n) <= MAX_STABILIZER_CANDIDATES
    {
        1u32 << n
    } else {
        1 // all-positive only
    };

    let mut elements = Vec::new();
    let mut signs = vec![1i64; n];
    for perm in &perms {
        for mask in 0..sign_masks {
            for (j, s) in signs.iter_mut().enumerate() {
                *s = if mask >> j & 1 == 1 { -1 } else { 1 };
            }
            let identity =
                mask == 0 && perm.iter().enumerate().all(|(j, &p)| p == j);
            if identity {
                continue;
            }
            if fixes_problem(perm, &signs, &dep_cols, &deps_sorted, &space_rows, &rows_sorted) {
                elements.push(SignedPerm { perm: perm.clone(), signs: signs.clone() });
            }
        }
    }
    Stabilizer { n, elements }
}

/// Invariance check for one candidate element `(σ, ε)`: `G·D` must equal
/// `D` as a column multiset and the normalized rows of `S·G` must equal
/// those of `S`. (μ invariance holds by construction of the candidates.)
fn fixes_problem(
    perm: &[usize],
    signs: &[i64],
    dep_cols: &[Vec<i64>],
    deps_sorted: &[Vec<i64>],
    space_rows: &[Vec<i64>],
    rows_sorted: &[Vec<i64>],
) -> bool {
    let n = perm.len();
    let mut mapped_deps: Vec<Vec<i64>> = dep_cols
        .iter()
        .map(|d| {
            let mut out = vec![0i64; n];
            for j in 0..n {
                // (G d)[σ(j)] = ε_j · d[j]
                out[perm[j]] = signs[j] * d[j];
            }
            out
        })
        .collect();
    mapped_deps.sort();
    if mapped_deps != deps_sorted {
        return false;
    }
    let mut mapped_rows: Vec<Vec<i64>> = space_rows
        .iter()
        .map(|s| {
            // (s G)[j] = ε_j · s[σ(j)]
            let row: Vec<i64> = (0..n).map(|j| signs[j] * s[perm[j]]).collect();
            normalize_row(row)
        })
        .collect();
    mapped_rows.sort();
    mapped_rows == rows_sorted
}

/// All orderings of `items` (lexicographic over positions).
fn permutations_of(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest: Vec<usize> = items.to_vec();
        rest.remove(i);
        for mut tail in permutations_of(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmap_model::algorithms;

    fn key(alg: &Uda, space: &SpaceMap) -> CanonicalProblem {
        canonicalize(alg, space).problem
    }

    #[test]
    fn identity_is_fixed_point() {
        let alg = algorithms::matmul(4);
        let s = SpaceMap::row(&[1, 1, -1]);
        let a = key(&alg, &s);
        let b = key(&alg, &s);
        assert_eq!(a, b);
    }

    #[test]
    fn axis_permutation_is_invisible() {
        let alg = algorithms::matmul(4);
        let s = SpaceMap::row(&[1, 1, -1]);
        let reference = key(&alg, &s);
        for perm in permutations_of(&[0, 1, 2]) {
            let alg_p = alg.permuted_axes(&perm);
            let s_row: Vec<i64> = perm.iter().map(|&p| [1i64, 1, -1][p]).collect();
            let s_p = SpaceMap::row(&s_row);
            assert_eq!(key(&alg_p, &s_p), reference, "perm {perm:?}");
        }
    }

    #[test]
    fn dependence_column_order_is_invisible() {
        let alg = algorithms::transitive_closure(4);
        let s = SpaceMap::row(&[0, 0, 1]);
        let reference = key(&alg, &s);
        let reversed: Vec<Vec<i64>> =
            alg.deps.columns_i64().into_iter().rev().collect();
        let refs: Vec<&[i64]> = reversed.iter().map(Vec::as_slice).collect();
        let alg_r = Uda::new(
            alg.name.clone(),
            alg.index_set.clone(),
            DependenceMatrix::from_columns(&refs),
        );
        assert_eq!(key(&alg_r, &s), reference);
    }

    #[test]
    fn space_row_scaling_and_negation_are_invisible() {
        let alg = algorithms::matmul(4);
        let a = key(&alg, &SpaceMap::row(&[1, 1, -1]));
        let b = key(&alg, &SpaceMap::row(&[3, 3, -3]));
        let c = key(&alg, &SpaceMap::row(&[-1, -1, 1]));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn different_problems_get_different_keys() {
        let m4 = algorithms::matmul(4);
        let m5 = algorithms::matmul(5);
        let s = SpaceMap::row(&[1, 1, -1]);
        assert_ne!(key(&m4, &s), key(&m5, &s));
        assert_ne!(
            key(&m4, &SpaceMap::row(&[1, 1, -1])),
            key(&m4, &SpaceMap::row(&[0, 0, 1]))
        );
    }

    #[test]
    fn schedule_round_trips_through_the_permutation() {
        let alg = algorithms::matmul(4);
        // Permute axes with σ = [2, 0, 1] and canonicalize the variant.
        let perm = vec![2usize, 0, 1];
        let alg_p = alg.permuted_axes(&perm);
        let s_p = SpaceMap::row(&[-1, 1, 1]);
        let canon = canonicalize(&alg_p, &s_p);
        // A schedule in canonical coordinates translates back so that
        // Π_original · j equals Π_canonical · j_canonical for all j.
        let pi_c = vec![1i64, 4, 9];
        let pi_o = canon.schedule_to_original(&pi_c);
        let j_orig = vec![2i64, 3, 5];
        let t_orig: i64 = pi_o.iter().zip(&j_orig).map(|(p, j)| p * j).sum();
        let j_canon: Vec<i64> = canon.perm.iter().map(|&p| j_orig[p]).collect();
        let t_canon: i64 = pi_c.iter().zip(&j_canon).map(|(p, j)| p * j).sum();
        assert_eq!(t_orig, t_canon);
    }

    #[test]
    fn huge_tie_groups_saturate_instead_of_overflowing() {
        // 25 equal-μ axes: 25! overflows usize. The tie count must
        // saturate (falling back to the stable-sorted order), not wrap —
        // a wrapped count once slipped under MAX_TIE_PERMUTATIONS and
        // asked for the full factorial expansion.
        let n = 25;
        let mu = vec![3i64; n];
        let mut col = vec![0i64; n];
        col[0] = 1;
        let alg = Uda::new(
            "wide",
            IndexSet::new(&mu),
            DependenceMatrix::from_columns(&[&col]),
        );
        let mut row = vec![0i64; n];
        row[n - 1] = 1;
        let s = SpaceMap::from_rows(&[&row]);
        let canon = canonicalize(&alg, &s);
        assert_eq!(canon.perm.len(), n);
        assert_eq!(canon.problem.mu, mu);
    }

    #[test]
    fn i64_min_space_entry_does_not_overflow() {
        // i64::MIN has no i64 negation; normalize_row must skip the sign
        // flip rather than panic (debug) or wrap (release).
        let alg = Uda::new(
            "minrow",
            IndexSet::new(&[4, 4]),
            DependenceMatrix::from_columns(&[&[1i64, 0]]),
        );
        let s = SpaceMap::from_rows(&[&[i64::MIN, 1]]);
        let a = canonicalize(&alg, &s);
        let b = canonicalize(&alg, &s);
        assert_eq!(a, b, "degenerate rows must still canonicalize deterministically");
    }

    #[test]
    fn canonical_rebuild_matches_key() {
        // uda()/space_map() rebuild a problem whose own canonical key is
        // the key itself (canonicalization is idempotent).
        let alg = algorithms::transitive_closure(3);
        let s = SpaceMap::row(&[0, 0, 2]);
        let k = key(&alg, &s);
        let rebuilt = key(&k.uda("canon"), &k.space_map());
        assert_eq!(k, rebuilt);
    }
}
