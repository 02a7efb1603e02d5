//! Differential test of `peak_link_load` against its route-based
//! reference: route every dependence with `route` over the mesh
//! primitives, map every producer with `MappingMatrix::apply`, and count
//! `(PE, axis, sign, cycle)` hop events in a map keyed by position. The
//! kernel routes in closed form and counts in one flat buffer; it must
//! return the same peak, or the same `None`, on every case. The closed
//! form itself — hops `‖S·d̄‖₁`, buffers `Π·d̄ − ‖S·d̄‖₁`, routable iff
//! no buffer count is negative — is checked against `route`.

use cfmap_core::mapping::{route, InterconnectionPrimitives};
use cfmap_core::{find_valid_schedule, MappingMatrix, SpaceMap};
use cfmap_model::{algorithms, LinearSchedule, Point, Uda, UdaBuilder};
use cfmap_systolic::peak_link_load;
use cfmap_testkit::{gen, tk_assume};
use std::collections::HashMap;

/// The route-based body `peak_link_load` had before the closed form:
/// one routing ILP per dependence, one map entry per distinct hop event.
fn reference(alg: &Uda, mapping: &MappingMatrix) -> Option<u64> {
    let prims = InterconnectionPrimitives::mesh(mapping.k() - 1);
    let routing = route(mapping, &alg.deps, &prims).ok()?;
    let deps = &alg.deps;
    let prim_dims = mapping.k() - 1;
    let sd_mat = mapping.space().as_mat() * deps.as_mat();

    // Load per (link source, axis, sign, cycle), all channels together.
    let mut load: HashMap<(Vec<i64>, usize, i64, i64), u64> = HashMap::new();
    for i in 0..deps.num_deps() {
        let d = deps.dep_i64(i);
        let hops = routing.hops[i].to_i64()?;
        let buffers = routing.buffers[i].to_i64()?;
        if hops == 0 {
            continue; // stationary datum: no link traffic
        }
        let sd: Vec<i64> = sd_mat.col(i).to_i64s()?;
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
        for j in alg.index_set.iter() {
            let producer: Point = j.iter().zip(&d).map(|(&ji, &di)| ji - di).collect();
            if !alg.index_set.contains(&producer) {
                continue;
            }
            let (src, t_prod) = mapping.apply(&producer);
            let depart = t_prod + buffers;
            let mut pos = src.clone();
            for (h, &(dim, sgn)) in steps.iter().enumerate() {
                let slot = depart + h as i64;
                *load.entry((pos.clone(), dim, sgn, slot)).or_insert(0) += 1;
                pos[dim] += sgn;
            }
        }
    }
    Some(load.values().copied().max().unwrap_or(0))
}

fn dot(a: &[i64], b: &[i64]) -> i64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The kernel equals the reference on `mapping`, and the closed-form
/// routing equals `route`'s hops, buffers and verdict. Returns the peak.
fn assert_kernel_matches(alg: &Uda, mapping: &MappingMatrix, what: &str) -> Option<u64> {
    let want = reference(alg, mapping);
    assert_eq!(peak_link_load(alg, mapping), want, "{what}: {mapping}");

    let prims = InterconnectionPrimitives::mesh(mapping.k() - 1);
    let space = mapping.space().as_mat().to_i64_rows().expect("small entries");
    let pi = mapping.schedule().as_slice();
    let (hops, buffers): (Vec<i64>, Vec<i64>) = alg
        .deps
        .columns_i64()
        .iter()
        .map(|d| {
            let h: i64 = space.iter().map(|row| dot(row, d).abs()).sum();
            (h, dot(pi, d) - h)
        })
        .unzip();
    let routable = buffers.iter().all(|&b| b >= 0);
    match route(mapping, &alg.deps, &prims) {
        Ok(r) => {
            assert!(routable, "{what}: route found a routing the closed form refuses");
            let ints = |v: &[cfmap_intlin::Int]| -> Vec<i64> {
                v.iter().map(|x| x.to_i64().expect("small")).collect()
            };
            assert_eq!(ints(&r.hops), hops, "{what}: hops");
            assert_eq!(ints(&r.buffers), buffers, "{what}: buffers");
        }
        Err(_) => assert!(!routable, "{what}: the closed form routes what route refuses"),
    }
    assert_eq!(want.is_some(), routable, "{what}: verdict");
    want
}

fn mapping(space: &[&[i64]], pi: &[i64]) -> MappingMatrix {
    MappingMatrix::new(SpaceMap::from_rows(space), LinearSchedule::new(pi))
}

/// Nonzero rows with entries in `[-bound, bound]`, first nonzero entry
/// positive: the candidate rows of a `/pareto` search.
fn canonical_rows(n: usize, bound: i64) -> Vec<Vec<i64>> {
    let width = (2 * bound + 1) as usize;
    (0..width.pow(n as u32))
        .map(|mut code| {
            (0..n)
                .map(|_| {
                    let v = (code % width) as i64 - bound;
                    code /= width;
                    v
                })
                .collect::<Vec<i64>>()
        })
        .filter(|row| row.iter().find(|&&x| x != 0).is_some_and(|&x| x > 0))
        .collect()
}

/// Every schedule with `Σ|π_i|μ_i ≤ cap` that respects every
/// dependence (`Π·d̄ ≥ 1`): the schedules a search screens within the
/// objective cap `cap`.
fn valid_schedules(alg: &Uda, cap: i64) -> Vec<Vec<i64>> {
    let mu = alg.index_set.mu();
    let limit = mu.iter().filter(|&&m| m > 0).map(|&m| cap / m).max().unwrap_or(0);
    let width = (2 * limit + 1) as usize;
    (0..width.pow(mu.len() as u32))
        .map(|mut code| {
            (0..mu.len())
                .map(|_| {
                    let v = (code % width) as i64 - limit;
                    code /= width;
                    v
                })
                .collect::<Vec<i64>>()
        })
        .filter(|pi| pi.iter().zip(mu).map(|(p, m)| p.abs() * m).sum::<i64>() <= cap)
        .filter(|pi| alg.deps.columns_i64().iter().all(|d| dot(pi, d) >= 1))
        .collect()
}

#[test]
fn pareto_catalogue_bandwidth_designs_match() {
    // The bandwidth-tracked searches of `tests/pareto_props.rs`: the
    // joint matmul μ = 2 frontier within cap 8 and its fixed-space twin
    // within cap 10 (every row × every valid schedule within cap 10
    // covers both), and the fixed-schedule cases.
    let matmul = algorithms::matmul(2);
    let rows = canonical_rows(3, 2);
    let mut routable = 0;
    for pi in valid_schedules(&matmul, 10) {
        for row in &rows {
            let what = format!("matmul μ=2 S={row:?} Π={pi:?}");
            let peak = assert_kernel_matches(&matmul, &mapping(&[row], &pi), &what);
            routable += usize::from(peak.is_some());
        }
    }
    assert!(routable > 100, "only {routable} routable matmul designs");

    let tc = algorithms::transitive_closure(2);
    let tc_pi = find_valid_schedule(&tc).expect("schedulable").as_slice().to_vec();
    let cases: Vec<(Uda, Vec<i64>)> = vec![
        (algorithms::matmul(2), vec![1, 1, 1]),
        (algorithms::matmul(2), vec![1, 1, 2]),
        (tc, tc_pi),
        (algorithms::convolution(3, 2), vec![1, 1]),
        (algorithms::matvec(2, 2), vec![1, 1]),
    ];
    for (alg, pi) in cases {
        for row in canonical_rows(alg.dim(), 2) {
            let what = format!("{} S={row:?} Π={pi:?}", alg.name);
            assert_kernel_matches(&alg, &mapping(&[&row], &pi), &what);
        }
    }
}

#[test]
fn paper_algorithms_at_mu_3_match() {
    // The designs a joint bandwidth `/pareto` screens for the paper's
    // algorithms at μ = 3, every row and every valid schedule up to
    // t = 19 (the matmul frontier's last point).
    for alg in [
        algorithms::matmul(3),
        algorithms::transitive_closure(3),
        algorithms::lu_decomposition(3),
    ] {
        let cap = 18;
        let rows = canonical_rows(alg.dim(), 2);
        for pi in valid_schedules(&alg, cap) {
            for row in &rows {
                let what = format!("{} S={row:?} Π={pi:?}", alg.name);
                assert_kernel_matches(&alg, &mapping(&[row], &pi), &what);
            }
        }
    }
}

#[test]
fn unroutable_designs_answer_none() {
    let alg = algorithms::matmul(4);
    // ‖S·d̄₁‖₁ = 3 hops against Π·d̄₁ = 1 cycle.
    let m = mapping(&[&[3, 1, -1]], &[1, 4, 1]);
    assert_eq!(assert_kernel_matches(&alg, &m, "matmul S=[3,1,-1]"), None);
    // Two rows: ‖S·d̄₃‖₁ = 2 against Π·d̄₃ = 1; the other channels fit.
    let m = mapping(&[&[1, 0, 1], &[0, 1, 1]], &[2, 2, 1]);
    assert_eq!(assert_kernel_matches(&alg, &m, "matmul two rows"), None);
    // A schedule that violates a zero-hop dependence: Π·d̄ < 0 = hops.
    let m = mapping(&[&[1, 0, 0]], &[1, -1, 1]);
    assert_eq!(assert_kernel_matches(&alg, &m, "matmul Π·d̄₂ < 0"), None);
}

#[test]
fn zero_hop_channels_carry_no_traffic() {
    // TC: d̄₂ = [0, 1, 0] maps to displacement 0 under S = [0, 0, 1];
    // Π·d̄₂ = 0 is a zero-hop channel with no buffer, still routable.
    let tc = algorithms::transitive_closure(4);
    let peak = assert_kernel_matches(&tc, &mapping(&[&[0, 0, 1]], &[5, 1, 1]), "tc");
    assert!(peak.is_some_and(|p| p >= 1));
    let m = mapping(&[&[0, 0, 1]], &[5, 0, 1]);
    assert_kernel_matches(&tc, &m, "tc Π·d̄₂ = 0");
    // Every channel stationary: no traffic at all.
    let alg = UdaBuilder::new("stationary").bounds(&[3, 3]).dep(&[1, 0]).build();
    let m = mapping(&[&[0, 1]], &[1, 1]);
    assert_eq!(assert_kernel_matches(&alg, &m, "all stationary"), Some(0));
}

#[test]
fn dependences_longer_than_the_box_have_no_producers() {
    // d̄ = [3, 0] on a box of width 3 (μ₁ = 2) has no producer; the
    // other channel still moves data.
    let alg = UdaBuilder::new("long")
        .bounds(&[2, 3])
        .deps(&[&[3, 0], &[0, 1]])
        .build();
    for (row, pi) in [([1, 1], [1, 2]), ([1, 0], [1, 1]), ([2, 1], [3, 1]), ([1, -1], [2, 3])] {
        let what = format!("long S={row:?} Π={pi:?}");
        assert_kernel_matches(&alg, &mapping(&[&row], &pi), &what);
    }
    // Only long dependences: no producers anywhere, peak 0.
    let alg = UdaBuilder::new("longer").bounds(&[1, 1]).deps(&[&[2, 0], &[0, -2]]).build();
    assert_eq!(assert_kernel_matches(&alg, &mapping(&[&[1, 1]], &[2, -1]), "longer"), Some(0));
}

#[test]
fn axes_with_zero_bound_match() {
    for (mu, row, pi) in [
        (vec![0, 3, 2], vec![1, 1, -1], vec![1, 2, 1]),
        (vec![4, 0, 3], vec![1, 5, -1], vec![1, 9, 4]),
        (vec![0, 0, 0], vec![1, 1, -1], vec![1, 1, 1]),
    ] {
        let alg = UdaBuilder::new("flat")
            .bounds(&mu)
            .deps(&[&[1, 0, 0], &[0, 1, 0], &[0, 0, 1]])
            .build();
        let what = format!("μ={mu:?} S={row:?}");
        assert_kernel_matches(&alg, &mapping(&[&row], &pi), &what);
    }
}

#[test]
fn entries_beyond_i64_answer_none() {
    // `S·d̄` leaves i64: route reports an overflow, the kernel refuses.
    let big = i64::MAX / 2 + 1;
    let alg = UdaBuilder::new("wide").bounds(&[2, 2]).deps(&[&[2, 0], &[0, 1]]).build();
    let m = mapping(&[&[big, 1]], &[1, 1]);
    assert_eq!(reference(&alg, &m), None);
    assert_eq!(peak_link_load(&alg, &m), None);
    // `Π·d̄` leaves i64.
    let m = mapping(&[&[1, 1]], &[big, 1]);
    assert_eq!(reference(&alg, &m), None);
    assert_eq!(peak_link_load(&alg, &m), None);
    // Each `S·d̄` entry fits, but their hop sum `‖S·d̄‖₁` does not.
    let alg = UdaBuilder::new("wide").bounds(&[1, 1]).dep(&[1, 1]).build();
    let m = mapping(&[&[big, 0], &[0, big]], &[1, 1]);
    assert_eq!(reference(&alg, &m), None);
    assert_eq!(peak_link_load(&alg, &m), None);
}

#[test]
fn large_entries_that_fit_match() {
    // Coordinates far apart but few hops: the answer depends on the
    // hop events, not on how wide the array's bounding box is.
    let big = 1i64 << 40;
    let alg = UdaBuilder::new("sparse")
        .bounds(&[2, 3, 1])
        .deps(&[&[0, 1, 0], &[0, 0, 1]])
        .build();
    for (space, pi) in [
        (vec![vec![big, 1, 0]], vec![big, 1, 1]),
        (vec![vec![-big, 1, 1]], vec![1, 2, 2]),
        (vec![vec![big, 1, 0], vec![0, 0, 1]], vec![-big, 1, 1]),
    ] {
        let rows: Vec<&[i64]> = space.iter().map(Vec::as_slice).collect();
        let what = format!("S={space:?} Π={pi:?}");
        assert!(assert_kernel_matches(&alg, &mapping(&rows, &pi), &what).is_some(), "{what}");
    }
}

#[test]
fn boxes_wider_than_u64_keys_match() {
    // PE and cycle each span about 2³³ values, so the walk's bounding
    // box times its links outgrows a `u64` key. The two channels still
    // share links: `d̄ = e₂` from `p̄` and `d̄ = e₃` from `p̄ − e₂ + e₃`
    // hop the same link in the same cycle, and one PE sends on one link
    // in many different cycles.
    let big = 1i64 << 33;
    let alg = UdaBuilder::new("wide box")
        .bounds(&[1, 3, 3])
        .deps(&[&[0, 1, 0], &[0, 0, 1]])
        .build();
    let m = mapping(&[&[big, 1, 1]], &[big, 1, 2]);
    assert_eq!(assert_kernel_matches(&alg, &m, "wide box"), Some(2));
    let m = mapping(&[&[big, 1, 1], &[0, 0, 1]], &[-big, 2, 3]);
    assert!(assert_kernel_matches(&alg, &m, "wide box, two rows").is_some());
    // One PE sends on both of its links in the same cycle: two links,
    // one datum each.
    let m = mapping(&[&[big, 1, -1]], &[big, 1, 1]);
    assert_eq!(assert_kernel_matches(&alg, &m, "wide box, both links"), Some(1));
}

#[test]
fn eight_axes_at_modest_entries_outgrow_u64_keys() {
    // n = 8 with seven PE rows, the widest problem `/pareto` serves:
    // entries 20…32 give each of the eight rows of `T` a width near 200
    // on the unit box, and 14 links times their product leaves `u64`.
    let n = 8;
    let space: Vec<Vec<i64>> = (0..n as i64 - 1)
        .map(|r| (0..n as i64).map(|c| 20 + (3 * r + 5 * c) % 13).collect())
        .collect();
    let pi = vec![230; n];
    let rows: Vec<&[i64]> = space.iter().map(Vec::as_slice).collect();
    let m = mapping(&rows, &pi);
    let e = |c: usize| (0..n).map(|i| i64::from(i == c)).collect::<Vec<i64>>();
    let alg = UdaBuilder::new("eight axes")
        .bounds(&[1; 8])
        .deps(&[&e(0), &e(7)])
        .build();
    // `d̄ = e₀` alone has producers on a unit box in axes 1…7, so row
    // `r` of `T` spans at least `Σ_{c ≥ 1} |T_rc|` values.
    let t: Vec<&[i64]> = rows.iter().copied().chain([pi.as_slice()]).collect();
    let radix = t.iter().try_fold(2 * (n as u64 - 1), |radix, row| {
        radix.checked_mul(1 + row[1..].iter().map(|x| x.unsigned_abs()).sum::<u64>())
    });
    assert_eq!(radix, None, "the box fits u64 keys");
    assert!(assert_kernel_matches(&alg, &m, "eight axes").is_some());
    // The same design with its schedule one cycle short on axis 0.
    let mut short = pi.clone();
    short[0] = space.iter().map(|row| row[0]).sum::<i64>() - 1;
    assert_eq!(assert_kernel_matches(&alg, &mapping(&rows, &short), "eight axes, short"), None);
}

/// A box of dimension `n` with bounds `mu[..n]` and the distinct
/// nonzero dependences among the first `m` of `deps`' four-entry slots;
/// the case is discarded when none is left.
fn generated_uda(n: usize, mu: &[i64], deps: &[i64], m: usize) -> Uda {
    let mut cols: Vec<&[i64]> = Vec::new();
    for d in (0..m).map(|i| &deps[4 * i..4 * i + n]) {
        if d.iter().any(|&x| x != 0) && !cols.contains(&d) {
            cols.push(d);
        }
    }
    tk_assume!(!cols.is_empty());
    UdaBuilder::new("generated").bounds(&mu[..n]).deps(&cols).build()
}

cfmap_testkit::props! {
    cases = 256;

    /// Generated UDAs of dimension 2–4 with bounds 0–3 and one to three
    /// dependences (entries −2…2) under one- or two-row space maps and
    /// schedules with entries −3…4, routable or not.
    fn generated_designs_match_the_reference(
        n in 2usize..=4,
        mu in gen::vec(0i64..=3, 4),
        deps in gen::vec(-2i64..=2, 12),
        m in 1usize..=3,
        space in gen::vec(-2i64..=2, 8),
        two_rows in gen::bools(),
        pi in gen::vec(-3i64..=4, 4),
    ) {
        let alg = generated_uda(n, &mu, &deps, m);
        let mut rows: Vec<&[i64]> = vec![&space[..n]];
        if two_rows {
            rows.push(&space[4..4 + n]);
        }
        assert_kernel_matches(&alg, &mapping(&rows, &pi[..n]), "generated");
    }

    /// Generated designs whose schedule respects every dependence with
    /// room to spare, so most of them route and carry traffic.
    fn generated_routable_designs_match_the_reference(
        n in 2usize..=4,
        mu in gen::vec(1i64..=3, 4),
        deps in gen::vec(0i64..=2, 12),
        m in 1usize..=3,
        space in gen::vec(-1i64..=1, 8),
        two_rows in gen::bools(),
        slack in gen::vec(0i64..=2, 4),
    ) {
        let alg = generated_uda(n, &mu, &deps, m);
        let mut rows: Vec<&[i64]> = vec![&space[..n]];
        if two_rows {
            rows.push(&space[4..4 + n]);
        }
        // Nonnegative dependences: Π ≥ (number of rows) + slack on every
        // axis gives Π·d̄ ≥ ‖S·d̄‖₁ whenever S's entries are in −1…1.
        let pi: Vec<i64> = slack[..n].iter().map(|&s| rows.len() as i64 + s).collect();
        let what = format!("generated Π={pi:?}");
        assert!(assert_kernel_matches(&alg, &mapping(&rows, &pi), &what).is_some(), "{what}");
    }
}
