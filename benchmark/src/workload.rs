//! Seeded request streams for the four workloads.
//!
//! A stream is a pure function of the seed and of how many distinct
//! requests it may need, so one seed replays byte for byte. The servers
//! receive only the request bodies; the problems behind them stay here as
//! the ground truth the answers are checked against.

use cfmap::core::FamilyKey;
use cfmap::model::{algorithms, DependenceMatrix, IndexSet, Uda};
use cfmap::service::engine::canonical_problem;
use cfmap::service::wire::{MapRequest, ParetoRequest};
use cfmap_testkit::rng::Rng;
use std::collections::{BTreeSet, HashSet};

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Workload {
    /// Distinct `/map` problems: every request runs Procedure 5.1.
    MapCold,
    /// A primed hot set under axis permutations: every request hits the cache.
    MapWarm,
    /// Distinct joint-scope `/pareto` requests: every request scans a frontier.
    ParetoCold,
    /// Family-certificate answers through the router over keep-alive clients.
    FleetWarmstart,
}

impl Workload {
    /// Every workload, in the order a full run measures them.
    pub const ALL: [Workload; 4] = [
        Workload::MapCold,
        Workload::MapWarm,
        Workload::ParetoCold,
        Workload::FleetWarmstart,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MapCold => "map-cold",
            Workload::MapWarm => "map-warm",
            Workload::ParetoCold => "pareto-cold",
            Workload::FleetWarmstart => "fleet-warmstart",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Keeps the four streams independent under one seed.
    fn salt(self) -> u64 {
        match self {
            Workload::MapCold => 0x6d61_702d_636f_6c64,
            Workload::MapWarm => 0x6d61_702d_7761_726d,
            Workload::ParetoCold => 0x7061_7265_746f_2d63,
            Workload::FleetWarmstart => 0x666c_6565_742d_7773,
        }
    }
}

/// A `/map` problem with its ground truth: the algorithm and space rows
/// exactly as the request presents them.
#[derive(Clone, Debug)]
pub struct MapProblem {
    /// The algorithm in the request's axis order.
    pub alg: Uda,
    /// The space rows in the request's axis order.
    pub space: Vec<Vec<i64>>,
    /// The paper's closed-form optimal total time, where one exists:
    /// `μ(μ+2)+1` for matmul on `S = [1, 1, −1]` and `μ(μ+3)+1` for
    /// transitive closure on `S = [0, 0, 1]`, in any axis order.
    pub closed_form: Option<i64>,
    /// The request.
    pub request: MapRequest,
    /// The request body sent on the wire.
    pub body: String,
}

/// A joint-scope `/pareto` problem with its ground truth.
#[derive(Clone, Debug)]
pub struct ParetoProblem {
    /// The algorithm in the request's axis order.
    pub alg: Uda,
    /// The request.
    pub request: ParetoRequest,
    /// The request body sent on the wire.
    pub body: String,
}

/// One distinct request of a stream.
#[derive(Clone, Debug)]
pub enum Item {
    /// A `/map` request.
    Map(MapProblem),
    /// A `/pareto` request.
    Pareto(ParetoProblem),
}

impl Item {
    /// The request body.
    pub fn body(&self) -> &str {
        match self {
            Item::Map(p) => &p.body,
            Item::Pareto(p) => &p.body,
        }
    }
}

/// Which item request number `i` sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Order {
    /// Each item once, in order; the stream ends when they run out.
    Once,
    /// Item `order[i % order.len()]`, without end.
    Cycle(Vec<u32>),
}

/// A workload's inputs.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// `/map` or `/pareto`.
    pub route: &'static str,
    /// The distinct requests the stream draws from.
    pub items: Vec<Item>,
    /// How the stream walks `items`.
    pub order: Order,
    /// Requests sent before timing: the hot set that `map-warm` primes,
    /// or the sizes the `fleet-warmstart` preparation daemon solves.
    pub warmup: Vec<MapProblem>,
}

impl Inputs {
    /// The inputs of `workload` for `seed`. Streams that run until the
    /// clock stops hold `max_requests` distinct items, or fewer when the
    /// workload's problem space has fewer.
    pub fn generate(workload: Workload, seed: u64, max_requests: usize) -> Inputs {
        let mut rng = Rng::new(seed ^ workload.salt());
        match workload {
            Workload::MapCold => map_cold(&mut rng, max_requests),
            Workload::MapWarm => map_warm(&mut rng),
            Workload::ParetoCold => pareto_cold(&mut rng, max_requests),
            Workload::FleetWarmstart => fleet(&mut rng),
        }
    }

    /// The item request number `i` sends, or `None` past the end.
    pub fn item_index(&self, i: usize) -> Option<usize> {
        match &self.order {
            Order::Once => (i < self.items.len()).then_some(i),
            Order::Cycle(order) => Some(order[i % order.len()] as usize),
        }
    }
}

/// Every column with entries in {−1, 0, 1} whose first nonzero entry is
/// positive, in lexicographic order.
fn lex_positive_columns(n: usize) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    for code in 0..3usize.pow(n as u32) {
        let col: Vec<i64> = (0..n)
            .map(|i| (code / 3usize.pow((n - 1 - i) as u32) % 3) as i64 - 1)
            .collect();
        if col.iter().find(|&&x| x != 0).is_some_and(|&x| x > 0) {
            out.push(col);
        }
    }
    out
}

fn structural_uda(mu: &[i64], deps: &[Vec<i64>]) -> Uda {
    let refs: Vec<&[i64]> = deps.iter().map(Vec::as_slice).collect();
    Uda::new(
        "generated",
        IndexSet::new(mu),
        DependenceMatrix::from_columns(&refs),
    )
}

/// The library algorithm behind a catalogue name, sized the way the
/// daemon sizes it.
fn named_uda(name: &str, mu: i64) -> Uda {
    match name {
        "matmul" => algorithms::matmul(mu),
        "transitive-closure" => algorithms::transitive_closure(mu),
        "lu" => algorithms::lu_decomposition(mu),
        "sor" => algorithms::sor(mu, mu),
        "matvec" => algorithms::matvec(mu, mu),
        "convolution" => algorithms::convolution(mu, (mu / 2).max(1)),
        "identity4" => algorithms::identity_cube(4, mu),
        other => panic!("no catalogue algorithm {other:?}"),
    }
}

impl MapProblem {
    fn structural(alg: Uda, space: Vec<Vec<i64>>, closed_form: Option<i64>) -> Self {
        let request = MapRequest {
            algorithm: None,
            mu: alg.index_set.mu().to_vec(),
            deps: Some(alg.deps.columns_i64()),
            space: space.clone(),
            cap: None,
            max_candidates: None,
            timeout_ms: None,
            deadline_ms: None,
        };
        let body = request.to_json().serialize();
        MapProblem {
            alg,
            space,
            closed_form,
            request,
            body,
        }
    }

    fn named(name: &'static str, mu: i64, space: &[i64]) -> Self {
        let request = MapRequest::named(name, mu, vec![space.to_vec()]);
        let body = request.to_json().serialize();
        let closed_form = match (name, space) {
            ("matmul", [1, 1, -1]) => Some(mu * (mu + 2) + 1),
            ("transitive-closure", [0, 0, 1]) => Some(mu * (mu + 3) + 1),
            _ => None,
        };
        MapProblem {
            alg: named_uda(name, mu),
            space: vec![space.to_vec()],
            closed_form,
            request,
            body,
        }
    }

    /// The same problem with axes relabeled: new axis `i` is old axis
    /// `perm[i]`, in the algorithm and in every space row.
    fn permuted(&self, perm: &[usize]) -> Self {
        let space = self
            .space
            .iter()
            .map(|row| perm.iter().map(|&c| row[c]).collect())
            .collect();
        MapProblem::structural(self.alg.permuted_axes(perm), space, self.closed_form)
    }
}

fn pick_distinct(rng: &mut Rng, pool: &[Vec<i64>], count: usize) -> Vec<Vec<i64>> {
    let mut picked: Vec<usize> = Vec::with_capacity(count);
    while picked.len() < count {
        let i = rng.usize_in(0, pool.len() - 1);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.into_iter().map(|i| pool[i].clone()).collect()
}

/// A random structural `/map` problem: `n` axes with bounds in `mu`,
/// 2…n+1 lexicographically positive columns in {−1, 0, 1}, and one
/// nonzero space row in {−1, 0, 1}.
fn random_map_problem(rng: &mut Rng, n: usize, mu: (i64, i64), columns: &[Vec<i64>]) -> MapProblem {
    let bounds: Vec<i64> = (0..n).map(|_| rng.i64_in(mu.0, mu.1)).collect();
    let count = rng.usize_in(2, n + 1);
    let deps = pick_distinct(rng, columns, count);
    let space = loop {
        let row: Vec<i64> = (0..n).map(|_| rng.i64_in(-1, 1)).collect();
        if row.iter().any(|&x| x != 0) {
            break row;
        }
    };
    MapProblem::structural(structural_uda(&bounds, &deps), vec![space], None)
}

/// Distinct family keys, so no request hits the cache or the family
/// catalogue and the fitter never has three sizes of one family. Half
/// are n = 3 (µs solves) and half n = 4 (ms solves), alternating, so
/// every prefix a time-boxed run gets through holds the same mix.
fn map_cold(rng: &mut Rng, count: usize) -> Inputs {
    let columns = [lex_positive_columns(3), lex_positive_columns(4)];
    let mut families = HashSet::new();
    let mut items = Vec::with_capacity(count);
    while items.len() < count {
        let n = 3 + items.len() % 2;
        let mu = if n == 3 { (2, 6) } else { (2, 3) };
        let p = random_map_problem(rng, n, mu, &columns[n - 3]);
        let key = canonical_problem(&p.request).expect("generated problems are well formed");
        if families.insert(FamilyKey::of(&key).0) {
            items.push(Item::Map(p));
        }
    }
    Inputs {
        workload: Workload::MapCold,
        route: "/map",
        items,
        order: Order::Once,
        warmup: Vec::new(),
    }
}

/// Every permutation of `0..n`, identity first.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, n: usize, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for i in 0..n {
            if !prefix.contains(&i) {
                prefix.push(i);
                rec(prefix, n, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), n, &mut out);
    out
}

/// The 32 hot problems of `map-warm`: sixteen catalogue algorithms and
/// sixteen structural problems drawn once from a fixed seed, so every run
/// primes the same set.
fn hot_set() -> Vec<MapProblem> {
    let mut hot = vec![
        MapProblem::named("matmul", 3, &[1, 1, -1]),
        MapProblem::named("matmul", 4, &[1, 1, -1]),
        MapProblem::named("matmul", 5, &[1, 1, -1]),
        MapProblem::named("matmul", 6, &[1, 1, -1]),
        MapProblem::named("transitive-closure", 3, &[0, 0, 1]),
        MapProblem::named("transitive-closure", 4, &[0, 0, 1]),
        MapProblem::named("transitive-closure", 5, &[0, 0, 1]),
        MapProblem::named("lu", 3, &[0, 0, 1]),
        MapProblem::named("lu", 4, &[0, 0, 1]),
        MapProblem::named("sor", 4, &[0, 1]),
        MapProblem::named("sor", 6, &[0, 1]),
        MapProblem::named("matvec", 4, &[0, 1]),
        MapProblem::named("matvec", 6, &[0, 1]),
        MapProblem::named("convolution", 6, &[1, -1]),
        MapProblem::named("identity4", 2, &[1, 0, 0, 0]),
        MapProblem::named("identity4", 3, &[1, 0, 0, 0]),
    ];
    let mut rng = Rng::new(0x686f_742d_7365_7421);
    let columns = [lex_positive_columns(3), lex_positive_columns(4)];
    let mut families = HashSet::new();
    while hot.len() < 32 {
        let n = if hot.len() < 24 { 3 } else { 4 };
        let mu = if n == 3 { (2, 6) } else { (2, 3) };
        let p = random_map_problem(&mut rng, n, mu, &columns[n - 3]);
        let key = canonical_problem(&p.request).expect("generated problems are well formed");
        if families.insert(FamilyKey::of(&key).0) {
            hot.push(p);
        }
    }
    hot
}

/// Every axis presentation of every hot problem; the stream picks a hot
/// problem uniformly, then one of its presentations uniformly. A named
/// problem in its own axis order goes out by name.
fn map_warm(rng: &mut Rng) -> Inputs {
    let hot = hot_set();
    let mut items = Vec::new();
    let mut groups = Vec::with_capacity(hot.len());
    for p in &hot {
        let start = items.len();
        for (k, perm) in permutations(p.alg.dim()).iter().enumerate() {
            let shown = if k == 0 && p.request.algorithm.is_some() {
                p.clone()
            } else {
                p.permuted(perm)
            };
            items.push(Item::Map(shown));
        }
        groups.push(start..items.len());
    }
    let order = (0..1 << 16)
        .map(|_| {
            let g = &groups[rng.usize_in(0, groups.len() - 1)];
            rng.usize_in(g.start, g.end - 1) as u32
        })
        .collect();
    Inputs {
        workload: Workload::MapWarm,
        route: "/map",
        items,
        order: Order::Cycle(order),
        warmup: hot,
    }
}

/// The class representative of `(μ, D)` under axis relabeling: the least
/// sorted column list over the permutations that keep the sorted `μ`.
fn pareto_class(mu: &[i64], deps: &[Vec<i64>]) -> Vec<Vec<i64>> {
    permutations(mu.len())
        .into_iter()
        .filter(|perm| perm.iter().enumerate().all(|(i, &c)| mu[c] == mu[i]))
        .map(|perm| {
            let mut cols: Vec<Vec<i64>> = deps
                .iter()
                .map(|d| perm.iter().map(|&c| d[c]).collect())
                .collect();
            cols.sort();
            cols
        })
        .min()
        .expect("the identity keeps μ")
}

/// Every `(μ, D)` class with `μ` ascending in `[lo, hi]³` and 2…5
/// columns from the n = 3 pool.
fn pareto_pool(lo: i64, hi: i64) -> Vec<(Vec<i64>, Vec<Vec<i64>>)> {
    let columns = lex_positive_columns(3);
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    for mask in 0u32..1 << columns.len() {
        if (2..=5).contains(&mask.count_ones()) {
            subsets.push(
                (0..columns.len())
                    .filter(|&i| mask & (1 << i) != 0)
                    .collect(),
            );
        }
    }
    let mut pool = BTreeSet::new();
    for a in lo..=hi {
        for b in a..=hi {
            for c in b..=hi {
                let mu = vec![a, b, c];
                for s in &subsets {
                    let deps: Vec<Vec<i64>> = s.iter().map(|&i| columns[i].clone()).collect();
                    pool.insert((mu.clone(), pareto_class(&mu, &deps)));
                }
            }
        }
    }
    pool.into_iter().collect()
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_in(0, i));
    }
}

/// Every problem class at most once, in seeded order, each shown under a
/// seeded axis permutation and column order. One request in four tracks
/// link bandwidth; those scan every objective level, so they draw from
/// μ ∈ [2, 3]³ with space entries in {−1, 0, 1} and an objective cap of
/// 12 to stay within milliseconds.
fn pareto_cold(rng: &mut Rng, count: usize) -> Inputs {
    let mut plain = pareto_pool(2, 5);
    let mut banded = pareto_pool(2, 3);
    shuffle(rng, &mut plain);
    shuffle(rng, &mut banded);
    let (mut plain, mut banded) = (plain.into_iter(), banded.into_iter());
    let perms = permutations(3);
    let mut items = Vec::new();
    while items.len() < count {
        let bandwidth = items.len() % 4 == 3;
        let Some((mu, mut deps)) = (if bandwidth {
            banded.next()
        } else {
            plain.next()
        }) else {
            break;
        };
        let perm = &perms[rng.usize_in(0, perms.len() - 1)];
        shuffle(rng, &mut deps);
        let mu: Vec<i64> = perm.iter().map(|&c| mu[c]).collect();
        let deps: Vec<Vec<i64>> = deps
            .iter()
            .map(|d| perm.iter().map(|&c| d[c]).collect())
            .collect();
        let request = ParetoRequest {
            algorithm: None,
            mu: mu.clone(),
            deps: Some(deps.clone()),
            include_bandwidth: bandwidth,
            entry_bound: bandwidth.then_some(1),
            cap: bandwidth.then_some(12),
            ..ParetoRequest::named("", 1)
        };
        let body = request.to_json().serialize();
        items.push(Item::Pareto(ParetoProblem {
            alg: structural_uda(&mu, &deps),
            request,
            body,
        }));
    }
    Inputs {
        workload: Workload::ParetoCold,
        route: "/pareto",
        items,
        order: Order::Once,
        warmup: Vec::new(),
    }
}

/// The five catalogue families whose schedules certify, with their space rows.
pub const FLEET_FAMILIES: [(&str, &[i64]); 5] = [
    ("matmul", &[1, 1, -1]),
    ("transitive-closure", &[0, 0, 1]),
    ("lu", &[0, 0, 1]),
    ("sor", &[0, 1]),
    ("matvec", &[0, 1]),
];

/// Sizes the preparation daemon solves so each family certifies.
const FLEET_PREP_SIZES: [i64; 3] = [2, 3, 4];

/// Sizes the timed stream asks for: 5 × 20 = 100 keys, far more than a
/// backend's 16-entry cache holds, so every answer is a certificate
/// instantiation.
const FLEET_SIZES: std::ops::RangeInclusive<i64> = 5..=24;

fn fleet(rng: &mut Rng) -> Inputs {
    let mut items = Vec::new();
    let mut warmup = Vec::new();
    for (name, space) in FLEET_FAMILIES {
        for mu in FLEET_SIZES {
            items.push(Item::Map(MapProblem::named(name, mu, space)));
        }
        for mu in FLEET_PREP_SIZES {
            warmup.push(MapProblem::named(name, mu, space));
        }
    }
    let mut order: Vec<u32> = (0..items.len() as u32).collect();
    shuffle(rng, &mut order);
    Inputs {
        workload: Workload::FleetWarmstart,
        route: "/map",
        items,
        order: Order::Cycle(order),
        warmup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_pools_have_the_expected_sizes() {
        assert_eq!(lex_positive_columns(3).len(), 13);
        assert_eq!(lex_positive_columns(4).len(), 40);
        assert_eq!(permutations(4).len(), 24);
    }

    #[test]
    fn class_representative_ignores_axis_order() {
        let mu = [2, 2, 3];
        let a = vec![vec![1, 0, 0], vec![0, 1, -1]];
        let b = vec![vec![0, 1, -1], vec![1, 0, 0]];
        let swapped = vec![vec![0, 1, 0], vec![1, 0, -1]];
        assert_eq!(pareto_class(&mu, &a), pareto_class(&mu, &b));
        assert_eq!(pareto_class(&mu, &a), pareto_class(&mu, &swapped));
    }
}
