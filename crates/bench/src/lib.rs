//! Experiment harness reproducing every figure and quantitative claim of
//! the paper (see `DESIGN.md` §3 for the experiment index).
//!
//! Each `eN_*` function runs one experiment and returns an
//! [`ExperimentReport`] — a table plus notes — that the `experiments`
//! binary prints and `EXPERIMENTS.md` records. The plain timing benches
//! in `benches/` (see [`timing`]) measure the computational kernels
//! behind the same experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use cfmap_core::baselines;
use cfmap_core::conditions::{self, ConditionKind, ConditionVerdict};
use cfmap_core::conflict::{feasibility, ConflictAnalysis, Feasibility};
use cfmap_core::ilp::optimal_schedule_ilp;
use cfmap_core::mapping::{route, InterconnectionPrimitives, MappingMatrix, SpaceMap};
use cfmap_core::oracle;
use cfmap_core::prop81::prop_8_1_basis;
use cfmap_core::search::Procedure51;
use cfmap_core::SearchBudget;
use cfmap_intlin::{hermite_normal_form, IMat, IVec};
use cfmap_model::{algorithms, IndexSet, LinearSchedule};
use cfmap_systolic::exec::{execute, MatmulKernel};
use cfmap_systolic::Simulator;
use std::time::Instant;

/// One experiment's rendered result.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E4"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper-vs-measured commentary).
    pub notes: Vec<String>,
    /// Search-effort counters behind the experiment's solves — the same
    /// counters `cfmap map --trace` prints and the daemon's `/metrics`
    /// endpoint exports. Empty for experiments that run no search.
    pub telemetry: Vec<(String, u64)>,
}

impl ExperimentReport {
    /// Attach the aggregate search telemetry behind this experiment.
    pub fn with_telemetry(mut self, tel: &cfmap_core::SearchTelemetry) -> ExperimentReport {
        self.telemetry = vec![
            ("candidates_enumerated".into(), tel.enumerated),
            ("accepted".into(), tel.accepted),
            ("rejected_schedule".into(), tel.rejected_schedule),
            ("rejected_prefilter".into(), tel.rejected_prefilter),
            ("rejected_rank".into(), tel.rejected_rank),
            ("rejected_conflict".into(), tel.rejected_conflict),
            ("rejected_unroutable".into(), tel.rejected_unroutable),
            ("hnf_computations".into(), tel.hnf_computations),
            ("fallback_screened".into(), tel.fallback_screened),
        ];
        for (rule, n) in tel.condition_hits.entries() {
            if n > 0 {
                self.telemetry.push((format!("condition_{rule}"), n));
            }
        }
        self.telemetry.push(("orbits_pruned".into(), tel.orbits_pruned));
        self
    }
    /// Render as a JSON object (hand-rolled emitter — the workspace's
    /// hermetic dependency policy allows no registry crates at all;
    /// reports are strings all the way down, so the emitter is 30 lines).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn arr(items: &[String]) -> String {
            let inner: Vec<String> = items.iter().map(|i| format!("\"{}\"", esc(i))).collect();
            format!("[{}]", inner.join(","))
        }
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        let telemetry: Vec<String> = self
            .telemetry
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
            .collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"headers\":{},\"rows\":[{}],\"notes\":{},\"telemetry\":{{{}}}}}",
            esc(&self.id),
            esc(&self.title),
            arr(&self.headers),
            rows.join(","),
            arr(&self.notes),
            telemetry.join(",")
        )
    }

    /// Render as a GitHub-flavoured markdown table with notes.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push('|');
        for h in &self.headers {
            out.push_str(&format!(" {h} |"));
        }
        out.push_str("\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            for cell in row {
                out.push_str(&format!(" {cell} |"));
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        if !self.telemetry.is_empty() {
            let pairs: Vec<String> =
                self.telemetry.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("\n> search telemetry: {}\n", pairs.join(", ")));
        }
        out
    }
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

/// The first of five runs of `solve`, and the fastest of their times: a
/// single cold solve mostly times the first touch of the code and data.
fn best_of_five<T>(mut solve: impl FnMut() -> T) -> (T, std::time::Duration) {
    let mut timed = || {
        let t0 = Instant::now();
        let out = solve();
        (out, t0.elapsed())
    };
    let (first, mut best) = timed();
    for _ in 1..5 {
        best = best.min(timed().1);
    }
    (first, best)
}

/// E1 — Figure 1: feasible vs non-feasible conflict vectors over
/// `J = {0..4}²`, Theorem 2.2 vs brute force.
pub fn e1_feasibility() -> ExperimentReport {
    let j = IndexSet::new(&[4, 4]);
    let candidates: Vec<Vec<i64>> = vec![
        vec![1, 1],
        vec![3, 5],
        vec![2, 3],
        vec![5, -1],
        vec![-4, 4],
        vec![0, 5],
        vec![4, 4],
    ];
    let mut rows = Vec::new();
    for c in &candidates {
        let gamma = IVec::from_i64s(c);
        let verdict = feasibility(&gamma, &j);
        let collisions = j.iter().filter(|p| j.contains_offset(p, &gamma)).count();
        assert_eq!(verdict == Feasibility::Feasible, collisions == 0, "Theorem 2.2 exactness");
        rows.push(vec![
            format!("[{}, {}]", c[0], c[1]),
            s(format!("{verdict:?}")),
            s(collisions),
        ]);
    }
    ExperimentReport {
        id: "E1".into(),
        telemetry: Vec::new(),
        title: "Figure 1 — conflict-vector feasibility over J = {0..4}² (Theorem 2.2)".into(),
        headers: vec!["γ".into(), "Theorem 2.2".into(), "colliding points (brute force)".into()],
        rows,
        notes: vec![
            "Paper: γ₁ = [1,1] non-feasible (diagonal collapses), γ₂ = [3,5] feasible. Both reproduced; Theorem 2.2 matched brute force on every candidate.".into(),
        ],
    }
}

/// E2 — Examples 2.1/4.1: conflict-vector classification for the Eq 2.8
/// mapping.
pub fn e2_conflict_vectors() -> ExperimentReport {
    let alg = algorithms::example_2_1();
    let t = MappingMatrix::from_rows(&[&[1, 7, 1, 1], &[1, 7, 1, 0]]);
    let vectors = [
        ("γ₁", vec![0i64, 1, -7, 0]),
        ("γ₂", vec![7, -1, 0, 0]),
        ("γ₃ = (γ₁+γ₂)/7", vec![1, 0, -1, 0]),
        ("2·γ₃ (not primitive)", vec![2, 0, -2, 0]),
    ];
    let mut rows = Vec::new();
    for (name, v) in &vectors {
        let gamma = IVec::from_i64s(v);
        let in_kernel = t.as_mat().mul_vec(&gamma).is_zero();
        let primitive = gamma.is_primitive();
        let verdict = if primitive {
            format!("{:?}", feasibility(&gamma, &alg.index_set))
        } else {
            "n/a (not a conflict vector)".into()
        };
        rows.push(vec![s(name), s(in_kernel), s(primitive), verdict]);
    }
    let analysis = ConflictAnalysis::new(&t, &alg.index_set);
    let conflict_free = analysis.is_conflict_free_exact();
    let pairs = oracle::count_conflicting_pairs(&t, &alg.index_set);
    ExperimentReport {
        id: "E2".into(),
        telemetry: Vec::new(),
        title: "Examples 2.1/4.1 — conflict vectors of the Eq 2.8 mapping over {0..6}⁴".into(),
        headers: vec!["vector".into(), "Tγ = 0".into(), "primitive".into(), "feasibility".into()],
        rows,
        notes: vec![
            format!("T conflict-free (exact): {conflict_free}; conflicting pairs by enumeration: {pairs}. Paper: T is not conflict-free because γ₃ is non-feasible — reproduced."),
        ],
    }
}

/// E3 — Example 4.2: Hermite normal form of the Eq 2.8 mapping.
pub fn e3_hnf() -> ExperimentReport {
    let t = IMat::from_rows(&[&[1, 7, 1, 1], &[1, 7, 1, 0]]);
    let hnf = hermite_normal_form(&t);
    let u_paper = IMat::from_rows(&[
        &[1, -1, -1, -7],
        &[0, 0, 0, 1],
        &[0, 0, 1, 0],
        &[0, 1, 0, 0],
    ]);
    let h_paper = &t * &u_paper;
    let mut rows = vec![
        vec!["rank(T)".into(), s(hnf.rank), "2".into()],
        vec!["H lower-triangular-[L,0]".into(), s(true), "yes".into()],
        vec!["U unimodular".into(), s(hnf.u.is_unimodular()), "yes".into()],
        vec![
            "paper U verifies (T·U_paper = [[1,0,0,0],[1,−1,0,0]])".into(),
            s(h_paper == IMat::from_rows(&[&[1, 0, 0, 0], &[1, -1, 0, 0]])),
            "yes".into(),
        ],
    ];
    // Kernel lattices agree: paper kernel columns are integral
    // combinations of ours.
    let mut same_lattice = true;
    for c in [2usize, 3] {
        let beta = hnf.v().mul_vec(&u_paper.col(c));
        same_lattice &= beta[0].is_zero() && beta[1].is_zero();
    }
    rows.push(vec!["kernel lattices agree".into(), s(same_lattice), "yes".into()]);
    ExperimentReport {
        id: "E3".into(),
        telemetry: Vec::new(),
        title: "Example 4.2 — Hermite normal form of the Eq 2.8 mapping".into(),
        headers: vec!["property".into(), "measured".into(), "paper".into()],
        rows,
        notes: vec![format!(
            "Our multiplier differs from the paper's by a unimodular column transform (both valid). Ours: kernel columns {:?}.",
            hnf.kernel_cols().iter().map(|v| v.to_string()).collect::<Vec<_>>()
        )],
    }
}

/// Per-μ outcome of the matmul experiment.
#[derive(Clone, Debug)]
pub struct MatmulRow {
    /// Problem size μ.
    pub mu: i64,
    /// Optimal total time found.
    pub t_opt: i64,
    /// Paper formula μ(μ+2)+1.
    pub t_formula: i64,
    /// Baseline [23] time μ(μ+3)+1.
    pub t_baseline: i64,
    /// Simulated makespan of the optimal design.
    pub makespan: i64,
    /// Buffers (optimal / baseline).
    pub buffers: (String, String),
    /// Conflicts + collisions observed (must be 0).
    pub violations: usize,
    /// Numeric product correct.
    pub numeric_ok: bool,
}

/// E4 — Example 5.1 / Figures 2–3: optimal matmul linear-array designs
/// across a μ sweep, against the [23] baseline, validated by simulation.
pub fn e4_matmul(mus: &[i64]) -> (ExperimentReport, Vec<MatmulRow>) {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    let mut tel = cfmap_core::SearchTelemetry::default();
    let prims = InterconnectionPrimitives::from_columns(&[&[1], &[1], &[-1]]);
    for &mu in mus {
        let alg = algorithms::matmul(mu);
        let space = SpaceMap::row(&[1, 1, -1]);
        let outcome = Procedure51::new(&alg, &space).primitives(&prims).solve().unwrap();
        tel.merge(&outcome.telemetry);
        let opt = outcome.expect_optimal("solvable");
        let routing = opt.routing.as_ref().unwrap();
        let base = baselines::matmul_baseline_23(mu);
        let base_routing = route(&base.mapping(), &alg.deps, &prims).unwrap();

        let report = Simulator::new(&alg, &opt.mapping).with_routing(routing).run().unwrap();
        let kernel = MatmulKernel::random((mu + 1) as usize, mu as u64);
        let result = execute(&alg, &opt.mapping, &kernel);
        let numeric_ok = kernel.extract_product(&result, mu) == kernel.reference_product();
        // RTL cross-check: values clocked through the physical delay lines
        // must arrive on time and give the same product.
        let rtl = cfmap_systolic::rtl::execute_rtl(&alg, &opt.mapping, routing, &kernel);
        let numeric_ok = numeric_ok
            && rtl.failures.is_empty()
            && kernel.extract_product_rtl(&rtl, mu) == kernel.reference_product();

        let row = MatmulRow {
            mu,
            t_opt: opt.total_time,
            t_formula: mu * (mu + 2) + 1,
            t_baseline: base.total_time(&alg),
            makespan: report.makespan(),
            buffers: (routing.total_buffers().to_string(), base_routing.total_buffers().to_string()),
            violations: report.conflicts.len() + report.link_collisions.len(),
            numeric_ok,
        };
        rows.push(vec![
            s(mu),
            s(row.t_opt),
            s(row.t_formula),
            s(row.t_baseline),
            s(row.makespan),
            format!("{} / {}", row.buffers.0, row.buffers.1),
            s(row.violations),
            s(row.numeric_ok),
        ]);
        data.push(row);
    }
    (
        ExperimentReport {
            id: "E4".into(),
            telemetry: Vec::new(),
            title: "Example 5.1 + Figures 2/3 — matmul onto a linear array, optimal vs [23]".into(),
            headers: vec![
                "μ".into(),
                "t° (found)".into(),
                "μ(μ+2)+1".into(),
                "t' [23]".into(),
                "simulated makespan".into(),
                "buffers (opt/[23])".into(),
                "conflicts+collisions".into(),
                "C = A·B".into(),
            ],
            rows,
            notes: vec![
                "Paper (μ = 4): t° = 25, t' = 29, buffers 3 vs 4, no conflicts, no link collisions.".into(),
                "The optimum is not unique: any point of the winning convex subset's optimal face ties the paper's Π₂ = [1, μ, 1].".into(),
                "For μ = 3 the search finds t° = 16 < 19: the paper's remark that Π' = [2, 1, μ] is optimal at μ = 3 is refuted by its own Procedure 5.1 (see E7).".into(),
            ],
        }
        .with_telemetry(&tel),
        data,
    )
}

/// E5 — Example 5.2: transitive closure across a μ sweep against [22].
pub fn e5_transitive_closure(mus: &[i64]) -> ExperimentReport {
    let mut rows = Vec::new();
    for &mu in mus {
        let alg = algorithms::transitive_closure(mu);
        let space = SpaceMap::row(&[0, 0, 1]);
        let opt = Procedure51::new(&alg, &space).solve().unwrap().expect_optimal("solvable");
        let base = baselines::transitive_closure_baseline_22(mu);
        let report = Simulator::new(&alg, &opt.mapping).run().unwrap();
        let analysis = ConflictAnalysis::new(&opt.mapping, &alg.index_set);
        let gamma = analysis.unique_conflict_vector().unwrap();
        rows.push(vec![
            s(mu),
            format!("{:?}", opt.schedule.as_slice()),
            s(opt.total_time),
            s(mu * (mu + 3) + 1),
            s(base.total_time(&alg)),
            format!("{:.2}×", base.total_time(&alg) as f64 / opt.total_time as f64),
            gamma.to_string(),
            s(report.conflicts.len()),
        ]);
    }
    ExperimentReport {
        id: "E5".into(),
        telemetry: Vec::new(),
        title: "Example 5.2 — transitive closure onto a linear array, optimal vs [22]".into(),
        headers: vec![
            "μ".into(),
            "Π°".into(),
            "t° (found)".into(),
            "μ(μ+3)+1".into(),
            "t' [22] = μ(2μ+3)+1".into(),
            "speedup".into(),
            "γ".into(),
            "conflicts".into(),
        ],
        rows,
        notes: vec![
            "Paper: Π° = [μ+1, 1, 1], improving μ(2μ+3)+1 → μ(μ+3)+1 — reproduced for every μ, asymptotic speedup → 2×.".into(),
        ],
    }
}

/// E6 — bit-level mappings (Theorem 4.7 / 4.8 / Proposition 8.1).
pub fn e6_bitlevel() -> ExperimentReport {
    let mut rows = Vec::new();
    let mut notes = Vec::new();

    // 5-D matmul → 2-D array (kernel dimension 2, Prop 8.1 + Thm 4.7).
    {
        let alg = algorithms::bitlevel_matmul(2, 3);
        let space = SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]);
        let opt = Procedure51::new(&alg, &space).solve().unwrap().expect_optimal("solvable");
        let (u4, u5) = prop_8_1_basis(&opt.mapping).expect("normalized");
        // Closed form generates the same lattice as the hand-rolled HNF.
        let hnf = opt.mapping.hnf();
        let mut lattice_ok = true;
        for u in [&u4, &u5] {
            let beta = hnf.v().mul_vec(u);
            for i in 0..hnf.rank {
                lattice_ok &= beta[i].is_zero();
            }
        }
        let verdict =
            conditions::sign_pattern_condition_on_basis(&[u4, u5], &alg.index_set);
        let report = Simulator::new(&alg, &opt.mapping).run().unwrap();
        rows.push(vec![
            "5-D matmul → 2-D".into(),
            format!("{:?}", opt.schedule.as_slice()),
            s(opt.total_time),
            s(report.conflicts.len()),
            format!("{verdict:?}"),
            s(lattice_ok),
        ]);
        if verdict == ConditionVerdict::Unknown {
            notes.push("5-D→2-D: the exact test certifies the optimum but Theorem 4.7 returns Unknown — the necessity gap (reproduction finding 1) on a real bit-level instance.".into());
        }
    }

    // 4-D convolution → 2-D array (kernel dimension 1, Thm 3.1).
    {
        let alg = algorithms::bitlevel_convolution(3, 3);
        let space = SpaceMap::from_rows(&[&[1, 0, 0, 0], &[0, 1, 0, 0]]);
        let opt = Procedure51::new(&alg, &space).solve().unwrap().expect_optimal("solvable");
        let analysis = ConflictAnalysis::new(&opt.mapping, &alg.index_set);
        let verdict = conditions::theorem_3_1(&analysis, &alg.index_set);
        let report = Simulator::new(&alg, &opt.mapping).run().unwrap();
        rows.push(vec![
            "4-D convolution → 2-D".into(),
            format!("{:?}", opt.schedule.as_slice()),
            s(opt.total_time),
            s(report.conflicts.len()),
            format!("{verdict:?}"),
            s(true),
        ]);
    }

    // 5-D matmul → 1-D array (kernel dimension 3, repaired Thm 4.8).
    {
        let alg = algorithms::bitlevel_matmul(2, 1);
        let space = SpaceMap::row(&[1, 1, 0, 0, 0]);
        let exact = Procedure51::new(&alg, &space).max_objective(45).solve().unwrap().expect_optimal("solvable");
        let paper = Procedure51::new(&alg, &space)
            .condition(ConditionKind::Paper)
            .max_objective(45)
            .solve()
            .unwrap()
            .expect_optimal("solvable");
        let report = Simulator::new(&alg, &exact.mapping).run().unwrap();
        rows.push(vec![
            "5-D matmul → 1-D".into(),
            format!("{:?}", exact.schedule.as_slice()),
            s(exact.total_time),
            s(report.conflicts.len()),
            format!("repaired Thm 4.8 optimum t = {}", paper.total_time),
            s(paper.total_time == exact.total_time),
        ]);
        notes.push("5-D→1-D: Theorem 4.8 as literally stated certifies conflicting mappings (β with a zero component escape conditions (1)–(5)); with the subset repair it matches the exact optimum (reproduction finding 2).".into());
    }

    ExperimentReport {
        id: "E6".into(),
        telemetry: Vec::new(),
        title: "Bit-level mappings — Theorems 4.7/4.8, Proposition 8.1".into(),
        headers: vec![
            "instance".into(),
            "Π°".into(),
            "t°".into(),
            "conflicts".into(),
            "closed-form verdict".into(),
            "Prop 8.1 lattice = HNF lattice / agreement".into(),
        ],
        rows,
        notes,
    }
}

/// E7 — Procedure 5.1 vs the ILP decomposition, and the closed-form
/// conflict test vs index-point enumeration.
pub fn e7_search_vs_ilp(mus: &[i64]) -> ExperimentReport {
    let mut rows = Vec::new();
    for &mu in mus {
        for (alg, space, name) in [
            (algorithms::matmul(mu), SpaceMap::row(&[1, 1, -1]), "matmul"),
            (algorithms::transitive_closure(mu), SpaceMap::row(&[0, 0, 1]), "transitive closure"),
        ] {
            let t0 = Instant::now();
            let search = Procedure51::new(&alg, &space).solve().unwrap().expect_optimal("solvable");
            let t_search = t0.elapsed();
            let t0 = Instant::now();
            let ilp = optimal_schedule_ilp(&alg, &space, 2 * mu + 4, SearchBudget::unlimited())
                .unwrap()
                .expect_optimal("solvable");
            let t_ilp = t0.elapsed();
            rows.push(vec![
                s(name),
                s(mu),
                s(search.objective),
                s(ilp.objective),
                s(search.objective == ilp.objective),
                format!("{:?}", t_search),
                format!("{:?} ({} branches)", t_ilp, ilp.branches_solved),
            ]);
        }
    }
    ExperimentReport {
        id: "E7".into(),
        telemetry: Vec::new(),
        title: "Procedure 5.1 vs ILP decomposition (formulations 5.1–5.2)".into(),
        headers: vec![
            "algorithm".into(),
            "μ".into(),
            "f° (Procedure 5.1)".into(),
            "f° (ILP)".into(),
            "agree".into(),
            "search time".into(),
            "ILP time".into(),
        ],
        rows,
        notes: vec![
            "Both optimizers agree on every instance. The ILP candidates ignore gcd(f)=1 exactly as the paper prescribes; failed candidates fall through to the objective-fiber sweep.".into(),
        ],
    }
}

/// E7b — the paper's core motivation measured: closed-form conflict test
/// vs enumerating all index points.
pub fn e7b_closedform_vs_enumeration(mus: &[i64]) -> ExperimentReport {
    let mut rows = Vec::new();
    for &mu in mus {
        let alg = algorithms::matmul(mu);
        let t = MappingMatrix::new(
            SpaceMap::row(&[1, 1, -1]),
            LinearSchedule::new(&[1, mu, 1]),
        );
        let t0 = Instant::now();
        let analysis = ConflictAnalysis::new(&t, &alg.index_set);
        let closed = analysis.is_conflict_free_exact();
        let t_closed = t0.elapsed();
        let t0 = Instant::now();
        let brute = oracle::is_conflict_free_by_enumeration(&t, &alg.index_set);
        let t_brute = t0.elapsed();
        assert_eq!(closed, brute);
        rows.push(vec![
            s(mu),
            s(alg.num_computations()),
            s(closed),
            format!("{t_closed:?}"),
            format!("{t_brute:?}"),
            format!("{:.1}×", t_brute.as_secs_f64() / t_closed.as_secs_f64().max(1e-9)),
        ]);
    }
    ExperimentReport {
        id: "E7b".into(),
        telemetry: Vec::new(),
        title: "Closed-form conflict test vs index-point enumeration".into(),
        headers: vec![
            "μ".into(),
            "|J|".into(),
            "conflict-free".into(),
            "closed form".into(),
            "enumeration".into(),
            "speedup".into(),
        ],
        rows,
        notes: vec![
            "The paper's motivation: without the conditions, 'even the optimization procedure has to enumerate all index points'. The gap grows as |J| = (μ+1)³.".into(),
        ],
    }
}

/// E8 — the repaired Theorem 4.8 against the oracle on a 5-D → 1-D family.
pub fn e8_thm48() -> ExperimentReport {
    let mut rows = Vec::new();
    let j = IndexSet::new(&[2, 2, 2, 1, 1]);
    let instances: Vec<(&str, Vec<i64>, Vec<i64>)> = vec![
        ("repair regression", vec![1, 1, 0, 0, 0], vec![1, 3, 6, 6, 1]),
        ("optimal found", vec![1, 1, 0, 0, 0], vec![1, 2, 3, 9, 18]),
        ("axis failure", vec![1, 1, 0, 0, 0], vec![1, 2, 1, 1, 1]),
        ("scaled kernel", vec![1, 1, 0, 0, 0], vec![1, 4, 9, 27, 81]),
    ];
    for (name, s_row, pi) in &instances {
        let t = MappingMatrix::from_rows(&[&s_row[..], &pi[..]]);
        let analysis = ConflictAnalysis::new(&t, &j);
        let truth = oracle::is_conflict_free_by_enumeration(&t, &j);
        let verdict = conditions::paper_condition(&analysis, &j);
        let sound = match verdict {
            ConditionVerdict::ConflictFree => truth,
            ConditionVerdict::HasConflict => !truth,
            ConditionVerdict::Unknown => true,
        };
        rows.push(vec![
            s(name),
            format!("{:?}", pi),
            s(truth),
            format!("{verdict:?}"),
            s(sound),
        ]);
    }
    ExperimentReport {
        id: "E8".into(),
        telemetry: Vec::new(),
        title: "Repaired Theorem 4.8 (kernel dimension 3) vs exhaustive oracle".into(),
        headers: vec![
            "instance".into(),
            "Π".into(),
            "conflict-free (oracle)".into(),
            "repaired condition".into(),
            "sound".into(),
        ],
        rows,
        notes: vec![
            "The literal conditions (1)–(5) of Theorem 4.8 certify the 'repair regression' instance although γ = [0,0,1,−1,0] conflicts; the subset-repaired condition does not (reproduction finding 2).".into(),
        ],
    }
}

/// E9 — search-space and decision-cost scaling.
pub fn e9_scaling() -> ExperimentReport {
    let mut rows = Vec::new();
    let mut tel = cfmap_core::SearchTelemetry::default();
    // Candidate-space growth for Procedure 5.1 (the paper's O(n^{2μ+1})
    // remark made concrete).
    for mu in [2i64, 3, 4, 5, 6] {
        let alg = algorithms::matmul(mu);
        let space = SpaceMap::row(&[1, 1, -1]);
        let proc = Procedure51::new(&alg, &space);
        let outcome = proc.solve().unwrap();
        tel.merge(&outcome.telemetry);
        let opt = outcome.expect_optimal("solvable");
        let cands = proc.count_candidates(opt.objective);
        rows.push(vec![
            format!("matmul n=3 μ={mu}"),
            s(opt.objective),
            s(cands),
            s(opt.candidates_examined),
        ]);
    }
    for n in [3usize, 4, 5] {
        let alg = algorithms::identity_cube(n, 2);
        let s_row: Vec<i64> = (0..n).map(|i| i64::from(i == 0)).collect();
        let space = SpaceMap::row(&s_row);
        let proc = Procedure51::new(&alg, &space);
        let outcome = proc.solve().unwrap();
        tel.merge(&outcome.telemetry);
        match outcome.into_mapping() {
            Some(opt) => rows.push(vec![
                format!("identity n={n} μ=2"),
                s(opt.objective),
                s(proc.count_candidates(opt.objective)),
                s(opt.candidates_examined),
            ]),
            None => rows.push(vec![format!("identity n={n} μ=2"), "—".into(), "—".into(), "—".into()]),
        }
    }
    let report = ExperimentReport {
        id: "E9".into(),
        telemetry: Vec::new(),
        title: "Search-space scaling of Procedure 5.1".into(),
        headers: vec![
            "instance".into(),
            "optimal objective f°".into(),
            "candidates below f°".into(),
            "candidates examined".into(),
        ],
        rows,
        notes: vec![
            "Candidate counts grow polynomially in the objective but the objective itself grows with μ — the combined growth is the paper's exponential-in-μ search bound, and why the ILP route matters.".into(),
            "The n = 5 identity row needs schedule entries far beyond the static objective cap Σμ(μ+3) = 50 (f° = 82, schedule [1,27,9,3,1]); the adaptive cap extension (ISSUE 8) proves a screened fallback witness and raises the cap once, so full enumeration now reaches it — E15 shows the symmetry quotient cutting the same search ~20×.".into(),
        ],
    };
    report.with_telemetry(&tel)
}

/// E15 — the symmetry quotient and the enumeration→ILP crossover
/// (ISSUE 8). Part one re-runs the E9 identity family under
/// `SymmetryMode::Quotient` + `TieBreak::LexMax`: one representative per
/// stabilizer orbit, with the full and quotiented candidate counts below
/// the optimum and the realized quotient factor. Part two sweeps matmul
/// under a deliberately tight [`HybridPolicy`] horizon so the
/// level-growth projection trips mid-search and the route flips from
/// enumeration to the ILP decomposition — the crossover the hybrid
/// policy automates at its (much larger) default horizon.
pub fn e15_quotient_and_hybrid() -> ExperimentReport {
    use cfmap_core::search::{HybridPolicy, SymmetryMode, TieBreak};
    use cfmap_core::SolveRoute;
    let mut rows = Vec::new();
    let mut tel = cfmap_core::SearchTelemetry::default();
    let route_name = |r: SolveRoute| match r {
        SolveRoute::Enumeration => "enumeration",
        SolveRoute::HybridIlp => "hybrid-ilp",
    };
    for n in [3usize, 4, 5] {
        let alg = algorithms::identity_cube(n, 2);
        let s_row: Vec<i64> = (0..n).map(|i| i64::from(i == 0)).collect();
        let space = SpaceMap::row(&s_row);
        let outcome = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .symmetry(SymmetryMode::Quotient)
            .solve()
            .unwrap();
        tel.merge(&outcome.telemetry);
        let route = outcome.route;
        let examined = outcome.candidates_examined;
        let opt = outcome.expect_optimal("identity solves under the quotient");
        let counter = Procedure51::new(&alg, &space);
        let full = counter.count_candidates(opt.objective);
        let reps = counter.count_candidates_quotiented(opt.objective);
        rows.push(vec![
            format!("identity n={n} μ=2"),
            s(opt.objective),
            s(full),
            s(reps),
            format!("{:.1}×", full as f64 / reps.max(1) as f64),
            s(examined),
            route_name(route).into(),
        ]);
    }
    // A 300-candidate horizon sits between matmul μ=3 (230 candidates
    // below f°, E9) and μ=4 (376): small sizes stay enumerative, large
    // ones project past the horizon and take the ILP route.
    for mu in [2i64, 3, 4, 5, 6] {
        let alg = algorithms::matmul(mu);
        let space = SpaceMap::row(&[1, 1, -1]);
        let outcome = Procedure51::new(&alg, &space)
            .tie_break(TieBreak::LexMax)
            .symmetry(SymmetryMode::Quotient)
            .hybrid(HybridPolicy { candidate_horizon: 300, min_levels: 3 })
            .solve()
            .unwrap();
        tel.merge(&outcome.telemetry);
        let route = outcome.route;
        let examined = outcome.candidates_examined;
        let opt = outcome.expect_optimal("matmul solves on either route");
        let counter = Procedure51::new(&alg, &space);
        let full = counter.count_candidates(opt.objective);
        let reps = counter.count_candidates_quotiented(opt.objective);
        rows.push(vec![
            format!("matmul μ={mu} (horizon 300)"),
            s(opt.objective),
            s(full),
            s(reps),
            format!("{:.1}×", full as f64 / reps.max(1) as f64),
            s(examined),
            route_name(route).into(),
        ]);
    }
    let report = ExperimentReport {
        id: "E15".into(),
        telemetry: Vec::new(),
        title: "Symmetry quotient & enumeration→ILP crossover".into(),
        headers: vec![
            "instance".into(),
            "optimal objective f°".into(),
            "full candidates below f°".into(),
            "orbit representatives".into(),
            "quotient factor".into(),
            "candidates examined".into(),
            "route".into(),
        ],
        rows,
        notes: vec![
            "Quotienting is bit-identical to full enumeration under the LexMax pin (the lex-max winner of a level is its own orbit's representative) — `quotient_props` proves it differentially on every n ≤ 4 catalogue problem.".into(),
            "The identity-family quotient factor approaches |S_{n−1}| = (n−1)! as the box widens: 1.8× (n=3), 4.9× (n=4), 20.2× (n=5) against the limits 2, 6, 24.".into(),
            "identity n=5 — E9's historical give-up — now solves under the default budget: quotiented enumeration reaches f° = 82 after the adaptive cap extension, never taking the ILP route (a 1-row space map is outside the ILP decomposition's k = n−1 shape).".into(),
            "The matmul sweep shows the policy's crossover: once the projected next level pushes the total past the horizon, the search escalates; the ILP proves the same optimum and the outcome is tagged hybrid-ilp so the family fitter and cache treat it correctly.".into(),
        ],
    };
    report.with_telemetry(&tel)
}

/// E16 — the unified screening core (DESIGN.md §15): full enumeration
/// vs the symmetry quotient under the `LexMax` pin, both screening by
/// box-kernel tables, on the bit-level Procedure 5.1 rows of E10 and on
/// fixed-schedule frontiers, whose space corners answer Problem 6.1
/// (`pareto_props` holds the joint frontier's quotient). The experiment
/// *asserts* bit-identical results (certification, design, objective)
/// before any timing is reported, so the table can never show a speedup
/// bought with a different answer.
pub fn e16_screening_core() -> ExperimentReport {
    use cfmap_core::pareto::ParetoSearch;
    use cfmap_core::search::{SymmetryMode, TieBreak};

    // Sub-50 ms budgets signal a CI smoke run: keep the instance shapes
    // (r ≥ 2 bit-level rows) but shrink the boxes/caps so the whole
    // experiment fits a wall-clock ceiling.
    let smoke = std::env::var("CFMAP_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|ms| ms < 50);

    let mut rows = Vec::new();
    let mut tel = cfmap_core::SearchTelemetry::default();
    let speed = |base: std::time::Duration, fast: std::time::Duration| {
        format!("{:.1}×", base.as_secs_f64() / fast.as_secs_f64().max(1e-9))
    };

    // Part A — fixed-S schedule searches on the 5-D bit-level kernels,
    // the E10 rows with r ≥ 2 kernel dimensions.
    let bit_cases: Vec<(&str, cfmap_model::Uda, SpaceMap, i64)> = if smoke {
        vec![
            (
                "bit-matmul 5D→2D (r=2, smoke)",
                algorithms::bitlevel_matmul(2, 2),
                SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]),
                0,
            ),
            (
                "bit-matmul 5D→1D (r=3, smoke)",
                algorithms::bitlevel_matmul(2, 1),
                SpaceMap::row(&[1, 1, 0, 0, 0]),
                25,
            ),
        ]
    } else {
        vec![
            (
                "bit-matmul 5D→2D (r=2)",
                algorithms::bitlevel_matmul(2, 3),
                SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]),
                0,
            ),
            (
                "bit-matmul 5D→1D (r=3)",
                algorithms::bitlevel_matmul(2, 1),
                SpaceMap::row(&[1, 1, 0, 0, 0]),
                45,
            ),
        ]
    };
    for (name, alg, space, cap) in &bit_cases {
        let mk = |fast: bool| {
            let mut p = Procedure51::new(alg, space).tie_break(TieBreak::LexMax);
            if fast {
                p = p.symmetry(SymmetryMode::Quotient);
            }
            if *cap > 0 {
                p = p.max_objective(*cap);
            }
            p
        };
        let t0 = Instant::now();
        let base = mk(false).solve().unwrap();
        let t_base = t0.elapsed();
        let t0 = Instant::now();
        let fast = mk(true).solve().unwrap();
        let t_fast = t0.elapsed();
        assert_eq!(fast.certification, base.certification, "{name}: certification diverged");
        let obj = match (&base.mapping, &fast.mapping) {
            (Some(b), Some(f)) => {
                assert_eq!(f.objective, b.objective, "{name}: objective diverged");
                assert_eq!(
                    f.schedule.as_slice(),
                    b.schedule.as_slice(),
                    "{name}: schedule diverged"
                );
                format!("t = {}", b.total_time)
            }
            (None, None) => "none within cap".into(),
            _ => panic!("{name}: mapping presence diverged"),
        };
        rows.push(vec![
            s(name),
            obj,
            format!("{t_base:?}"),
            format!("{t_fast:?}"),
            speed(t_base, t_fast),
            s(fast.telemetry.orbits_pruned),
        ]);
        tel.merge(&fast.telemetry);
    }

    // Part B — fixed-schedule frontiers (Problem 6.1): `S` varies under
    // a fixed Π, so the box-kernel table is built from Π. The quotient
    // must leave every frontier point as full enumeration finds it.
    let mut space_cases: Vec<(&str, cfmap_model::Uda, Vec<i64>)> =
        vec![("space matmul μ=4, Π=[1,4,1]", algorithms::matmul(4), vec![1, 4, 1])];
    if !smoke {
        let tc = algorithms::transitive_closure(4);
        space_cases.push(("space TC μ=4, Π=[5,1,1]", tc, vec![5, 1, 1]));
    }
    for (name, alg, pi) in &space_cases {
        let schedule = LinearSchedule::new(pi);
        let mk = |mode| ParetoSearch::new(alg).fixed_schedule(&schedule).symmetry(mode);
        let t0 = Instant::now();
        let base = mk(SymmetryMode::Full).solve().unwrap();
        let t_base = t0.elapsed();
        let t0 = Instant::now();
        let fast = mk(SymmetryMode::Quotient).solve().unwrap();
        let t_fast = t0.elapsed();
        assert_eq!(fast.len(), base.len(), "{name}: frontier size diverged");
        for (f, b) in fast.points.iter().zip(&base.points) {
            assert_eq!(f.space, b.space, "{name}: space map diverged");
            assert_eq!(f.space_cost(), b.space_cost(), "{name}: cost diverged");
        }
        let obj = match base.space_corner() {
            Some(b) => format!("cost = {}", b.space_cost()),
            None => "—".into(),
        };
        rows.push(vec![
            s(name),
            obj,
            format!("{t_base:?}"),
            format!("{t_fast:?}"),
            speed(t_base, t_fast),
            s(fast.telemetry.orbits_pruned),
        ]);
        tel.merge(&fast.telemetry);
    }

    let report = ExperimentReport {
        id: "E16".into(),
        telemetry: Vec::new(),
        title: "Unified screening core — symmetry quotient vs full enumeration, box-kernel screening".into(),
        headers: vec![
            "instance".into(),
            "optimum (both routes)".into(),
            "full enumeration".into(),
            "quotient".into(),
            "speedup".into(),
            "orbits pruned".into(),
        ],
        rows,
        notes: vec![
            "Full enumeration screens every candidate; the quotient screens one representative per symmetry orbit. The bit-level rows run Procedure 5.1 under the LexMax tie-break; the space rows run the fixed-schedule Pareto frontier, whose space corner is Problem 6.1's answer, and screen its whole space-map pool. The experiment asserts certification, design and objective equality row by row (every frontier point for the space rows) before timing anything.".into(),
            "Every row decides the rank and conflict gates by dot products against a box-kernel table built once per search from the fixed side of T = [S; Π]: the space map S for Procedure 5.1 (the bit-level rows), the schedule Π for the space rows. No row computes a Hermite form or runs an exact lattice search, so the speedup is the quotient's alone.".into(),
            "Every search runs on its caller's thread, so timings here are single-threaded and speedups are purely algorithmic.".into(),
            "Both columns use the allocation-free i64 condition-1 gate. Against the pre-§15 screen (bignum condition-1 gate, measured 1.10 s and 3.49 s on the two bit-level rows), the quotient plus the since-retired kernel-lattice verdict cache measured 15.7× and 10.6× when they were introduced, before the box-kernel table.".into(),
        ],
    };
    report.with_telemetry(&tel)
}

/// E17 — resource-aware Pareto frontiers (DESIGN.md §17): the exact
/// non-dominated set over time × PEs × wires (× peak link bandwidth)
/// per search scope. The fixed-space time corner is *asserted* equal to
/// Procedure 5.1 before anything is reported, mirroring E16's contract;
/// the fixed-schedule space corner is Problem 6.1's answer itself.
pub fn e17_pareto_frontiers() -> ExperimentReport {
    use cfmap_core::pareto::{ParetoFrontier, ParetoSearch, ResourceModel};
    use cfmap_core::search::TieBreak;
    use cfmap_systolic::peak_link_load;

    // Sub-50 ms budgets signal a CI smoke run: same scopes and axes,
    // smaller boxes and caps.
    let smoke = std::env::var("CFMAP_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|ms| ms < 50);
    let (fixed_mu, joint_mu, joint_cap, tc_cap) =
        if smoke { (2i64, 2i64, 10i64, 12i64) } else { (4, 3, 25, 19) };

    let mut rows = Vec::new();
    let mut tel = cfmap_core::SearchTelemetry::default();
    let span = |f: &ParetoFrontier| {
        let (lo, hi) = (f.points.first(), f.points.last());
        match (lo, hi) {
            (Some(a), Some(b)) if f.len() > 1 => format!(
                "t {}–{}, PEs {}–{}",
                a.total_time, b.total_time, b.processors, a.processors
            ),
            (Some(a), _) => format!("t {}, PEs {}", a.total_time, a.processors),
            _ => "—".into(),
        }
    };
    let mut push = |name: String, scope: &str, axes: usize, f: &ParetoFrontier, corner: &str, t: std::time::Duration| {
        rows.push(vec![
            name,
            scope.into(),
            s(axes),
            s(f.len()),
            span(f),
            corner.into(),
            s(f.dominated_pruned),
            s(f.candidates_examined),
            format!("{t:?}"),
        ]);
    };

    // Fixed space — the time corner must be Procedure 5.1's LexMax
    // winner, schedule and makespan bit-identical.
    let alg = algorithms::matmul(fixed_mu);
    let space = SpaceMap::row(&[1, 1, -1]);
    let (f, t_fs) = best_of_five(|| ParetoSearch::new(&alg).fixed_space(&space).solve().unwrap());
    let classic = Procedure51::new(&alg, &space)
        .tie_break(TieBreak::LexMax)
        .solve()
        .unwrap()
        .expect_optimal("matmul is feasible");
    let corner = f.time_corner().expect("non-empty frontier");
    assert_eq!(corner.total_time, classic.total_time, "E17: time corner diverged");
    assert_eq!(
        corner.schedule.as_slice(),
        classic.schedule.as_slice(),
        "E17: corner witness diverged"
    );
    tel.merge(&f.telemetry);
    push(
        format!("matmul μ={fixed_mu}, S=[1,1,−1]"),
        "fixed space",
        3,
        &f,
        "= Procedure 5.1 (asserted)",
        t_fs,
    );

    // Fixed schedule — the space corner is Problem 6.1's answer.
    let pi_vec: Vec<i64> = if smoke { vec![1, 1, 1] } else { vec![1, 4, 1] };
    let pi = LinearSchedule::new(&pi_vec);
    let (f, t_fp) = best_of_five(|| ParetoSearch::new(&alg).fixed_schedule(&pi).solve().unwrap());
    let corner = f.space_corner().expect("some space map works");
    let answer = format!("Problem 6.1: S={:?}, cost {}", corner.space_rows()[0], corner.space_cost());
    tel.merge(&f.telemetry);
    push(format!("matmul μ={fixed_mu}, Π={pi_vec:?}"), "fixed schedule", 3, &f, &answer, t_fp);

    // Joint scope, 3 axes — the full trade-off curve.
    for (alg, cap, name) in [
        (algorithms::matmul(joint_mu), joint_cap, format!("matmul μ={joint_mu}")),
        (algorithms::transitive_closure(joint_mu), tc_cap, format!("tc μ={joint_mu}")),
    ] {
        let (f, t) = best_of_five(|| ParetoSearch::new(&alg).max_objective(cap).solve().unwrap());
        tel.merge(&f.telemetry);
        push(name, "joint", 3, &f, "—", t);
    }

    // Joint scope with the bandwidth axis, unbounded and then under a
    // binding per-link budget: the probe is the simulator's link-load
    // accounting, so unroutable designs drop out and every surviving
    // point carries the load its mesh links must actually sustain.
    let alg = algorithms::matmul(joint_mu);
    let probe = |m: &MappingMatrix| peak_link_load(&alg, m);
    for (budget, label) in [(None, "joint +bw"), (Some(1u64), "joint +bw ≤1")] {
        let (f, t) = best_of_five(|| {
            ParetoSearch::new(&alg)
                .max_objective(joint_cap)
                .resources(ResourceModel {
                    max_bandwidth: budget,
                    include_bandwidth: true,
                    ..Default::default()
                })
                .bandwidth_probe(&probe)
                .solve()
                .unwrap()
        });
        if let Some(b) = budget {
            assert!(
                f.points.iter().all(|p| p.bandwidth.is_some_and(|bw| bw <= b)),
                "E17: bandwidth budget violated"
            );
        }
        tel.merge(&f.telemetry);
        push(format!("matmul μ={joint_mu}"), label, 4, &f, "—", t);
    }

    let report = ExperimentReport {
        id: "E17".into(),
        telemetry: Vec::new(),
        title: "Resource-aware Pareto frontiers — time × PEs × wires (× bandwidth)".into(),
        headers: vec![
            "instance".into(),
            "scope".into(),
            "axes".into(),
            "frontier".into(),
            "range".into(),
            "corner".into(),
            "dominated pruned".into(),
            "candidates examined".into(),
            "duration (best of 5)".into(),
        ],
        rows,
        notes: vec![
            "One witness survives per distinct objective vector (the lex-greatest (S, Π) achieving it), so the frontier is a pure function of the problem — `tests/pareto_props.rs` proves equality with a brute-force oracle on exhaustively-enumerable problems and bit-identity across the symmetry quotient.".into(),
            "The fixed-space time corner is asserted equal to Procedure 5.1 under `TieBreak::LexMax` before the row is reported. The fixed-schedule space corner is Problem 6.1's answer: the frontier walks its space-map pool in cost order, and `space_joint_props` holds the corner against a Hermite-route reference.".into(),
            "The bandwidth axis is fed by `cfmap_systolic::peak_link_load` — mesh-routed, all channels aggregated per directed link; designs with Π·d̄ < ‖S·d̄‖₁ are unroutable and leave the candidate space. Tracking bandwidth disables the early-stop and the symmetry quotient, so the 4-axis rows screen the full horizon.".into(),
            "A per-link budget (`max_bandwidth`) is a hard feasibility filter: the ≤1 row keeps exactly the designs a single-word-per-cycle mesh can carry.".into(),
        ],
    };
    report.with_telemetry(&tel)
}

/// E10 — ablation: Procedure 5.1 driven by the paper's closed-form
/// conditions vs the exact lattice test (DESIGN.md's called-out design
/// choice).
pub fn e10_condition_ablation() -> ExperimentReport {
    let mut rows = Vec::new();
    let cases: Vec<(&str, cfmap_model::Uda, SpaceMap, i64)> = vec![
        ("matmul μ=4 (r=1)", algorithms::matmul(4), SpaceMap::row(&[1, 1, -1]), 0),
        ("TC μ=4 (r=1)", algorithms::transitive_closure(4), SpaceMap::row(&[0, 0, 1]), 0),
        (
            "bit-matmul 5D→2D (r=2)",
            algorithms::bitlevel_matmul(2, 3),
            SpaceMap::from_rows(&[&[1, 0, 0, 0, 0], &[0, 1, 0, 0, 0]]),
            0,
        ),
        (
            "bit-matmul 5D→1D (r=3)",
            algorithms::bitlevel_matmul(2, 1),
            SpaceMap::row(&[1, 1, 0, 0, 0]),
            45,
        ),
    ];
    for (name, alg, space, cap) in &cases {
        let mk = |kind: ConditionKind| {
            let mut p = Procedure51::new(alg, space).condition(kind);
            if *cap > 0 {
                p = p.max_objective(*cap);
            }
            p
        };
        let t0 = Instant::now();
        let exact = mk(ConditionKind::Exact).solve().unwrap().into_mapping();
        let t_exact = t0.elapsed();
        let t0 = Instant::now();
        let paper = mk(ConditionKind::Paper).solve().unwrap().into_mapping();
        let t_paper = t0.elapsed();
        let fmt = |o: &Option<cfmap_core::OptimalMapping>| match o {
            Some(m) => format!("t = {}", m.total_time),
            None => "none within cap".into(),
        };
        rows.push(vec![
            s(name),
            fmt(&exact),
            format!("{t_exact:?}"),
            fmt(&paper),
            format!("{t_paper:?}"),
            s(match (&exact, &paper) {
                (Some(a), Some(b)) => (a.total_time == b.total_time).to_string(),
                _ => "—".into(),
            }),
        ]);
    }
    ExperimentReport {
        id: "E10".into(),
        telemetry: Vec::new(),
        title: "Ablation — Procedure 5.1 with exact lattice test vs paper's closed-form conditions".into(),
        headers: vec![
            "instance".into(),
            "exact optimum".into(),
            "exact time".into(),
            "paper-conditions optimum".into(),
            "paper time".into(),
            "same optimum".into(),
        ],
        rows,
        notes: vec![
            "The closed-form conditions are cheaper per candidate but, being sufficient-only for r ≥ 2, can reject optimal candidates and settle on equal-time alternatives (or, at larger r, later ones). With the repaired Thm 4.8 both routes agree on every instance here.".into(),
        ],
    }
}

/// E11 — Problem 6.1 (the paper's future work): space-optimal mappings
/// under the fixed time-optimal schedules, the space corners of the
/// fixed-schedule frontiers.
pub fn e11_space_optimal() -> ExperimentReport {
    use cfmap_core::pareto::ParetoSearch;
    let mut rows = Vec::new();
    let cases: Vec<(&str, cfmap_model::Uda, Vec<i64>, &str, i64)> = vec![
        ("matmul μ=4", algorithms::matmul(4), vec![1, 4, 1], "[1,1,-1] (13 PEs + 3 wires)", 16),
        ("TC μ=4", algorithms::transitive_closure(4), vec![5, 1, 1], "[0,0,1] (5 PEs + 3 wires)", 8),
        ("convolution", algorithms::convolution(5, 3), vec![1, 6], "[1,-1] (9 PEs + 2 wires)", 11),
    ];
    for (name, alg, pi, paper_space, paper_cost) in &cases {
        let schedule = LinearSchedule::new(pi);
        let frontier = ParetoSearch::new(alg).fixed_schedule(&schedule).solve().unwrap();
        match frontier.space_corner() {
            Some(sol) => {
                let clean = oracle::is_conflict_free_by_enumeration(&sol.mapping, &alg.index_set);
                rows.push(vec![
                    s(name),
                    format!("{pi:?}"),
                    s(paper_space),
                    s(paper_cost),
                    format!("{} ({} PEs + {} wires)", sol.space, sol.processors, sol.wires),
                    s(sol.space_cost()),
                    s(clean),
                ]);
            }
            None => rows.push(vec![
                s(name),
                format!("{pi:?}"),
                s(paper_space),
                s(paper_cost),
                "—".into(),
                "—".into(),
                "—".into(),
            ]),
        }
    }
    ExperimentReport {
        id: "E11".into(),
        telemetry: Vec::new(),
        title: "Problem 6.1 (future work, implemented) — space-optimal maps under fixed schedules".into(),
        headers: vec![
            "instance".into(),
            "Π (fixed)".into(),
            "paper's S".into(),
            "paper cost".into(),
            "space-optimal S".into(),
            "cost".into(),
            "conflict-free".into(),
        ],
        rows,
        notes: vec![
            "Under the same optimal schedule, the space corner of the fixed-schedule frontier (entry bound 2) is at most as expensive as the paper's design (e.g. matmul: S = [1,−1,0] with 9 PEs beats the paper's 13-PE array at equal total time). Ties go to the lex-greatest map of the cheapest cost: [1,−1,0] over [0,1,−1] for matmul, [0,1,0] over the paper's [0,0,1] for TC.".into(),
        ],
    }
}

/// E12 — Problem 6.2 (joint `S`, `Π` optimization) with absolute
/// lower-bound context. Both criteria are corners of one joint Pareto
/// frontier, so one search answers both.
pub fn e12_joint_and_bounds() -> ExperimentReport {
    use cfmap_core::pareto::{ParetoPoint, ParetoSearch};
    use cfmap_core::search::SymmetryMode;
    use cfmap_model::bounds;
    let mut rows = Vec::new();
    let cases: Vec<(&str, cfmap_model::Uda, i64)> = vec![
        ("matmul μ=4", algorithms::matmul(4), 25),
        ("TC μ=4", algorithms::transitive_closure(4), 29),
        ("convolution 5×3", algorithms::convolution(5, 3), -1),
        ("sor 4×4", algorithms::sor(4, 4), -1),
    ];
    for (name, alg, fixed_s_time) in &cases {
        let cp = bounds::critical_path(alg);
        let lin = bounds::linear_schedule_bound(alg, 80).map_or("—".into(), |t| t.to_string());
        let (frontier, elapsed) = best_of_five(|| {
            ParetoSearch::new(alg).entry_bound(1).symmetry(SymmetryMode::Quotient).solve().unwrap()
        });
        let fmt = |o: Option<&ParetoPoint>| match o {
            Some(p) => {
                format!("t={} cost={} (S={:?})", p.total_time, p.space_cost(), p.space_rows()[0])
            }
            None => "—".into(),
        };
        rows.push(vec![
            s(name),
            s(cp),
            lin,
            if *fixed_s_time > 0 { s(fixed_s_time) } else { "—".into() },
            fmt(frontier.time_corner()),
            fmt(frontier.space_corner()),
            format!("{elapsed:?}"),
        ]);
    }
    ExperimentReport {
        id: "E12".into(),
        telemetry: Vec::new(),
        title: "Problem 6.2 (future work, implemented) — joint (S, Π) optimization vs absolute bounds".into(),
        headers: vec![
            "instance".into(),
            "critical path".into(),
            "best linear t (no conflict constraint)".into(),
            "paper fixed-S optimum".into(),
            "joint, time-first".into(),
            "joint, space-first".into(),
            "joint frontier search (best of 5)".into(),
        ],
        rows,
        notes: vec![
            "critical path ≤ linear bound ≤ conflict-free optimum on every instance; the gap between the last two is the price of conflict-freedom under a lower-dimensional space map.".into(),
            "Both criteria are corners of one joint Pareto frontier (entry bound 1, symmetry-quotiented): time-first minimizes (time, PEs + wires), space-first (PEs + wires, time), ties to the lex-greatest (S, Π).".into(),
            "Extension finding: freeing S improves the transitive closure beyond the paper's fixed-S optimum — S = [1,0,−1] with Π = [4,1,1] admits t = 25 < μ(μ+3)+1 = 29 at μ = 4, conflict-free (verified exactly).".into(),
        ],
    }
}

/// E13 — the hot path of Procedure 5.1: per-candidate screening cost,
/// legacy (from-scratch bignum Hermite form + eager unimodular inverse,
/// exactly what each candidate cost before the fast path) vs the
/// incremental screen (pre-eliminated i64 `S` prefix completed with the
/// candidate's Π row, inverse left lazy). The candidate sets are the
/// ones the real searches examine, recorded via the candidate probe.
pub fn e13_hot_path() -> ExperimentReport {
    use cfmap_intlin::{hermite_normal_form_bignum, hnf_prefix_i64, HnfWorkspace};

    // Per-case measurement budget, sharing the benches' knob so CI smoke
    // runs stay fast (`CFMAP_BENCH_MS=5`).
    let budget = std::time::Duration::from_millis(
        std::env::var("CFMAP_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(200).max(1),
    );
    let cases: Vec<(&str, cfmap_model::Uda, Vec<i64>)> = vec![
        ("matmul μ=4", algorithms::matmul(4), vec![1, 1, -1]),
        ("TC μ=4", algorithms::transitive_closure(4), vec![0, 0, 1]),
    ];
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (name, alg, s_row) in &cases {
        let space = SpaceMap::row(s_row);
        // Record every candidate the search actually examines.
        let seen = std::sync::Mutex::new(Vec::<Vec<i64>>::new());
        let probe = |pi: &[i64]| seen.lock().unwrap().push(pi.to_vec());
        Procedure51::new(alg, &space)
            .candidate_probe(&probe)
            .solve()
            .expect("search ran")
            .expect_optimal("optimum exists");
        let candidates = seen.into_inner().unwrap();

        let prefix = hnf_prefix_i64(space.as_mat()).expect("paper-sized S fits i64");
        let mut ws = HnfWorkspace::new();
        let t_of = |pi: &[i64]| space.as_mat().vstack(&IMat::row_vector(pi));
        // Correctness first: the incremental screen is bit-identical to
        // the from-scratch Hermite form on every examined candidate.
        for pi in &candidates {
            let full = hermite_normal_form_bignum(&t_of(pi));
            let inc = prefix.complete(pi, &mut ws).expect("paper candidates fit i64");
            assert_eq!((&inc.h, &inc.u, inc.rank), (&full.h, &full.u, full.rank), "Π = {pi:?}");
        }

        // One pass = screen the whole candidate set; min over repeated
        // passes inside the budget approximates the steady-state cost.
        let time_passes = |screen: &mut dyn FnMut(&[i64])| {
            let mut min = std::time::Duration::MAX;
            let deadline = Instant::now() + budget;
            loop {
                let t0 = Instant::now();
                for pi in &candidates {
                    screen(pi);
                }
                min = min.min(t0.elapsed());
                if Instant::now() >= deadline {
                    return min;
                }
            }
        };
        let legacy = time_passes(&mut |pi| {
            let h = hermite_normal_form_bignum(&t_of(pi));
            std::hint::black_box(h.v());
        });
        let incremental = time_passes(&mut |pi| {
            std::hint::black_box(prefix.complete(pi, &mut ws));
        });
        let per = |d: std::time::Duration| d.as_nanos() / candidates.len() as u128;
        let speedup = legacy.as_nanos() as f64 / incremental.as_nanos().max(1) as f64;
        rows.push(vec![
            s(name),
            s(candidates.len()),
            format!("{} ns", per(legacy)),
            format!("{} ns", per(incremental)),
            format!("{speedup:.1}×"),
        ]);
        notes.push(format!(
            "{name}: every incremental Hermite form verified bit-identical to the from-scratch one, so the search outcome is unchanged by construction."
        ));
    }
    notes.push(
        "legacy = per-candidate bignum HNF with the unimodular inverse computed eagerly (the pre-optimization screen); incremental = i64 completion of the pre-eliminated S prefix with the inverse left lazy.".into(),
    );
    ExperimentReport {
        id: "E13".into(),
        telemetry: Vec::new(),
        title: "Procedure 5.1 hot path: incremental i64 screening vs from-scratch bignum".into(),
        headers: vec![
            "instance".into(),
            "candidates".into(),
            "legacy / candidate".into(),
            "incremental / candidate".into(),
            "speedup".into(),
        ],
        rows,
        notes,
    }
}

/// E14: family warm-start — answering an unseen size from an
/// affine-in-μ certificate (matrix fill-in + one exact conflict
/// re-check) vs running Procedure 5.1 cold at that size.
pub fn e14_family_warm_start() -> ExperimentReport {
    use cfmap_core::canonicalize;
    use cfmap_core::family::{certify, cold_solve, instantiate, FamilyInstance, FamilyKey};

    let budget = std::time::Duration::from_millis(
        std::env::var("CFMAP_BENCH_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(200).max(1),
    );
    // Min over repeated runs inside the budget: steady-state latency for
    // both the cold solver and the instantiation path.
    let time_min = |f: &mut dyn FnMut()| {
        let mut min = std::time::Duration::MAX;
        let deadline = Instant::now() + budget;
        loop {
            let t0 = Instant::now();
            f();
            min = min.min(t0.elapsed());
            if Instant::now() >= deadline {
                return min;
            }
        }
    };

    // Each case fits μ ∈ {2,3,4} exactly as the service's background
    // fitter does, then answers the target sizes both ways.
    let cases: Vec<(&str, cfmap_model::Uda, Vec<i64>, Vec<i64>)> = vec![
        ("matmul", algorithms::matmul(3), vec![1, 1, -1], vec![9, 17]),
        ("TC", algorithms::transitive_closure(3), vec![0, 0, 1], vec![9]),
    ];
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (name, alg, s_row, targets) in &cases {
        let space = SpaceMap::row(s_row);
        let (key, _) = FamilyKey::of(&canonicalize(alg, &space).problem);
        let fitted = [2i64, 3, 4];
        let t_fit = Instant::now();
        let instances: Vec<FamilyInstance> = fitted
            .iter()
            .map(|&p| cold_solve(&key, p).expect("search ran").expect("feasible"))
            .collect();
        let cert = certify(&key, &instances).expect("family certifies");
        let fit_cost = t_fit.elapsed();
        notes.push(format!(
            "{name}: fitting μ ∈ {{2,3,4}} + symbolic verification + probes cost {fit_cost:?} once; every instantiation after that is pure fill-in."
        ));
        for &p in targets {
            let cold = cold_solve(&key, p).expect("search ran").expect("feasible");
            let problem = key.problem_at(p);
            let inst = instantiate(&cert, &problem).expect("certificate covers the target");
            // The whole point: the warm answer is bit-identical to cold.
            assert_eq!(inst.schedule, cold.schedule, "{name} μ = {p}");
            assert_eq!(inst.objective, cold.objective, "{name} μ = {p}");
            let t_cold = time_min(&mut || {
                std::hint::black_box(cold_solve(&key, p).unwrap());
            });
            let t_warm = time_min(&mut || {
                std::hint::black_box(instantiate(&cert, &problem));
            });
            let speedup = t_cold.as_nanos() as f64 / t_warm.as_nanos().max(1) as f64;
            rows.push(vec![
                format!("{name} μ={p}"),
                format!("t = {}", cold.total_time),
                format!("{t_cold:?}"),
                format!("{t_warm:?}"),
                format!("{speedup:.0}×"),
                "true".into(),
            ]);
        }
    }
    notes.push(
        "cold = full Procedure 5.1 with the LexMax tie-break (the service's cache-miss path); instantiation = Π(μ) fill-in from the affine template plus one exact validity/rank/conflict re-check at the concrete μ — zero candidates enumerated.".into(),
    );
    ExperimentReport {
        id: "E14".into(),
        telemetry: Vec::new(),
        title: "Family warm-start: certificate instantiation vs cold Procedure 5.1".into(),
        headers: vec![
            "instance".into(),
            "optimum".into(),
            "cold solve".into(),
            "instantiation".into(),
            "speedup".into(),
            "bit-identical".into(),
        ],
        rows,
        notes,
    }
}

/// Run every experiment with defaults (used by the harness binary).
pub fn run_all() -> Vec<ExperimentReport> {
    let mut reports = vec![
        e1_feasibility(),
        e2_conflict_vectors(),
        e3_hnf(),
    ];
    let (e4, _) = e4_matmul(&[2, 3, 4, 5, 6, 8, 12]);
    reports.push(e4);
    reports.push(e5_transitive_closure(&[2, 3, 4, 5, 6, 8, 12]));
    reports.push(e6_bitlevel());
    reports.push(e7_search_vs_ilp(&[2, 3, 4, 5]));
    reports.push(e7b_closedform_vs_enumeration(&[4, 6, 8, 10, 14]));
    reports.push(e8_thm48());
    reports.push(e9_scaling());
    reports.push(e10_condition_ablation());
    reports.push(e11_space_optimal());
    reports.push(e12_joint_and_bounds());
    reports.push(e13_hot_path());
    reports.push(e14_family_warm_start());
    reports.push(e15_quotient_and_hybrid());
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_runs_and_matches_paper() {
        let r = e1_feasibility();
        assert_eq!(r.rows.len(), 7);
        // γ₁ = [1,1] non-feasible with 16 colliding source points
        // (4×4 inner grid).
        assert_eq!(r.rows[0][1], "NonFeasible");
        assert_eq!(r.rows[0][2], "16");
        // γ₂ = [3,5] feasible with zero collisions.
        assert_eq!(r.rows[1][1], "Feasible");
        assert_eq!(r.rows[1][2], "0");
    }

    #[test]
    fn e4_small_sweep_matches_formulas() {
        let (_, data) = e4_matmul(&[2, 4]);
        for row in &data {
            assert_eq!(row.t_opt, row.t_formula, "μ = {} (paper formula)", row.mu);
            assert_eq!(row.makespan, row.t_opt, "μ = {}", row.mu);
            assert_eq!(row.violations, 0, "μ = {}", row.mu);
            assert!(row.numeric_ok, "μ = {}", row.mu);
            assert!(row.t_baseline > row.t_opt, "μ = {}", row.mu);
        }
        // μ = 4 row matches the paper's headline numbers.
        let r4 = data.iter().find(|r| r.mu == 4).unwrap();
        assert_eq!(r4.t_opt, 25);
        assert_eq!(r4.t_baseline, 29);
        assert_eq!(r4.buffers, ("3".to_string(), "4".to_string()));
    }

    #[test]
    fn e5_rows_match_formula() {
        let r = e5_transitive_closure(&[2, 3, 4]);
        for row in &r.rows {
            assert_eq!(row[2], row[3], "found time equals μ(μ+3)+1");
            assert_eq!(row[7], "0", "no conflicts");
        }
    }

    #[test]
    fn e8_all_sound() {
        let r = e8_thm48();
        for row in &r.rows {
            assert_eq!(row[4], "true", "unsound verdict in {}", row[0]);
        }
    }

    #[test]
    fn markdown_rendering() {
        let r = e1_feasibility();
        let md = r.to_markdown();
        assert!(md.starts_with("### E1"));
        assert!(md.contains("| γ |"));
        assert!(md.lines().filter(|l| l.starts_with('|')).count() >= 9);
    }

    #[test]
    fn json_rendering_escapes() {
        let r = ExperimentReport {
            id: "X".into(),
            telemetry: Vec::new(),
            title: "quote \" backslash \\ newline \n tab \t".into(),
            headers: vec!["a".into()],
            rows: vec![vec!["b".into()]],
            notes: vec![],
        };
        let j = r.to_json();
        assert!(j.contains(r#"\" backslash \\ newline \n tab \t"#), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
        // Balanced braces/brackets (cheap well-formedness probe).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_rendering_real_report() {
        let j = e1_feasibility().to_json();
        assert!(j.contains("\"id\":\"E1\""));
        assert!(j.contains("NonFeasible"));
        // E1 runs no search, so its telemetry object is empty.
        assert!(j.contains("\"telemetry\":{}"), "{j}");
    }

    #[test]
    fn search_experiments_carry_telemetry() {
        let (r, _) = e4_matmul(&[2]);
        let get = |k: &str| r.telemetry.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert!(get("candidates_enumerated").unwrap() > 0);
        assert_eq!(get("accepted"), Some(1));
        let j = r.to_json();
        assert!(j.contains("\"telemetry\":{\"candidates_enumerated\":"), "{j}");
        assert!(r.to_markdown().contains("search telemetry:"));
    }
}
