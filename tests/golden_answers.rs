//! Golden corpus of served answers.
//!
//! `tests/golden_answers.txt` holds request/response pairs: cold `/map`
//! solves at n = 3 and n = 4 (one- and two-row space maps, entries up to
//! ±3), budget-degraded and infeasible answers, family-certificate hits,
//! `/batch`, `/pareto` in all three scopes, and the error text of
//! malformed bodies. The test replays every request, in order, through
//! an in-process [`Engine`] with [`answer_post`] — the function the
//! daemon answers `POST /map`, `/batch` and `/pareto` with — and
//! compares each status and body byte for byte. `candidates_examined`
//! is in the bodies, so the search effort behind each answer is pinned
//! too.
//!
//! A change that alters a served answer must say so and regenerate the
//! file from the generators below:
//!
//! ```sh
//! CFMAP_GOLDEN_REWRITE=1 cargo test --test golden_answers
//! ```
//!
//! File format, one item per line:
//!
//! * `# text` — a comment;
//! * `## title` — a new section, replayed on a fresh engine;
//! * `POST /route body`, then `status body` — one request and its answer;
//! * `FIT`, then `certificates n` — run the family fitter until nothing
//!   is ready, then the number of certificates held.

use cfmap::core::budget::clock;
use cfmap::service::engine::Engine;
use cfmap::service::server::answer_post;
use cfmap::service::wire::{MapRequest, ParetoRequest};
use cfmap_testkit::rng::Rng;
use std::fmt::Write as _;

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_answers.txt");

/// Set to regenerate the corpus instead of checking it.
const REWRITE_VAR: &str = "CFMAP_GOLDEN_REWRITE";

/// One step of a replay.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    /// Start a fresh engine.
    Section(String),
    /// `POST` `body` to `path`.
    Post { path: &'static str, body: String },
    /// Run the family fitter until nothing is ready.
    Fit,
}

/// The answer line a step produces on `engine`.
fn answer(engine: &Engine, step: &Step) -> Option<String> {
    match step {
        Step::Section(_) => None,
        Step::Post { path, body } => {
            let (status, body) = answer_post(engine, path, body, clock::now_micros())
                .unwrap_or_else(|| panic!("{path} is not an engine route"));
            Some(format!("{status} {body}"))
        }
        Step::Fit => {
            while engine.family_fit_step() {}
            Some(format!("certificates {}", engine.family_stats().certificates))
        }
    }
}

/// A fresh engine, sized so no corpus section evicts an entry.
fn engine() -> Engine {
    Engine::new(1024, 4)
}

fn request_line(step: &Step) -> String {
    match step {
        Step::Section(title) => format!("## {title}"),
        Step::Post { path, body } => format!("POST {path} {body}"),
        Step::Fit => "FIT".into(),
    }
}

/// Parse the corpus into steps, each with its recorded answer.
fn parse_corpus(text: &str) -> Vec<(Step, Option<String>)> {
    let mut out = Vec::new();
    let mut lines = text.lines().filter(|l| !l.is_empty() && !l.starts_with("# "));
    while let Some(line) = lines.next() {
        let step = if let Some(title) = line.strip_prefix("## ") {
            Step::Section(title.to_string())
        } else if line == "FIT" {
            Step::Fit
        } else {
            let rest = line.strip_prefix("POST ").unwrap_or_else(|| panic!("bad line {line:?}"));
            let (path, body) = rest.split_once(' ').unwrap_or((rest, ""));
            let path = ["/map", "/batch", "/pareto"]
                .into_iter()
                .find(|p| *p == path)
                .unwrap_or_else(|| panic!("unknown route in {line:?}"));
            Step::Post { path, body: body.to_string() }
        };
        let recorded = match step {
            Step::Section(_) => None,
            _ => Some(lines.next().unwrap_or_else(|| panic!("{line:?} has no answer")).to_string()),
        };
        out.push((step, recorded));
    }
    out
}

#[test]
fn served_answers_match_the_golden_corpus() {
    if std::env::var_os(REWRITE_VAR).is_some() {
        let mut text = String::from(
            "# Golden served answers; see tests/golden_answers.rs. Regenerate with\n\
             # CFMAP_GOLDEN_REWRITE=1 cargo test --test golden_answers\n",
        );
        let mut engine = engine();
        for step in corpus() {
            if let Step::Section(_) = step {
                engine = self::engine();
                text.push('\n');
            }
            writeln!(text, "{}", request_line(&step)).unwrap();
            if let Some(line) = answer(&engine, &step) {
                writeln!(text, "{line}").unwrap();
            }
        }
        std::fs::write(CORPUS, text).expect("corpus is writable");
        return;
    }
    let text = std::fs::read_to_string(CORPUS).expect("tests/golden_answers.txt exists");
    let recorded = parse_corpus(&text);
    assert!(recorded.len() > 100, "the corpus holds {} steps", recorded.len());
    let mut engine = engine();
    let mut mismatches = Vec::new();
    for (step, want) in &recorded {
        if let Step::Section(_) = step {
            engine = self::engine();
        }
        let got = answer(&engine, step);
        if got != *want {
            mismatches.push(format!(
                "{}\n  recorded: {}\n  served:   {}",
                request_line(step),
                want.as_deref().unwrap_or("-"),
                got.as_deref().unwrap_or("-"),
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} served answers differ from the corpus (set {REWRITE_VAR}=1 to regenerate \
         after a deliberate change); first ones:\n{}",
        mismatches.len(),
        recorded.len(),
        mismatches.iter().take(5).cloned().collect::<Vec<_>>().join("\n"),
    );
}

#[test]
fn the_corpus_holds_what_the_generators_produce() {
    // A generator edited without a rewrite would leave the corpus
    // replaying requests nobody generates any more.
    if std::env::var_os(REWRITE_VAR).is_some() {
        return;
    }
    let text = std::fs::read_to_string(CORPUS).expect("tests/golden_answers.txt exists");
    let recorded: Vec<Step> = parse_corpus(&text).into_iter().map(|(s, _)| s).collect();
    assert_eq!(recorded, corpus(), "regenerate with {REWRITE_VAR}=1");
}

// ---------------------------------------------------------------- corpus

fn map(req: &MapRequest) -> Step {
    Step::Post { path: "/map", body: req.to_json().serialize() }
}

fn pareto(req: &ParetoRequest) -> Step {
    Step::Post { path: "/pareto", body: req.to_json().serialize() }
}

fn raw(path: &'static str, body: &str) -> Step {
    Step::Post { path, body: body.to_string() }
}

fn structural(mu: &[i64], deps: &[Vec<i64>], space: &[Vec<i64>]) -> MapRequest {
    MapRequest {
        algorithm: None,
        mu: mu.to_vec(),
        deps: Some(deps.to_vec()),
        space: space.to_vec(),
        cap: None,
        max_candidates: None,
        timeout_ms: None,
        deadline_ms: None,
    }
}

/// Every request of the corpus, in replay order.
fn corpus() -> Vec<Step> {
    let mut steps = Vec::new();
    cold_maps(&mut steps, 3, 0x676f_6c64_656e_2d33);
    cold_maps(&mut steps, 4, 0x676f_6c64_656e_2d34);
    bit_level_maps(&mut steps);
    degraded_and_infeasible(&mut steps);
    family_hits(&mut steps);
    batches(&mut steps);
    malformed(&mut steps);
    pareto_scopes(&mut steps);
    span_bound(&mut steps);
    steps
}

/// A column of `{−1, 0, 1}ⁿ` whose first nonzero entry is positive.
fn positive_column(rng: &mut Rng, n: usize) -> Vec<i64> {
    loop {
        let col: Vec<i64> = (0..n).map(|_| rng.i64_in(-1, 1)).collect();
        if col.iter().find(|&&x| x != 0).is_some_and(|&x| x > 0) {
            return col;
        }
    }
}

/// A nonzero row with entries in `[−3, 3]`.
fn space_row(rng: &mut Rng, n: usize) -> Vec<i64> {
    loop {
        let row: Vec<i64> = (0..n).map(|_| rng.i64_in(-3, 3)).collect();
        if row.iter().any(|&x| x != 0) {
            return row;
        }
    }
}

/// Seeded structural problems with `n` axes: bounds 1–5 (n = 3) or 1–3
/// (n = 4), one to `n + 1` lexicographically positive dependence columns,
/// and one or two space rows with entries up to ±3, so both the gapless
/// one-row images and the images with holes are pinned.
fn cold_maps(steps: &mut Vec<Step>, n: usize, seed: u64) {
    let (count, top) = if n == 3 { (80, 5) } else { (48, 3) };
    steps.push(Step::Section(format!("cold /map, n = {n}")));
    let mut rng = Rng::new(seed);
    for i in 0..count {
        let mu: Vec<i64> = (0..n).map(|_| rng.i64_in(1, top)).collect();
        let mut deps: Vec<Vec<i64>> = Vec::new();
        for _ in 0..rng.usize_in(1, n + 1) {
            let col = positive_column(&mut rng, n);
            if !deps.contains(&col) {
                deps.push(col);
            }
        }
        let rows = if i % 3 == 2 { 2 } else { 1 };
        let space: Vec<Vec<i64>> = (0..rows).map(|_| space_row(&mut rng, n)).collect();
        steps.push(map(&structural(&mu, &deps, &space)));
    }
}

/// The bit-level catalogue under two-row space maps: 2-D arrays whose
/// processor count is a region of `Z²`.
fn bit_level_maps(steps: &mut Vec<Step>) {
    steps.push(Step::Section("bit-level /map, two-row space maps".into()));
    for (name, mu, space) in [
        ("bitlevel-convolution", 1, vec![vec![1, 0, 0, 0], vec![0, 1, 0, 0]]),
        ("bitlevel-convolution", 2, vec![vec![1, 0, 0, 0], vec![0, 1, 0, 0]]),
        ("bitlevel-convolution", 2, vec![vec![1, 1, 0, 0], vec![0, 1, 2, 0]]),
        ("bitlevel-matmul", 1, vec![vec![1, 0, 0, 0, 0], vec![0, 1, 0, 0, 0]]),
        ("bitlevel-matmul", 1, vec![vec![1, 0, 2, 0, 0], vec![0, 1, 0, 3, 0]]),
    ] {
        steps.push(map(&MapRequest::named(name, mu, space)));
    }
}

fn degraded_and_infeasible(steps: &mut Vec<Step>) {
    steps.push(Step::Section("budget-degraded and infeasible /map".into()));
    let matmul = MapRequest::named("matmul", 4, vec![vec![1, 1, -1]]);
    for n in [1, 2, 50] {
        steps.push(map(&MapRequest { max_candidates: Some(n), ..matmul.clone() }));
    }
    // The same budget again is a cache hit of the degraded answer.
    steps.push(map(&MapRequest { max_candidates: Some(2), ..matmul.clone() }));
    steps.push(map(&MapRequest { cap: Some(2), ..matmul.clone() }));
    steps.push(map(&MapRequest { cap: Some(30), ..matmul.clone() }));
    // d and −d: no schedule orders both.
    steps.push(map(&structural(&[3, 3], &[vec![1, 0], vec![-1, 0]], &[vec![0, 1]])));
}

/// The five catalogue families the fleet serves, with their space rows.
const FAMILIES: [(&str, &[i64]); 5] = [
    ("matmul", &[1, 1, -1]),
    ("transitive-closure", &[0, 0, 1]),
    ("lu", &[0, 0, 1]),
    ("sor", &[0, 1]),
    ("matvec", &[0, 1]),
];

/// Warm μ = 2, 3, 4 of every family, fit, then ask for sizes no search
/// ran: each is a certificate instantiation with zero candidates.
fn family_hits(steps: &mut Vec<Step>) {
    steps.push(Step::Section("family-certificate hits".into()));
    for (name, space) in FAMILIES {
        for mu in [2, 3, 4] {
            steps.push(map(&MapRequest::named(name, mu, vec![space.to_vec()])));
        }
    }
    steps.push(Step::Fit);
    for (name, space) in FAMILIES {
        for mu in [5, 6, 7, 9, 13, 17, 24, 31, 41, 50, 60] {
            steps.push(map(&MapRequest::named(name, mu, vec![space.to_vec()])));
        }
    }
    // A repeat is an ordinary cache hit of the instantiated answer.
    steps.push(map(&MapRequest::named("matmul", 17, vec![vec![1, 1, -1]])));
}

fn batches(steps: &mut Vec<Step>) {
    steps.push(Step::Section("/batch".into()));
    let matmul = structural(
        &[3, 3, 3],
        &[vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]],
        &[vec![1, 1, -1]],
    );
    let permuted = structural(
        &[3, 3, 3],
        &[vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]],
        &[vec![-1, 1, 1]],
    );
    let members = [
        matmul.clone(),
        permuted,
        MapRequest { space: vec![vec![2, 2, -2]], ..matmul.clone() },
        MapRequest::named("transitive-closure", 3, vec![vec![0, 0, 1]]),
        MapRequest { max_candidates: Some(3), ..matmul.clone() },
        MapRequest { mu: vec![], ..matmul.clone() },
        matmul,
    ];
    let body = |reqs: &[MapRequest]| {
        let items: Vec<String> = reqs.iter().map(|r| r.to_json().serialize()).collect();
        format!("{{\"requests\":[{}]}}", items.join(","))
    };
    steps.push(raw("/batch", &body(&members)));
    steps.push(raw("/batch", &body(&members[3..4])));
    steps.push(raw("/batch", "{\"requests\":[]}"));
    steps.push(raw("/batch", "{\"requests\":5}"));
    steps.push(raw("/batch", "{\"requests\":[{\"mu\":\"x\"}]}"));
    steps.push(raw("/batch", "[1,2]"));
}

fn malformed(steps: &mut Vec<Step>) {
    steps.push(Step::Section("malformed bodies".into()));
    for body in [
        "",
        "{not json",
        "{}",
        "[]",
        "{\"algorithm\":\"matmul\",\"mu\":[4]}",
        "{\"algorithm\":\"nope\",\"mu\":[4],\"space\":[[1,1,-1]]}",
        "{\"algorithm\":\"matmul\",\"mu\":[0],\"space\":[[1,1,-1]]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4,4],\"space\":[[1,1,-1]]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[1,1]]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[0,0,0]]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[1,0,0],[0,1,0],[0,0,1]]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[1,1,-9223372036854775808]]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[1,1,-1]],\"max_candidates\":-1}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[1,1,-1]],\"cap\":\"x\"}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"deps\":[[1,0,0]],\"space\":[[1,1,-1]]}",
        "{\"mu\":[4,4,4],\"space\":[[1,1,-1]]}",
        "{\"mu\":[4,4,4],\"deps\":[],\"space\":[[1,1,-1]]}",
        "{\"mu\":[4,4,4],\"deps\":[[1,0]],\"space\":[[1,1,-1]]}",
        "{\"mu\":[4,4,4],\"deps\":[[1,0,1099511627777]],\"space\":[[1,1,-1]]}",
        "{\"mu\":[2,2,2,2,2,2,2,2,2],\"deps\":[[1,0,0,0,0,0,0,0,0]],\"space\":[[1,0,0,0,0,0,0,0,0]]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[1,1,-1]]} trailing",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[1,1,-1]],\"mu\":[5]}",
    ] {
        steps.push(raw("/map", body));
    }
    for body in [
        "{not json",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"space\":[[1,1,-1]],\"schedule\":[1,4,1]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"entry_bound\":0}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"entry_bound\":51}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"cap\":0}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"schedule\":[1,4]}",
        "{\"algorithm\":\"matmul\",\"mu\":[4],\"include_bandwidth\":1}",
    ] {
        steps.push(raw("/pareto", body));
    }
}

/// Small frontiers in all three scopes, with bandwidth and budgets.
fn pareto_scopes(steps: &mut Vec<Step>) {
    steps.push(Step::Section("/pareto".into()));
    let fixed_space =
        ParetoRequest { space: Some(vec![vec![1, 1, -1]]), ..ParetoRequest::named("matmul", 2) };
    steps.push(pareto(&fixed_space));
    // Axis-permuted, stated structurally: a hit on the canonical entry.
    steps.push(pareto(&ParetoRequest {
        algorithm: None,
        mu: vec![2, 2, 2],
        deps: Some(vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]),
        space: Some(vec![vec![-1, 1, 1]]),
        ..ParetoRequest::named("matmul", 2)
    }));
    steps.push(pareto(&ParetoRequest { include_bandwidth: true, ..fixed_space.clone() }));
    steps.push(pareto(&ParetoRequest {
        space: Some(vec![vec![0, 0, 1]]),
        ..ParetoRequest::named("transitive-closure", 2)
    }));
    steps.push(pareto(&ParetoRequest {
        schedule: Some(vec![1, 2, 1]),
        ..ParetoRequest::named("matmul", 2)
    }));
    steps.push(pareto(&ParetoRequest {
        schedule: Some(vec![1, 2, 1]),
        max_processors: Some(5),
        ..ParetoRequest::named("matmul", 2)
    }));
    steps.push(pareto(&ParetoRequest {
        schedule: Some(vec![3, 1, 1]),
        entry_bound: Some(1),
        ..ParetoRequest::named("transitive-closure", 2)
    }));
    let joint = ParetoRequest { entry_bound: Some(1), ..ParetoRequest::named("matmul", 2) };
    steps.push(pareto(&joint));
    steps.push(pareto(&ParetoRequest { cap: Some(8), ..joint.clone() }));
    steps.push(pareto(&ParetoRequest { max_wires: Some(2), ..joint.clone() }));
    steps.push(pareto(&ParetoRequest {
        include_bandwidth: true,
        cap: Some(10),
        ..joint.clone()
    }));
    steps.push(pareto(&ParetoRequest {
        max_bandwidth: Some(1),
        cap: Some(10),
        ..joint.clone()
    }));
    steps.push(pareto(&ParetoRequest {
        entry_bound: Some(1),
        ..ParetoRequest::named("transitive-closure", 2)
    }));
}

/// `/map` problems whose processor count would need a bitset over more
/// than 2²⁰ points are refused before any search.
fn span_bound(steps: &mut Vec<Step>) {
    steps.push(Step::Section("processor-span bound".into()));
    // One row with a gap: 1 + 2·524,285 + 3·2 = 2²⁰ + 1 points.
    let gap = structural(&[524_285, 2], &[vec![0, 1]], &[vec![2, 3]]);
    steps.push(map(&gap));
    // Two rows: a (2²⁰ + 1)² grid.
    let grid = MapRequest::named("matmul", 1 << 20, vec![vec![1, 0, 0], vec![0, 1, 0]]);
    steps.push(map(&grid));
    let members = [
        MapRequest::named("matmul", 3, vec![vec![1, 1, -1]]),
        gap,
    ];
    let items: Vec<String> = members.iter().map(|r| r.to_json().serialize()).collect();
    steps.push(raw("/batch", &format!("{{\"requests\":[{}]}}", items.join(","))));
}
