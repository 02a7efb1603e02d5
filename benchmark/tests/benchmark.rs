//! The benchmark's own guarantees: seeded streams replay byte for byte,
//! the cold workloads never repeat a problem, and a smoke run reports every
//! metric `BENCHMARK.json` promises without a single failed request.

use cfmap::service::engine::canonical_problem;
use cfmap_benchmark::report::{Catalogue, Results};
use cfmap_benchmark::workload::{Inputs, Item, Workload};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

/// The package is a workspace of its own, outside the repository's
/// `crates/*`, so it carries the repository's hermetic-build rule itself:
/// every dependency is an in-tree path, there is no build script, and the
/// lock file names no registry or git source.
#[test]
fn the_package_builds_from_the_tree_alone() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml reads");
    let mut section = String::new();
    let mut deps = 0;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.trim().to_string();
            continue;
        }
        if line.is_empty() || !section.ends_with("dependencies") {
            continue;
        }
        deps += 1;
        let spec = line.split_once('=').map_or("", |(_, s)| s);
        let banned = ["version", "git", "registry", "branch", "rev", "tag"];
        assert!(
            spec.contains("path") && !banned.iter().any(|k| spec.contains(k)),
            "Cargo.toml [{section}] {line} is not an in-tree path dependency"
        );
    }
    assert!(
        deps > 0,
        "no dependency entries found; the parser regressed"
    );
    assert!(
        !manifest.contains("build ="),
        "Cargo.toml declares a build script"
    );
    assert!(!dir.join("build.rs").exists(), "build.rs exists");
    let lock = std::fs::read_to_string(dir.join("Cargo.lock")).expect("Cargo.lock reads");
    assert!(
        !lock.contains("source = "),
        "Cargo.lock resolves a package from outside the tree"
    );
}

/// The first `n` request bodies of a stream, concatenated.
fn stream_text(inputs: &Inputs, n: usize) -> String {
    (0..n)
        .filter_map(|i| inputs.item_index(i))
        .map(|i| inputs.items[i].body())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn the_same_seed_gives_a_byte_identical_stream() {
    for w in Workload::ALL {
        let a = Inputs::generate(w, 7, 600);
        let b = Inputs::generate(w, 7, 600);
        let c = Inputs::generate(w, 8, 600);
        let shorter = Inputs::generate(w, 7, 300);
        assert_eq!(stream_text(&a, 2000), stream_text(&b, 2000), "{}", w.name());
        assert!(
            stream_text(&a, 2000).starts_with(&stream_text(&shorter, 300)),
            "{}: a longer stream does not extend a shorter one",
            w.name()
        );
        assert_ne!(
            stream_text(&a, 2000),
            stream_text(&c, 2000),
            "{} ignores its seed",
            w.name()
        );
        let warm_a: Vec<&str> = a.warmup.iter().map(|p| p.body.as_str()).collect();
        let warm_b: Vec<&str> = b.warmup.iter().map(|p| p.body.as_str()).collect();
        assert_eq!(warm_a, warm_b, "{}", w.name());
    }
}

/// A Pareto request's identity up to axis relabeling: the least
/// `(μ, sorted columns)` over every axis permutation, plus its knobs.
fn pareto_key(mu: &[i64], deps: &[Vec<i64>], knobs: String) -> (Vec<i64>, Vec<Vec<i64>>, String) {
    let perms: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let (mu, deps) = perms
        .iter()
        .map(|p| {
            let mut cols: Vec<Vec<i64>> = deps
                .iter()
                .map(|d| p.iter().map(|&c| d[c]).collect())
                .collect();
            cols.sort();
            (p.iter().map(|&c| mu[c]).collect::<Vec<i64>>(), cols)
        })
        .min()
        .expect("six permutations");
    (mu, deps, knobs)
}

#[test]
fn cold_workloads_never_repeat_a_canonical_problem() {
    let map = Inputs::generate(Workload::MapCold, 3, 3000);
    assert_eq!(map.items.len(), 3000);
    let mut seen = HashSet::new();
    for item in &map.items {
        let Item::Map(p) = item else {
            panic!("map-cold sends /map requests")
        };
        assert!(
            seen.insert(canonical_problem(&p.request).expect("well formed")),
            "repeated: {}",
            p.body
        );
    }
    let pareto = Inputs::generate(Workload::ParetoCold, 3, 3000);
    assert_eq!(pareto.items.len(), 3000);
    let mut seen = HashSet::new();
    for item in &pareto.items {
        let Item::Pareto(p) = item else {
            panic!("pareto-cold sends /pareto requests")
        };
        let r = &p.request;
        let knobs = format!("{} {:?} {:?}", r.include_bandwidth, r.cap, r.entry_bound);
        let key = pareto_key(&r.mu, r.deps.as_deref().expect("structural"), knobs);
        assert!(seen.insert(key), "repeated: {}", p.body);
    }
}

/// Release daemons for the smoke run, built into a directory of their own
/// so this never waits on the lock of the build running the tests.
fn daemons() -> PathBuf {
    let root = repo_root();
    let target = root.join("target").join("benchmark-test-daemons");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "cfmapd",
            "--bin",
            "cfmapd-router",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the daemons failed");
    target.join("release")
}

#[test]
fn a_smoke_run_reports_every_promised_metric_without_errors() {
    let root = repo_root();
    let bins = daemons();
    let catalogue = Catalogue::load(&root).expect("BENCHMARK.json reads");
    for trace in ["0", "1"] {
        let out = root
            .join("target")
            .join("benchmark")
            .join(format!("smoke-test-trace{trace}.json"));
        let status = Command::new(env!("CARGO_BIN_EXE_cfmap-benchmark"))
            .args(["--smoke", "--seed", "5", "--trace", trace, "--root"])
            .arg(&root)
            .arg("--bin-dir")
            .arg(&bins)
            .arg("--out")
            .arg(&out)
            .stdout(Stdio::null())
            .status()
            .expect("the benchmark runs");
        assert!(
            status.success(),
            "smoke run with --trace {trace} failed: {status}"
        );
        let results = Results::load(&out).expect("the result file reads");
        assert_eq!(results.workloads.len(), Workload::ALL.len());
        for (workload, runs) in &results.workloads {
            let run = &runs[0];
            assert!(
                run.correct() && run.failed == 0 && run.attempted > 0,
                "{workload}: {run:?}"
            );
            assert_eq!(run.value("error_rate"), Some(0.0), "{workload}");
            for spec in catalogue.promised(trace == "1") {
                let value = run
                    .value(&spec.name)
                    .unwrap_or_else(|| panic!("{workload} lacks {}", spec.name));
                assert!(value.is_finite(), "{workload} {} = {value}", spec.name);
            }
        }
    }
}
