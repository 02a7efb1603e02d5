//! `cfmap-benchmark`: measure cfmapd workloads, or compare two result files.
//!
//! ```text
//! cfmap-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!                 [--repeat R] [--out FILE] [--smoke]
//!                 [--root DIR] [--bin-dir DIR]
//! cfmap-benchmark --diff OLD.json NEW.json
//! ```
//!
//! `run.sh` builds the workspace and this package in release, then calls
//! this binary with `--root` and `--bin-dir` set. `--seconds` is the
//! length of an untraced run's timed phase, `run_seconds` of
//! `BENCHMARK.json` unless given (1 under `--smoke`); the streams and the
//! traced replays do not depend on it. One workload measured
//! once runs in this process; anything more runs each measurement in a
//! fresh child process, so process-wide state (the conflict memo, the
//! allocator) never carries from one measurement into the next.

use cfmap_benchmark::json::Value;
use cfmap_benchmark::procs::Binaries;
use cfmap_benchmark::report::{self, quartiles, Catalogue, Results, Run};
use cfmap_benchmark::run::{measure, Options};
use cfmap_benchmark::workload::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "\
usage: cfmap-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                       [--repeat R] [--out FILE] [--smoke] [--root DIR] [--bin-dir DIR]
       cfmap-benchmark --diff OLD.json NEW.json
workloads: map-cold, map-warm, pareto-cold, fleet-warmstart (default: all)";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
    smoke: bool,
    diff: Option<(PathBuf, PathBuf)>,
    root: PathBuf,
    bin_dir: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
        out: None,
        smoke: false,
        diff: None,
        root: PathBuf::from("."),
        bin_dir: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads
                    .push(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => it.next().is_some_and(|v| v == "1"),
                    _ => true,
                };
            }
            "--repeat" => {
                args.repeat = value("a count")?.parse().map_err(|_| "bad --repeat")?;
                if args.repeat == 0 {
                    return Err("--repeat must be ≥ 1".into());
                }
            }
            "--out" => args.out = Some(value("a path")?.into()),
            "--smoke" => args.smoke = true,
            "--diff" => args.diff = Some((value("two paths")?.into(), value("two paths")?.into())),
            "--root" => args.root = value("a directory")?.into(),
            "--bin-dir" => args.bin_dir = Some(value("a directory")?.into()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(&args, &raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

fn run(args: &Args, raw: &[String]) -> Result<ExitCode, String> {
    let catalogue = Catalogue::load(&args.root)?;
    if let Some((old, new)) = &args.diff {
        let (text, flags) = report::diff(&Results::load(old)?, &Results::load(new)?, &catalogue);
        print!("{text}");
        println!("{flags} flagged");
        return Ok(if flags == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        catalogue.run_seconds
    });
    let out_dir = args.root.join("target").join("benchmark");
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("results.json"));
    let stamp = report::stamp(
        &args.root,
        args.seed,
        seconds,
        args.trace,
        args.smoke,
        args.repeat,
    );
    let promised = catalogue.promised(args.trace);

    if let ([w], 1) = (args.workloads.as_slice(), args.repeat) {
        let bin_dir = args
            .bin_dir
            .clone()
            .unwrap_or_else(|| args.root.join("target").join("release"));
        let opts = Options {
            seed: args.seed,
            seconds,
            trace: args.trace,
            smoke: args.smoke,
            bins: Binaries::in_dir(&bin_dir)?,
            out_dir,
        };
        let run = measure(*w, &opts)?;
        print_run(w.name(), &run);
        if let Some(missing) = promised.iter().find(|s| run.value(&s.name).is_none()) {
            return Err(format!("{} reported no {}", w.name(), missing.name));
        }
        Results {
            stamp,
            workloads: vec![(w.name().to_string(), vec![run.clone()])],
        }
        .write(&out)?;
        println!("{}", run.contract_line(promised).compact());
        return Ok(if run.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    // Several measurements: one child process each, then the summary.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passthrough = strip(raw, &["--workload", "--repeat", "--out"]);
    let mut workloads: Vec<(String, Vec<Run>)> = args
        .workloads
        .iter()
        .map(|w| (w.name().to_string(), Vec::new()))
        .collect();
    for r in 0..args.repeat {
        for (w, runs) in args.workloads.iter().zip(&mut workloads) {
            let part = out_dir.join(format!("part-{}-{}-{r}.json", std::process::id(), w.name()));
            let status = Command::new(&exe)
                .args(&passthrough)
                .args(["--workload", w.name(), "--out"])
                .arg(&part)
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            if status.code() == Some(2) || !part.is_file() {
                return Err(format!("measuring {} failed ({status})", w.name()));
            }
            let mut part_results = Results::load(&part)?;
            let _ = std::fs::remove_file(&part);
            runs.1.append(&mut part_results.workloads.remove(0).1);
        }
    }
    let results = Results { stamp, workloads };
    results.write(&out)?;
    println!(
        "summary over {} run(s) per workload, written to {}",
        args.repeat,
        out.display()
    );
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut line = Vec::new();
    for (name, runs) in &results.workloads {
        for run in runs {
            correct &= run.correct();
            attempted += run.attempted;
            failed += run.failed;
        }
        for (metric, unit, _) in &runs[0].metrics {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.value(metric)).collect();
            let (q1, med, q3) = quartiles(&values);
            println!("  {name:<16} {metric:<34} {med:>16.6} {unit:<9} [q1 {q1:.6}, q3 {q3:.6}]");
            if promised.iter().any(|s| &s.name == metric) {
                let m = Value::Obj(vec![
                    ("value".into(), Value::Num(med)),
                    ("unit".into(), Value::Str(unit.clone())),
                ]);
                line.push((format!("{name}/{metric}"), m));
            }
        }
    }
    let summary = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Obj(line)),
    ]);
    println!("{}", summary.compact());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `raw` without the named options and their values.
fn strip(raw: &[String], drop: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if drop.contains(&a.as_str()) {
            it.next();
        } else {
            out.push(a.clone());
        }
    }
    out
}

fn print_run(workload: &str, run: &Run) {
    for (name, unit, value) in &run.metrics {
        let samples = match name.as_str() {
            "latency_p99_ms" | "latency_p50_ms" => run
                .samples
                .iter()
                .find(|(s, _)| s == "latency_samples")
                .map(|(_, n)| format!("  ({n} samples)"))
                .unwrap_or_default(),
            _ => String::new(),
        };
        println!("  {workload:<16} {name:<34} {value:>16.6} {unit}{samples}");
    }
    let counts: Vec<String> = run
        .samples
        .iter()
        .map(|(n, c)| format!("{n} {c}"))
        .collect();
    println!(
        "  {workload:<16} {} attempted, {} failed, {} wrong answers; {}",
        run.attempted,
        run.failed,
        run.wrong,
        counts.join(", ")
    );
    for p in &run.problems {
        eprintln!("  {workload}: wrong answer: {p}");
    }
}
