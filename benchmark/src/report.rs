//! The metric catalogue (`BENCHMARK.json`), statistics, stamped result
//! files, and `--diff`.

use crate::json::{self, Value};
use crate::trace::DETERMINISTIC;
use std::path::Path;
use std::process::Command;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric the benchmark promises.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the old median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

/// The benchmark's definition, read from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Catalogue {
    /// Default length of one run's timed phase.
    pub run_seconds: f64,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<Spec>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Spec>,
}

impl Catalogue {
    /// Read `BENCHMARK.json` from the repository root.
    pub fn load(root: &Path) -> Result<Catalogue, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let specs = |key: &str| -> Result<Vec<Spec>, String> {
            let list = doc
                .get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("BENCHMARK.json has no {key}"))?;
            list.iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                    Ok(Spec {
                        name: text("name").ok_or("a metric has no name")?,
                        unit: text("unit").ok_or("a metric has no unit")?,
                        better: match text("better").as_deref() {
                            Some("lower") => Better::Lower,
                            Some("higher") => Better::Higher,
                            other => return Err(format!("bad \"better\": {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json has no run_seconds")?,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }

    /// The metrics a run of this kind must report.
    pub fn promised(&self, trace: bool) -> &[Spec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    fn spec(&self, name: &str) -> Option<&Spec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|s| s.name == name)
    }
}

/// One measurement of one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Run {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or were answered wrongly.
    pub failed: u64,
    /// Distinct answers found wrong.
    pub wrong: u64,
    /// `(name, unit, value)`, in measurement order.
    pub metrics: Vec<(String, String, f64)>,
    /// Sample counts behind the metrics.
    pub samples: Vec<(String, u64)>,
    /// The first few explanations of wrong answers.
    pub problems: Vec<String>,
}

impl Run {
    /// A run with no metrics yet.
    pub fn new(attempted: u64, failed: u64, wrong: u64, problems: Vec<String>) -> Run {
        Run {
            attempted,
            failed,
            wrong,
            problems,
            ..Run::default()
        }
    }

    /// Add a metric (an empty floating-point sum is −0; it reads as 0).
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics
            .push((name.to_string(), unit.to_string(), value + 0.0));
    }

    /// Add a sample count.
    pub fn sample(&mut self, name: &str, count: u64) {
        self.samples.push((name.to_string(), count));
    }

    /// A metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, ..)| n == name).map(|m| m.2)
    }

    /// Every answer checked out.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    fn to_json(&self) -> Value {
        let num = |x: u64| Value::Num(x as f64);
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), num(self.attempted)),
            ("failed".into(), num(self.failed)),
            ("wrong".into(), num(self.wrong)),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, u, v)| {
                            (
                                n.clone(),
                                Value::Obj(vec![
                                    ("value".into(), Value::Num(*v)),
                                    ("unit".into(), Value::Str(u.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "samples".into(),
                Value::Obj(
                    self.samples
                        .iter()
                        .map(|(n, c)| (n.clone(), num(*c)))
                        .collect(),
                ),
            ),
            (
                "problems".into(),
                Value::Arr(
                    self.problems
                        .iter()
                        .map(|p| Value::Str(p.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Run, String> {
        let count = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .map(|x| x as u64)
                .ok_or(format!("run has no {k}"))
        };
        let obj = |k: &str| {
            v.get(k)
                .and_then(Value::as_obj)
                .ok_or(format!("run has no {k}"))
        };
        Ok(Run {
            attempted: count("attempted")?,
            failed: count("failed")?,
            wrong: count("wrong")?,
            metrics: obj("metrics")?
                .iter()
                .map(|(n, m)| {
                    let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    (
                        n.clone(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        value,
                    )
                })
                .collect(),
            samples: obj("samples")?
                .iter()
                .map(|(n, c)| (n.clone(), c.as_f64().unwrap_or(0.0) as u64))
                .collect(),
            problems: v
                .get("problems")
                .and_then(Value::as_arr)
                .map(|ps| {
                    ps.iter()
                        .filter_map(|p| p.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// The result line printed last on stdout: the promised metrics only.
    pub fn contract_line(&self, promised: &[Spec]) -> Value {
        let metrics = promised
            .iter()
            .map(|s| {
                let value = self.value(&s.name).unwrap_or(f64::NAN);
                (
                    s.name.clone(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(value)),
                        ("unit".into(), Value::Str(s.unit.clone())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }
}

/// The `p`-quantile of sorted values, interpolating between neighbours.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Every run of every workload, with the stamp of what produced them.
#[derive(Clone, Debug)]
pub struct Results {
    /// Commit, toolchain, machine and settings.
    pub stamp: Value,
    /// Runs per workload, in measurement order.
    pub workloads: Vec<(String, Vec<Run>)>,
}

impl Results {
    /// The result document: the stamp, and per workload every run plus
    /// each metric's median and quartiles across runs.
    pub fn to_json(&self) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, runs)| {
                let mut summary = Vec::new();
                for (metric, unit, _) in &runs[0].metrics {
                    let values: Vec<f64> = runs.iter().filter_map(|r| r.value(metric)).collect();
                    let (q1, med, q3) = quartiles(&values);
                    summary.push((
                        metric.clone(),
                        Value::Obj(vec![
                            ("unit".into(), Value::Str(unit.clone())),
                            ("median".into(), Value::Num(med)),
                            ("q1".into(), Value::Num(q1)),
                            ("q3".into(), Value::Num(q3)),
                        ]),
                    ));
                }
                (
                    name.clone(),
                    Value::Obj(vec![
                        ("summary".into(), Value::Obj(summary)),
                        (
                            "runs".into(),
                            Value::Arr(runs.iter().map(Run::to_json).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("stamp".into(), self.stamp.clone()),
            ("workloads".into(), Value::Obj(workloads)),
        ])
    }

    /// Read a result document from a file.
    pub fn load(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Read a result document.
    pub fn parse(text: &str) -> Result<Results, String> {
        let doc = json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("no workloads")?
            .iter()
            .map(|(name, w)| {
                let runs = w
                    .get("runs")
                    .and_then(Value::as_arr)
                    .ok_or(format!("{name}: no runs"))?;
                Ok((
                    name.clone(),
                    runs.iter()
                        .map(Run::from_json)
                        .collect::<Result<Vec<_>, String>>()?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Results {
            stamp: doc.get("stamp").cloned().unwrap_or(Value::Null),
            workloads,
        })
    }

    /// Write the result document, creating its directory.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json().pretty())
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Median of `metric` across the runs of `workload`.
    fn median_of(&self, workload: &str, metric: &str) -> Option<f64> {
        let runs = &self.workloads.iter().find(|(w, _)| w == workload)?.1;
        let values: Vec<f64> = runs.iter().filter_map(|r| r.value(metric)).collect();
        (!values.is_empty()).then(|| quartiles(&values).1)
    }
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What produced a result: commit and dirty flag (when the tree is a git
/// checkout of its own, not a directory inside some other repository), core
/// count, toolchain, and the run settings.
pub fn stamp(
    root: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
) -> Value {
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "--short", "HEAD"], root))
        .flatten();
    let dirty = commit
        .as_ref()
        .and_then(|_| command_output("git", &["status", "--porcelain"], root));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("commit".into(), commit.map_or(Value::Null, Value::Str)),
        (
            "dirty".into(),
            dirty.map_or(Value::Null, |d| Value::Bool(!d.is_empty())),
        ),
        ("nproc".into(), Value::Num(nproc as f64)),
        (
            "rustc".into(),
            command_output("rustc", &["-V"], root).map_or(Value::Null, Value::Str),
        ),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("trace".into(), Value::Bool(trace)),
        ("smoke".into(), Value::Bool(smoke)),
        ("repeat".into(), Value::Num(repeat as f64)),
    ])
}

/// How much `setup_s` may worsen before it counts, whatever its bound: a
/// set-up takes a few milliseconds, so a share of it is within the
/// scheduling noise of process start-up.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// Compare two result documents metric by metric. Flags an end-to-end
/// metric that worsened beyond its `BENCHMARK.json` bound (`setup_s`:
/// beyond the bound and beyond [`SETUP_FLOOR_S`]), any rise in
/// `error_rate`, and any change in a deterministic count (when both runs
/// replayed the same stream). Returns the report and the number of flags.
pub fn diff(old: &Results, new: &Results, cat: &Catalogue) -> (String, usize) {
    let same_stream = ["seed", "trace", "smoke"]
        .iter()
        .all(|k| old.stamp.get(k) == new.stamp.get(k));
    let mut out = format!(
        "old: {}\nnew: {}\n{:<16} {:<34} {:>14} {:>14} {:>9}\n",
        old.stamp.compact(),
        new.stamp.compact(),
        "workload",
        "metric",
        "old",
        "new",
        "Δ%"
    );
    if !same_stream {
        out.push_str("(seed or mode differ: deterministic counts are not compared)\n");
    }
    let mut flags = 0;
    for (workload, runs) in &new.workloads {
        for (metric, unit, _) in &runs[0].metrics {
            let (Some(o), Some(n)) = (
                old.median_of(workload, metric),
                new.median_of(workload, metric),
            ) else {
                continue;
            };
            let change = if o != 0.0 {
                (n - o) / o.abs() * 100.0
            } else {
                f64::NAN
            };
            let mut flag = String::new();
            if let Some(Spec {
                better,
                bound: Some(bound),
                ..
            }) = cat.spec(metric)
            {
                let floor = if metric == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                };
                let worse = match better {
                    Better::Lower => n > o * (1.0 + bound) && n > o + floor,
                    Better::Higher => n < o * (1.0 - bound),
                };
                if worse {
                    flag = format!("REGRESSION beyond {:.0}%", bound * 100.0);
                    if floor > 0.0 {
                        flag += &format!(" and {:.0} ms", floor * 1e3);
                    }
                }
            }
            if metric == "error_rate" && n > o {
                flag = "REGRESSION: more errors".into();
            }
            if same_stream && DETERMINISTIC.contains(&metric.as_str()) && n != o {
                flag = "BEHAVIOUR CHANGE: deterministic count moved".into();
            }
            flags += usize::from(!flag.is_empty());
            out.push_str(&format!(
                "{workload:<16} {:<34} {o:>14.6} {n:>14.6} {change:>+8.2}% {flag}\n",
                format!("{metric} ({unit})")
            ));
        }
    }
    (out, flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
    }

    #[test]
    fn diff_flags_regressions_and_behaviour_changes() {
        let cat = Catalogue {
            run_seconds: 10.0,
            end_to_end: vec![Spec {
                name: "latency_p50_ms".into(),
                unit: "ms".into(),
                better: Better::Lower,
                bound: Some(0.1),
            }],
            per_layer: Vec::new(),
        };
        let results = |latency: f64, solves: f64| {
            let mut run = Run::new(10, 0, 0, Vec::new());
            run.metric("latency_p50_ms", "ms", latency);
            run.metric("search.solves", "count", solves);
            Results {
                stamp: Value::Obj(vec![("seed".into(), Value::Num(1.0))]),
                workloads: vec![("map-cold".into(), vec![run])],
            }
        };
        let base = results(10.0, 5.0);
        assert_eq!(
            diff(&base, &results(10.5, 5.0), &cat).1,
            0,
            "within the bound"
        );
        assert_eq!(
            diff(&base, &results(11.5, 5.0), &cat).1,
            1,
            "beyond the bound"
        );
        assert_eq!(diff(&base, &results(10.0, 6.0), &cat).1, 1, "a count moved");
        let round_trip = Results::parse(&base.to_json().pretty()).unwrap();
        assert_eq!(round_trip.workloads, base.workloads);
    }

    #[test]
    fn setup_time_counts_only_beyond_its_share_and_the_floor() {
        let cat = Catalogue {
            run_seconds: 10.0,
            end_to_end: vec![Spec {
                name: "setup_s".into(),
                unit: "s".into(),
                better: Better::Lower,
                bound: Some(0.25),
            }],
            per_layer: Vec::new(),
        };
        let results = |setup: f64| {
            let mut run = Run::new(10, 0, 0, Vec::new());
            run.metric("setup_s", "s", setup);
            Results {
                stamp: Value::Null,
                workloads: vec![("fleet-warmstart".into(), vec![run])],
            }
        };
        // 5 ms → 15 ms is +200 % but only +10 ms: within the floor.
        assert_eq!(diff(&results(0.005), &results(0.015), &cat).1, 0);
        assert_eq!(diff(&results(0.005), &results(0.030), &cat).1, 1);
        // 100 ms → 124 ms is +24 ms but within 25 %.
        assert_eq!(diff(&results(0.100), &results(0.124), &cat).1, 0);
        assert_eq!(diff(&results(0.100), &results(0.130), &cat).1, 1);
    }
}
