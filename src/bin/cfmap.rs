//! `cfmap` — command-line front end to the conflict-free mapping library.
//!
//! ```text
//! cfmap map       --alg matmul --mu 4 --space 1,1,-1        # Problem 2.2
//! cfmap analyze   --alg matmul --mu 4 --space 1,1,-1 --pi 1,4,1
//! cfmap simulate  --alg matmul --mu 4 --space 1,1,-1 --pi 1,4,1 [--diagram]
//! cfmap space-opt --alg matmul --mu 4 --pi 1,4,1             # Problem 6.1
//! cfmap list                                                 # workloads
//! ```
//!
//! Argument parsing is deliberately dependency-free (`--key value` pairs).
//!
//! Exit codes are structured so scripts can branch on the failure class:
//! `0` success, `1` infeasible (the search proved no mapping exists within
//! its caps), `2` usage error, `3` a structured [`CfmapError`] (overflow,
//! exhausted budget, shape mismatch, …).

use cfmap::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

/// CLI failure classes, each with its own exit code.
enum CliError {
    /// Bad arguments (exit 2).
    Usage(String),
    /// The search completed and proved infeasibility (exit 1).
    Infeasible(String),
    /// A structured library error surfaced (exit 3).
    Failed(CfmapError),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Infeasible(_) => ExitCode::from(1),
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Failed(_) => ExitCode::from(3),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Infeasible(m) => write!(f, "{m}"),
            CliError::Failed(e) => write!(f, "{e}"),
        }
    }
}

impl From<CfmapError> for CliError {
    fn from(e: CfmapError) -> Self {
        CliError::Failed(e)
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Usage(m.to_string())
    }
}

fn main() -> ExitCode {
    // Dying with a panic backtrace when stdout is closed early
    // (`cfmap … | head`) is hostile; treat a broken pipe as the normal
    // end of output, like every other Unix filter. Rust only exposes
    // SIGPIPE through the print panic, so intercept exactly that panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str);
        if msg.is_some_and(|m| m.contains("Broken pipe")) {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(reads) = options_of(command) else {
        eprintln!("error: unknown command {command:?}");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(&args[1..], command, reads) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "map" => cmd_map(&opts),
        "analyze" => cmd_analyze(&opts),
        "simulate" => cmd_simulate(&opts),
        "space-opt" => cmd_space_opt(&opts),
        "pareto" => cmd_pareto(&opts),
        "joint" => cmd_joint(&opts),
        "bounds" => cmd_bounds(&opts),
        "client" => cmd_client(&opts),
        "list" => cmd_list(),
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

const USAGE: &str = "\
cfmap — time-optimal conflict-free mappings onto lower-dimensional arrays

USAGE:
  cfmap map       --alg <name> --mu <n> --space <row[;row]> [--trace]  find Π° (Problem 2.2)
  cfmap analyze   --alg <name> --mu <n> --space <row> --pi <row> conflict analysis of T = [S; Π]
  cfmap simulate  --alg <name> --mu <n> --space <row> --pi <row> [--diagram] cycle-level simulation
  cfmap space-opt --alg <name> --mu <n> --pi <row> [--entry-bound N] [--trace]
                  find S° (Problem 6.1)
  cfmap pareto    --alg <name> --mu <n> [--space <row> | --pi <row>] [--bandwidth]
                  [--max-pes N] [--max-wires N] [--max-bandwidth N]   Pareto frontier
  cfmap joint     --alg <name> --mu <n> [--criterion time|space] [--trace] find (S°, Π°) (Problem 6.2)
  cfmap bounds    --alg <name> --mu <n>                          absolute lower bounds
  cfmap client    --addr host:port --alg <name> --mu <n> --space <row>  ask a running cfmapd
  cfmap client    --addr host:port --get /metrics               scrape one daemon route
  cfmap client    --addr host:port --post /pareto --body '<json>'  POST a raw body to a route
  cfmap list                                                     available workloads

CLIENT OPTIONS:
  --deadline-ms         absolute request deadline, anchored when the daemon
                        accepts the connection (queue wait counts); past it
                        the daemon answers best-effort
  --connect-timeout-ms  TCP connect timeout (default 5000)
  --read-timeout-ms     socket read timeout (default 30000)
  --write-timeout-ms    socket write timeout (default 30000)
  --retries             attempts after the first on i/o errors and 503 sheds,
                        with jittered exponential backoff honoring the
                        daemon's Retry-After (default 0)

OPTIONS:
  --alg       matmul | transitive-closure | convolution | lu | sor | matvec |
              identity4 | bitlevel-matmul | bitlevel-convolution | bitlevel-lu
  --mu        problem size μ (bit-level kernels use μ_w = μ and μ_b = μ+1)
  --space     space map rows, comma-separated entries, ';' between rows: \"1,1,-1\" or \"1,0,0,0,0;0,1,0,0,0\"
  --pi        schedule vector: \"1,4,1\"
  --cap       objective cap for searches (default: heuristic)
  --max-candidates  search budget: stop after examining N candidates (best-effort result)
  --timeout-ms      search budget: stop after N milliseconds of wall clock
  --diagram   print the space-time diagram (linear arrays)
  --bandwidth pareto: track peak link bandwidth as a fourth objective axis
  --max-pes / --max-wires / --max-bandwidth   pareto: resource budgets
  --entry-bound  pareto/space-opt: bound on |s_i| for enumerated rows (default 2)
  --get       client: GET a daemon route (/metrics, /stats, /healthz) and print the body
  --post      client: POST --body to a daemon route (/pareto, /map) and print the body
  --trace     after the mapping, print the per-stage search trace
              (candidates per screening gate, conflict rules hit, timing)

EXIT CODES:
  0  success        1  search proved infeasibility
  2  usage error    3  structured failure (overflow, exhausted budget, …)";

type Opts = HashMap<String, String>;

/// The options `command` reads, or `None` for an unknown command. Any
/// other `--key` is a usage error, so a misspelt or misplaced option is
/// refused instead of silently ignored.
fn options_of(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "map" => &["alg", "mu", "space", "cap", "max-candidates", "timeout-ms", "trace"],
        "analyze" => &["alg", "mu", "space", "pi"],
        "simulate" => &["alg", "mu", "space", "pi", "diagram"],
        "space-opt" => &["alg", "mu", "pi", "entry-bound", "max-candidates", "timeout-ms", "trace"],
        "pareto" => &[
            "alg", "mu", "space", "pi", "cap", "entry-bound", "max-candidates", "timeout-ms",
            "bandwidth", "max-pes", "max-wires", "max-bandwidth",
        ],
        "joint" => &["alg", "mu", "criterion", "max-candidates", "timeout-ms", "trace"],
        "bounds" => &["alg", "mu"],
        "client" => &[
            "addr", "connect-timeout-ms", "read-timeout-ms", "write-timeout-ms", "retries", "get",
            "post", "body", "alg", "mu", "space", "cap", "max-candidates", "timeout-ms",
            "deadline-ms",
        ],
        "list" | "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// Parse `--key value` pairs (`--diagram`, `--trace` and `--bandwidth`
/// take no value), refusing any key `command` does not read.
fn parse_opts(args: &[String], command: &str, reads: &[&str]) -> Result<Opts, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --option, got {a:?}"));
        };
        if !reads.contains(&key) {
            return Err(format!("unknown option {a:?} for `cfmap {command}`"));
        }
        if key == "diagram" || key == "trace" || key == "bandwidth" {
            map.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn parse_row(s: &str) -> Result<Vec<i64>, String> {
    s.split(',')
        .map(|p| p.trim().parse::<i64>().map_err(|_| format!("bad integer {p:?}")))
        .collect()
}

fn get_alg(opts: &Opts) -> Result<Uda, String> {
    let name = opts.get("alg").ok_or("--alg required")?;
    let mu: i64 = opts
        .get("mu")
        .ok_or("--mu required")?
        .parse()
        .map_err(|_| "bad --mu")?;
    if mu < 1 {
        return Err("--mu must be ≥ 1".into());
    }
    Ok(match name.as_str() {
        "matmul" => algorithms::matmul(mu),
        "transitive-closure" | "tc" => algorithms::transitive_closure(mu),
        "convolution" | "conv" => algorithms::convolution(mu, (mu / 2).max(1)),
        "lu" => algorithms::lu_decomposition(mu),
        "sor" => algorithms::sor(mu, mu),
        "matvec" => algorithms::matvec(mu, mu),
        "identity4" => algorithms::identity_cube(4, mu),
        "bitlevel-matmul" => algorithms::bitlevel_matmul(mu, mu + 1),
        "bitlevel-convolution" => algorithms::bitlevel_convolution(mu, mu + 1),
        "bitlevel-lu" => algorithms::bitlevel_lu(mu, mu + 1),
        other => return Err(format!("unknown algorithm {other:?} (try `cfmap list`)")),
    })
}

fn get_space(opts: &Opts, n: usize) -> Result<SpaceMap, String> {
    let spec = opts.get("space").ok_or("--space required")?;
    let rows: Result<Vec<Vec<i64>>, String> = spec.split(';').map(parse_row).collect();
    let rows = rows?;
    for r in &rows {
        if r.len() != n {
            return Err(format!("space row has {} entries, algorithm has n = {n}", r.len()));
        }
    }
    let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
    Ok(SpaceMap::from_rows(&refs))
}

fn get_pi(opts: &Opts, n: usize) -> Result<LinearSchedule, String> {
    let row = parse_row(opts.get("pi").ok_or("--pi required")?)?;
    if row.len() != n {
        return Err(format!("--pi has {} entries, algorithm has n = {n}", row.len()));
    }
    Ok(LinearSchedule::new(&row))
}

/// Assemble a [`SearchBudget`] from `--max-candidates` / `--timeout-ms`.
fn get_budget(opts: &Opts) -> Result<SearchBudget, String> {
    let mut budget = SearchBudget::unlimited();
    if let Some(v) = opts.get("max-candidates") {
        let n: u64 = v.parse().map_err(|_| "bad --max-candidates")?;
        budget = budget.with_candidates(n);
    }
    if let Some(v) = opts.get("timeout-ms") {
        let ms: u64 = v.parse().map_err(|_| "bad --timeout-ms")?;
        budget = budget.with_wall_clock(Duration::from_millis(ms));
    }
    Ok(budget)
}

fn cmd_list() -> Result<(), CliError> {
    println!("available workloads (all sizes parameterized by --mu):");
    for alg in algorithms::all_small() {
        println!("  {}", alg.name);
    }
    Ok(())
}

fn cmd_map(opts: &Opts) -> Result<(), CliError> {
    let alg = get_alg(opts)?;
    let space = get_space(opts, alg.dim())?;
    let mut proc = Procedure51::new(&alg, &space).budget(get_budget(opts)?);
    if let Some(cap) = opts.get("cap") {
        proc = proc.max_objective(cap.parse().map_err(|_| "bad --cap")?);
    }
    let started = std::time::Instant::now();
    let outcome = proc.solve().map_err(CliError::Failed)?;
    let elapsed = started.elapsed();
    let certification = outcome.certification;
    let telemetry = outcome.telemetry.clone();
    let mapping = outcome.into_mapping();
    if opts.contains_key("trace") {
        print_trace(&telemetry, elapsed);
    }
    let opt = mapping
        .ok_or_else(|| CliError::Infeasible("no conflict-free schedule within the cap".into()))?;
    println!("algorithm : {}", alg.name);
    println!("space map :\n{space}");
    println!("schedule  : {}", opt.schedule);
    println!("mapping   :\n{}", opt.mapping);
    println!("time      : t = {} cycles (objective f = {})", opt.total_time, opt.objective);
    println!("examined  : {} candidates", opt.candidates_examined);
    println!("certified : {certification}");
    let array = SystolicArray::synthesize(&alg, &opt.mapping);
    println!("array     : {} PEs, {}-D, bounds {:?}", array.num_processors(), array.dims(), array.bounds());
    Ok(())
}

/// The `--trace` table: one row per screening gate of Definition 2.2,
/// then the conflict-rule breakdown and wall-clock time. The same
/// counters ride the daemon's `/metrics` endpoint and the bench JSON.
fn print_trace(tel: &cfmap::core::SearchTelemetry, elapsed: Duration) {
    println!("search trace:");
    for (label, v) in [
        ("candidates enumerated", tel.enumerated),
        ("rejected: schedule", tel.rejected_schedule),
        ("rejected: prefilter", tel.rejected_prefilter),
        ("rejected: rank", tel.rejected_rank),
        ("rejected: conflict", tel.rejected_conflict),
        ("rejected: unroutable", tel.rejected_unroutable),
        ("accepted", tel.accepted),
        ("hnf computations", tel.hnf_computations),
        ("fallback screened", tel.fallback_screened),
        ("orbits pruned", tel.orbits_pruned),
    ] {
        println!("  {label:<22} : {v}");
    }
    for (rule, n) in tel.condition_hits.entries() {
        if n > 0 {
            println!("  conflict rule {rule:<8} : {n}");
        }
    }
    if let Some(limit) = tel.budget_limit {
        let name = match limit {
            cfmap::core::BudgetLimit::Candidates => "candidates",
            cfmap::core::BudgetLimit::Nodes => "nodes",
            cfmap::core::BudgetLimit::WallClock => "wall_clock",
            cfmap::core::BudgetLimit::Deadline => "deadline",
            cfmap::core::BudgetLimit::Cancelled => "cancelled",
        };
        println!("  budget tripped         : {name}");
    }
    if !tel.levels.is_empty() {
        let per_level: Vec<String> = tel
            .levels
            .iter()
            .map(|l| format!("{}:{}", l.objective, l.enumerated))
            .collect();
        println!(
            "  per level (f:examined) : {}{}",
            per_level.join(" "),
            if tel.levels_truncated { " …" } else { "" }
        );
    }
    println!("  solve wall time        : {} µs", elapsed.as_micros());
    println!();
}

fn cmd_analyze(opts: &Opts) -> Result<(), CliError> {
    let alg = get_alg(opts)?;
    let space = get_space(opts, alg.dim())?;
    let pi = get_pi(opts, alg.dim())?;
    let mapping = MappingMatrix::new(space, pi);
    println!("{mapping}");
    let diagnosis = cfmap::core::diagnose(&alg, &mapping, None);
    println!("{diagnosis}");
    if diagnosis.is_valid() {
        println!("\nverdict: CONFLICT-FREE (exact lattice test)");
    } else {
        println!("\nverdict: CONFLICTS / INVALID (see failed conditions above)");
    }
    Ok(())
}

/// `cfmap joint` — Problem 6.2: the corner of the joint frontier (entry
/// bound 1, symmetry-quotiented when unbudgeted) that `--criterion`
/// names.
fn cmd_joint(opts: &Opts) -> Result<(), CliError> {
    let alg = get_alg(opts)?;
    let space_first = match opts.get("criterion").map(String::as_str) {
        None | Some("time") => false,
        Some("space") => true,
        Some(other) => {
            return Err(CliError::Usage(format!("unknown criterion {other:?} (time|space)")))
        }
    };
    let search = ParetoSearch::new(&alg)
        .entry_bound(1)
        .symmetry(cfmap::core::SymmetryMode::Quotient)
        .budget(get_budget(opts)?);
    let started = std::time::Instant::now();
    let frontier = search.solve().map_err(CliError::Failed)?;
    let elapsed = started.elapsed();
    if opts.contains_key("trace") {
        print_trace(&frontier.telemetry, elapsed);
    }
    let corner = if space_first { frontier.space_corner() } else { frontier.time_corner() };
    let p = corner.ok_or_else(|| {
        CliError::Infeasible("no conflict-free joint design within the objective cap Σ μ_i(μ_i + 3)".into())
    })?;
    let certification = frontier_certification(&frontier);
    println!("space map  : {}", p.space);
    println!("schedule   : {}", p.schedule);
    println!("total time : {} cycles", p.total_time);
    println!("space cost : {} (sites + wires)", p.space_cost());
    println!("certified  : {certification}");
    Ok(())
}

/// A frontier the search budget cut short is best-effort: its points
/// are real designs, but the frontier may be missing some.
fn frontier_certification(frontier: &ParetoFrontier) -> Certification {
    match frontier.telemetry.budget_limit {
        Some(_) => Certification::BestEffort { candidates_examined: frontier.candidates_examined },
        None => Certification::Optimal,
    }
}

fn cmd_bounds(opts: &Opts) -> Result<(), CliError> {
    let alg = get_alg(opts)?;
    println!("algorithm             : {}", alg.name);
    println!("computations |J|      : {}", alg.num_computations());
    println!("critical path         : {} cycles", critical_path(&alg));
    match linear_schedule_bound(&alg, 200) {
        Some(t) => println!("best linear schedule  : {t} cycles (conflicts ignored)"),
        None => println!("best linear schedule  : none within cap"),
    }
    for pes in [1usize, 4, 16] {
        println!(
            "pigeonhole ({pes:>3} PEs)  : {} cycles",
            pigeonhole_bound(&alg, pes)
        );
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), CliError> {
    let alg = get_alg(opts)?;
    let space = get_space(opts, alg.dim())?;
    let pi = get_pi(opts, alg.dim())?;
    let mapping = MappingMatrix::new(space, pi);
    let report = Simulator::new(&alg, &mapping).run().map_err(CliError::Failed)?;
    println!("computations : {}", report.computations);
    println!("makespan     : {} cycles", report.makespan());
    println!("conflicts    : {}", report.conflicts.len());
    println!("peak par.    : {}", report.peak_parallelism);
    let stats = UtilizationStats::from_report(&report);
    println!("utilization  : {:.1}% mean, imbalance {:.2}", stats.mean_utilization() * 100.0, stats.load_imbalance());
    if opts.contains_key("diagram") {
        if mapping.k() == 2 {
            println!("\n{}", cfmap::systolic::diagram::space_time_diagram(&report, &mapping));
        } else {
            eprintln!("(diagram only available for linear arrays)");
        }
    }
    Ok(())
}

/// `cfmap client` — submit one mapping request to a running `cfmapd`
/// and mirror the daemon's answer onto the CLI's exit-code taxonomy.
fn cmd_client(opts: &Opts) -> Result<(), CliError> {
    use cfmap::service::client::{Client, ClientConfig};
    use cfmap::service::wire::{MapRequest, MapResponse};
    use std::str::FromStr;

    let addr = opts.get("addr").ok_or("--addr required (host:port of a running cfmapd)")?;
    let mut config = ClientConfig::default();
    let timeout_ms = |key: &str| -> Result<Option<Duration>, CliError> {
        opts.get(key)
            .map(|v| {
                v.parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| CliError::Usage(format!("bad --{key}")))
            })
            .transpose()
    };
    if let Some(d) = timeout_ms("connect-timeout-ms")? {
        config.connect_timeout = d;
    }
    if let Some(d) = timeout_ms("read-timeout-ms")? {
        config.read_timeout = d;
    }
    if let Some(d) = timeout_ms("write-timeout-ms")? {
        config.write_timeout = d;
    }
    if let Some(v) = opts.get("retries") {
        config.retries = v.parse().map_err(|_| "bad --retries")?;
    }
    let mut client = Client::new(addr, config);
    // `--get PATH` is the ops escape hatch: scrape any daemon route
    // (/metrics, /stats, /healthz) without needing curl on the box.
    if let Some(path) = opts.get("get") {
        let reply = client
            .get(path)
            .map_err(|e| CliError::Usage(format!("cfmapd at {addr}: {e}")))?;
        if reply.status != 200 {
            return Err(CliError::Usage(format!("GET {path}: HTTP {}", reply.status)));
        }
        print!("{}", reply.body);
        return Ok(());
    }
    // `--post PATH --body JSON` is the raw escape hatch for routes the
    // CLI has no dedicated verbs for (/pareto, /batch): the body is
    // forwarded verbatim and the daemon's answer printed as-is.
    if let Some(path) = opts.get("post") {
        let body = opts.get("body").ok_or("--post needs --body '<json>'")?;
        let reply = client
            .post(path, body)
            .map_err(|e| CliError::Usage(format!("cfmapd at {addr}: {e}")))?;
        println!("{}", reply.body);
        if reply.status >= 400 {
            return Err(CliError::Usage(format!("POST {path}: HTTP {}", reply.status)));
        }
        return Ok(());
    }
    let name = opts.get("alg").ok_or("--alg required")?.clone();
    let mu: i64 = opts.get("mu").ok_or("--mu required")?.parse().map_err(|_| "bad --mu")?;
    let spec = opts.get("space").ok_or("--space required")?;
    let space: Vec<Vec<i64>> =
        spec.split(';').map(parse_row).collect::<Result<_, String>>()?;
    let mut request = MapRequest::named(&name, mu, space);
    if let Some(cap) = opts.get("cap") {
        request.cap = Some(cap.parse().map_err(|_| "bad --cap")?);
    }
    if let Some(v) = opts.get("max-candidates") {
        request.max_candidates = Some(v.parse().map_err(|_| "bad --max-candidates")?);
    }
    if let Some(v) = opts.get("timeout-ms") {
        request.timeout_ms = Some(v.parse().map_err(|_| "bad --timeout-ms")?);
    }
    if let Some(v) = opts.get("deadline-ms") {
        request.deadline_ms = Some(v.parse().map_err(|_| "bad --deadline-ms")?);
    }
    let reply = client
        .post("/map", &request.to_json().serialize())
        .map_err(|e| CliError::Usage(format!("cfmapd at {addr}: {e}")))?;
    let response = MapResponse::from_str(&reply.body)
        .map_err(|e| CliError::Usage(format!("cfmapd at {addr}: {e}")))?;
    match response {
        MapResponse::Ok(o) => {
            let pi: Vec<String> = o.schedule.iter().map(i64::to_string).collect();
            println!("schedule  : [{}]", pi.join(", "));
            println!("time      : t = {} cycles (objective f = {})", o.total_time, o.objective);
            println!("array     : {} PEs, {}-D", o.processors, o.array_dims);
            println!("examined  : {} candidates", o.candidates_examined);
            println!(
                "served    : {} ({:?})",
                if o.cached { "design cache" } else { "fresh search" },
                o.certification
            );
            Ok(())
        }
        MapResponse::Infeasible { candidates_examined } => Err(CliError::Infeasible(format!(
            "cfmapd proved infeasibility after {candidates_examined} candidates"
        ))),
        MapResponse::BadRequest { msg } => Err(CliError::Usage(msg)),
        MapResponse::Error(e) => Err(CliError::Failed(e)),
    }
}

/// `cfmap space-opt` — Problem 6.1: the space corner of the
/// fixed-schedule frontier, the cheapest conflict-free `S` (sites +
/// wires) under `--pi`. The pool is screened in cost order, so a corner
/// found before a budget cut is still of optimal cost.
fn cmd_space_opt(opts: &Opts) -> Result<(), CliError> {
    let alg = get_alg(opts)?;
    let pi = get_pi(opts, alg.dim())?;
    let mut search = ParetoSearch::new(&alg).fixed_schedule(&pi).budget(get_budget(opts)?);
    if let Some(b) = opts.get("entry-bound") {
        search = search.entry_bound(b.parse().map_err(|_| "bad --entry-bound")?);
    }
    let started = std::time::Instant::now();
    let frontier = search.solve().map_err(CliError::Failed)?;
    let elapsed = started.elapsed();
    if opts.contains_key("trace") {
        print_trace(&frontier.telemetry, elapsed);
    }
    let p = frontier.space_corner().ok_or_else(|| {
        CliError::Infeasible("no conflict-free space map within the entry bound".into())
    })?;
    println!("schedule      : {pi}");
    println!("space map     : {}", p.space);
    println!("processors    : {}", p.processors);
    println!("wire length   : {}", p.wires);
    println!("combined cost : {}", p.space_cost());
    println!("certified     : {}", Certification::Optimal);
    Ok(())
}

/// `cfmap pareto` — the exact non-dominated set over time × PEs × wires
/// (× peak link bandwidth with `--bandwidth`). Pin `--space` to sweep
/// schedules, `--pi` to sweep 1-row space maps, or neither for the
/// joint sweep. Exit 1 when the budgets admit no design at all.
fn cmd_pareto(opts: &Opts) -> Result<(), CliError> {
    let alg = get_alg(opts)?;
    if opts.contains_key("space") && opts.contains_key("pi") {
        return Err("pin at most one of --space and --pi".into());
    }
    let space = opts.contains_key("space").then(|| get_space(opts, alg.dim())).transpose()?;
    let pi = opts.contains_key("pi").then(|| get_pi(opts, alg.dim())).transpose()?;
    let parse_u64 = |key: &str| -> Result<Option<u64>, CliError> {
        opts.get(key)
            .map(|v| v.parse::<u64>().map_err(|_| CliError::Usage(format!("bad --{key}"))))
            .transpose()
    };
    let model = ResourceModel {
        max_processors: parse_u64("max-pes")?.map(|p| usize::try_from(p).unwrap_or(usize::MAX)),
        max_wires: opts
            .get("max-wires")
            .map(|v| v.parse::<i64>().map_err(|_| CliError::Usage("bad --max-wires".into())))
            .transpose()?,
        max_bandwidth: parse_u64("max-bandwidth")?,
        include_bandwidth: opts.contains_key("bandwidth"),
    };
    let tracks_bandwidth = model.tracks_bandwidth();
    let probe = |m: &MappingMatrix| cfmap::systolic::peak_link_load(&alg, m);
    let mut search = ParetoSearch::new(&alg).resources(model).budget(get_budget(opts)?);
    if let Some(s) = &space {
        search = search.fixed_space(s);
    }
    if let Some(p) = &pi {
        search = search.fixed_schedule(p);
    }
    if let Some(cap) = opts.get("cap") {
        search = search.max_objective(cap.parse().map_err(|_| "bad --cap")?);
    }
    if let Some(b) = opts.get("entry-bound") {
        search = search.entry_bound(b.parse().map_err(|_| "bad --entry-bound")?);
    }
    if tracks_bandwidth {
        search = search.bandwidth_probe(&probe);
    }
    let started = std::time::Instant::now();
    let frontier = search.solve().map_err(CliError::Failed)?;
    let elapsed = started.elapsed();
    println!("algorithm : {}", alg.name);
    let cut = match frontier_certification(&frontier) {
        Certification::Optimal => String::new(),
        best_effort => format!(", {best_effort}"),
    };
    println!(
        "frontier  : {} points ({} dominated/duplicate pruned, {} candidates, {} µs){cut}",
        frontier.len(),
        frontier.dominated_pruned,
        frontier.candidates_examined,
        elapsed.as_micros()
    );
    if frontier.is_empty() {
        return Err(CliError::Infeasible(
            "the resource budgets admit no conflict-free design".into(),
        ));
    }
    let bw_header = if tracks_bandwidth { "  bandwidth" } else { "" };
    println!("{:>6}  {:>5}  {:>5}{}  schedule / space rows", "time", "PEs", "wires", bw_header);
    for p in &frontier.points {
        let bw = match p.bandwidth {
            Some(b) if tracks_bandwidth => format!("  {b:>9}"),
            _ => String::new(),
        };
        let rows: Vec<String> = p
            .space_rows()
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(i64::to_string).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let sched: Vec<String> = p.schedule.as_slice().iter().map(i64::to_string).collect();
        println!(
            "{:>6}  {:>5}  {:>5}{}  Π=[{}] S={}",
            p.total_time,
            p.processors,
            p.wires,
            bw,
            sched.join(","),
            rows.join(";")
        );
    }
    Ok(())
}
