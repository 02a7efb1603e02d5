//! End-to-end tests of the `cfmap` command-line tool.

use std::process::Command;

fn cfmap(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cfmap"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn cfmap_code(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cfmap"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().expect("not signal-killed"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn map_finds_paper_optimum() {
    let (ok, stdout, _) = cfmap(&["map", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1"]);
    assert!(ok);
    assert!(stdout.contains("t = 25 cycles"), "{stdout}");
    assert!(stdout.contains("13 PEs"), "{stdout}");
}

#[test]
fn analyze_flags_conflicting_schedule() {
    let (ok, stdout, _) = cfmap(&[
        "analyze", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1", "--pi", "1,1,4",
    ]);
    assert!(ok);
    assert!(stdout.contains("CONFLICTS"), "{stdout}");
    assert!(stdout.contains("NonFeasible"), "{stdout}");
}

#[test]
fn analyze_certifies_clean_schedule() {
    let (ok, stdout, _) = cfmap(&[
        "analyze", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1", "--pi", "1,4,1",
    ]);
    assert!(ok);
    assert!(stdout.contains("CONFLICT-FREE"), "{stdout}");
}

#[test]
fn simulate_reports_makespan_and_diagram() {
    let (ok, stdout, _) = cfmap(&[
        "simulate", "--alg", "matmul", "--mu", "2", "--space", "1,1,-1", "--pi", "1,2,1",
        "--diagram",
    ]);
    assert!(ok);
    assert!(stdout.contains("makespan     : 9 cycles"), "{stdout}");
    assert!(stdout.contains("conflicts    : 0"), "{stdout}");
    assert!(stdout.contains("PE0"), "{stdout}");
}

#[test]
fn space_opt_matches_library() {
    let (ok, stdout, _) = cfmap(&["space-opt", "--alg", "matmul", "--mu", "4", "--pi", "1,4,1"]);
    assert!(ok);
    assert!(stdout.contains("combined cost : 11"), "{stdout}");
    // The lex-greatest of the two cost-11 maps, [0, 1, −1] and [1, −1, 0].
    assert!(stdout.contains("space map     : [1 -1 0]"), "{stdout}");
    assert!(stdout.contains("certified     : optimal"), "{stdout}");
}

#[test]
fn space_opt_honours_its_entry_bound() {
    let args = ["space-opt", "--alg", "matmul", "--mu", "4", "--pi", "1,4,1", "--entry-bound"];
    let run = |bound: &str| cfmap_code(&[&args[..], &[bound]].concat());
    let (code, stdout, stderr) = run("0");
    assert_eq!(code, 1, "an empty pool is infeasible: {stdout}{stderr}");
    let (code, stdout, _) = run("1");
    assert_eq!(code, 0);
    assert!(stdout.contains("combined cost : 11"), "{stdout}");
}

/// The pool is screened in cost order: [0,0,1], [0,1,0], [1,0,0] at
/// cost 6 (all rejected), then [0,0,2] (rejected) and [0,1,−1] at cost
/// 11. Five candidates reach an optimal-cost design; four find none.
#[test]
fn space_opt_cuts_its_pool_in_cost_order() {
    let args = ["space-opt", "--alg", "matmul", "--mu", "4", "--pi", "1,4,1", "--max-candidates"];
    let run = |budget: &str| cfmap_code(&[&args[..], &[budget]].concat());
    let (code, stdout, _) = run("5");
    assert_eq!(code, 0);
    assert!(stdout.contains("space map     : [0 1 -1]"), "{stdout}");
    assert!(stdout.contains("combined cost : 11"), "{stdout}");
    assert!(stdout.contains("certified     : optimal"), "{stdout}");
    let (code, _, stderr) = run("4");
    assert_eq!(code, 3, "an exhausted budget is a structured failure: {stderr}");
}

#[test]
fn transitive_closure_via_cli() {
    let (ok, stdout, _) = cfmap(&[
        "map", "--alg", "transitive-closure", "--mu", "4", "--space", "0,0,1",
    ]);
    assert!(ok);
    assert!(stdout.contains("t = 29 cycles"), "{stdout}");
    assert!(stdout.contains("[5, 1, 1]"), "{stdout}");
}

#[test]
fn joint_finds_problem_6_2_design() {
    let (ok, stdout, _) = cfmap(&["joint", "--alg", "matmul", "--mu", "3"]);
    assert!(ok);
    assert!(stdout.contains("total time : 16 cycles"), "{stdout}");
    let (ok, stdout, _) = cfmap(&["joint", "--alg", "matmul", "--mu", "3", "--criterion", "space"]);
    assert!(ok);
    assert!(stdout.contains("space cost"), "{stdout}");
    // `--max-candidates` counts screened schedules: one finds no design.
    let (code, _, stderr) =
        cfmap_code(&["joint", "--alg", "matmul", "--mu", "3", "--max-candidates", "1"]);
    assert_eq!(code, 3, "an exhausted budget is a structured failure: {stderr}");
}

#[test]
fn pareto_honours_its_search_budget() {
    // The full joint frontier of matmul μ = 4 screens 21,840 candidates.
    let (ok, stdout, _) = cfmap(&["pareto", "--alg", "matmul", "--mu", "4"]);
    assert!(ok);
    assert!(stdout.contains("21840 candidates"), "{stdout}");
    assert!(!stdout.contains("best-effort"), "{stdout}");
    // One candidate finds no design: a structured failure.
    let (code, _, stderr) =
        cfmap_code(&["pareto", "--alg", "matmul", "--mu", "4", "--max-candidates", "1"]);
    assert_eq!(code, 3, "an exhausted budget is a structured failure: {stderr}");
    // Half the count cuts the frontier short, keeping what it found.
    let (code, stdout, stderr) =
        cfmap_code(&["pareto", "--alg", "matmul", "--mu", "4", "--max-candidates", "10920"]);
    assert_eq!(code, 0, "{stderr}");
    let header = stdout.lines().find(|l| l.starts_with("frontier")).expect("header line");
    assert!(header.contains("10920 candidates") && header.contains("best-effort"), "{header}");
    assert!(!header.contains(": 0 points"), "{header}");
    assert!(stdout.contains("Π="), "a cut frontier still lists its points: {stdout}");
}

#[test]
fn bounds_reports_floors() {
    let (ok, stdout, _) = cfmap(&["bounds", "--alg", "matmul", "--mu", "4"]);
    assert!(ok);
    assert!(stdout.contains("critical path         : 13 cycles"), "{stdout}");
    assert!(stdout.contains("pigeonhole"), "{stdout}");
}

#[test]
fn analyze_prints_condition_table() {
    let (ok, stdout, _) = cfmap(&[
        "analyze", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1", "--pi", "1,1,4",
    ]);
    assert!(ok);
    assert!(stdout.contains("1. ΠD > 0"), "{stdout}");
    assert!(stdout.contains("collision witness"), "{stdout}");
}

#[test]
fn list_shows_workloads() {
    let (ok, stdout, _) = cfmap(&["list"]);
    assert!(ok);
    assert!(stdout.contains("matmul"));
    assert!(stdout.contains("bitlevel"));
}

#[test]
fn errors_are_reported_cleanly() {
    let (ok, _, stderr) = cfmap(&["map", "--alg", "nonsense", "--mu", "4", "--space", "1,1,-1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown algorithm"), "{stderr}");

    let (ok, _, stderr) = cfmap(&["map", "--alg", "matmul", "--mu", "4", "--space", "1,1"]);
    assert!(!ok);
    assert!(stderr.contains("entries"), "{stderr}");

    let (ok, _, stderr) = cfmap(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (ok, _, stderr) = cfmap(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn broken_pipe_exits_quietly() {
    // `cfmap … | head` closes stdout early; the CLI must end like a
    // normal Unix filter (no panic backtrace, success-ish exit).
    use std::io::Read;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cfmap"))
        // μ = 16 produces ~110 KB of diagram — larger than the 64 KB pipe
        // buffer, so the early close genuinely triggers the broken pipe.
        .args(["simulate", "--alg", "matmul", "--mu", "16", "--space", "1,1,-1", "--pi", "1,16,1", "--diagram"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // Read a few bytes, then drop the pipe while the diagram is still
    // being written.
    let mut buf = [0u8; 64];
    let _ = child.stdout.as_mut().unwrap().read(&mut buf);
    drop(child.stdout.take());
    let status = child.wait().expect("wait");
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(!stderr.contains("panicked"), "backtrace leaked: {stderr}");
    assert!(status.success(), "status: {status:?}, stderr: {stderr}");
}

#[test]
fn cap_exhaustion_is_an_error() {
    let (ok, _, stderr) = cfmap(&[
        "map", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1", "--cap", "2",
    ]);
    assert!(!ok);
    assert!(stderr.contains("no conflict-free schedule"), "{stderr}");
}

#[test]
fn exit_codes_encode_the_failure_class() {
    // 0: success.
    let (code, _, _) = cfmap_code(&["map", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1"]);
    assert_eq!(code, 0);
    // 1: the search proved infeasibility within its caps.
    let (code, _, _) = cfmap_code(&[
        "map", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1", "--cap", "2",
    ]);
    assert_eq!(code, 1);
    // 2: usage errors (bad args, unknown command, unknown algorithm).
    let (code, _, _) = cfmap_code(&["frobnicate"]);
    assert_eq!(code, 2);
    let (code, _, _) = cfmap_code(&["map", "--alg", "nonsense", "--mu", "4", "--space", "1,1,-1"]);
    assert_eq!(code, 2);
    let (code, _, _) = cfmap_code(&["map", "--alg", "matmul", "--mu", "4", "--space", "1,1"]);
    assert_eq!(code, 2);
}

#[test]
fn budget_flag_degrades_to_best_effort() {
    // A 3-candidate budget cannot certify optimality; the CLI reports a
    // valid best-effort design and still exits 0 — degraded, not failed.
    let (code, stdout, _) = cfmap_code(&[
        "map", "--alg", "bitlevel-matmul", "--mu", "2", "--space",
        "1,0,0,0,0;0,1,0,0,0", "--max-candidates", "3",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("best-effort"), "{stdout}");
    assert!(stdout.contains("schedule"), "{stdout}");
}

#[test]
fn unlimited_budget_certifies_optimal() {
    let (code, stdout, _) =
        cfmap_code(&["map", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("certified : optimal"), "{stdout}");
}

#[test]
fn space_opt_finds_nothing_under_an_invalid_schedule() {
    // Π·e₃ = −3 violates condition 1, so no space map can certify a
    // design: exit 1 (infeasible) and no `certified` line.
    let (code, stdout, stderr) =
        cfmap_code(&["space-opt", "--alg", "matmul", "--mu", "4", "--pi", "1,1,-3"]);
    assert_eq!(code, 1, "stdout: {stdout}\nstderr: {stderr}");
    assert!(!stdout.contains("certified"), "{stdout}");
}

/// A command refuses every option it does not read, naming it: a
/// misspelt or misplaced option must not be ignored without a word.
#[test]
fn commands_refuse_options_they_do_not_read() {
    let space_opt = ["space-opt", "--alg", "matmul", "--mu", "4", "--pi", "1,4,1", "--cap", "0"];
    let map = ["map", "--alg", "matmul", "--mu", "4", "--space", "1,1,-1", "--entry-bnd", "9"];
    for (args, option) in [(&space_opt, "--cap"), (&map, "--entry-bnd")] {
        let (code, stdout, stderr) = cfmap_code(args);
        assert_eq!(code, 2, "{args:?}: {stdout}{stderr}");
        assert!(stderr.contains(&format!("unknown option {option:?}")), "{stderr}");
        assert!(stdout.is_empty(), "{args:?} must not run: {stdout}");
    }
}

