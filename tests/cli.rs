//! End-to-end tests of the `pdce` command-line tool.

use std::io::Write;
use std::process::{Command, Stdio};

const FIG1: &str = "prog {
    block s  { goto n1 }
    block n1 { y := a + b; nondet n2 n3 }
    block n2 { y := 4; goto n4 }
    block n3 { out(y); goto n4 }
    block n4 { out(y); goto e }
    block e  { halt }
}";

fn pdce(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pdce"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A usage error exits before reading stdin, so the pipe may close
    // under the write; the exit status and stderr still tell the story.
    match child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
    {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        written => written.expect("stdin writes"),
    }
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn opt_optimizes_fig1() {
    let (stdout, stderr, ok) = pdce(&["opt", "--stats", "--verify"], FIG1);
    assert!(ok, "stderr: {stderr}");
    // The sunk assignment now sits in n3, not n1.
    let reparsed = pdce::ir::parser::parse(&stdout).expect("output parses");
    let n1 = reparsed.block_by_name("n1").unwrap();
    assert!(reparsed.block(n1).stmts.is_empty());
    assert!(stderr.contains("eliminated:  1"));
    assert!(stderr.contains("verified: dominates the input"));
}

#[test]
fn opt_modes_differ_on_faint_code() {
    let faint_loop = "prog {
        block s { goto l }
        block l { x := x + 1; nondet l d }
        block d { goto e }
        block e { halt }
    }";
    let (with_pde, _, ok) = pdce(&["opt", "--mode", "pde"], faint_loop);
    assert!(ok);
    assert!(with_pde.contains("x := x + 1"));
    let (with_pfe, _, ok) = pdce(&["opt", "--mode", "pfe"], faint_loop);
    assert!(ok);
    assert!(!with_pfe.contains("x := x + 1"));
}

#[test]
fn opt_respects_region_and_rounds() {
    let (stdout, _, ok) = pdce(&["opt", "--region", "n2,n3", "--stats"], FIG1);
    assert!(ok);
    assert!(stdout.contains("y := a + b"), "nothing may leave n1");
    let (_, stderr, ok) = pdce(&["opt", "--max-rounds", "1", "--stats"], FIG1);
    assert!(ok);
    assert!(stderr.contains("rounds:      1"));
}

#[test]
fn opt_explain_names_passes_and_rounds() {
    let (stdout, stderr, ok) = pdce(&["opt", "--explain"], FIG1);
    assert!(ok, "stderr: {stderr}");
    // stdout stays the plain optimized program; the log goes to stderr.
    pdce::ir::parser::parse(&stdout).expect("output parses");
    assert!(stderr.contains("round 1:"), "stderr: {stderr}");
    assert!(stderr.contains("[sink] sank"));
    assert!(stderr.contains("`y := a + b` from block n1"));
    assert!(stderr.contains("[dce ] eliminated"));
}

#[test]
fn opt_trace_writes_chrome_json() {
    let path = std::env::temp_dir().join(format!("pdce-cli-trace-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) = pdce(&["opt", "--trace", path_str], FIG1);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("trace: wrote"), "stderr: {stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file exists");
    std::fs::remove_file(&path).ok();
    let doc = pdce::trace::json::parse(&text).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    assert!(!events.is_empty());
}

/// There is one optimizer and no pass pipeline: `--passes` is an
/// unknown flag, a usage error with exit status 2.
#[test]
fn passes_flag_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_pdce"))
        .args(["opt", "--passes", "pde"])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --passes"), "stderr: {stderr}");
}

#[test]
fn backoff_flag_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_pdce"))
        .args(["serve", "--retry-backoff-ms", "1"])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown flag --retry-backoff-ms"),
        "stderr: {stderr}"
    );
}

#[test]
fn run_executes_and_prints_outputs() {
    let (stdout, stderr, ok) = pdce(&["run", "--in", "a=2", "--in", "b=3", "--seed", "1"], FIG1);
    assert!(ok, "stderr: {stderr}");
    // Whatever branch the seed picks, the final out(y) prints something.
    assert!(!stdout.trim().is_empty());
    assert!(stderr.contains("halted"));
}

#[test]
fn run_warns_on_unknown_input() {
    let (_, stderr, ok) = pdce(&["run", "--in", "zz=1"], FIG1);
    assert!(ok);
    assert!(stderr.contains("warning"));
}

#[test]
fn analyze_reports_facts() {
    let (stdout, _, ok) = pdce(&["analyze"], FIG1);
    assert!(ok);
    assert!(stdout.contains("patterns:"));
    assert!(stdout.contains("sinking candidate"));
    assert!(stdout.contains("N-INSERT"));
}

#[test]
fn dot_exports_graph() {
    let (stdout, _, ok) = pdce(&["dot"], FIG1);
    assert!(ok);
    assert!(stdout.starts_with("digraph pdce"));
}

#[test]
fn check_validates() {
    let (stdout, _, ok) = pdce(&["check"], FIG1);
    assert!(ok);
    assert!(stdout.contains("ok: 6 block(s)"));
    let (_, stderr, ok) = pdce(&["check"], "prog { block s { goto nowhere } }");
    assert!(!ok);
    assert!(stderr.contains("error"));
}

#[test]
fn usage_errors_exit_2() {
    let (_, stderr, ok) = pdce(&["frobnicate"], "");
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    let (_, stderr, ok) = pdce(&["opt", "--mode"], "");
    assert!(!ok);
    assert!(stderr.contains("needs a value"));
    let (_, stderr, ok) = pdce(&["opt", "--mode", "zap"], FIG1);
    assert!(!ok);
    assert!(stderr.contains("unknown mode"));
}

#[test]
fn universe_confirms_optimality() {
    let (stdout, stderr, ok) = pdce(&["universe", "--max", "500"], FIG1);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("optimal: dominates all"), "{stdout}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let (_, stderr, ok) = pdce(&["opt", "/nonexistent/path.pdce"], "");
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

/// Writes `contents` to a unique temp file and returns its path.
fn temp_file(tag: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("pdce-cli-{tag}-{}.pdce", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writable");
    path
}

#[test]
fn empty_file_is_a_clean_diagnostic() {
    let path = temp_file("empty", "");
    let (_, stderr, ok) = pdce(&["opt", path.to_str().unwrap()], "");
    std::fs::remove_file(&path).ok();
    assert!(!ok);
    assert!(stderr.contains("error"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn unreachable_exit_is_a_clean_diagnostic() {
    let stuck = "prog {
        block s { goto l }
        block l { goto l }
        block e { halt }
    }";
    let (_, stderr, ok) = pdce(&["opt"], stuck);
    assert!(!ok);
    assert!(stderr.contains("error"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// Every analysis runs one engine, so there is nothing to select: the
/// retired engine flags are unknown flags, and `--stats` reports the
/// worklist's pops alone.
#[test]
fn stats_report_worklist_pops_and_retired_engine_flags_are_usage_errors() {
    let (stdout, stderr, ok) = pdce(&["opt", "--mode", "pfe", "--stats"], FIG1);
    assert!(ok, "stderr: {stderr}");
    pdce::ir::parser::parse(&stdout).expect("output parses");
    let line = stderr.lines().find(|l| l.contains("pops:")).unwrap();
    let pops: u64 = line
        .strip_prefix("pops:")
        .and_then(|rest| rest.trim().strip_suffix(" worklist"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("`pops: N worklist` and nothing else: {line}"));
    assert!(pops > 0, "faint and delay pop the worklist: {line}");
    for (flags, unknown) in [
        (&["opt", "--solver", "fifo"][..], "--solver"),
        (&["serve", "--solver", "sparse"][..], "--solver"),
    ] {
        let (_, stderr, ok) = pdce(flags, FIG1);
        assert!(!ok, "{flags:?} must be rejected");
        assert!(
            stderr.contains(&format!("unknown flag {unknown}")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn batch_opt_shards_files_and_keeps_argument_order() {
    let loopy = "prog {
        block s { x := a + b; goto l }
        block l { out(a); nondet l e }
        block e { halt }
    }";
    let f1 = temp_file("batch1", FIG1);
    let f2 = temp_file("batch2", loopy);
    let run = |jobs: &str| {
        pdce(
            &[
                "opt",
                "--jobs",
                jobs,
                "--stats",
                f1.to_str().unwrap(),
                f2.to_str().unwrap(),
            ],
            "",
        )
    };
    let (seq_out, seq_err, ok) = run("1");
    assert!(ok, "stderr: {seq_err}");
    let (par_out, par_err, ok) = run("4");
    assert!(ok, "stderr: {par_err}");
    std::fs::remove_file(&f1).ok();
    std::fs::remove_file(&f2).ok();
    assert_eq!(seq_out, par_out, "stdout must not depend on --jobs");
    // Headers appear in argument order, each followed by its program.
    let h1 = seq_out
        .find(&format!("// ==== {} ====", f1.display()))
        .unwrap();
    let h2 = seq_out
        .find(&format!("// ==== {} ====", f2.display()))
        .unwrap();
    assert!(h1 < h2);
    assert!(seq_err.contains("total:"), "stderr: {seq_err}");
}

#[test]
fn batch_opt_reports_failing_files_without_panicking() {
    let f1 = temp_file("batchgood", FIG1);
    let (stdout, stderr, ok) = pdce(
        &["opt", f1.to_str().unwrap(), "/nonexistent/batch.pdce"],
        "",
    );
    std::fs::remove_file(&f1).ok();
    assert!(!ok);
    // The good file still optimizes and prints...
    assert!(stdout.contains("// ===="), "stdout: {stdout}");
    // ...and the bad one is named in a clean per-file diagnostic.
    assert!(
        stderr.contains("/nonexistent/batch.pdce"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("1 of 2 file(s) failed"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = pdce(&["help"], "");
    assert!(ok);
    assert!(stdout.contains("usage:"));
}

/// Like `pdce`, but also returns the raw exit code.
fn pdce_code(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pdce"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("stdin writes");
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn parse_error_reports_position_and_exits_1() {
    let (_, stderr, code) = pdce_code(&["opt"], "prog { block s { x = 1 } }");
    assert_eq!(code, 1, "stderr: {stderr}");
    // Diagnostics carry file:line:col (stdin renders as <stdin>).
    assert!(stderr.contains("<stdin>:1:"), "stderr: {stderr}");
    let bad = temp_file("parse-err", "prog {\n  block s { x = 1 }\n}");
    let (_, stderr, code) = pdce_code(&["opt", bad.to_str().unwrap()], "");
    std::fs::remove_file(&bad).ok();
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("{}:2:", bad.display())),
        "stderr: {stderr}"
    );
}

#[test]
fn bad_input_exits_1_usage_exits_2() {
    let (_, _, code) = pdce_code(&["opt", "/nonexistent/nope.pdce"], "");
    assert_eq!(code, 1);
    let (_, _, code) = pdce_code(&["opt", "--frobnicate"], "");
    assert_eq!(code, 2);
    let (_, _, code) = pdce_code(&["frobnicate"], "");
    assert_eq!(code, 2);
}

#[test]
fn validate_semantics_reports_tv_checks() {
    let (stdout, stderr, ok) = pdce(&["opt", "--validate-semantics", "--stats"], FIG1);
    assert!(ok, "stderr: {stderr}");
    pdce::ir::parser::parse(&stdout).expect("output parses");
    assert!(stderr.contains("tv check(s)"), "stderr: {stderr}");
    assert!(stderr.contains("0 tv rollback(s)"), "stderr: {stderr}");
    // The optimization is still effective under validation.
    assert!(stderr.contains("eliminated:  1"), "stderr: {stderr}");
    // Explicit vector-count form.
    let (_, stderr, ok) = pdce(&["opt", "--validate-semantics=3", "--stats"], FIG1);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("tv check(s)"), "stderr: {stderr}");
}

#[test]
fn exhausted_pop_budget_degrades_to_identity() {
    let (stdout, stderr, ok) = pdce(&["opt", "--max-pops", "1", "--stats"], FIG1);
    assert!(ok, "stderr: {stderr}");
    // Every rung of the ladder runs out of pops, so the program comes
    // back verbatim — flagged, not failed.
    let reparsed = pdce::ir::parser::parse(&stdout).expect("output parses");
    let n1 = reparsed.block_by_name("n1").unwrap();
    assert_eq!(reparsed.block(n1).stmts.len(), 1, "nothing was optimized");
    assert!(stderr.contains("degraded:    identity"), "stderr: {stderr}");
    assert!(stderr.contains("warning:"), "stderr: {stderr}");
    assert!(stderr.contains("budget exhaustion"), "stderr: {stderr}");
}

#[test]
fn generous_budget_flags_do_not_degrade() {
    let (_, stderr, ok) = pdce(
        &[
            "opt",
            "--max-pops",
            "100000",
            "--wall-ms",
            "60000",
            "--stats",
        ],
        FIG1,
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("eliminated:  1"), "stderr: {stderr}");
    assert!(!stderr.contains("degraded"), "stderr: {stderr}");
}

/// Batch `--explain` renders one provenance section per file, in
/// argument order, independent of the worker count — worker solver
/// stats are thread-local, so the sections must be built from the
/// per-file reports, not from main-thread totals.
#[test]
fn batch_explain_is_ordered_and_jobs_invariant() {
    let loopy = "prog {
        block s { goto l }
        block l { y := a + b; nondet l d }
        block d { out(y); goto e }
        block e { halt }
    }";
    let f1 = temp_file("explain1", FIG1);
    let f2 = temp_file("explain2", loopy);
    let f3 = temp_file("explain3", FIG1);
    let paths: Vec<&str> = [&f1, &f2, &f3]
        .iter()
        .map(|p| p.to_str().unwrap())
        .collect();
    let run = |jobs: &str| {
        let args: Vec<&str> = ["opt", "--explain", "--jobs", jobs]
            .into_iter()
            .chain(paths.iter().copied())
            .collect();
        let (_, stderr, ok) = pdce(&args, "");
        assert!(ok, "jobs={jobs} stderr: {stderr}");
        stderr
    };
    let seq = run("1");
    let par = run("4");
    assert_eq!(seq, par, "explain output must not depend on --jobs");
    // One header per file, in argument order.
    let positions: Vec<usize> = paths
        .iter()
        .map(|p| {
            seq.find(&format!("// ==== {p} ===="))
                .unwrap_or_else(|| panic!("missing section for {p} in: {seq}"))
        })
        .collect();
    assert!(positions[0] < positions[1] && positions[1] < positions[2]);
    // The sections carry real provenance, including per-file solver
    // telemetry (which lives on worker threads under --jobs).
    assert!(seq.contains("transformation(s), in application order"));
    assert!(seq.contains("worklist pop(s)"), "stderr: {seq}");
    for f in [f1, f2, f3] {
        std::fs::remove_file(f).ok();
    }
}

/// Keep only the sample lines of deterministic families (marked by the
/// `# STABILITY <name> deterministic` comment) from a Prometheus
/// exposition.
fn deterministic_series(prom: &str) -> String {
    let stable: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# STABILITY "))
        .filter_map(|l| l.strip_suffix(" deterministic"))
        .collect();
    prom.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter(|l| {
            let family = l
                .split(['{', ' '])
                .next()
                .unwrap_or("")
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            stable.contains(&family)
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `--metrics-out` snapshots restrict to byte-identical deterministic
/// series for any `--jobs` value, and `--events-out` logs are
/// byte-identical outright (no wall-clock fields, argument-order seq).
#[test]
fn metrics_and_events_snapshots_are_jobs_invariant() {
    let f1 = temp_file("metrics1", FIG1);
    let f2 = temp_file("metrics2", FIG1);
    let run = |jobs: &str| {
        let tag = format!("out-j{jobs}-{}", std::process::id());
        let mpath = std::env::temp_dir().join(format!("pdce-m-{tag}.prom"));
        let epath = std::env::temp_dir().join(format!("pdce-e-{tag}.jsonl"));
        let (_, stderr, ok) = pdce(
            &[
                "opt",
                "--jobs",
                jobs,
                "--metrics-out",
                mpath.to_str().unwrap(),
                "--events-out",
                epath.to_str().unwrap(),
                f1.to_str().unwrap(),
                f2.to_str().unwrap(),
            ],
            "",
        );
        assert!(ok, "jobs={jobs} stderr: {stderr}");
        let prom = std::fs::read_to_string(&mpath).expect("metrics file written");
        let events = std::fs::read_to_string(&epath).expect("events file written");
        std::fs::remove_file(mpath).ok();
        std::fs::remove_file(epath).ok();
        (prom, events)
    };
    let (prom1, events1) = run("1");
    let (prom4, events4) = run("4");
    assert_eq!(events1, events4, "event logs must not depend on --jobs");
    assert!(events1.lines().count() >= 3, "run event + one per file");
    assert!(events1.starts_with("{\"run\":\""), "events: {events1}");
    let det1 = deterministic_series(&prom1);
    let det4 = deterministic_series(&prom4);
    assert_eq!(det1, det4, "deterministic series must not depend on --jobs");
    assert!(
        det1.contains("pdce_rounds_total"),
        "deterministic series present: {det1}"
    );
    // Timing families are in the exposition too (this is the full
    // snapshot), just excluded from the stability contract.
    assert!(prom1.contains("pdce_file_wall_ns_count"), "prom: {prom1}");
    for f in [f1, f2] {
        std::fs::remove_file(f).ok();
    }
}

/// `--metrics` appends the human-readable registry table to stderr:
/// the driver's counters and the per-file latency histogram.
#[test]
fn metrics_flag_prints_human_table() {
    let (_, stderr, ok) = pdce(&["opt", "--stats", "--metrics"], FIG1);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("pdce_rounds_total"), "stderr: {stderr}");
    assert!(stderr.contains("pdce_file_wall_ns"), "stderr: {stderr}");
    assert!(stderr.contains("p50<="), "stderr: {stderr}");
}
