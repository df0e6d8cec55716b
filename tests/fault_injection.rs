//! End-to-end fault injection through the real `pdce` binary.
//!
//! Each test spawns the CLI with a `FAULT_INJECT=<kind>:<site>:<nth>`
//! environment (the hook is compiled in unconditionally and costs one
//! relaxed load when unset) and asserts the acceptance contract of the
//! resilience ladder:
//!
//! * a one-shot pass panic costs exactly one rung — the next rung,
//!   elimination-only, answers with exactly the `--mode dce` output;
//! * a persistent panic in sinking degrades to elimination-only, whose
//!   output is bit-identical to `--mode dce`;
//! * a persistent budget fault walks the whole ladder down to the
//!   identity transformation — the input comes back verbatim;
//! * an injected miscompile (decision bit-flip) is caught by
//!   translation validation and rolled back;
//! * a batch run over the corpus under injection still exits 0 and
//!   prints valid output for every file.

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

/// Runs the binary with an optional `FAULT_INJECT` spec; returns
/// (stdout, stderr, exit code).
fn pdce_with_fault(fault: Option<&str>, args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdce"));
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    // Never inherit a spec from the test runner's environment.
    cmd.env_remove("FAULT_INJECT").env_remove("TV");
    if let Some(spec) = fault {
        cmd.env("FAULT_INJECT", spec);
    }
    let mut child = cmd.spawn().expect("binary spawns");
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
fn one_shot_pass_panic_costs_exactly_one_rung() {
    let (dce_only, _, code) = pdce_with_fault(None, &["opt", "--mode", "dce"], FIG1);
    assert_eq!(code, 0);
    let (stdout, stderr, code) = pdce_with_fault(Some("panic:sink:1"), &["opt", "--stats"], FIG1);
    assert_eq!(code, 0, "stderr: {stderr}");
    // The configured rung consumed the fault; the elimination-only rung
    // runs from the pristine input and must produce exactly `--mode dce`.
    assert_eq!(stdout, dce_only, "must match the documented ladder rung");
    assert_eq!(
        stderr.matches("degrading to").count(),
        1,
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("degraded:    elimination-only"),
        "stderr: {stderr}"
    );
}

#[test]
fn persistent_sink_panic_degrades_to_elimination_only() {
    let (dce_only, _, code) = pdce_with_fault(None, &["opt", "--mode", "dce"], FIG1);
    assert_eq!(code, 0);
    let (stdout, stderr, code) = pdce_with_fault(Some("panic:sink:*"), &["opt", "--stats"], FIG1);
    assert_eq!(code, 0, "stderr: {stderr}");
    // Ladder prediction: the configured run dies at the sink site, so
    // the surviving rung is elimination-only — exactly `--mode dce`.
    assert_eq!(stdout, dce_only, "must match the documented ladder rung");
    assert!(
        stderr.contains("degraded:    elimination-only"),
        "stderr: {stderr}"
    );
}

#[test]
fn persistent_budget_fault_walks_down_to_identity() {
    let (stdout, stderr, code) = pdce_with_fault(Some("budget:solve:*"), &["opt", "--stats"], FIG1);
    assert_eq!(code, 0, "stderr: {stderr}");
    // Every rung needs the solver, so the ladder bottoms out at the
    // identity transformation: the parsed input printed verbatim.
    let expected = pdce::ir::printer::print_program(&pdce::ir::parser::parse(FIG1).unwrap());
    assert_eq!(stdout, expected, "identity rung must echo the input");
    assert!(stderr.contains("degraded:    identity"), "stderr: {stderr}");
    assert!(stderr.contains("budget exhaustion"), "stderr: {stderr}");
}

#[test]
fn injected_miscompile_is_caught_by_translation_validation() {
    // Without validation the bit-flip dooms a live assignment and the
    // miscompiled output survives — that is the attack surface.
    let (clean, _, _) = pdce_with_fault(None, &["opt"], FIG1);
    let (flipped, _, code) = pdce_with_fault(Some("bitflip:dead:1"), &["opt"], FIG1);
    assert_eq!(code, 0);
    assert_ne!(flipped, clean, "the injected flip must change the output");
    // With validation the round is rejected and rolled back.
    let (stdout, stderr, code) = pdce_with_fault(
        Some("bitflip:dead:1"),
        &["opt", "--validate-semantics=6", "--stats"],
        FIG1,
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("1 tv rollback(s)"), "stderr: {stderr}");
    assert!(
        stderr.contains("translation validation failed"),
        "stderr: {stderr}"
    );
    // The rolled-back result is the last-good program: the input.
    let expected = pdce::ir::printer::print_program(&pdce::ir::parser::parse(FIG1).unwrap());
    assert_eq!(stdout, expected, "rollback must restore last-good");
}

#[test]
fn clean_runs_pay_nothing_and_match_under_validation() {
    let (clean, _, _) = pdce_with_fault(None, &["opt"], FIG1);
    let (validated, stderr, code) =
        pdce_with_fault(None, &["opt", "--validate-semantics", "--stats"], FIG1);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(validated, clean, "validation must not change a good run");
    assert!(stderr.contains("0 tv rollback(s)"), "stderr: {stderr}");
}

#[test]
fn batch_over_corpus_survives_injection() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().path().display().to_string())
        .filter(|p| p.ends_with(".pdce"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus shrank unexpectedly");
    let mut args = vec!["opt", "--jobs", "2"];
    args.extend(files.iter().map(String::as_str));
    let (clean, _, code) = pdce_with_fault(None, &args, "");
    assert_eq!(code, 0);
    let (stdout, stderr, code) = pdce_with_fault(Some("panic:dce:1"), &args, "");
    assert_eq!(code, 0, "stderr: {stderr}");
    // Every file is present, in argument order, and parses — the
    // injected panic degraded one file's round, it did not kill the
    // batch or corrupt any sibling.
    let mut last = 0;
    for path in &files {
        let header = format!("// ==== {path} ====");
        let at = stdout.find(&header).unwrap_or_else(|| {
            panic!("missing section for {path}; stderr: {stderr}");
        });
        assert!(at >= last, "sections out of argument order");
        last = at;
    }
    for section in stdout.split("// ==== ").skip(1) {
        let body = &section[section.find('\n').unwrap() + 1..];
        pdce::ir::parser::parse(body).expect("every batch section parses");
    }
    // The recovered batch output matches the uninjected run except in
    // the one file that consumed the one-shot fault (which one depends
    // on the worker schedule): it fell one rung, to exactly its
    // `--mode dce` output.
    let mut dce_args = vec!["opt", "--mode", "dce", "--jobs", "2"];
    dce_args.extend(files.iter().map(String::as_str));
    let (dce_only, _, code) = pdce_with_fault(None, &dce_args, "");
    assert_eq!(code, 0);
    let sections =
        |out: &str| -> Vec<String> { out.split("// ==== ").skip(1).map(str::to_string).collect() };
    let (clean, dce_only, injected) = (sections(&clean), sections(&dce_only), sections(&stdout));
    let mut degraded = 0;
    for ((got, clean), dce) in injected.iter().zip(&clean).zip(&dce_only) {
        if got != clean {
            assert_eq!(got, dce, "a degraded file must match its --mode dce output");
            degraded += 1;
        }
    }
    assert!(degraded <= 1, "one-shot fault changed {degraded} files");
    assert_eq!(
        stderr.matches("degrading to").count(),
        1,
        "stderr: {stderr}"
    );
}
