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
//!   prints valid output for every file;
//! * a degraded run's `--stats` counts the solver and cache work of
//!   every attempt, failed ones included;
//! * a failed rung is undone to the input before the next rung begins,
//!   at every site and occurrence that can fail it (in process, over
//!   the corpus).

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
    cmd.env_remove("FAULT_INJECT");
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

/// A degraded run's solver and cache totals count every attempt, the
/// failed configured run included; its rounds and transform counts
/// stay the winning rung's (here exactly `--mode dce`'s).
#[test]
fn degraded_runs_count_every_attempts_work() {
    let gcd = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/gcd.pdce"))
        .expect("corpus file");
    let (_, clean, code) = pdce_with_fault(None, &["opt", "--stats"], &gcd);
    assert_eq!(code, 0, "stderr: {clean}");
    assert!(
        clean.contains("solver:      6 problem(s), 56 evaluation(s), 306 word op(s)"),
        "stderr: {clean}"
    );
    let (_, dce, _) = pdce_with_fault(None, &["opt", "--mode", "dce", "--stats"], &gcd);
    assert!(
        dce.contains("solver:      3 problem(s), 27 evaluation(s), 177 word op(s)"),
        "stderr: {dce}"
    );
    let (_, degraded, code) = pdce_with_fault(Some("panic:sink:1"), &["opt", "--stats"], &gcd);
    assert_eq!(code, 0, "stderr: {degraded}");
    for line in [
        "rounds:      2",
        "eliminated:  2",
        "cache:       12 rebuild(s) avoided, 8 rebuild(s) paid",
        "solver:      6 problem(s), 54 evaluation(s), 346 word op(s)",
        "degraded:    elimination-only",
    ] {
        assert!(degraded.contains(line), "missing {line:?} in: {degraded}");
    }
    // The identity rung answers with the failed attempts' work alone.
    let (_, identity, code) = pdce_with_fault(Some("budget:solve:*"), &["opt", "--stats"], &gcd);
    assert_eq!(code, 0, "stderr: {identity}");
    for line in [
        "cache:       2 rebuild(s) avoided, 4 rebuild(s) paid",
        "solver:      0 problem(s), 0 evaluation(s), 0 word op(s)",
        "degraded:    identity",
    ] {
        assert!(identity.contains(line), "missing {line:?} in: {identity}");
    }
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

/// A rollback replaces the analysis cache, and the run's cache counts
/// still include the dropped cache's work: the `--stats` line, the
/// returned stats and the driver span's args agree on it.
#[test]
fn tv_rollback_keeps_the_dropped_cache_counts() {
    use std::rc::Rc;

    use pdce::core::driver::{optimize, PdceConfig};
    use pdce::trace::{self, chrome, fault, json};

    let gcd = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/gcd.pdce"))
        .expect("corpus file");
    let (_, stderr, code) = pdce_with_fault(
        Some("bitflip:dead:1"),
        &["opt", "--validate-semantics=4", "--stats"],
        &gcd,
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("1 tv rollback(s)"), "stderr: {stderr}");
    assert!(
        stderr.contains("cache:       7 rebuild(s) avoided, 5 rebuild(s) paid"),
        "stderr: {stderr}"
    );

    let mut prog = pdce::ir::parser::parse(&gcd).unwrap();
    let collector = Rc::new(trace::Collector::new());
    let stats = {
        let _guard = trace::install(collector.clone());
        fault::with_faults("bitflip:dead:1", || {
            optimize(&mut prog, &PdceConfig::pde().with_validation(4)).unwrap()
        })
    };
    assert_eq!(stats.tv_rollbacks, 1);
    assert_eq!((stats.cache.hits(), stats.cache.misses()), (7, 5));
    let text = chrome::chrome_trace(&collector.events(), &chrome::ChromeOptions::logical());
    let doc = json::parse(&text).expect("valid JSON");
    let args = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("E"))
        .filter_map(|e| e.get("args"))
        .find(|a| a.get("cfg_cache_hits").is_some())
        .expect("driver end event carries cache args");
    assert_eq!(
        args.get("cfg_cache_hits").unwrap().as_num(),
        Some(stats.cache.cfg_hits as f64)
    );
    assert_eq!(
        args.get("cfg_relayouts").unwrap().as_num(),
        Some(stats.cache.cfg_relayouts as f64)
    );
    assert!(stats.cache.cfg_hits > 0, "{:?}", stats.cache);
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

/// Every site that can fail a rung — the elimination step, sinking, and
/// every solve, by panic and by budget exhaustion — at every occurrence
/// in the configured run of every corpus program, pde and pfe. Rungs
/// run in place, and a failed one is undone through its edit log, so:
///
/// * with the one fault, the elimination-only rung answers exactly what
///   it answers on the input;
/// * with a second fault that fails the next rung at its first step,
///   before it edits anything, the identity rung answers the program
///   that undo left, and it prints byte-identical to the input (no
///   statement list changed, no split block left behind).
#[test]
fn failed_rungs_are_undone_to_the_input() {
    use pdce::core::{optimize, optimize_resilient, DegradedMode, Mode, PdceConfig};
    use pdce::ir::printer::print_program;
    use pdce::trace::fault::with_faults;

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pdce"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus shrank unexpectedly");
    let mut scenarios = 0;
    for path in &files {
        let input = pdce::ir::parser::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let printed = print_program(&input);
        for config in [PdceConfig::pde(), PdceConfig::pfe()] {
            let step = match config.mode {
                Mode::Dead => "dce",
                Mode::Faint => "fce",
            };
            let clean = optimize_resilient(&mut input.clone(), &config);
            assert_eq!(clean.degraded, None, "{}", path.display());
            let mut eliminated = input.clone();
            let eliminated_stats = optimize(
                &mut eliminated,
                &PdceConfig {
                    sinking: false,
                    ..config.clone()
                },
            )
            .unwrap();
            let eliminated = print_program(&eliminated);
            // (site, its occurrences in the configured run, the site
            // whose next occurrence is the next rung's first step). The
            // elimination step and sinking fire once per round; a solve
            // fires once per problem, and the next rung solves before
            // it edits.
            let sites = [
                (step, clean.rounds, step),
                ("sink", clean.rounds, step),
                ("solve", clean.solver.problems, "solve"),
            ];
            for (site, occurrences, next) in sites {
                for kind in ["panic", "budget"] {
                    for nth in 1..=occurrences {
                        let what = format!("{} {kind}:{site}:{nth}", path.display());
                        let fault = format!("{kind}:{site}:{nth}");
                        let mut p = input.clone();
                        let stats = with_faults(&fault, || optimize_resilient(&mut p, &config));
                        assert_eq!(
                            stats.degraded,
                            Some(DegradedMode::EliminationOnly),
                            "{what}"
                        );
                        assert_eq!(stats.rounds, eliminated_stats.rounds, "{what}");
                        assert_eq!(print_program(&p), eliminated, "{what}");

                        // First, so that it counts the hit the other one
                        // fires at (a site stops at the first directive
                        // that fires).
                        let both = format!("panic:{next}:{},{fault}", nth + 1);
                        let mut p = input.clone();
                        let stats = with_faults(&both, || optimize_resilient(&mut p, &config));
                        assert_eq!(stats.degraded, Some(DegradedMode::Identity), "{what}");
                        assert_eq!(print_program(&p), printed, "{what}");
                        scenarios += 1;
                    }
                }
            }
        }
    }
    assert!(scenarios > 100, "{scenarios} scenarios");
}
