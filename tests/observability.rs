//! Integration tests for the tracing/observability layer: the driver's
//! stats against the thread-local solver totals and its round spans,
//! Chrome-trace determinism, and the provenance log on the paper's
//! Figure 3 example.

use std::rc::Rc;

use pdce::core::driver::{optimize, PdceConfig};
use pdce::core::RunTotals;
use pdce::ir::parser::parse;
use pdce::ir::Program;
use pdce::progen::{structured, GenConfig};
use pdce::trace::{self, chrome, explain, json, Phase, ProvAction};

fn structured_prog(seed: u64) -> Program {
    structured(&GenConfig {
        seed,
        target_blocks: 48,
        num_vars: 8,
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: true,
    })
}

/// Figure 3 of the paper: the loop-invariant fragment `y := a + b;
/// c := y - d` leaves the loop via second-order sinking + elimination.
const FIG3: &str = "prog {
    block s { goto h }
    block h { y := a + b; c := y - d; nondet hb after }
    block hb { x := x + 1; goto h }
    block after { nondet n7 n8 }
    block n7 { out(c); goto e }
    block n8 { out(x); goto e }
    block e { halt }
}";

/// The driver's own accounting matches the thread-local solver
/// accumulator, and a collector sees one round span per driver round.
#[test]
fn driver_stats_agree_with_solver_totals_and_round_spans() {
    let mut prog = structured_prog(7);
    let collector = Rc::new(trace::Collector::new());
    let solver_before = trace::solver_totals();
    let stats = {
        let _guard = trace::install(collector.clone());
        optimize(&mut prog, &PdceConfig::pde()).unwrap()
    };
    let solver = trace::solver_totals().since(&solver_before);

    assert_eq!(stats.solver, solver);
    assert!(stats.solver.problems > 0, "pde solves dataflow problems");
    assert!(stats.solver.evaluations > 0);
    assert!(stats.solver.word_ops > 0);

    let round_spans = collector
        .events()
        .iter()
        .filter(|e| e.phase == Phase::Begin && e.cat == "round")
        .count();
    assert_eq!(
        round_spans as u64, stats.rounds,
        "one round span per driver round"
    );
}

/// Solver counters are deterministic for a fixed input program.
#[test]
fn solver_counters_are_deterministic() {
    let run = || {
        let mut p = structured_prog(23);
        let before = trace::solver_totals();
        optimize(&mut p, &PdceConfig::pfe()).unwrap();
        trace::solver_totals().since(&before)
    };
    assert_eq!(run(), run());
}

fn chrome_trace_of_run(seed: u64) -> (String, usize) {
    let mut prog = structured_prog(seed);
    let collector = Rc::new(trace::Collector::new());
    {
        let _guard = trace::install(collector.clone());
        optimize(&mut prog, &PdceConfig::pde()).unwrap();
    }
    let events = collector.events();
    let text = chrome::chrome_trace(&events, &chrome::ChromeOptions::logical());
    (text, events.len())
}

/// The satellite acceptance check: Chrome-trace output is valid JSON,
/// schema-stable, and byte-identical across two runs for a fixed
/// `pdce-rng` seed (the logical clock removes the only wall-time
/// dependence).
#[test]
fn chrome_trace_is_valid_schema_stable_and_deterministic() {
    let (a, events) = chrome_trace_of_run(13);
    let (b, _) = chrome_trace_of_run(13);
    assert_eq!(a, b, "logical-clock traces must be byte-identical");
    assert!(events > 0, "the run produced trace events");

    let doc = json::parse(&a).expect("valid JSON");
    let arr = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents is an array");
    assert_eq!(arr.len(), events);
    for event in arr {
        // Schema stability: every event carries the Chrome-required
        // keys; non-end events also carry cat/name/args.
        for key in ["ph", "pid", "tid", "ts"] {
            assert!(event.get(key).is_some(), "missing `{key}` in {event:?}");
        }
        let ph = event.get("ph").unwrap().as_str().unwrap();
        assert!(matches!(ph, "B" | "E" | "i" | "C"), "unexpected ph {ph}");
        if ph != "E" {
            for key in ["cat", "name", "args"] {
                assert!(event.get(key).is_some(), "missing `{key}` in {event:?}");
            }
        }
    }
    // Distinct seeds produce distinct traces (the determinism above is
    // not vacuous).
    let (c, _) = chrome_trace_of_run(14);
    assert_ne!(a, c);
}

/// Parity between the trace plane and the metrics plane: the cache
/// telemetry attached to the driver span's end event (`cfg_cache_hits`,
/// `cfg_relayouts`) must agree with the run's `PdceStats.cache`, and
/// so must the `pdce_cache_events_total` series rendered from this one
/// run's stats.
#[test]
fn chrome_span_args_agree_with_cache_metrics() {
    let mut prog = structured_prog(23);
    let collector = Rc::new(trace::Collector::new());
    let stats = {
        let _guard = trace::install(collector.clone());
        optimize(&mut prog, &PdceConfig::pde()).unwrap()
    };
    let mut rendered = pdce::metrics::Snapshot::default();
    RunTotals::of(&PdceConfig::pde(), &stats).render(&mut rendered);
    let text = chrome::chrome_trace(&collector.events(), &chrome::ChromeOptions::logical());
    let doc = json::parse(&text).expect("valid JSON");
    let arr = doc.get("traceEvents").unwrap().as_arr().unwrap();
    // The driver span's end event is the one finished with cache args.
    let args = arr
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("E"))
        .filter_map(|e| e.get("args"))
        .find(|a| a.get("cfg_cache_hits").is_some())
        .expect("driver end event carries cache telemetry args");
    assert_eq!(
        args.get("cfg_cache_hits").unwrap().as_num(),
        Some(stats.cache.cfg_hits as f64),
        "span arg cfg_cache_hits disagrees with PdceStats"
    );
    assert_eq!(
        args.get("cfg_relayouts").unwrap().as_num(),
        Some(stats.cache.cfg_relayouts as f64),
        "span arg cfg_relayouts disagrees with PdceStats"
    );
    assert!(stats.cache.cfg_hits > 0 && stats.cache.cfg_relayouts > 0);
    assert_eq!(
        rendered.counter("pdce_cache_events_total", &[("kind", "cfg_hit")]),
        Some(stats.cache.cfg_hits),
        "rendered cfg_hit series disagrees with PdceStats"
    );
    assert_eq!(
        rendered.counter("pdce_cache_events_total", &[("kind", "cfg_relayout")]),
        Some(stats.cache.cfg_relayouts),
        "rendered cfg_relayout series disagrees with PdceStats"
    );
}

/// The tentpole acceptance check on Figure 3: `--explain`'s provenance
/// log names the pass and round responsible for each eliminated/moved
/// assignment.
#[test]
fn provenance_explains_figure3() {
    let mut prog = parse(FIG3).unwrap();
    let collector = Rc::new(trace::Collector::new());
    {
        let _guard = trace::install(collector.clone());
        optimize(&mut prog, &PdceConfig::pde()).unwrap();
    }
    let log = collector.provenance();
    assert!(!log.is_empty(), "figure 3 records transformations");
    for rec in &log {
        assert!(!rec.pass.is_empty(), "every record names a pass");
        assert!(rec.round >= 1, "every record carries its driver round");
        assert!(!rec.block.is_empty() && !rec.stmt.is_empty());
    }
    // The loop-invariant fragment leaves the loop: both statements are
    // sunk by `sink`, and the dead repeat-block copies fall to `dce`.
    let find = |action: ProvAction, stmt: &str| {
        log.iter()
            .find(|r| r.action == action && r.stmt == stmt)
            .unwrap_or_else(|| panic!("no {} record for `{stmt}`", action.label()))
    };
    let sunk = find(ProvAction::Sunk, "y := a + b");
    assert_eq!(sunk.pass, "sink");
    assert_eq!(sunk.block, "h", "the fragment starts in the loop header");
    let eliminated = find(ProvAction::Eliminated, "y := a + b");
    assert_eq!(eliminated.pass, "dce");
    assert!(
        eliminated.round > sunk.round,
        "the copy dies in a later round than the sink that created it"
    );
    find(ProvAction::Sunk, "c := y - d");
    find(ProvAction::Eliminated, "c := y - d");

    // The human rendering names all of it.
    let text = explain::render(&log);
    assert!(text.contains("round 1:"));
    assert!(text.contains("sank"));
    assert!(text.contains("eliminated"));
    assert!(text.contains("`y := a + b`"));
    assert!(text.contains("[sink]"));
    assert!(text.contains("[dce ]"));
}

/// Tracing is opt-in: with no collector installed nothing is recorded,
/// and a scoped install stops collecting when the guard drops.
#[test]
fn tracing_is_scoped_and_off_by_default() {
    let mut prog = parse(FIG3).unwrap();
    assert!(!trace::enabled());
    let collector = Rc::new(trace::Collector::new());
    {
        let _guard = trace::install(collector.clone());
        assert!(trace::enabled());
    }
    assert!(!trace::enabled());
    optimize(&mut prog, &PdceConfig::pde()).unwrap();
    assert!(collector.is_empty(), "nothing recorded after the guard");
    assert!(collector.provenance().is_empty());
}
