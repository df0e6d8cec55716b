//! Property-based tests over randomly generated programs, driven by the
//! workspace's deterministic seeded generator (`pdce-rng`).
//!
//! These check the paper's semantic guarantees on the whole generator
//! distribution:
//!
//! * **Semantics preservation** (Definitions 3.2/3.4): output traces are
//!   unchanged by pde/pfe/dce/fce, copy propagation, LCM, hoisting and
//!   naive sinking.
//! * **No impairment** (Section 1, Figure 5/6 discussion): the number of
//!   executed assignments never increases under pde/pfe.
//! * **Per-path dominance** (Definition 3.6): occurrence counts never
//!   increase on any corresponding path.
//! * **Idempotence**: the drivers are fixpoints of themselves.
//! * **dead ⟹ faint** (Section 3).
//! * **One fce pass is final** (Section 4.4), with or without a region
//!   mask.
//! * **The degradation ladder**: every rung below the configured run
//!   keeps its documented contract.
//! * **The run-pinned pattern universe**: no round creates a pattern,
//!   so one table of the split input serves every round's `ask`.
//! * **The text layer is byte-stable**: printing a parsed printout
//!   reproduces it, line for line the single-item renderings.

use pdce::baselines::copy_propagate;
use pdce::baselines::lcm::lazy_code_motion;
use pdce::core::better::{check_improvement, BetterOptions};
use pdce::core::driver::{optimize, optimize_resilient, DegradedMode, PdceConfig};
use pdce::core::elim::{eliminate_fixpoint_cached, Mode};
use pdce::core::sink::{sink_assignments_cached, sink_with_table};
use pdce::core::PatternTable;
use pdce::dfa::AnalysisCache;
use pdce::ir::edgesplit::split_critical_edges;
use pdce::ir::interp::{run, Env, ExecLimits, ReplayOracle, SeededOracle};
use pdce::ir::parser::parse;
use pdce::ir::printer::{canonical_string, print_program, print_stmt, print_terminator};
use pdce::ir::Program;
use pdce::progen::{structured, tangled, GenConfig};
use pdce_rng::Rng;

const CASES: usize = 48;

/// Distinct program seeds per property, derived deterministically.
fn seeds(salt: u64) -> Vec<u64> {
    let mut rng = Rng::new(0x9a9e_5000 ^ salt);
    (0..CASES).map(|_| rng.next_u64()).collect()
}

fn small_config(seed: u64, nondet: bool) -> GenConfig {
    GenConfig {
        seed,
        target_blocks: 18,
        num_vars: 5,
        stmts_per_block: (1, 3),
        out_prob: 0.25,
        loop_prob: 0.3,
        max_depth: 3,
        expr_depth: 2,
        nondet,
    }
}

/// Runs `prog` with a recorded/replayed decision stream and fixed inputs.
fn trace_of(
    prog: &Program,
    inputs: &[(&str, i64)],
    decisions: Vec<usize>,
) -> pdce::ir::interp::Trace {
    let mut env = Env::with_values(prog, inputs);
    let mut oracle = ReplayOracle::new(decisions);
    run(
        prog,
        &mut env,
        &mut oracle,
        ExecLimits {
            max_block_visits: 20_000,
        },
    )
}

fn record_run(prog: &Program, inputs: &[(&str, i64)], seed: u64) -> pdce::ir::interp::Trace {
    let mut env = Env::with_values(prog, inputs);
    let mut oracle = SeededOracle::new(seed);
    run(
        prog,
        &mut env,
        &mut oracle,
        ExecLimits {
            max_block_visits: 20_000,
        },
    )
}

fn check_preserves_and_no_impairment(src_prog: &Program, config: &PdceConfig) {
    let mut optimized = src_prog.clone();
    optimize(&mut optimized, config).unwrap();
    let inputs: [(&str, i64); 3] = [("v0", 3), ("v1", -2), ("v2", 7)];
    for run_seed in [1u64, 42, 993] {
        let orig = record_run(src_prog, &inputs, run_seed);
        let opt = trace_of(&optimized, &inputs, orig.decisions.clone());
        assert_eq!(&orig.outputs, &opt.outputs, "outputs diverged");
        assert!(
            opt.executed_assignments <= orig.executed_assignments,
            "impairment: {} > {} assignments executed",
            opt.executed_assignments,
            orig.executed_assignments
        );
    }
}

#[test]
fn pde_preserves_semantics_and_never_impairs() {
    for seed in seeds(1) {
        let p = structured(&small_config(seed, false));
        check_preserves_and_no_impairment(&p, &PdceConfig::pde());
    }
}

#[test]
fn pfe_preserves_semantics_and_never_impairs() {
    for seed in seeds(2) {
        let p = structured(&small_config(seed, false));
        check_preserves_and_no_impairment(&p, &PdceConfig::pfe());
    }
}

#[test]
fn pde_on_nondet_programs() {
    for seed in seeds(3) {
        let p = structured(&small_config(seed, true));
        check_preserves_and_no_impairment(&p, &PdceConfig::pde());
    }
}

#[test]
fn pde_on_tangled_irreducible_programs() {
    for seed in seeds(4) {
        let p = tangled(&small_config(seed, true), 6);
        check_preserves_and_no_impairment(&p, &PdceConfig::pde());
        check_preserves_and_no_impairment(&p, &PdceConfig::pfe());
    }
}

/// Whether every assignment pattern of `prog` has an index in `table`.
fn table_covers(table: &PatternTable, prog: &Program) -> bool {
    PatternTable::build(prog)
        .pairs()
        .iter()
        .all(|&(x, t)| table.index_of(x, t).is_some())
}

/// The driver's round loop on the split `prog`, sinking either over one
/// table pinned for the run or over each revision's own table; returns
/// the printed result and the rounds taken.
fn round_loop(prog: &Program, mode: Mode, pinned: bool) -> (String, usize) {
    let mut prog = prog.clone();
    let mut cache = AnalysisCache::new();
    let table = PatternTable::build(&prog);
    let cap = PdceConfig::default_round_cap(&prog);
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(rounds <= cap, "no fixpoint within {cap} rounds");
        let before = prog.revision();
        eliminate_fixpoint_cached(&mut prog, &mut cache, mode, None);
        assert!(table_covers(&table, &prog), "elimination created a pattern");
        if pinned {
            sink_with_table(&mut prog, &mut cache, &table, None).unwrap();
        } else {
            sink_assignments_cached(&mut prog, &mut cache, None).unwrap();
        }
        assert!(table_covers(&table, &prog), "sinking created a pattern");
        if prog.revision() == before {
            return (print_program(&prog), rounds);
        }
    }
}

#[test]
fn one_pinned_pattern_table_serves_every_round() {
    let mut multi_round = 0;
    for seed in seeds(15) {
        for p in [
            structured(&small_config(seed, true)),
            tangled(&small_config(seed, true), 6),
        ] {
            let mut split = p.clone();
            split_critical_edges(&mut split);
            for (mode, config) in [
                (Mode::Dead, PdceConfig::pde()),
                (Mode::Faint, PdceConfig::pfe()),
            ] {
                let (pinned, rounds) = round_loop(&split, mode, true);
                let (per_round, _) = round_loop(&split, mode, false);
                assert_eq!(
                    pinned, per_round,
                    "seed {seed}: pinned table changed the output"
                );
                let mut driven = p.clone();
                optimize(&mut driven, &config).unwrap();
                assert_eq!(print_program(&driven), pinned, "seed {seed}");
                multi_round += usize::from(rounds > 2);
            }
        }
    }
    assert!(
        multi_round > CASES,
        "too few runs took several rounds: {multi_round}"
    );
}

#[test]
fn per_path_dominance_holds() {
    for seed in seeds(5) {
        let p = structured(&small_config(seed, true));
        for config in [PdceConfig::pde(), PdceConfig::pfe()] {
            let mut optimized = p.clone();
            optimize(&mut optimized, &config).unwrap();
            let report = check_improvement(
                &p,
                &optimized,
                &BetterOptions {
                    samples: 64,
                    ..BetterOptions::default()
                },
            );
            assert!(report.holds(), "violations: {:#?}", report.violations);
        }
    }
}

#[test]
fn drivers_are_idempotent() {
    for seed in seeds(6) {
        let p = structured(&small_config(seed, true));
        for config in [PdceConfig::pde(), PdceConfig::pfe()] {
            let mut once = p.clone();
            optimize(&mut once, &config).unwrap();
            let first = canonical_string(&once);
            let stats = optimize(&mut once, &config).unwrap();
            assert_eq!(canonical_string(&once), first);
            assert_eq!(stats.eliminated_assignments, 0);
            assert_eq!(stats.rounds, 1);
        }
    }
}

#[test]
fn pfe_subsumes_pde() {
    for seed in seeds(7) {
        let p = structured(&small_config(seed, true));
        let mut with_pde = p.clone();
        optimize(&mut with_pde, &PdceConfig::pde()).unwrap();
        let mut with_pfe = p.clone();
        optimize(&mut with_pfe, &PdceConfig::pfe()).unwrap();
        assert!(with_pfe.num_assignments() <= with_pde.num_assignments());
        // And pfe's output dominates pde's per path.
        let report = check_improvement(
            &with_pde,
            &with_pfe,
            &BetterOptions {
                samples: 64,
                ..BetterOptions::default()
            },
        );
        assert!(report.holds(), "violations: {:#?}", report.violations);
    }
}

/// The corpus programs, in file-name order.
fn corpus() -> Vec<Program> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pdce"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| parse(&std::fs::read_to_string(path).unwrap()).expect("corpus parses"))
        .collect()
}

/// Section 4.4: faint elimination has no elimination–elimination
/// effect, so one fce pass is final — a second one removes nothing, on
/// the whole program and under a random hot-region mask alike (the
/// argument is in `eliminate_fixpoint_cached`'s documentation). Dead
/// elimination is the contrast: on some of these programs its second
/// pass does remove something (Figure 12).
#[test]
fn one_fce_pass_leaves_nothing_faint() {
    use pdce::core::elim::eliminate_once_in;
    let mut rng = Rng::new(0x0fce_0001);
    let mut programs = corpus();
    for seed in seeds(30) {
        programs.push(structured(&small_config(seed, true)));
        let config = GenConfig {
            target_blocks: rng.gen_range_inclusive(40, 200),
            num_vars: rng.gen_range_inclusive(8, 20),
            max_depth: 10,
            ..small_config(seed, true)
        };
        programs.push(structured(&config));
        programs.push(tangled(&config, 4));
    }
    let (mut first_removed, mut masked_removed, mut dead_second) = (0, 0, 0);
    for (i, prog) in programs.iter().enumerate() {
        let mask: Vec<bool> = (0..prog.num_blocks())
            .map(|_| rng.gen_range(0, 2) == 0)
            .collect();
        for region in [None, Some(&mask[..])] {
            let mut p = prog.clone();
            let removed = eliminate_once_in(&mut p, Mode::Faint, region);
            match region {
                None => first_removed += removed,
                Some(_) => masked_removed += removed,
            }
            assert_eq!(
                eliminate_once_in(&mut p, Mode::Faint, region),
                0,
                "program {i} (masked: {}): a second fce pass removed something",
                region.is_some()
            );
        }
        let mut p = prog.clone();
        eliminate_once_in(&mut p, Mode::Dead, None);
        dead_second += eliminate_once_in(&mut p, Mode::Dead, None);
    }
    assert!(
        first_removed > 0 && masked_removed > 0,
        "vacuous: no first pass removed anything"
    );
    assert!(
        dead_second > 0,
        "no program shows dead elimination's second-order effect"
    );
}

#[test]
fn dead_implies_faint() {
    use pdce::core::{DeadSolution, FaintSolution};
    use pdce::ir::CfgView;
    for seed in seeds(8) {
        let p = structured(&small_config(seed, true));
        let view = CfgView::new(&p);
        let dead = DeadSolution::compute(&p, &view);
        let faint = FaintSolution::compute(&p, &view);
        for n in p.node_ids() {
            let after = dead.after_each_stmt(&p, n);
            for (k, after_k) in after.iter().enumerate() {
                for v in 0..p.num_vars() {
                    if after_k.get(v) {
                        assert!(
                            faint.faint_after(&p, n, k, pdce::ir::Var::from_index(v)),
                            "dead but not faint at {}[{}] var v{}",
                            p.block(n).name,
                            k,
                            v
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn copy_propagation_preserves_semantics() {
    for seed in seeds(9) {
        let p = structured(&small_config(seed, false));
        let mut q = p.clone();
        copy_propagate(&mut q);
        let inputs: [(&str, i64); 2] = [("v0", 5), ("v3", -1)];
        let t0 = record_run(&p, &inputs, 7);
        let t1 = trace_of(&q, &inputs, t0.decisions.clone());
        assert_eq!(t0.outputs, t1.outputs);
    }
}

#[test]
fn lcm_preserves_semantics() {
    for seed in seeds(10) {
        let mut p = structured(&small_config(seed, false));
        pdce::ir::edgesplit::split_critical_edges(&mut p);
        let mut q = p.clone();
        lazy_code_motion(&mut q).unwrap();
        let inputs: [(&str, i64); 2] = [("v1", 9), ("v2", 2)];
        let t0 = record_run(&p, &inputs, 3);
        let t1 = trace_of(&q, &inputs, t0.decisions.clone());
        assert_eq!(t0.outputs, t1.outputs);
    }
}

#[test]
fn hoisting_preserves_semantics() {
    use pdce::baselines::hoist_assignments;
    for seed in seeds(11) {
        let mut p = structured(&small_config(seed, false));
        pdce::ir::edgesplit::split_critical_edges(&mut p);
        let mut q = p.clone();
        // Iterate to the hoisting fixpoint, bounded.
        for _ in 0..10 {
            let before = canonical_string(&q);
            hoist_assignments(&mut q).unwrap();
            if canonical_string(&q) == before {
                break;
            }
        }
        let inputs: [(&str, i64); 2] = [("v0", 4), ("v2", -6)];
        let t0 = record_run(&p, &inputs, 13);
        let t1 = trace_of(&q, &inputs, t0.decisions.clone());
        assert_eq!(&t0.outputs, &t1.outputs);
        // Hoisting never *increases* executed assignments on a path: a
        // merge keeps exactly one occurrence per path, and hoisting a
        // loop-invariant occurrence above its loop can only reduce the
        // count.
        assert!(t1.executed_assignments <= t0.executed_assignments);
    }
}

/// The Figure 6 strawman moves assignments into loop headers: more
/// work per iteration, but the same outputs on every path.
#[test]
fn naive_sink_preserves_semantics() {
    use pdce::baselines::naive_sink;
    for seed in seeds(14) {
        let mut p = structured(&small_config(seed, true));
        pdce::ir::edgesplit::split_critical_edges(&mut p);
        let mut q = p.clone();
        naive_sink(&mut q);
        let inputs: [(&str, i64); 3] = [("v0", 3), ("v1", -8), ("v2", 2)];
        for run_seed in [9u64, 44] {
            let t0 = record_run(&p, &inputs, run_seed);
            let t1 = trace_of(&q, &inputs, t0.decisions.clone());
            assert_eq!(&t0.outputs, &t1.outputs);
        }
    }
}

#[test]
fn hoisting_on_nondet_programs_preserves_semantics() {
    use pdce::baselines::hoist_assignments;
    for seed in seeds(12) {
        let mut p = structured(&small_config(seed, true));
        pdce::ir::edgesplit::split_critical_edges(&mut p);
        let mut q = p.clone();
        hoist_assignments(&mut q).unwrap();
        let inputs: [(&str, i64); 2] = [("v1", 8), ("v3", 1)];
        let t0 = record_run(&p, &inputs, 29);
        let t1 = trace_of(&q, &inputs, t0.decisions.clone());
        assert_eq!(&t0.outputs, &t1.outputs);
    }
}

#[test]
fn printer_parser_roundtrip() {
    for seed in seeds(13) {
        let p = structured(&small_config(seed, true));
        let printed = pdce::ir::printer::print_program(&p);
        let reparsed = pdce::ir::parser::parse(&printed).unwrap();
        assert_eq!(canonical_string(&p), canonical_string(&reparsed));
    }
}

#[test]
fn pde_plus_simplify_preserves_semantics() {
    for seed in seeds(17) {
        let p = structured(&small_config(seed, true));
        let mut q = p.clone();
        optimize(&mut q, &PdceConfig::pde()).unwrap();
        pdce::ir::simplify_cfg(&mut q);
        pdce::ir::validate::validate(&q).unwrap();
        let inputs: [(&str, i64); 2] = [("v0", 1), ("v4", -9)];
        let t0 = record_run(&p, &inputs, 21);
        // Simplification can remove nondet *forwarding* blocks but keeps
        // every branching node, so decision replay still lines up.
        let t1 = trace_of(&q, &inputs, t0.decisions.clone());
        assert_eq!(&t0.outputs, &t1.outputs);
        assert!(t1.executed_assignments <= t0.executed_assignments);
    }
}

/// The two rungs below the configured run, on 112 generated programs
/// (every eighth one irreducible), for pde and pfe:
///
/// * with sinking failing on every attempt, the `elimination-only` rung
///   answers with exactly the `dce_only`/`fce_only` output, which keeps
///   the output trace of every recorded run and dominates the input on
///   every path under `better` (Definition 3.6);
/// * with a one-pop budget every solving rung fails, and the `identity`
///   rung returns the input verbatim. (A pfe run whose faint closure
///   has no seed and whose sinking finds no pattern pops nothing and is
///   not degraded at all; such runs must have stayed within the budget.)
#[test]
fn every_ladder_rung_keeps_its_contract() {
    use pdce::ir::printer::print_program;
    use pdce::trace::budget::Budget;
    use pdce::trace::fault::with_faults;
    let inputs: [(&str, i64); 3] = [("v0", 3), ("v1", -2), ("v2", 7)];
    let mut rng = Rng::new(0x1add_e700);
    let mut identity_rungs = 0;
    for case in 0..112usize {
        let seed = rng.next_u64();
        let p = if case % 8 == 7 {
            tangled(&small_config(seed, true), 6)
        } else {
            structured(&small_config(seed, case % 2 == 0))
        };
        for (config, weaker) in [
            (PdceConfig::pde(), PdceConfig::dce_only()),
            (PdceConfig::pfe(), PdceConfig::fce_only()),
        ] {
            let mut degraded = p.clone();
            let stats = with_faults("panic:sink:*", || {
                optimize_resilient(&mut degraded, &config)
            });
            assert_eq!(
                stats.degraded,
                Some(DegradedMode::EliminationOnly),
                "case {case}"
            );
            let mut want = p.clone();
            optimize(&mut want, &weaker).unwrap();
            assert_eq!(
                print_program(&degraded),
                print_program(&want),
                "case {case}"
            );
            for run_seed in [1u64, 42, 993] {
                let orig = record_run(&p, &inputs, run_seed);
                let got = trace_of(&degraded, &inputs, orig.decisions.clone());
                assert_eq!(orig.outputs, got.outputs, "case {case}: outputs diverged");
            }
            let report = check_improvement(&p, &degraded, &BetterOptions::default());
            assert!(report.holds(), "case {case}: {:#?}", report.violations);

            let mut verbatim = p.clone();
            let starved = config.clone().with_budget(Budget {
                max_pops: Some(1),
                ..Budget::UNLIMITED
            });
            let stats = optimize_resilient(&mut verbatim, &starved);
            if stats.degraded == Some(DegradedMode::Identity) {
                assert_eq!(print_program(&verbatim), print_program(&p), "case {case}");
                identity_rungs += 1;
            } else {
                assert!(
                    stats.degraded.is_none() && stats.solver.pops() <= 1,
                    "case {case}: {stats:?}"
                );
            }
        }
    }
    assert!(
        identity_rungs >= 200,
        "only {identity_rungs} identity rungs"
    );
}

#[test]
fn stats_are_consistent() {
    for seed in seeds(18) {
        let p = structured(&small_config(seed, true));
        let mut q = p.clone();
        let stats = optimize(&mut q, &PdceConfig::pde()).unwrap();
        assert_eq!(stats.final_stmts, q.num_stmts() as u64);
        assert!(stats.max_stmts >= stats.initial_stmts);
        assert!(stats.max_stmts >= stats.final_stmts);
        assert!(stats.growth_factor() >= 1.0);
        assert!(stats.rounds >= 1);
        // The cache sees at least one hit per round: eliminations and
        // sinking share one CfgView instead of rebuilding it.
        assert!(stats.cache.cfg_misses <= stats.rounds);
    }
}

/// `print_program` is a fixpoint of parse-then-print, and its every
/// statement and terminator line is exactly `print_stmt` /
/// `print_terminator` of that item, on generated programs of 20–400
/// blocks, structured and irreducible.
#[test]
fn printing_a_parsed_printout_is_byte_identical() {
    let mut rng = Rng::new(0x7e47_1a7e);
    for (case, seed) in seeds(22).into_iter().enumerate().take(24) {
        let config = GenConfig {
            target_blocks: rng.gen_range(20, 401),
            num_vars: 16,
            stmts_per_block: (0, 4),
            max_depth: 12,
            expr_depth: 3,
            ..small_config(seed, true)
        };
        let p = if case % 2 == 0 {
            structured(&config)
        } else {
            tangled(&config, 8)
        };
        let text = print_program(&p);
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(print_program(&reparsed), text, "case {case}");

        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("prog {"), "case {case}");
        for n in p.node_ids() {
            let b = p.block(n);
            assert_eq!(
                lines.next(),
                Some(format!("  block {} {{", b.name).as_str())
            );
            for st in &b.stmts {
                let want = format!("    {};", print_stmt(&p, st));
                assert_eq!(lines.next(), Some(want.as_str()), "case {case}");
            }
            let want = format!("    {}", print_terminator(&p, &b.term));
            assert_eq!(lines.next(), Some(want.as_str()), "case {case}");
            assert_eq!(lines.next(), Some("  }"), "case {case}");
        }
        assert_eq!(lines.next(), Some("}"), "case {case}");
        assert_eq!(lines.next(), None, "case {case}");
    }
}
