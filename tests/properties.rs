//! Property-based tests over randomly generated programs, driven by the
//! workspace's deterministic seeded generator (`pdce-rng`).
//!
//! These check the paper's semantic guarantees on the whole generator
//! distribution:
//!
//! * **Semantics preservation** (Definitions 3.2/3.4): output traces are
//!   unchanged by pde/pfe/dce/fce, copy propagation, and LCM.
//! * **No impairment** (Section 1, Figure 5/6 discussion): the number of
//!   executed assignments never increases under pde/pfe.
//! * **Per-path dominance** (Definition 3.6): occurrence counts never
//!   increase on any corresponding path.
//! * **Idempotence**: the drivers are fixpoints of themselves.
//! * **dead ⟹ faint** (Section 3).

use pdce::baselines::copy_propagate;
use pdce::core::better::{check_improvement, BetterOptions};
use pdce::core::driver::{optimize, PdceConfig};
use pdce::ir::interp::{run, Env, ExecLimits, ReplayOracle, SeededOracle};
use pdce::ir::printer::canonical_string;
use pdce::ir::Program;
use pdce::lcm::lazy_code_motion;
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
                            faint.faint_after(n, k, pdce::ir::Var::from_index(v)),
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
fn lvn_preserves_semantics() {
    use pdce::baselines::local_value_numbering;
    for seed in seeds(14) {
        let p = structured(&small_config(seed, true));
        let mut q = p.clone();
        local_value_numbering(&mut q);
        let inputs: [(&str, i64); 3] = [("v0", 3), ("v1", -8), ("v2", 2)];
        for run_seed in [9u64, 44] {
            let t0 = record_run(&p, &inputs, run_seed);
            let t1 = trace_of(&q, &inputs, t0.decisions.clone());
            assert_eq!(&t0.outputs, &t1.outputs);
            // Value numbering only removes work.
            assert!(t1.executed_operations <= t0.executed_operations);
        }
    }
}

#[test]
fn sccp_preserves_semantics() {
    for seed in seeds(15) {
        let p = structured(&small_config(seed, true));
        let mut q = p.clone();
        pdce::ssa::sccp(&mut q);
        pdce::ir::simplify_cfg(&mut q);
        pdce::ir::validate::validate(&q).unwrap();
        let inputs: [(&str, i64); 3] = [("v0", 6), ("v1", -1), ("v3", 100)];
        for run_seed in [2u64, 71] {
            let t0 = record_run(&p, &inputs, run_seed);
            let t1 = trace_of(&q, &inputs, t0.decisions.clone());
            assert_eq!(&t0.outputs, &t1.outputs);
        }
    }
}

#[test]
fn sccp_then_pfe_preserves_semantics() {
    for seed in seeds(16) {
        let p = structured(&small_config(seed, false));
        let mut q = p.clone();
        pdce::ssa::sccp(&mut q);
        optimize(&mut q, &PdceConfig::pfe()).unwrap();
        pdce::ir::simplify_cfg(&mut q);
        let inputs: [(&str, i64); 2] = [("v2", 13), ("v4", -2)];
        let t0 = record_run(&p, &inputs, 5);
        let t1 = trace_of(&q, &inputs, t0.decisions.clone());
        assert_eq!(&t0.outputs, &t1.outputs);
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

// ---------------------------------------------------------------------------
// Differential solver oracle: FIFO sweep vs. priority worklist
// ---------------------------------------------------------------------------
//
// Both strategies start from the same optimistic initial value of a
// monotone system, so they converge to the *unique* greatest fixpoint —
// any mismatch is a scheduling bug, not a numerical tolerance. The
// oracle therefore demands bit-identical results, not approximate ones.

/// FIFO, priority, and sparse solvers compute the same fixpoint on 200
/// generator-seeded CFGs, for all three analyses the optimizers rely
/// on: dead (backward ∩), faint (boolean network), and delayability
/// (forward ∩). Every fourth case is irreducible (`tangled`). The two
/// dense worklists are the differential oracle for the sparse
/// chain-propagation family.
#[test]
fn fifo_and_priority_solvers_agree_on_200_cfgs() {
    use pdce::core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable};
    use pdce::dfa::{with_strategy, SolverStrategy};
    use pdce::ir::{CfgView, Var};
    const STRATEGIES: [SolverStrategy; 3] = [
        SolverStrategy::Fifo,
        SolverStrategy::Priority,
        SolverStrategy::Sparse,
    ];

    let mut rng = Rng::new(0x9a9e_50de);
    for case in 0..200usize {
        let seed = rng.next_u64();
        let p = if case % 4 == 3 {
            tangled(&small_config(seed, true), 6)
        } else {
            structured(&small_config(seed, case % 2 == 0))
        };
        let view = CfgView::new(&p);

        let dead = STRATEGIES.map(|s| with_strategy(s, || DeadSolution::compute(&p, &view)));
        for d in &dead[1..] {
            for n in p.node_ids() {
                assert_eq!(
                    dead[0].after_each_stmt(&p, n),
                    d.after_each_stmt(&p, n),
                    "dead diverged in {} (case {case})",
                    p.block(n).name
                );
            }
        }

        let faint = STRATEGIES.map(|s| with_strategy(s, || FaintSolution::compute(&p, &view)));
        for f in &faint[1..] {
            for n in p.node_ids() {
                for v in (0..p.num_vars()).map(Var::from_index) {
                    assert_eq!(
                        faint[0].faint_at_entry(n, v),
                        f.faint_at_entry(n, v),
                        "faint entry diverged in {} (case {case})",
                        p.block(n).name
                    );
                    for k in 0..p.block(n).stmts.len() {
                        assert_eq!(
                            faint[0].faint_after(n, k, v),
                            f.faint_after(n, k, v),
                            "faint diverged in {}[{k}] (case {case})",
                            p.block(n).name
                        );
                    }
                }
            }
        }

        let table = PatternTable::build(&p);
        let local = LocalInfo::compute(&p, &table);
        let delay =
            STRATEGIES.map(|s| with_strategy(s, || DelayInfo::compute(&p, &view, &table, &local)));
        for d in &delay[1..] {
            assert_eq!(delay[0].n_delayed, d.n_delayed, "case {case}");
            assert_eq!(delay[0].x_delayed, d.x_delayed, "case {case}");
            assert_eq!(delay[0].n_insert, d.n_insert, "case {case}");
            assert_eq!(delay[0].x_insert, d.x_insert, "case {case}");
        }
    }
}

/// End-to-end: the full pde/pfe drivers emit byte-identical programs
/// under either solver strategy — the fixpoints feed every placement
/// and elimination decision, so this catches divergence the analysis
/// oracle above might miss (e.g. iteration-order-dependent tie-breaks).
#[test]
fn solver_strategy_never_changes_optimizer_output() {
    use pdce::dfa::{with_strategy, SolverStrategy};
    for seed in seeds(19) {
        let p = structured(&small_config(seed, true));
        for config in [PdceConfig::pde(), PdceConfig::pfe()] {
            let printed = [
                SolverStrategy::Fifo,
                SolverStrategy::Priority,
                SolverStrategy::Sparse,
            ]
            .map(|s| {
                let mut q = p.clone();
                with_strategy(s, || optimize(&mut q, &config)).unwrap();
                canonical_string(&q)
            });
            assert_eq!(printed[0], printed[1], "strategies disagree (seed {seed})");
            assert_eq!(printed[0], printed[2], "sparse disagrees (seed {seed})");
        }
    }
}

/// End-to-end, at opt_large's shape: with no strategy override, pfe
/// solves faint with the sparse falsity closure, and it must print
/// byte-identical programs to explicit `Priority` and `Fifo` runs (the
/// dense reference worklists) on the hand-written corpus and on
/// 100–400-block generated programs, every eighth one irreducible.
#[test]
fn default_pfe_prints_the_same_programs_as_dense_solvers() {
    use pdce::dfa::{with_strategy, SolverStrategy};
    use pdce::ir::parser::parse;
    use pdce::ir::printer::print_program;

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pdce"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus went missing?");
    let mut programs: Vec<(String, Program)> = files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).expect("corpus file readable");
            let prog = parse(&src).expect("corpus parses");
            (path.display().to_string(), prog)
        })
        .collect();

    const LARGE: usize = 16;
    let mut rng = Rng::new(0x0a7_1a26e);
    for i in 0..LARGE {
        let position = (i as f64 + rng.gen_f64()) / LARGE as f64;
        let target_blocks = (100.0 * 4f64.powf(position)) as usize;
        let config = GenConfig {
            seed: rng.next_u64(),
            target_blocks,
            num_vars: rng.gen_range_inclusive(16, 24),
            stmts_per_block: (1, 4),
            out_prob: 0.2,
            loop_prob: 0.3,
            max_depth: 12,
            expr_depth: 2,
            nondet: true,
        };
        let prog = if i % 8 == 7 {
            tangled(&config, target_blocks / 12)
        } else {
            structured(&config)
        };
        programs.push((format!("large #{i} ({target_blocks} blocks)"), prog));
    }

    let pfe = |p: &Program| {
        let mut q = p.clone();
        optimize(&mut q, &PdceConfig::pfe()).unwrap();
        print_program(&q)
    };
    for (name, p) in &programs {
        let default = pfe(p);
        for strategy in [SolverStrategy::Priority, SolverStrategy::Fifo] {
            let dense = with_strategy(strategy, || pfe(p));
            assert_eq!(default, dense, "{name}: default differs from {strategy:?}");
        }
    }
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
