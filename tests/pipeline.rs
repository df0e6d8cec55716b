//! Whole-pipeline integration: parse → optimize → print → reparse, the
//! combined optimizer stack, and the DOT exporter.

use pdce::baselines::copy_propagate;
use pdce::baselines::lcm::lazy_code_motion;
use pdce::core::driver::{optimize, pde, PdceConfig};
use pdce::ir::edgesplit::split_critical_edges;
use pdce::ir::interp::{run, Env, ExecLimits, ReplayOracle, SeededOracle};
use pdce::ir::parser::parse;
use pdce::ir::printer::{canonical_string, print_program};
use pdce::progen::{structured, GenConfig};

#[test]
fn optimized_programs_survive_print_parse_cycles() {
    for seed in 0..20u64 {
        let mut p = structured(&GenConfig {
            seed,
            nondet: true,
            ..GenConfig::default()
        });
        pde(&mut p).unwrap();
        let printed = print_program(&p);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(canonical_string(&p), canonical_string(&reparsed));
        // Optimizing the reparsed program is a no-op (fixpoint survives
        // serialization).
        let mut again = reparsed.clone();
        let stats = pde(&mut again).unwrap();
        assert_eq!(stats.rounds, 1, "seed {seed}");
        assert_eq!(canonical_string(&again), canonical_string(&reparsed));
    }
}

/// The full optimizer stack a compiler would run: copy propagation, then
/// LCM (redundancy), then pfe (partially dead/faint code). Semantics are
/// preserved end to end and dynamic assignment work never increases
/// relative to pfe alone... (LCM introduces temp initializations, so we
/// only require output equality plus the pfe dominance over the input.)
#[test]
fn combined_stack_preserves_semantics() {
    for seed in 0..20u64 {
        let original = structured(&GenConfig {
            seed: seed.wrapping_mul(7919),
            target_blocks: 22,
            ..GenConfig::default()
        });
        let mut opt = original.clone();
        split_critical_edges(&mut opt);
        copy_propagate(&mut opt);
        lazy_code_motion(&mut opt).unwrap();
        optimize(&mut opt, &PdceConfig::pfe()).unwrap();

        let inputs: [(&str, i64); 3] = [("v0", 11), ("v1", -4), ("v2", 0)];
        let mut env = Env::with_values(&original, &inputs);
        let mut oracle = SeededOracle::new(5);
        let t0 = run(&original, &mut env, &mut oracle, ExecLimits::default());
        let mut env = Env::with_values(&opt, &inputs);
        let mut oracle = ReplayOracle::new(t0.decisions.clone());
        let t1 = run(&opt, &mut env, &mut oracle, ExecLimits::default());
        assert_eq!(t0.outputs, t1.outputs, "seed {seed}");
    }
}

#[test]
fn dot_export_of_optimized_program() {
    let mut p = parse(
        "prog {
           block s  { goto n1 }
           block n1 { x := a + b; nondet n2 n3 }
           block n3 { x := 5; goto n2 }
           block n2 { out(x); goto e }
           block e  { halt }
         }",
    )
    .unwrap();
    pde(&mut p).unwrap();
    let dot = pdce::ir::dot::to_dot(&p, "fig8");
    assert!(dot.contains("digraph fig8"));
    assert!(dot.contains("style=dashed"), "synthetic node rendered");
    assert!(dot.contains("x := a + b"));
}

/// Paper Section 6.2: code growth ω stays modest on realistic programs.
#[test]
fn growth_factor_is_small_on_random_programs() {
    let mut worst: f64 = 1.0;
    for seed in 0..40u64 {
        let mut p = structured(&GenConfig {
            seed,
            nondet: true,
            target_blocks: 30,
            ..GenConfig::default()
        });
        let stats = pde(&mut p).unwrap();
        worst = worst.max(stats.growth_factor());
    }
    assert!(
        worst < 2.5,
        "code growth should be O(1) in practice, saw ω = {worst}"
    );
}

/// Paper Section 6.3: the round count r stays far below the i·b bound.
#[test]
fn round_counts_stay_small_on_random_programs() {
    for seed in 0..40u64 {
        let mut p = structured(&GenConfig {
            seed,
            nondet: true,
            target_blocks: 30,
            ..GenConfig::default()
        });
        let i = p.num_stmts().max(1) as u64;
        let stats = pde(&mut p).unwrap();
        assert!(
            stats.rounds <= i + 4,
            "seed {seed}: r = {} for i = {i}",
            stats.rounds
        );
    }
}
