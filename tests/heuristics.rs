//! The Section 7 heuristics: truncated iteration and hot-area
//! localization. Both must stay semantics-preserving and never impair
//! an execution — every intermediate program of the exhaustive
//! iteration already has those properties, so cutting early or
//! restricting scope only costs optimality, never correctness. The
//! round cap's error behaviour and the sinker's shared CFG build sit
//! here too, next to the truncation cases that share their workloads.

use pdce::core::better::{check_improvement, BetterOptions};
use pdce::core::driver::{optimize, LimitBehavior, PdceConfig, PdceError};
use pdce::core::sink::{sink_assignments_cached, sinking_is_stable_cached};
use pdce::dfa::AnalysisCache;
use pdce::ir::interp::{run, Env, ExecLimits, ReplayOracle, SeededOracle};
use pdce::ir::parser::parse;
use pdce::ir::printer::{canonical_string, print_stmt, structural_eq};
use pdce::ir::Program;
use pdce::progen::{second_order_tower, structured, GenConfig};

#[test]
fn truncation_stops_early_but_stays_sound() {
    let tower = second_order_tower(16);

    let mut full = tower.clone();
    let full_stats = optimize(&mut full, &PdceConfig::pde()).unwrap();
    assert!(full_stats.rounds > 10);
    assert!(!full_stats.truncated);

    let mut cut = tower.clone();
    let cut_stats = optimize(&mut cut, &PdceConfig::pde().truncating_after(3)).unwrap();
    assert!(cut_stats.truncated);
    assert_eq!(cut_stats.rounds, 3);
    // Less was achieved...
    assert!(cut_stats.eliminated_assignments < full_stats.eliminated_assignments);
    // ...but the partial result still dominates the input per path.
    let report = check_improvement(&tower, &cut, &BetterOptions::default());
    assert!(report.holds(), "{:#?}", report.violations);
    // And semantics are intact.
    let inputs = [("c", 9i64)];
    let mut env = Env::with_values(&tower, &inputs);
    let mut oracle = SeededOracle::new(3);
    let t0 = run(&tower, &mut env, &mut oracle, ExecLimits::default());
    let mut env = Env::with_values(&cut, &inputs);
    let mut oracle = ReplayOracle::new(t0.decisions.clone());
    let t1 = run(&cut, &mut env, &mut oracle, ExecLimits::default());
    assert_eq!(t0.outputs, t1.outputs);
    assert!(t1.executed_assignments <= t0.executed_assignments);
}

#[test]
fn full_region_equals_unrestricted() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { y := 4; goto n4 }
        block n3 { out(y); goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";
    let all_blocks = ["s", "n1", "n2", "n3", "n4", "e"];
    let mut restricted = parse(src).unwrap();
    optimize(&mut restricted, &PdceConfig::pde().with_region(all_blocks)).unwrap();
    let mut unrestricted = parse(src).unwrap();
    optimize(&mut unrestricted, &PdceConfig::pde()).unwrap();
    assert!(structural_eq(&restricted, &unrestricted));
}

#[test]
fn cold_region_leaves_hot_code_alone() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { y := 4; goto n4 }
        block n3 { out(y); goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";
    // Region excludes n1 (where the only candidate lives): nothing moves.
    let mut p = parse(src).unwrap();
    let stats = optimize(&mut p, &PdceConfig::pde().with_region(["n2", "n3", "n4"])).unwrap();
    assert_eq!(stats.eliminated_assignments, 0);
    // (y := 4 is re-inserted at its own block exit — an in-place no-op
    // that still counts as one removal/insertion pair.)
    assert!(structural_eq(&p, &parse(src).unwrap()));
}

#[test]
fn partial_region_gets_partial_benefit() {
    // Two independent Figure-1 gadgets; the region covers only the first.
    let src = "prog {
        block s  { goto a1 }
        block a1 { y := a + b; nondet a2 a3 }
        block a2 { y := 4; goto b1 }
        block a3 { out(y); goto b1 }
        block b1 { z := c + d; nondet b2 b3 }
        block b2 { z := 7; goto b4 }
        block b3 { out(z); goto b4 }
        block b4 { goto e }
        block e  { halt }
    }";
    let mut p = parse(src).unwrap();
    let stats = optimize(&mut p, &PdceConfig::pde().with_region(["a1", "a2", "a3"])).unwrap();
    // The first gadget is optimized...
    let a1 = p.block_by_name("a1").unwrap();
    assert!(p.block(a1).stmts.is_empty(), "y := a+b sunk out of a1");
    assert!(stats.eliminated_assignments >= 1);
    // ...the second is untouched.
    let b1 = p.block_by_name("b1").unwrap();
    assert_eq!(p.block(b1).stmts.len(), 1, "z := c+d stays in b1");
}

#[test]
fn region_restriction_is_sound_on_random_programs() {
    for seed in 0..20u64 {
        let prog = structured(&GenConfig {
            seed,
            target_blocks: 20,
            nondet: true,
            ..GenConfig::default()
        });
        // Pick an arbitrary half of the blocks as the "hot" region.
        let region: Vec<String> = prog
            .node_ids()
            .filter(|n| n.index() % 2 == 0)
            .map(|n| prog.block(n).name.clone())
            .collect();
        let mut restricted = prog.clone();
        let stats = optimize(&mut restricted, &PdceConfig::pde().with_region(region)).unwrap();
        assert!(!stats.truncated);
        // Sound: dominated per path and trace-equal.
        let report = check_improvement(&prog, &restricted, &BetterOptions::default());
        assert!(report.holds(), "seed {seed}: {:#?}", report.violations);
        let mut env = Env::with_values(&prog, &[("v0", 2)]);
        let mut oracle = SeededOracle::new(11);
        let t0 = run(&prog, &mut env, &mut oracle, ExecLimits::default());
        let mut env = Env::with_values(&restricted, &[("v0", 2)]);
        let mut oracle = ReplayOracle::new(t0.decisions.clone());
        let t1 = run(&restricted, &mut env, &mut oracle, ExecLimits::default());
        assert_eq!(t0.outputs, t1.outputs, "seed {seed}");
        assert!(t1.executed_assignments <= t0.executed_assignments);
    }
}

/// The ⊑ chain original ⊒ truncated ⊒ full demonstrates transitivity of
/// Definition 3.6's pre-order on real optimizer outputs.
#[test]
fn better_relation_chains_through_truncation() {
    use pdce::core::better::is_better;
    let tower = second_order_tower(10);
    let mut split = tower.clone();
    pdce::ir::edgesplit::split_critical_edges(&mut split);
    let mut cut = split.clone();
    optimize(&mut cut, &PdceConfig::pde().truncating_after(3)).unwrap();
    let mut full = split.clone();
    optimize(&mut full, &PdceConfig::pde()).unwrap();
    let opts = BetterOptions::default();
    assert!(is_better(&cut, &split, &opts).holds(), "cut ⊑ original");
    assert!(is_better(&full, &cut, &opts).holds(), "full ⊑ cut");
    assert!(
        is_better(&full, &split, &opts).holds(),
        "transitively full ⊑ original"
    );
}

#[test]
fn truncated_run_is_resumable() {
    // Running the truncated config repeatedly eventually reaches the
    // full fixpoint — the iteration is cut, not broken.
    let tower = second_order_tower(8);
    let mut full = tower.clone();
    optimize(&mut full, &PdceConfig::pde()).unwrap();

    let mut step = tower.clone();
    let config = PdceConfig::pde().truncating_after(2);
    for _ in 0..40 {
        let stats = optimize(&mut step, &config).unwrap();
        if !stats.truncated {
            break;
        }
    }
    assert_eq!(canonical_string(&step), canonical_string(&full));
}

/// Two independent Figure-1 gadgets feeding one exit: `a1..a3` sinks
/// and eliminates `x`, `b1..b3` would do the same for `z`.
fn two_gadgets() -> Program {
    parse(
        "prog {
           block s  { goto a1 }
           block a1 { x := u + v; nondet a2 a3 }
           block a2 { out(x); goto b1 }
           block a3 { x := 1; goto b1 }
           block b1 { z := u * v; nondet b2 b3 }
           block b2 { out(z); goto e }
           block b3 { z := 2; goto e }
           block e  { out(x); out(z); halt }
         }",
    )
    .unwrap()
}

fn outputs_of(prog: &Program, decisions: Option<Vec<usize>>) -> (Vec<i64>, Vec<usize>) {
    let inputs: [(&str, i64); 2] = [("u", 3), ("v", -4)];
    let mut env = Env::with_values(prog, &inputs);
    let trace = match decisions {
        Some(d) => {
            let mut oracle = ReplayOracle::new(d);
            run(prog, &mut env, &mut oracle, ExecLimits::default())
        }
        None => {
            let mut oracle = SeededOracle::new(13);
            run(prog, &mut env, &mut oracle, ExecLimits::default())
        }
    };
    (trace.outputs, trace.decisions)
}

#[test]
fn region_restriction_leaves_outside_blocks_verbatim() {
    let original = two_gadgets();
    let mut restricted = original.clone();
    let stats = optimize(
        &mut restricted,
        &PdceConfig::pde().with_region(["a1", "a2", "a3"]),
    )
    .unwrap();
    assert!(
        stats.eliminated_assignments + stats.sunk_assignments > 0,
        "the a-gadget is optimizable"
    );

    // The b-gadget is outside the region: statement-for-statement intact.
    for name in ["b1", "b2", "b3", "e"] {
        let before = original.block_by_name(name).unwrap();
        let after = restricted.block_by_name(name).unwrap();
        let render = |p: &Program, n| {
            p.block(n)
                .stmts
                .iter()
                .map(|s| print_stmt(p, s))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            render(&original, before),
            render(&restricted, after),
            "block {name} must be untouched outside the region"
        );
    }

    let (reference, decisions) = outputs_of(&original, None);
    let (got, _) = outputs_of(&restricted, Some(decisions));
    assert_eq!(reference, got, "region restriction broke semantics");
}

#[test]
fn truncate_stops_gracefully_with_a_correct_partial_result() {
    // The tower needs one round per link, far more than the cap of 1.
    let original = second_order_tower(12);
    let mut truncated = original.clone();
    let stats = optimize(&mut truncated, &PdceConfig::pde().truncating_after(1)).unwrap();
    assert!(stats.truncated, "cap of 1 must truncate on the tower");
    assert_eq!(stats.rounds, 1);

    let full_rounds = {
        let mut full = original.clone();
        optimize(&mut full, &PdceConfig::pde()).unwrap().rounds
    };
    assert!(full_rounds > 1, "workload must actually need iteration");

    // The partial result is still semantics-preserving.
    let (reference, decisions) = outputs_of(&original, None);
    let (got, _) = outputs_of(&truncated, Some(decisions));
    assert_eq!(reference, got, "truncated result broke semantics");
}

#[test]
fn error_limit_behavior_reports_the_round_cap() {
    let mut prog = second_order_tower(12);
    let config = PdceConfig {
        max_rounds: Some(1),
        on_limit: LimitBehavior::Error,
        ..PdceConfig::pde()
    };
    match optimize(&mut prog, &config) {
        // The driver reports the round that exceeded the cap: cap + 1.
        Err(PdceError::RoundLimitExceeded { rounds }) => assert_eq!(rounds, 2),
        other => panic!("expected RoundLimitExceeded, got {other:?}"),
    }
}

/// Regression for the historic double CFG build in the sinker: running
/// the sinking transformation and then the stability check against one
/// cache must build the CFG view exactly once.
#[test]
fn sink_and_stability_check_share_one_cfg_build() {
    let mut prog = two_gadgets();
    let mut cache = AnalysisCache::new();
    sink_assignments_cached(&mut prog, &mut cache, None).unwrap();
    assert!(sinking_is_stable_cached(&prog, &mut cache));
    let stats = cache.stats();
    assert_eq!(
        stats.cfg_misses, 1,
        "sinking must reuse one CfgView end to end: {stats:?}"
    );
    assert!(stats.cfg_hits >= 1, "stability check must hit the cache");
}
