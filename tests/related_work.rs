//! Reproduction of the paper's Related-Work claims.
//!
//! * **Briggs & Cooper [4]** (Figure 6 discussion): a loop-oblivious
//!   sinker pushes an assignment into a loop, impairing executions, and
//!   a subsequent partial redundancy elimination cannot repair the
//!   damage — while pde never impairs anything.
//! * **Dhamdhere [9]**: hoisting-based assignment motion (here: LCM,
//!   which hoists computations) "does not allow any elimination of
//!   partially dead code".
//! * **Dhamdhere/Rosen/Zadeck [10]** (footnote 1): interleaving code
//!   motion with copy propagation removes the right-hand-side
//!   computations from the Figure 3 loop, but the assignment itself
//!   stays — only pde removes it.
//! * **Feigen et al. [13]** (Figure 7): one-occurrence-at-a-time sinking
//!   misses m-to-n opportunities (shown via the universe explorer's move
//!   repertoire in `tests/optimality.rs` and `fig_7` in
//!   `tests/figures.rs`).

use pdce::baselines::lcm::lazy_code_motion;
use pdce::baselines::{copy_propagate, hoist_assignments, naive_sink};
use pdce::core::driver::pde;
use pdce::ir::edgesplit::split_critical_edges;
use pdce::ir::interp::{run, Env, ExecLimits, ReplayOracle};
use pdce::ir::parser::parse;
use pdce::ir::Program;

/// Loop-heavy program in the shape of Figure 6's second half: the
/// assignment is needed only on one arm *inside* the loop.
const FIG6_LOOP: &str = "prog {
    block pre { x := a + b; goto h }
    block h { nondet uses skp }
    block uses { y := y + x; goto latch }
    block skp { goto latch }
    block latch { nondet back post }
    block back { goto h }
    block post { out(y); goto e }
    block e { halt }
}";

/// Decisions driving `k` loop iterations (alternating arms), then exit.
fn loop_decisions(k: usize) -> Vec<usize> {
    let mut d = Vec::new();
    for i in 0..k {
        d.push(i % 2); // uses / skip
        d.push(0); // back
    }
    d.push(0); // uses one last time
    d.push(1); // post
    d
}

fn assignments_executed(prog: &Program, decisions: Vec<usize>) -> u64 {
    let mut env = Env::with_values(prog, &[("a", 3), ("b", 4)]);
    let mut oracle = ReplayOracle::new(decisions);
    let t = run(prog, &mut env, &mut oracle, ExecLimits::default());
    assert!(t.completed);
    t.executed_assignments
}

#[test]
fn briggs_cooper_sinking_impairs_and_pre_cannot_repair() {
    let mut original = parse(FIG6_LOOP).unwrap();
    split_critical_edges(&mut original);

    // pde leaves the loop-external assignment alone (sinking it into the
    // loop would impair executions).
    let mut after_pde = original.clone();
    pde(&mut after_pde).unwrap();

    // The naive sinker pushes it into the loop header.
    let mut after_naive = original.clone();
    let outcome = naive_sink(&mut after_naive);
    assert!(outcome.loop_moves >= 1, "strawman must take the bait");

    // A subsequent PRE hoists the *computation* but cannot remove the
    // per-iteration assignment.
    let mut repaired = after_naive.clone();
    lazy_code_motion(&mut repaired).unwrap();

    for k in [1usize, 4, 16] {
        let d = loop_decisions(k);
        let orig = assignments_executed(&original, d.clone());
        let pde_cost = assignments_executed(&after_pde, d.clone());
        let naive_cost = assignments_executed(&after_naive, d.clone());
        let repaired_cost = assignments_executed(&repaired, d);
        assert!(pde_cost <= orig, "pde must never impair (k={k})");
        assert!(
            naive_cost > orig,
            "naive sinking must impair loop executions (k={k}): {naive_cost} vs {orig}"
        );
        assert!(
            repaired_cost > orig,
            "PRE must fail to repair the impairment (k={k}): {repaired_cost} vs {orig}"
        );
        assert!(pde_cost < naive_cost);
    }
}

/// Hoisting computations (LCM) cannot remove partially dead assignments:
/// on Figure 1 it changes nothing that matters, while pde removes the
/// dead copy.
#[test]
fn hoisting_cannot_eliminate_partial_deadness() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { y := 4; goto n4 }
        block n3 { out(y); goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";
    let mut hoisted = parse(src).unwrap();
    split_critical_edges(&mut hoisted);
    lazy_code_motion(&mut hoisted).unwrap();
    // The partially dead computation on the n2 path is still executed:
    // LCM has no notion of dead assignments.
    let d = vec![0usize]; // branch to n2 (y := 4): y := a+b was useless
    let cost_hoisted = assignments_executed(&hoisted, d.clone());
    let mut optimized = parse(src).unwrap();
    pde(&mut optimized).unwrap();
    let cost_pde = assignments_executed(&optimized, d);
    assert!(
        cost_pde < cost_hoisted,
        "pde must beat pure hoisting on the dead path: {cost_pde} vs {cost_hoisted}"
    );
}

/// Dhamdhere [9]: assignment motion by *hoisting* "does not allow any
/// elimination of partially dead code". On Figure 1 the iterated
/// hoisting fixpoint keeps both assignments and both per-path
/// occurrences; pde removes the dead one.
#[test]
fn dhamdhere_hoisting_cannot_eliminate_partially_dead_code() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { y := 4; goto n4 }
        block n3 { out(y); goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";
    let mut hoisted = parse(src).unwrap();
    split_critical_edges(&mut hoisted);
    for _ in 0..10 {
        let before = pdce::ir::printer::canonical_string(&hoisted);
        hoist_assignments(&mut hoisted).unwrap();
        if pdce::ir::printer::canonical_string(&hoisted) == before {
            break;
        }
    }
    assert_eq!(hoisted.num_assignments(), 2, "hoisting removes nothing");
    // Dead path (branch to n2): hoisting still pays for y := a + b.
    let d = vec![0usize];
    let cost_hoisted = assignments_executed(&hoisted, d.clone());
    let mut optimized = parse(src).unwrap();
    pde(&mut optimized).unwrap();
    let cost_pde = assignments_executed(&optimized, d);
    assert!(cost_pde < cost_hoisted, "{cost_pde} vs {cost_hoisted}");
}

/// Footnote 1: code motion + copy propagation removes the loop's
/// right-hand-side computations "but the assignment to x would remain in
/// it". pde empties the loop entirely.
#[test]
fn copy_propagation_interleaving_is_weaker_than_pde() {
    // Figure 3-style loop: the fragment is invariant but chained.
    let src = "prog {
        block s { goto h }
        block h { y := a + b; c := y - d; nondet hb after }
        block hb { x := x + 1; goto h }
        block after { nondet n7 n8 }
        block n7 { out(c); goto e }
        block n8 { out(x); goto e }
        block e { halt }
    }";
    // The interleaving pipeline: LCM + copy propagation, iterated.
    let mut interleaved = parse(src).unwrap();
    split_critical_edges(&mut interleaved);
    for _ in 0..3 {
        lazy_code_motion(&mut interleaved).unwrap();
        copy_propagate(&mut interleaved);
    }
    let h = interleaved.block_by_name("h").unwrap();
    assert!(
        !interleaved.block(h).stmts.is_empty(),
        "assignments must remain in the loop under CM+CP"
    );

    // pde empties the loop header.
    let mut optimized = parse(src).unwrap();
    pde(&mut optimized).unwrap();
    let h = optimized.block_by_name("h").unwrap();
    assert!(optimized.block(h).stmts.is_empty());
}
