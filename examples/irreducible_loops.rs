//! Figures 5/6 and the Briggs–Cooper comparison: sinking across
//! (irreducible) loops without ever impairing an execution.
//!
//! The program carries `x := a + b` across a two-entry irreducible
//! region, eliminates it on the branch that recomputes `x`, and parks it
//! in the synthetic node on the loop-entry edge — but never pushes it
//! *into* the loop. A naive loop-oblivious sinker does push it in, and
//! no amount of partial redundancy elimination gets the per-iteration
//! assignment back out.
//!
//! Run with: `cargo run --example irreducible_loops`

use pdce::baselines::lcm::lazy_code_motion;
use pdce::baselines::naive_sink;
use pdce::core::driver::pde;
use pdce::ir::edgesplit::split_critical_edges;
use pdce::ir::interp::{run, Env, ExecLimits, ReplayOracle};
use pdce::ir::parser::parse;
use pdce::ir::printer::print_program;
use pdce::ir::{CfgView, Program};

const FIG5: &str = "prog {
    block n1 { x := a + b; nondet n2 n3 }
    block n2 { nondet n3 n4 }
    block n3 { nondet n2 n4 }
    block n4 { nondet n5 n6 }
    block n5 { nondet n7 n8 }
    block n6 { x := c + 1; out(x); goto n10 }
    block n7 { y := y + x; goto n9 }
    block n8 { goto n9 }
    block n9 { nondet n5 n10 }
    block n10 { out(y); goto e }
    block e { halt }
}";

/// Take the loop `n5 → {n7|n8} → n9 → n5` for `k` iterations, then exit.
fn decisions(k: usize) -> Vec<usize> {
    let mut d = vec![0, 1]; // n1→n2, n2→n4 (through the irreducible region)
    d.push(0); // n4 → n5 (enter the loop)
    for i in 0..k {
        d.push(i % 2); // n5: n7 or n8
        d.push(0); // n9: back to n5
    }
    d.push(0); // one more n7
    d.push(1); // n9 → n10
    d
}

fn cost(prog: &Program, d: Vec<usize>) -> u64 {
    let mut env = Env::with_values(prog, &[("a", 2), ("b", 3), ("c", 4)]);
    let mut oracle = ReplayOracle::new(d);
    let t = run(prog, &mut env, &mut oracle, ExecLimits::default());
    assert!(t.completed);
    t.executed_assignments
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut original = parse(FIG5)?;
    println!(
        "the flow graph is irreducible: {}",
        !CfgView::new(&original).is_reducible()
    );
    split_critical_edges(&mut original);

    let mut optimized = original.clone();
    let stats = pde(&mut optimized)?;
    println!(
        "=== pde result (Figure 6) ===\n{}",
        print_program(&optimized)
    );
    println!(
        "rounds: {}, eliminated: {}, synthetic blocks: {}\n",
        stats.rounds, stats.eliminated_assignments, stats.synthetic_blocks
    );

    // The paper: "their algorithm would sink the instruction of node
    // S4,5 into the loop to node 7" — so the naive sinker starts where
    // pde (correctly) stopped.
    let mut naive = optimized.clone();
    let outcome = naive_sink(&mut naive);
    assert!(outcome.loop_moves >= 1, "strawman must take the bait");
    println!(
        "naive sinker made {} loop move(s); then PRE 'repairs' it:",
        outcome.loop_moves
    );
    let mut repaired = naive.clone();
    lazy_code_motion(&mut repaired)?;
    println!("{}", print_program(&repaired));

    println!("dynamic executed assignments (k = loop iterations):");
    println!(
        "{:>4} {:>10} {:>10} {:>12} {:>14}",
        "k", "original", "pde", "naive-sink", "naive+PRE"
    );
    for k in [1usize, 4, 16, 64] {
        println!(
            "{:>4} {:>10} {:>10} {:>12} {:>14}",
            k,
            cost(&original, decisions(k)),
            cost(&optimized, decisions(k)),
            cost(&naive, decisions(k)),
            cost(&repaired, decisions(k)),
        );
    }
    println!("\npde never impairs an execution; the naive sinker pays per iteration.");
    Ok(())
}
