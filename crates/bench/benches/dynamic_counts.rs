//! D1: dynamic cost of optimized programs — interpreter runs of the
//! original vs. dce / pde / pfe outputs (the "who wins" series), plus
//! the cost of running each optimization level itself.
//!
//! Run with: `cargo bench -p pdce-bench --bench dynamic_counts`

use pdce_baselines::liveness_dce;
use pdce_bench::timeit;
use pdce_core::driver::{optimize, PdceConfig};
use pdce_core::elim::{eliminate_fixpoint, Mode};
use pdce_ir::interp::{run, Env, ExecLimits, SeededOracle};
use pdce_ir::Program;
use pdce_progen::{structured, GenConfig};

fn workload() -> Program {
    structured(&GenConfig {
        seed: 2024,
        target_blocks: 48,
        num_vars: 8,
        stmts_per_block: (1, 4),
        out_prob: 0.15,
        loop_prob: 0.4,
        max_depth: 6,
        expr_depth: 2,
        nondet: false, // conditional: deterministic, loop-bounded
    })
}

fn execute(prog: &Program) -> u64 {
    let mut env = Env::with_values(prog, &[("v0", 3), ("v1", -5)]);
    let mut oracle = SeededOracle::new(1);
    let t = run(
        prog,
        &mut env,
        &mut oracle,
        ExecLimits {
            max_block_visits: 50_000,
        },
    );
    t.executed_assignments
}

fn liveness(prog: &mut Program) {
    liveness_dce(prog);
}

fn fce_only(prog: &mut Program) {
    eliminate_fixpoint(prog, Mode::Faint);
}

fn pde(prog: &mut Program) {
    optimize(prog, &PdceConfig::pde()).expect("driver terminates");
}

fn pfe(prog: &mut Program) {
    optimize(prog, &PdceConfig::pfe()).expect("driver terminates");
}

/// One optimization level: its name and the transform it runs.
type Level = (&'static str, fn(&mut Program));

const LEVELS: &[Level] = &[
    ("dce", liveness),
    ("fce_only", fce_only),
    ("pde", pde),
    ("pfe", pfe),
];

fn main() {
    let original = workload();

    timeit::group("interp_by_opt_level");
    timeit::report("original", || execute(&original));
    let mut optimized = Vec::new();
    for (name, level) in LEVELS {
        let mut prog = original.clone();
        level(&mut prog);
        optimized.push((*name, prog));
    }
    for (name, prog) in &optimized {
        timeit::report(name, || execute(prog));
    }

    timeit::group("optimizer_by_level");
    for (name, level) in LEVELS {
        timeit::report(name, || {
            let mut clone = original.clone();
            level(&mut clone);
            clone
        });
    }
}
