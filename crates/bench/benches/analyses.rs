//! C3/C6: costs of the component analyses (Section 6.1) — the dead,
//! faint and delayability solvers, sinking's pattern table and local
//! predicates, the baseline liveness analysis, and the du-chain graph
//! construction (including its quadratic worst case). The dead,
//! patterns, local and delay groups add opt_large-sized cases (~270
//! blocks) with 20 and 96 variables: one-word and two-word dead rows.
//! The text group times `parse` and `print_program` on the same cases,
//! the layers every `pdce opt` run and every serve miss begins and ends
//! with.
//!
//! Run with: `cargo bench -p pdce-bench --bench analyses`

use pdce_baselines::duchain::DuGraph;
use pdce_baselines::liveness::Liveness;
use pdce_baselines::ssa::SsaWeb;
use pdce_bench::timeit;
use pdce_core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable};
use pdce_ir::parser::parse;
use pdce_ir::printer::print_program;
use pdce_ir::CfgView;
use pdce_progen::{many_defs_many_uses, structured, GenConfig};

fn workload(n: usize) -> pdce_ir::Program {
    workload_vars(n, 8)
}

fn workload_vars(n: usize, num_vars: usize) -> pdce_ir::Program {
    structured(&GenConfig {
        seed: 5,
        target_blocks: n,
        num_vars,
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: true,
    })
}

/// The size cases of the dead, patterns, local and delay groups: the block
/// count alone at 8 variables, then ~270 blocks at 20 and 96 variables.
fn row_cases(sizes: &[usize]) -> Vec<(String, pdce_ir::Program)> {
    let mut cases: Vec<_> = sizes
        .iter()
        .map(|&n| (n.to_string(), workload(n)))
        .collect();
    for vars in [20usize, 96] {
        cases.push((format!("270/{vars}v"), workload_vars(270, vars)));
    }
    cases
}

fn main() {
    let sizes = [64usize, 256];

    timeit::group("analysis_dead");
    for (label, prog) in row_cases(&sizes) {
        let view = CfgView::new(&prog);
        timeit::report(&label, || DeadSolution::compute(&prog, &view));
    }

    timeit::group("analysis_patterns");
    for (label, prog) in row_cases(&sizes) {
        timeit::report(&label, || PatternTable::build(&prog));
    }

    timeit::group("analysis_local");
    for (label, prog) in row_cases(&sizes) {
        let table = PatternTable::build(&prog);
        timeit::report(&label, || LocalInfo::compute(&prog, &table));
    }

    timeit::group("analysis_faint");
    for &n in &sizes {
        let prog = workload(n);
        let view = CfgView::new(&prog);
        timeit::report(&n.to_string(), || FaintSolution::compute(&prog, &view));
    }

    timeit::group("analysis_delayability");
    for (label, prog) in row_cases(&sizes) {
        let view = CfgView::new(&prog);
        let table = PatternTable::build(&prog);
        let local = LocalInfo::compute(&prog, &table);
        timeit::report(&label, || DelayInfo::compute(&prog, &view, &table, &local));
    }

    timeit::group("text");
    for (label, prog) in row_cases(&sizes) {
        let text = print_program(&prog);
        timeit::report(&format!("parse/{label}"), || parse(&text).unwrap());
        timeit::report(&format!("print/{label}"), || print_program(&prog));
    }

    timeit::group("analysis_liveness");
    for &n in &sizes {
        let prog = workload(n);
        let view = CfgView::new(&prog);
        timeit::report(&n.to_string(), || Liveness::compute(&prog, &view));
    }

    timeit::group("duchain_build");
    for &n in &sizes {
        let prog = workload(n);
        let view = CfgView::new(&prog);
        timeit::report(&format!("structured/{n}"), || DuGraph::build(&prog, &view));
    }
    // The quadratic worst case of Section 5.2.
    for k in [32usize, 128] {
        let prog = many_defs_many_uses(k);
        let view = CfgView::new(&prog);
        timeit::report(&format!("quadratic/{k}"), || DuGraph::build(&prog, &view));
    }

    timeit::group("ssa_web_build");
    for &n in &sizes {
        let prog = workload(n);
        let view = CfgView::new(&prog);
        timeit::report(&format!("structured/{n}"), || SsaWeb::build(&prog, &view));
    }
    for k in [32usize, 128] {
        let prog = many_defs_many_uses(k);
        let view = CfgView::new(&prog);
        timeit::report(&format!("quadratic_family/{k}"), || {
            SsaWeb::build(&prog, &view)
        });
    }
}
