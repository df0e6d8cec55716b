//! The worklist oracle: the production solver pops nodes in the order
//! of the heap-ordered reference worklist in `tests/support/worklist.rs`.
//! Each production dead, faint and delay solve must report one problem
//! and the reference's evaluation and word-operation counts, and reach
//! the reference's rows.
//!
//! The production worklist is a bitset over iteration-order positions
//! read one `u64` word at a time, so the inputs include programs whose
//! order spans one, two and several words: the corpus, 160 generated
//! programs of 10–400 blocks (every eighth irreducible), 16 of them with
//! rows of 60–140 variables, and ladder programs with exactly 1, 63, 64,
//! 65, 127, 128, 129, 192 and 257 reachable blocks.

mod support;

use pdce::core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable};
use pdce::dfa::{BitMatrix, Row};
use pdce::ir::parser::parse;
use pdce::ir::{CfgView, NodeId, Program};
use pdce::progen::{structured, tangled, GenConfig};
use pdce::trace::{solver_totals, SolverStats};
use pdce_rng::Rng;
use support::worklist::{self, Reference};

fn corpus() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pdce"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus went missing?");
    files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).expect("corpus file readable");
            (
                path.display().to_string(),
                parse(&src).expect("corpus parses"),
            )
        })
        .collect()
}

/// `count` generated programs with block targets log-uniform over
/// `blocks` and variable counts uniform over `vars`; every eighth one
/// is irreducible.
fn generated(
    count: usize,
    seed: u64,
    blocks: (usize, usize),
    vars: (usize, usize),
) -> Vec<(String, Program)> {
    let mut rng = Rng::new(seed);
    let ratio = blocks.1 as f64 / blocks.0 as f64;
    (0..count)
        .map(|i| {
            let position = (i as f64 + rng.gen_f64()) / count as f64;
            let target_blocks = (blocks.0 as f64 * ratio.powf(position)) as usize;
            let config = GenConfig {
                seed: rng.next_u64(),
                target_blocks,
                num_vars: rng.gen_range_inclusive(vars.0, vars.1),
                stmts_per_block: (1, 4),
                out_prob: 0.2,
                loop_prob: 0.3,
                max_depth: 12,
                expr_depth: 2,
                nondet: true,
            };
            let prog = if i % 8 == 7 {
                tangled(&config, (target_blocks / 12).max(1))
            } else {
                structured(&config)
            };
            (format!("generated #{i} ({target_blocks} blocks)"), prog)
        })
        .collect()
}

/// A chain of exactly `blocks` blocks, all reachable: block `i` holds a
/// few assignments and outputs over `vars` variables and falls through
/// to `i + 1`, often also branching back to an earlier block other than
/// the entry (a loop) or ahead to a later one.
fn ladder(blocks: usize, vars: usize, seed: u64) -> Program {
    let mut rng = Rng::new(seed);
    let mut src = String::from("prog {\n");
    for i in 0..blocks {
        src.push_str(&format!("  block b{i} {{ "));
        if i + 1 == blocks {
            src.push_str("halt }\n");
            continue;
        }
        for _ in 0..rng.gen_range_inclusive(1, 3) {
            let (x, a, b) = (
                rng.gen_range(0, vars),
                rng.gen_range(0, vars),
                rng.gen_range(0, vars),
            );
            if rng.gen_range(0, 5) == 0 {
                src.push_str(&format!("out(v{a} + v{b}); "));
            } else {
                src.push_str(&format!("v{x} := v{a} + v{b}; "));
            }
        }
        let next = i + 1;
        match rng.gen_range(0, 3) {
            // The entry takes no back edge: it has no predecessors.
            1 if i > 0 => {
                let back = rng.gen_range_inclusive(1, i);
                src.push_str(&format!("nondet b{next} b{back} }}\n"));
            }
            2 => {
                let ahead = rng.gen_range_inclusive(next, blocks - 1);
                src.push_str(&format!("nondet b{next} b{ahead} }}\n"));
            }
            _ => src.push_str(&format!("goto b{next} }}\n")),
        }
    }
    src.push('}');
    parse(&src).expect("ladder parses")
}

fn ladders() -> Vec<(String, Program)> {
    [1, 63, 64, 65, 127, 128, 129, 192, 257]
        .iter()
        .enumerate()
        .flat_map(|(k, &blocks)| {
            [(8, 0x0dde_0000), (70, 0x0dde_1000)].map(|(vars, salt)| {
                (
                    format!("ladder of {blocks} blocks over {vars} variables"),
                    ladder(blocks, vars, salt + k as u64),
                )
            })
        })
        .collect()
}

/// Runs `solve` and returns its result with the solver counters it
/// recorded.
fn counted<T>(solve: impl FnOnce() -> T) -> (T, SolverStats) {
    let before = solver_totals();
    let out = solve();
    (out, solver_totals().since(&before))
}

fn assert_same(
    what: &str,
    analysis: &str,
    got: (&BitMatrix, &BitMatrix, SolverStats),
    want: &Reference,
) {
    let (entry, exit, stats) = got;
    assert_eq!(stats.problems, 1, "{what}: {analysis} records one problem");
    assert_eq!(
        (stats.evaluations, stats.priority_pops, stats.word_ops),
        (want.evaluations, want.evaluations, want.word_ops),
        "{what}: {analysis} (evaluations, pops, word ops) against the heap worklist"
    );
    for r in 0..entry.rows() {
        assert_eq!(
            entry.row(r),
            want.entry.row(r),
            "{what}: {analysis} entry row {r}"
        );
        assert_eq!(
            exit.row(r),
            want.exit.row(r),
            "{what}: {analysis} exit row {r}"
        );
    }
}

/// One variable row per block, read from `at`.
fn rows<'a>(prog: &Program, at: impl Fn(NodeId) -> Row<'a>) -> BitMatrix {
    let mut m = BitMatrix::zeros(prog.num_blocks(), prog.num_vars());
    for n in prog.node_ids() {
        m.row_mut(n.index()).copy_from(at(n));
    }
    m
}

/// Production dead, faint and delay solves against the reference.
fn check(programs: &[(String, Program)]) {
    for (what, prog) in programs {
        let view = CfgView::new(prog);

        let (dead, stats) = counted(|| DeadSolution::compute(prog, &view));
        let (entry, exit) = (
            rows(prog, |n| dead.at_entry(n)),
            rows(prog, |n| dead.at_exit(n)),
        );
        assert_same(
            what,
            "dead",
            (&entry, &exit, stats),
            &worklist::dead(prog, &view),
        );

        let (faint, stats) = counted(|| FaintSolution::compute(prog, &view));
        let (entry, exit) = (
            rows(prog, |n| faint.at_entry(n)),
            rows(prog, |n| faint.at_exit(n)),
        );
        assert_same(
            what,
            "faint",
            (&entry, &exit, stats),
            &worklist::faint(prog, &view),
        );

        let table = PatternTable::build(prog);
        let local = LocalInfo::compute(prog, &table);
        let (delay, stats) = counted(|| DelayInfo::compute(prog, &view, &table, &local));
        assert_same(
            what,
            "delay",
            (&delay.n_delayed, &delay.x_delayed, stats),
            &worklist::delay(&view, &local),
        );
    }
}

#[test]
fn solves_pop_in_heap_order_on_the_corpus() {
    check(&corpus());
}

#[test]
fn solves_pop_in_heap_order_on_generated_programs() {
    let mut programs = generated(144, 0x0dde_0001, (10, 400), (6, 24));
    programs.extend(generated(16, 0x0dde_0002, (30, 300), (60, 140)));
    let reachable: Vec<usize> = programs
        .iter()
        .map(|(_, p)| CfgView::new(p).rpo().len())
        .collect();
    assert!(
        reachable.iter().any(|&n| (64..128).contains(&n)) && reachable.iter().any(|&n| n >= 128),
        "the order bitset must span two words and more: {reachable:?}"
    );
    check(&programs);
}

#[test]
fn solves_pop_in_heap_order_at_word_boundaries() {
    let programs = ladders();
    for (what, prog) in &programs {
        let blocks = prog.num_blocks();
        assert_eq!(
            CfgView::new(prog).rpo().len(),
            blocks,
            "{what}: all reachable"
        );
    }
    check(&programs);
}
