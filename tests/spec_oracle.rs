//! The spec oracle: the production analyses and optimizers agree with
//! the executable specification in `tests/support/spec.rs` — Tables 1–2
//! solved per instruction by round robin, and the paper's driver with
//! direct `dce`/`fce`/`ask` — bit for bit and byte for byte.
//!
//! * **Analyses**: dead and faint values at every statement, and the
//!   delayability and insertion vectors of every block, equal the
//!   spec's on every reachable block, before and after each of 4 random
//!   statement edits, and on two hand-written edits that reshape faint.
//! * **Optimizers**: pde and pfe print byte-identical programs to the
//!   spec driver, before and after 4 random statement edits.
//!
//! Inputs: the hand-written corpus, 512 generated programs of 10–120
//! blocks with 6–12 variables, 32 programs of opt_large's shape
//! (100–400 blocks, 16–24 variables), and 34 programs of 30–200 blocks
//! with 60–140 variables, whose dead rows span two or three words (two
//! of them have exactly 64 and 128 variables, rows with no spare tail
//! bit). Every eighth generated program is irreducible (`tangled`).

mod support;

use pdce::core::driver::{optimize, PdceConfig};
use pdce::core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable};
use pdce::ir::parser::parse;
use pdce::ir::printer::print_program;
use pdce::ir::{CfgView, Program, Stmt, Var};
use pdce::progen::{structured, tangled, GenConfig};
use pdce_rng::Rng;
use support::{bits, spec};

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
/// `blocks` (stratified so every size band is hit) and variable counts
/// uniform over `vars`; every eighth one is irreducible.
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

fn small() -> Vec<(String, Program)> {
    generated(512, 0x5bec_0001, (10, 120), (6, 12))
}

fn large() -> Vec<(String, Program)> {
    generated(32, 0x5bec_0002, (100, 400), (16, 24))
}

/// Programs whose variable rows are more than one word wide: 32 with
/// 60–140 variables, plus one with exactly 64 and one with exactly 128.
fn wide() -> Vec<(String, Program)> {
    let mut programs = generated(32, 0x5bec_0003, (30, 200), (60, 140));
    for (seed, vars) in [(0x5bec_0064, 64), (0x5bec_0128, 128)] {
        let (name, prog) = generated(1, seed, (30, 200), (vars, vars)).remove(0);
        assert_eq!(prog.num_vars(), vars, "{name}: exact width");
        programs.push((format!("{name} with {vars} variables"), prog));
    }
    programs
}

/// Production dead, faint and delay values equal the spec's on every
/// reachable block.
fn assert_analyses_match(prog: &Program, what: &str) {
    let view = CfgView::new(prog);
    let vars: Vec<Var> = (0..prog.num_vars()).map(Var::from_index).collect();
    let dead = DeadSolution::compute(prog, &view);
    let faint = FaintSolution::compute(prog, &view);
    let table = PatternTable::build(prog);
    let local = LocalInfo::compute(prog, &table);
    let delay = DelayInfo::compute(prog, &view, &table, &local);
    let spec_dead = spec::dead(prog);
    let spec_faint = spec::faint(prog);
    let spec_delay = spec::delay(prog);
    for n in prog.node_ids().filter(|&n| spec_dead.flow.is_reachable(n)) {
        let (i, name) = (n.index(), &prog.block(n).name);
        let len = prog.block(n).stmts.len();
        let row = |f: &dyn Fn(Var) -> bool| vars.iter().map(|&v| f(v)).collect::<Vec<_>>();
        assert_eq!(
            bits(dead.at_entry(n)),
            row(&|v| spec_dead.before(n, 0, v)),
            "{what}: N-DEAD at the entry of {name}"
        );
        assert_eq!(
            bits(dead.at_exit(n)),
            row(&|v| spec_dead.after(n, len, v)),
            "{what}: X-DEAD at the exit of {name}"
        );
        for (k, after) in dead.after_each_stmt(prog, n).iter().enumerate() {
            assert_eq!(
                bits(after.as_row()),
                row(&|v| spec_dead.after(n, k, v)),
                "{what}: X-DEAD after {name}[{k}]"
            );
        }
        for k in 0..=len {
            assert_eq!(
                row(&|v| faint.faint_before(prog, n, k, v)),
                row(&|v| spec_faint.before(n, k, v)),
                "{what}: N-FAINT at {name}[{k}]"
            );
            assert_eq!(
                row(&|v| faint.faint_after(prog, n, k, v)),
                row(&|v| spec_faint.after(n, k, v)),
                "{what}: X-FAINT after {name}[{k}]"
            );
        }
        for (got, want, label) in [
            (&delay.n_delayed, &spec_delay.n_delayed, "N-DELAYED"),
            (&delay.x_delayed, &spec_delay.x_delayed, "X-DELAYED"),
            (&delay.n_insert, &spec_delay.n_insert, "N-INSERT"),
            (&delay.x_insert, &spec_delay.x_insert, "X-INSERT"),
        ] {
            assert_eq!(bits(got.row(i)), want[i], "{what}: {label} of {name}");
        }
    }
}

fn check_analyses(programs: &[(String, Program)]) {
    for (name, prog) in programs {
        assert_analyses_match(prog, name);
    }
}

/// Applies 4 random statement edits drawn from `seed` to each program,
/// checking the analyses after every one.
fn check_analyses_after_edits(programs: Vec<(String, Program)>, seed: u64) {
    let mut rng = Rng::new(seed);
    for (name, mut prog) in programs {
        for step in 0..4 {
            support::mutate_stmts(&mut prog, &mut rng);
            assert_analyses_match(&prog, &format!("{name} after edit {step}"));
        }
    }
}

/// pde and pfe print the programs the spec driver prints.
fn check_optimizers(programs: Vec<(String, Program)>) {
    for (name, prog) in programs {
        for (config, mode) in [
            (PdceConfig::pde(), spec::Mode::Dead),
            (PdceConfig::pfe(), spec::Mode::Faint),
        ] {
            let mut got = prog.clone();
            optimize(&mut got, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut want = prog.clone();
            spec::optimize(&mut want, mode);
            assert_eq!(
                print_program(&got),
                print_program(&want),
                "{name}: {mode:?} mode differs from the spec"
            );
        }
    }
}

/// The programs after 4 random statement edits drawn from `seed`.
fn edited(programs: Vec<(String, Program)>, seed: u64) -> Vec<(String, Program)> {
    let mut rng = Rng::new(seed);
    programs
        .into_iter()
        .map(|(name, mut prog)| {
            for _ in 0..4 {
                support::mutate_stmts(&mut prog, &mut rng);
            }
            (format!("{name} after 4 edits"), prog)
        })
        .collect()
}

#[test]
fn analyses_match_the_spec_on_the_corpus_and_small_programs() {
    check_analyses(&corpus().into_iter().chain(small()).collect::<Vec<_>>());
}

#[test]
fn analyses_match_the_spec_after_random_stmt_edits() {
    check_analyses_after_edits(corpus().into_iter().chain(small()).collect(), 0x5bec_a001);
}

#[test]
fn analyses_match_the_spec_at_opt_large_shape() {
    let programs = large();
    check_analyses(&programs);
    check_analyses_after_edits(programs, 0x5bec_a002);
}

#[test]
fn analyses_match_the_spec_on_multi_word_rows() {
    check_analyses(&wide());
}

/// Removing `out(y)` from a loop makes faintness ripple back through
/// the loop into earlier blocks.
#[test]
fn faint_matches_the_spec_after_a_loop_carried_stmt_edit() {
    let mut p = parse(
        "prog {
           block s  { a := c + 1; nondet n3 n4 }
           block n3 { goto n5 }
           block n4 { y := a + b; goto n5 }
           block n5 { y := c + d; out(y); nondet n4 e }
           block e  { halt }
         }",
    )
    .unwrap();
    let n5 = p.block_by_name("n5").unwrap();
    p.stmts_mut(n5).pop();
    assert_analyses_match(&p, "loop after removing out(y)");
}

/// Growing the variable universe reshapes the slot layout; an
/// observed fresh variable is not faint.
#[test]
fn faint_matches_the_spec_after_a_new_variable() {
    let mut p = parse("prog { block s { x := 1; goto e } block e { halt } }").unwrap();
    let y = p.var("freshvar");
    let one = p.terms_mut().constant(1);
    let y_term = p.terms_mut().var(y);
    let s = p.entry();
    p.stmts_mut(s).push(Stmt::Assign { lhs: y, rhs: one });
    p.stmts_mut(s).push(Stmt::Out(y_term));
    assert_analyses_match(&p, "after adding freshvar");
    let faint = FaintSolution::compute(&p, &CfgView::new(&p));
    assert!(!faint.faint_after(&p, s, 1, y), "out(freshvar) observes it");
}

#[test]
fn optimizers_print_the_spec_programs_on_the_corpus_and_small_programs() {
    check_optimizers(corpus().into_iter().chain(small()).collect());
}

#[test]
fn optimizers_print_the_spec_programs_after_random_stmt_edits() {
    check_optimizers(edited(
        corpus().into_iter().chain(small()).collect(),
        0x5bec_0e01,
    ));
}

#[test]
fn optimizers_print_the_spec_programs_at_opt_large_shape() {
    check_optimizers(large());
}

#[test]
fn optimizers_print_the_spec_programs_on_multi_word_rows() {
    check_optimizers(wide());
}
