//! Dead-variable analysis (Table 1 of the paper).
//!
//! A variable `x` is *dead* at a program point if on every path from
//! there to the end node every right-hand-side occurrence of `x` is
//! preceded by a modification of `x`. The paper's equations, per
//! instruction `ι`:
//!
//! ```text
//! N-DEAD_ι = ¬USED_ι ∧ (X-DEAD_ι ∨ MOD_ι)
//! X-DEAD_ι = ∧_{ι' ∈ succ(ι)} N-DEAD_ι'
//! ```
//!
//! This is a backward all-paths bit-vector problem (greatest fixpoint,
//! everything dead at the end node). Each instruction's transfer is a
//! gen/kill pair (`gen = MOD ∖ USED`, `kill = USED`), so the solver can
//! run block-at-a-time on composed transfers; per-instruction values are
//! recovered by a linear backward walk inside a block.

use std::cell::RefCell;

use pdce_dfa::{solve, BitMatrix, BitProblem, BitVec, Direction, Meet, Row, RowMut, Solution};
use pdce_ir::{CfgView, NodeId, Program, Stmt, TermId, Terminator, Var};

/// Result of the dead-variable analysis.
#[derive(Debug, Clone)]
pub struct DeadSolution {
    solution: Solution,
    /// The rolling row of [`DeadSolution::for_each_stmt_after`], kept
    /// between calls so a walk over every block allocates once.
    scratch: RefCell<BitVec>,
}

/// The per-block gen/kill rows of the dead-variable equations.
///
/// Each block's transfer is composed in place by one backward walk —
/// terminator first, then the statements last to first. Each
/// instruction `f` turns the block transfer `h` built so far into
/// `f ∘ h`: `gen` becomes `f(gen)`, which is exactly
/// [`apply_stmt_backward`]/[`apply_term_backward`], and `kill` gains
/// `f`'s kill set, the variables the instruction uses.
fn dead_transfer(prog: &Program, width: usize) -> (BitMatrix, BitMatrix) {
    let mut gen = BitMatrix::zeros(prog.num_blocks(), width);
    let mut kill = BitMatrix::zeros(prog.num_blocks(), width);
    for n in prog.node_ids() {
        let block = prog.block(n);
        let (mut g, mut k) = (gen.row_mut(n.index()), kill.row_mut(n.index()));
        apply_term_backward(prog, &block.term, &mut g);
        kill_used(prog, block.term.used_term(), &mut k);
        for stmt in block.stmts.iter().rev() {
            apply_stmt_backward(prog, stmt, &mut g);
            kill_used(prog, stmt.used_term(), &mut k);
        }
    }
    (gen, kill)
}

/// ORs the variables of `used` into a kill row.
fn kill_used(prog: &Program, used: Option<TermId>, kill: &mut RowMut<'_>) {
    if let Some(t) = used {
        for &u in prog.terms().vars_of(t) {
            kill.set(u.index(), true);
        }
    }
}

/// Applies a statement's deadness transfer (`gen = MOD ∖ USED`,
/// `kill = USED`) to `v` in place, touching only the bits of the
/// variables the statement mentions. Gen and kill are disjoint by
/// construction, so the write order is irrelevant.
pub(crate) fn apply_stmt_backward(prog: &Program, stmt: &Stmt, v: &mut RowMut<'_>) {
    if let Some(t) = stmt.used_term() {
        for &u in prog.terms().vars_of(t) {
            v.set(u.index(), false);
        }
    }
    if let Some(m) = stmt.modified() {
        // `x := x + 1` keeps x live.
        if !stmt.uses(prog.terms(), m) {
            v.set(m.index(), true);
        }
    }
}

/// Applies a terminator's deadness transfer to `v` in place: a
/// conditional branch is a relevant use of its condition variables
/// (paper footnote 2), so it only kills.
pub(crate) fn apply_term_backward(prog: &Program, term: &Terminator, v: &mut RowMut<'_>) {
    if let Some(c) = term.used_term() {
        for &u in prog.terms().vars_of(c) {
            v.set(u.index(), false);
        }
    }
}

/// The rolling backward walk that answers per-statement queries for
/// both [`DeadSolution`] and [`FaintSolution`](crate::FaintSolution),
/// which share the terminator transfer and differ in `stmt_rule`.
///
/// The `scratch` row, reused across calls, starts at block `n`'s exit
/// row in `solution`, takes the terminator's transfer, then for each
/// statement `k` last to first shows `f(k, after_k)` and applies
/// `stmt_rule`. It ends at the block's entry row.
pub(crate) fn walk_back(
    prog: &Program,
    solution: &Solution,
    scratch: &RefCell<BitVec>,
    n: NodeId,
    stmt_rule: fn(&Program, &Stmt, &mut RowMut<'_>),
    mut f: impl FnMut(usize, Row<'_>),
) {
    let block = prog.block(n);
    // Taken, not borrowed, so a nested walk from `f` stays sound (it
    // just allocates a row of its own).
    let mut current = scratch.replace(BitVec::zeros(0));
    if current.len() != solution.exit.width() {
        current = BitVec::zeros(solution.exit.width());
    }
    let mut row = current.as_row_mut();
    row.copy_from(solution.at_exit(n));
    apply_term_backward(prog, &block.term, &mut row);
    for (k, stmt) in block.stmts.iter().enumerate().rev() {
        f(k, row.as_row());
        stmt_rule(prog, stmt, &mut row);
    }
    debug_assert_eq!(row.as_row(), solution.at_entry(n));
    scratch.replace(current);
    // One row copy plus one sparse in-place transfer per instruction.
    pdce_trace::record_solver(pdce_trace::SolverStats {
        word_ops: solution.exit.stride() as u64 + block.stmts.len() as u64 + 1,
        ..pdce_trace::SolverStats::ZERO
    });
}

impl DeadSolution {
    /// Runs the analysis over `prog`.
    pub fn compute(prog: &Program, view: &CfgView) -> DeadSolution {
        let width = prog.num_vars();
        let (gen, kill) = dead_transfer(prog, width);
        let solution = solve(
            view,
            &BitProblem {
                direction: Direction::Backward,
                meet: Meet::Intersection,
                width,
                gen: &gen,
                kill: &kill,
                // Everything is dead at the end of the program.
                boundary: BitVec::ones(width),
            },
        );
        DeadSolution {
            solution,
            scratch: RefCell::new(BitVec::zeros(width)),
        }
    }

    /// [`DeadSolution::compute`] under the signature of the retired
    /// warm-start entry point: `prev` and `dirty` are ignored and every
    /// solve is cold. Kept only because the benchmark's layer replica
    /// (`perfbench/src/replica.rs`) calls it, until the next benchmark
    /// change moves the replica to `AnalysisCache::analysis`.
    pub fn compute_seeded(
        prog: &Program,
        view: &CfgView,
        _prev: &DeadSolution,
        _dirty: &[NodeId],
    ) -> DeadSolution {
        DeadSolution::compute(prog, view)
    }

    /// Deadness vector at the entry of block `n`.
    pub fn at_entry(&self, n: NodeId) -> Row<'_> {
        self.solution.at_entry(n)
    }

    /// Deadness vector after the terminator of block `n` (the meet over
    /// successor entries).
    pub fn at_exit(&self, n: NodeId) -> Row<'_> {
        self.solution.at_exit(n)
    }

    /// Visits the deadness vector *immediately after* each statement of
    /// block `n` (`X-DEAD` of every statement instruction), calling
    /// `f(k, after_k)` in **reverse** statement order (`k` descending).
    ///
    /// One rolling scratch row, reused across calls, is walked backward
    /// from the block's exit by the sparse in-place transfers, which
    /// touch only the bits each statement mentions — unlike
    /// [`DeadSolution::after_each_stmt`], which must materialize every
    /// intermediate vector. The borrowed row is overwritten after `f`
    /// returns; copy it with [`Row::to_bitvec`] to keep it.
    pub fn for_each_stmt_after(&self, prog: &Program, n: NodeId, f: impl FnMut(usize, Row<'_>)) {
        walk_back(
            prog,
            &self.solution,
            &self.scratch,
            n,
            apply_stmt_backward,
            f,
        );
    }

    /// Deadness vectors *immediately after* each statement of block `n`
    /// (`X-DEAD` of every statement instruction, index-aligned with
    /// `block.stmts`). Materializes one vector per statement; prefer
    /// [`DeadSolution::for_each_stmt_after`] in hot paths.
    pub fn after_each_stmt(&self, prog: &Program, n: NodeId) -> Vec<BitVec> {
        let block = prog.block(n);
        let mut out = vec![BitVec::zeros(0); block.stmts.len()];
        self.for_each_stmt_after(prog, n, |k, after| out[k] = after.to_bitvec());
        // The materializing copies, on top of the rolling walk.
        pdce_trace::record_solver(pdce_trace::SolverStats {
            word_ops: self.solution.exit.stride() as u64 * block.stmts.len() as u64,
            ..pdce_trace::SolverStats::ZERO
        });
        out
    }

    /// Whether `v` is dead immediately after statement `k` of block `n`.
    pub fn dead_after(&self, prog: &Program, n: NodeId, k: usize, v: Var) -> bool {
        let mut dead = false;
        self.for_each_stmt_after(prog, n, |j, after| {
            if j == k {
                dead = after.get(v.index());
            }
        });
        dead
    }

    /// Number of node evaluations the solver performed.
    pub fn evaluations(&self) -> u64 {
        self.solution.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    fn solve_src(src: &str) -> (pdce_ir::Program, DeadSolution) {
        let p = parse(src).unwrap();
        let view = CfgView::new(&p);
        let d = DeadSolution::compute(&p, &view);
        (p, d)
    }

    fn var(p: &pdce_ir::Program, name: &str) -> Var {
        p.vars().lookup(name).unwrap()
    }

    #[test]
    fn unused_assignment_is_dead() {
        let (p, d) =
            solve_src("prog { block s { x := 1; y := 2; out(y); goto e } block e { halt } }");
        let s = p.entry();
        let after = d.after_each_stmt(&p, s);
        assert!(after[0].get(var(&p, "x").index()), "x dead after x := 1");
        assert!(!after[1].get(var(&p, "y").index()), "y live before out(y)");
        assert!(after[2].get(var(&p, "y").index()), "y dead after out(y)");
    }

    #[test]
    fn redefinition_makes_earlier_value_dead() {
        let (p, d) =
            solve_src("prog { block s { y := 1; y := 2; out(y); goto e } block e { halt } }");
        let after = d.after_each_stmt(&p, p.entry());
        assert!(after[0].get(var(&p, "y").index()), "first y := 1 is dead");
        assert!(!after[1].get(var(&p, "y").index()));
    }

    #[test]
    fn partially_dead_is_not_dead() {
        // Figure 1: y := a+b is live on the right branch (out(y) before
        // redefinition) and dead on the left: hence NOT dead overall.
        let (p, d) = solve_src(
            "prog {
               block s  { goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { y := 4; goto n4 }
               block n3 { out(y); goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        );
        let n1 = p.block_by_name("n1").unwrap();
        assert!(!d.dead_after(&p, n1, 0, var(&p, "y")));
    }

    #[test]
    fn self_increment_in_loop_is_not_dead_but_unused_after() {
        // Figure 9: x := x + 1 in a loop, never observed. x is used by
        // its own right-hand side on the loop path, so it is NOT dead
        // (it is faint — see faint.rs).
        let (p, d) = solve_src(
            "prog {
               block s { goto l }
               block l { x := x + 1; nondet l x2 }
               block x2 { goto e }
               block e { halt }
             }",
        );
        let l = p.block_by_name("l").unwrap();
        assert!(!d.dead_after(&p, l, 0, var(&p, "x")));
    }

    #[test]
    fn branch_condition_keeps_variable_live() {
        let (p, d) = solve_src(
            "prog {
               block s { x := a; if x < 3 then t else e }
               block t { goto e }
               block e { halt }
             }",
        );
        assert!(!d.dead_after(&p, p.entry(), 0, var(&p, "x")));
    }

    #[test]
    fn everything_dead_at_program_end() {
        let (p, d) = solve_src("prog { block s { x := 1; goto e } block e { halt } }");
        assert_eq!(d.at_exit(p.exit()).count_ones(), p.num_vars());
        assert!(d.dead_after(&p, p.entry(), 0, var(&p, "x")));
    }

    #[test]
    fn loop_carried_use_keeps_live() {
        // y is used by out(y) after the loop on every exit path, so the
        // assignment inside the loop is live.
        let (p, d) = solve_src(
            "prog {
               block s { goto h }
               block h { y := y + 1; nondet h x2 }
               block x2 { out(y); goto e }
               block e { halt }
             }",
        );
        let h = p.block_by_name("h").unwrap();
        assert!(!d.dead_after(&p, h, 0, var(&p, "y")));
    }

    #[test]
    fn seeded_recompute_matches_cold_after_stmt_edit() {
        let mut p = parse(
            "prog {
               block s  { x := a + b; y := x; nondet n1 n2 }
               block n1 { out(y); goto n3 }
               block n2 { y := 7; x := y; goto n3 }
               block n3 { out(y); nondet s2 e }
               block s2 { goto n3 }
               block e  { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        let prev = DeadSolution::compute(&p, &view);
        // Drop `y := 7; x := y` from n2: y's loop-carried liveness
        // changes upstream of the edit.
        let n2 = p.block_by_name("n2").unwrap();
        p.stmts_mut(n2).clear();
        let cold = DeadSolution::compute(&p, &view);
        let warm = DeadSolution::compute_seeded(&p, &view, &prev, &[n2]);
        for n in p.node_ids() {
            assert_eq!(cold.at_entry(n), warm.at_entry(n), "{}", p.block(n).name);
            assert_eq!(cold.at_exit(n), warm.at_exit(n), "{}", p.block(n).name);
        }
    }

    #[test]
    fn rolling_visitor_matches_materialized_and_costs_fewer_word_ops() {
        // A block long enough that the per-statement clones dominate.
        let body: String = (0..32).map(|i| format!("x{i} := a + b; ")).collect();
        let (p, d) = solve_src(&format!(
            "prog {{ block s {{ {body}out(a); goto e }} block e {{ halt }} }}"
        ));
        let s = p.entry();
        let before = pdce_trace::solver_totals();
        let materialized = d.after_each_stmt(&p, s);
        let cost_materialized = pdce_trace::solver_totals().since(&before).word_ops;
        let before = pdce_trace::solver_totals();
        let mut visited = 0usize;
        d.for_each_stmt_after(&p, s, |k, after| {
            assert_eq!(after, materialized[k].as_row());
            visited += 1;
        });
        let cost_rolling = pdce_trace::solver_totals().since(&before).word_ops;
        assert_eq!(visited, materialized.len());
        assert!(
            cost_rolling < cost_materialized,
            "rolling walk ({cost_rolling} word ops) must beat \
             materializing ({cost_materialized} word ops)"
        );
    }

    #[test]
    fn table1_gen_kill_shapes() {
        let p = parse("prog { block s { x := x + y; goto e } block e { halt } }").unwrap();
        let (gen, kill) = dead_transfer(&p, p.num_vars());
        // x := x + y: USED = {x, y} (kill), MOD ∖ USED = ∅ (gen).
        assert!(gen.row(p.entry().index()).none());
        assert_eq!(kill.row(p.entry().index()).count_ones(), 2);
    }

    /// The block transfer composed in place equals walking the block's
    /// instructions one by one, on every input over a multi-word width.
    #[test]
    fn block_transfer_equals_sequential_application() {
        let decls: String = (0..70)
            .map(|i| format!("v{i} := v{} + 1; ", (i + 7) % 70))
            .collect();
        let p = parse(&format!(
            "prog {{ block s {{ {decls}v3 := v64 * v2; y := 4; out(v1); \
             if v65 < y then t else e }} block t {{ goto e }} block e {{ halt }} }}"
        ))
        .unwrap();
        let width = p.num_vars();
        let (gen, kill) = dead_transfer(&p, width);
        let s = p.entry();
        let block = p.block(s);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..16 {
            let mut x = BitVec::zeros(width);
            for b in 0..width {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                x.set(b, rng & 1 == 1);
            }
            let mut walked = x.clone();
            apply_term_backward(&p, &block.term, &mut walked.as_row_mut());
            for stmt in block.stmts.iter().rev() {
                apply_stmt_backward(&p, stmt, &mut walked.as_row_mut());
            }
            let mut composed = BitVec::zeros(width);
            composed
                .as_row_mut()
                .set_transfer(x.as_row(), gen.row(s.index()), kill.row(s.index()));
            assert_eq!(composed, walked);
        }
    }
}
