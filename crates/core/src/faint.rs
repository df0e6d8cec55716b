//! Faint-variable analysis (Table 1 of the paper).
//!
//! A variable `x` is *faint* at a point if on every path to the end node
//! every right-hand-side occurrence of `x` is either preceded by a
//! modification of `x` or occurs in an assignment whose left-hand-side
//! variable is itself faint. Faintness subsumes deadness (Figure 9 shows
//! a faint-but-not-dead assignment) but is **not** a bit-vector problem:
//! the equation for slot `(ι, x)` of an assignment `ι` reads the slot of
//! a *different* variable, `(ι, lhs_ι)`:
//!
//! ```text
//! N-FAINT_ι(x) = ¬RELV-USED_ι(x) ∧ (X-FAINT_ι(x) ∨ MOD_ι(x))
//!                               ∧ (X-FAINT_ι(lhs_ι) ∨ ¬ASS-USED_ι(x))
//! X-FAINT_ι(x) = ∧_{ι' ∈ succ(ι)} N-FAINT_ι'(x)
//! ```
//!
//! Read as a function of the whole row `X = X-FAINT_ι`, an instruction
//! maps `X` to `N = N-FAINT_ι`:
//!
//! * `x := t`: `N = X` if `x ∈ X` (the assignment is faint, so its uses
//!   do not count), otherwise `N = (X ∪ {x}) ∖ vars(t)`, which is
//!   exactly the deadness transfer;
//! * `out(t)` and branch conditions: `N = X ∖ vars(t)`;
//! * everything else: `N = X`.
//!
//! Each rule is monotone in `X`, so the block transfer (terminator, then
//! statements last to first) is too, and the greatest fixpoint of the
//! slot equations is the greatest fixpoint of the block system. It is
//! solved by the same backward, all-paths priority worklist as dead,
//! from all-ones (DESIGN.md §15). Per-statement values are recovered by
//! the rolling backward walk [`DeadSolution`](crate::DeadSolution) uses.

use std::cell::RefCell;

use pdce_dfa::{solve_with, BitVec, Direction, DuGraph, Meet, Row, RowMut, Solution};
use pdce_ir::{CfgView, NodeId, Program, Stmt, Var};

use crate::dead::{apply_stmt_backward, apply_term_backward, record_walks, walk_back};

/// Result of the faint-variable analysis: `N-FAINT` at each block's
/// entry and `X-FAINT` at its exit.
#[derive(Debug, Clone)]
pub struct FaintSolution {
    solution: Solution,
    /// The rolling row of [`FaintSolution::for_each_stmt_after`], kept
    /// between calls so a walk over every block allocates once.
    scratch: RefCell<BitVec>,
}

/// Applies a statement's faint transfer to `v` in place: an assignment
/// whose left-hand side is faint after it is transparent; every other
/// statement transfers as for deadness.
fn apply_stmt_faint(prog: &Program, stmt: &Stmt, v: &mut RowMut<'_>) {
    if let Stmt::Assign { lhs, .. } = *stmt {
        if v.get(lhs.index()) {
            return;
        }
    }
    apply_stmt_backward(prog, stmt, v);
}

/// Whether a reachable block that `region` allows holds an assignment
/// whose left-hand side is faint immediately after it: what one more fce
/// pass would remove. The faint rows come from a plain round-robin sweep
/// of the block transfer, outside the counted worklist, so the
/// debug-build check of the one-pass rule in
/// [`eliminate_fixpoint_cached`](crate::elim::eliminate_fixpoint_cached)
/// moves no solver counter, budget, cache statistic or fault site.
pub(crate) fn faint_assignment_remains(prog: &Program, region: Option<&[bool]>) -> bool {
    let width = prog.num_vars();
    let succs: Vec<Vec<NodeId>> = prog.node_ids().map(|n| prog.successors(n)).collect();
    let mut reachable = vec![false; prog.num_blocks()];
    let mut stack = vec![prog.entry()];
    while let Some(n) = stack.pop() {
        if !std::mem::replace(&mut reachable[n.index()], true) {
            stack.extend(&succs[n.index()]);
        }
    }
    // Block `n`'s N-FAINT row from its successors' rows (all-ones at the
    // end of the program), showing `visit` each statement with the row
    // immediately after it.
    let transfer = |entry: &[BitVec], n: NodeId, visit: &mut dyn FnMut(&Stmt, &BitVec)| {
        let mut row = BitVec::ones(width);
        for m in &succs[n.index()] {
            row.intersect_with(&entry[m.index()]);
        }
        let block = prog.block(n);
        apply_term_backward(prog, &block.term, &mut row.as_row_mut());
        for stmt in block.stmts.iter().rev() {
            visit(stmt, &row);
            apply_stmt_faint(prog, stmt, &mut row.as_row_mut());
        }
        row
    };
    let mut entry = vec![BitVec::ones(width); prog.num_blocks()];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..prog.num_blocks()).rev() {
            let n = NodeId::from_index(i);
            let row = transfer(&entry, n, &mut |_, _| {});
            if row != entry[n.index()] {
                entry[n.index()] = row;
                changed = true;
            }
        }
    }
    prog.node_ids()
        .filter(|&n| reachable[n.index()] && region.is_none_or(|r| r[n.index()]))
        .any(|n| {
            let mut found = false;
            transfer(&entry, n, &mut |stmt, after| {
                if let Stmt::Assign { lhs, .. } = *stmt {
                    found |= after.get(lhs.index());
                }
            });
            found
        })
}

impl FaintSolution {
    /// Runs the analysis over `prog`.
    ///
    /// # Example
    ///
    /// ```
    /// use pdce_core::FaintSolution;
    /// use pdce_ir::parser::parse;
    ///
    /// // Figure 9: the self-increment is faint (though not dead).
    /// let prog = parse(
    ///     "prog { block s { goto l } block l { x := x + 1; nondet l d }
    ///             block d { goto e } block e { halt } }",
    /// )?;
    /// let faint = FaintSolution::compute(&prog, &pdce_ir::CfgView::new(&prog));
    /// let l = prog.block_by_name("l").unwrap();
    /// let x = prog.vars().lookup("x").unwrap();
    /// assert!(faint.faint_after(&prog, l, 0, x));
    /// # Ok::<(), pdce_ir::ParseError>(())
    /// ```
    pub fn compute(prog: &Program, view: &CfgView) -> FaintSolution {
        let width = prog.num_vars();
        let words = width.div_ceil(64) as u64;
        let mut scratch = BitVec::zeros(width);
        let solution = solve_with(
            view,
            Direction::Backward,
            Meet::Intersection,
            // Everything is faint at the end of the program.
            BitVec::ones(width).as_row(),
            |n, input, output| {
                let block = prog.block(n);
                let mut row = scratch.as_row_mut();
                row.copy_from(input);
                apply_term_backward(prog, &block.term, &mut row);
                for stmt in block.stmts.iter().rev() {
                    apply_stmt_faint(prog, stmt, &mut row);
                }
                // A greatest-fixpoint iteration only lowers rows, so the
                // new value is a subset of the old one: intersecting
                // writes it and reports the change in one pass.
                let changed = output.intersect_with_changed(row.as_row());
                (changed, 2 * words + block.stmts.len() as u64 + 1)
            },
        );
        FaintSolution {
            solution,
            scratch: RefCell::new(scratch),
        }
    }

    /// [`FaintSolution::compute`]; `du` is ignored. Kept only because
    /// the benchmark's layer replica (`perfbench/src/replica.rs`) calls
    /// it, until the next benchmark change moves the replica to
    /// `AnalysisCache::analysis` with [`FaintSolution::compute`].
    pub fn compute_with_du(prog: &Program, view: &CfgView, _du: &DuGraph) -> FaintSolution {
        FaintSolution::compute(prog, view)
    }

    /// [`FaintSolution::compute`] under the signature of the retired
    /// warm-start entry point: `du`, `prev` and `dirty` are ignored and
    /// every solve is cold. Kept only for the benchmark's layer replica,
    /// like [`FaintSolution::compute_with_du`].
    pub fn compute_seeded_with_du(
        prog: &Program,
        view: &CfgView,
        _du: &DuGraph,
        _prev: &FaintSolution,
        _dirty: &[NodeId],
    ) -> FaintSolution {
        FaintSolution::compute(prog, view)
    }

    /// `N-FAINT` row at the entry of block `n`.
    pub fn at_entry(&self, n: NodeId) -> Row<'_> {
        self.solution.at_entry(n)
    }

    /// `X-FAINT` row after the terminator of block `n` (the meet over
    /// successor entries).
    pub fn at_exit(&self, n: NodeId) -> Row<'_> {
        self.solution.at_exit(n)
    }

    /// Visits the faintness row *immediately after* each statement of
    /// block `n` (`X-FAINT` of every statement instruction), calling
    /// `f(k, after_k)` in **reverse** statement order (`k` descending),
    /// by the same rolling walk as
    /// [`DeadSolution::for_each_stmt_after`](crate::DeadSolution::for_each_stmt_after).
    /// The borrowed row is overwritten after `f` returns.
    pub fn for_each_stmt_after(&self, prog: &Program, n: NodeId, f: impl FnMut(usize, Row<'_>)) {
        record_walks(self.walk_stmts_after(prog, n, f));
    }

    /// [`FaintSolution::for_each_stmt_after`] without recording the
    /// walk: returns its word operations instead.
    pub(crate) fn walk_stmts_after(
        &self,
        prog: &Program,
        n: NodeId,
        f: impl FnMut(usize, Row<'_>),
    ) -> u64 {
        walk_back(prog, &self.solution, &self.scratch, n, apply_stmt_faint, f)
    }

    /// `X-FAINT` of variable `v` immediately after statement `k` of
    /// block `n` (the terminator is statement index `block.stmts.len()`).
    pub fn faint_after(&self, prog: &Program, n: NodeId, k: usize, v: Var) -> bool {
        let mut faint = self.at_exit(n).get(v.index());
        if k < prog.block(n).stmts.len() {
            self.for_each_stmt_after(prog, n, |j, after| {
                if j == k {
                    faint = after.get(v.index());
                }
            });
        }
        faint
    }

    /// `N-FAINT` of variable `v` at statement `k` of block `n` (the
    /// terminator is statement index `block.stmts.len()`): the value
    /// after the instruction before it, or the block's entry row.
    pub fn faint_before(&self, prog: &Program, n: NodeId, k: usize, v: Var) -> bool {
        match k.checked_sub(1) {
            Some(prev) => self.faint_after(prog, n, prev, v),
            None => self.at_entry(n).get(v.index()),
        }
    }

    /// Number of block evaluations the solver performed.
    pub fn evaluations(&self) -> u64 {
        self.solution.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    fn var(p: &Program, name: &str) -> Var {
        p.vars().lookup(name).unwrap()
    }

    /// Figure 9: `x := x + 1` inside a loop, never observed: faint
    /// (though not dead, cf. dead.rs tests).
    #[test]
    fn fig9_self_increment_is_faint() {
        let p = parse(
            "prog {
               block s { goto l }
               block l { x := x + 1; nondet l x2 }
               block x2 { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let l = p.block_by_name("l").unwrap();
        assert!(f.faint_after(&p, l, 0, var(&p, "x")));
        assert!(f.at_entry(l).get(var(&p, "x").index()));
    }

    /// The Horwitz/Demers/Teitelbaum-style chain: `y := x` where y is
    /// itself unused — both x's definition and the copy are faint.
    #[test]
    fn faint_chains_propagate() {
        let p = parse(
            "prog {
               block s { x := 1; y := x; goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let s = p.entry();
        assert!(
            f.faint_after(&p, s, 0, var(&p, "x")),
            "x only feeds faint y"
        );
        assert!(f.faint_after(&p, s, 1, var(&p, "y")));
    }

    #[test]
    fn relevant_use_defeats_faintness() {
        let p = parse(
            "prog {
               block s { x := 1; y := x; out(y); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let s = p.entry();
        assert!(!f.faint_after(&p, s, 0, var(&p, "x")));
        assert!(!f.faint_after(&p, s, 1, var(&p, "y")));
        assert!(
            f.faint_after(&p, s, 2, var(&p, "y")),
            "after out(y), y is faint"
        );
    }

    #[test]
    fn branch_condition_is_relevant() {
        let p = parse(
            "prog {
               block s { x := 1; if x < 2 then t else e }
               block t { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        assert!(!f.faint_after(&p, p.entry(), 0, var(&p, "x")));
    }

    #[test]
    fn dead_implies_faint_on_example() {
        use crate::dead::DeadSolution;
        use pdce_ir::CfgView;
        let p = parse(
            "prog {
               block s { a := 1; b := a + 2; out(b); nondet l e }
               block l { c := c + b; nondet l e }
               block e { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        let d = DeadSolution::compute(&p, &view);
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        for n in p.node_ids() {
            for (k, stmt) in p.block(n).stmts.iter().enumerate() {
                if let Some(lhs) = stmt.modified() {
                    if d.dead_after(&p, n, k, lhs) {
                        assert!(
                            f.faint_after(&p, n, k, lhs),
                            "dead ⟹ faint violated at {}[{}]",
                            p.block(n).name,
                            k
                        );
                    }
                }
            }
        }
    }

    /// Figure 12 seen through faintness: both `a := ...` (used only by a
    /// dead assignment) and the dead `y := a+b` are faint simultaneously
    /// — a first-order effect for PFE (Section 4.4).
    #[test]
    fn fig12_both_assignments_faint_simultaneously() {
        let p = parse(
            "prog {
               block s  { a := c + 1; nondet n3 n4 }
               block n3 { goto n5 }
               block n4 { y := a + b; goto n5 }
               block n5 { y := c + d; out(y); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let s = p.entry();
        let n4 = p.block_by_name("n4").unwrap();
        assert!(f.faint_after(&p, s, 0, var(&p, "a")));
        assert!(f.faint_after(&p, n4, 0, var(&p, "y")));
    }

    #[test]
    fn mutual_recursion_between_faint_variables() {
        // x feeds y, y feeds x, neither observed: both faint (greatest
        // fixpoint keeps the self-supporting cycle).
        let p = parse(
            "prog {
               block s { goto l }
               block l { x := y + 1; y := x + 1; nondet l d }
               block d { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let l = p.block_by_name("l").unwrap();
        assert!(f.faint_after(&p, l, 0, var(&p, "x")));
        assert!(f.faint_after(&p, l, 1, var(&p, "y")));
    }

    /// Pins the engine: a solve pops the block worklist, so a faint
    /// solve that stopped reaching it fails here instead of only
    /// changing speed.
    #[test]
    fn faint_solves_on_the_block_worklist() {
        let p = parse(
            "prog {
               block s { x := 1; y := x; z := y; out(z); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        let before = pdce_trace::solver_totals();
        FaintSolution::compute(&p, &view);
        let d = pdce_trace::solver_totals().since(&before);
        assert!(d.priority_pops > 0, "{d:?}");
        assert_eq!(d.sparse_pops, 0, "{d:?}");
    }

    #[test]
    fn observed_cycle_is_not_faint() {
        let p = parse(
            "prog {
               block s { goto l }
               block l { x := y + 1; y := x + 1; nondet l d }
               block d { out(y); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let l = p.block_by_name("l").unwrap();
        assert!(!f.faint_after(&p, l, 0, var(&p, "x")));
        assert!(!f.faint_after(&p, l, 1, var(&p, "y")));
    }
}
