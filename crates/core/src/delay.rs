//! Delayability analysis and insertion points (Table 2 of the paper).
//!
//! Delayability determines how far the sinking candidates of each
//! assignment pattern can be pushed in the direction of control flow:
//!
//! ```text
//! N-DELAYED_n = false                          if n = s
//!             = ∧_{m ∈ pred(n)} X-DELAYED_m    otherwise
//! X-DELAYED_n = LOCDELAYED_n ∨ (N-DELAYED_n ∧ ¬LOCBLOCKED_n)
//!
//! N-INSERT_n  = N-DELAYED_n ∧ LOCBLOCKED_n
//! X-INSERT_n  = X-DELAYED_n ∧ ∃_{m ∈ succ(n)} ¬N-DELAYED_m
//! ```
//!
//! A forward all-paths bit-vector problem over assignment patterns
//! (greatest fixpoint). Thanks to edge splitting there are never
//! insertions at the exit of branching nodes (footnote 6).

use pdce_dfa::{solve, BitMatrix, BitProblem, BitVec, Direction, Meet, Solution};
use pdce_ir::{CfgView, Program};

use crate::local::LocalInfo;
use crate::patterns::PatternTable;

/// Solution of the delayability analysis plus derived insertion points,
/// each a matrix with one row per block.
#[derive(Debug, Clone)]
pub struct DelayInfo {
    /// `N-DELAYED_n` per block.
    pub n_delayed: BitMatrix,
    /// `X-DELAYED_n` per block.
    pub x_delayed: BitMatrix,
    /// `N-INSERT_n` per block.
    pub n_insert: BitMatrix,
    /// `X-INSERT_n` per block.
    pub x_insert: BitMatrix,
    /// Solver node evaluations (complexity experiments).
    pub evaluations: u64,
}

impl DelayInfo {
    /// Runs the analysis: a forward all-paths problem whose transfer
    /// rows are `LOCDELAYED` (gen) and `LOCBLOCKED` (kill), read in
    /// place from `local`.
    pub fn compute(
        prog: &Program,
        view: &CfgView,
        table: &PatternTable,
        local: &LocalInfo,
    ) -> DelayInfo {
        let width = table.len();
        let sol = solve(
            view,
            &BitProblem {
                direction: Direction::Forward,
                meet: Meet::Intersection,
                width,
                gen: &local.locdelayed,
                kill: &local.locblocked,
                boundary: BitVec::zeros(width), // N-DELAYED_s = false
            },
        );
        DelayInfo::from_solution(prog, view, local, sol)
    }

    /// Derives the insertion points (`N-INSERT`/`X-INSERT`) from a
    /// delayability fixpoint. One scratch row serves every node:
    /// `∃_m ¬N-DELAYED_m` is computed as `¬∧_m N-DELAYED_m`, so the
    /// inner loop is a sparse intersection instead of a copy + negate
    /// + union per successor.
    fn from_solution(
        prog: &Program,
        view: &CfgView,
        local: &LocalInfo,
        sol: Solution,
    ) -> DelayInfo {
        let width = sol.entry.width();
        let nblocks = prog.num_blocks();
        let mut n_insert = BitMatrix::zeros(nblocks, width);
        let mut x_insert = BitMatrix::zeros(nblocks, width);
        let mut all_delayed = BitVec::zeros(width);
        for n in prog.node_ids() {
            let i = n.index();
            // N-INSERT = N-DELAYED ∧ LOCBLOCKED
            let mut ni = n_insert.row_mut(i);
            ni.copy_from(sol.entry.row(i));
            ni.intersect_with(local.locblocked.row(i));
            // X-INSERT = X-DELAYED ∧ ∃ succ ¬N-DELAYED
            let succs = view.succs(n);
            if !succs.is_empty() {
                let mut all = all_delayed.as_row_mut();
                all.fill(true);
                for &m in succs {
                    all.intersect_with_skip(sol.entry.row(m.index()));
                }
                all.negate(); // = ∃ succ ¬N-DELAYED
                let mut xi = x_insert.row_mut(i);
                xi.copy_from(sol.exit.row(i));
                xi.intersect_with(all.as_row());
            }
        }
        DelayInfo {
            n_delayed: sol.entry,
            x_delayed: sol.exit,
            n_insert,
            x_insert,
            evaluations: sol.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    fn analyse(src: &str) -> (pdce_ir::Program, PatternTable, DelayInfo) {
        let p = parse(src).unwrap();
        let view = CfgView::new(&p);
        let table = PatternTable::build(&p);
        let local = LocalInfo::compute(&p, &table);
        let d = DelayInfo::compute(&p, &view, &table, &local);
        (p, table, d)
    }

    fn idx(p: &pdce_ir::Program, d: &DelayInfo, name: &str) -> usize {
        let _ = d;
        p.block_by_name(name).unwrap().index()
    }

    /// Figure 1: `y := a+b` in n1 is delayable through n2 (transparent)
    /// up to n3 (redefinition of y blocks → insert at entry of n3) and up
    /// to n4 via n2... n2 contains out(y): blocked at n2 entry as well.
    #[test]
    fn fig1_delay_and_insert() {
        let (p, t, d) = analyse(
            "prog {
               block s  { goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { out(y); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        );
        assert_eq!(t.len(), 2); // y := a+b and y := 4
        let y_ab = (0..t.len())
            .find(|&k| t.key(&p, k).as_str() == "y := a + b")
            .unwrap();
        let n2 = idx(&p, &d, "n2");
        let n3 = idx(&p, &d, "n3");
        let n1 = idx(&p, &d, "n1");
        // Delayable out of n1 into both successors.
        assert!(d.x_delayed.row(n1).get(y_ab));
        assert!(d.n_delayed.row(n2).get(y_ab));
        assert!(d.n_delayed.row(n3).get(y_ab));
        // Blocked at entry of both: insert there.
        assert!(d.n_insert.row(n2).get(y_ab));
        assert!(d.n_insert.row(n3).get(y_ab));
        // Not delayable beyond.
        assert!(!d.x_delayed.row(n2).get(y_ab));
        assert!(!d.x_delayed.row(n3).get(y_ab));
    }

    /// The join must be all-paths: if only one predecessor delays the
    /// pattern, it is not delayed at the join.
    #[test]
    fn join_requires_all_predecessors() {
        let (p, t, d) = analyse(
            "prog {
               block s  { nondet l r }
               block l  { x := a + 1; goto j }
               block r  { goto j }
               block j  { out(x); goto e }
               block e  { halt }
             }",
        );
        assert_eq!(t.len(), 1);
        let j = idx(&p, &d, "j");
        let l = idx(&p, &d, "l");
        assert!(d.x_delayed.row(l).get(0));
        assert!(!d.n_delayed.row(j).get(0), "r does not delay x := a+1");
        // Hence insertion at the exit of l.
        assert!(d.x_insert.row(l).get(0));
        assert!(!d.n_insert.row(j).get(0));
    }

    /// Sinking towards loop exits: the candidate in the loop header is
    /// delayed to the loop-exit block and to the synthetic repeat block
    /// of the split back edge (the delayed instance is not justified to
    /// re-enter the header, whose entry also meets the non-delayed path
    /// from `s`).
    #[test]
    fn loop_invariant_assignment_delays_out_of_loop() {
        let mut p = parse(
            "prog {
               block s { goto h }
               block h { x := a + b; nondet h after }
               block after { out(x); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        pdce_ir::edgesplit::split_critical_edges(&mut p);
        let view = CfgView::new(&p);
        let table = PatternTable::build(&p);
        let local = LocalInfo::compute(&p, &table);
        let d = DelayInfo::compute(&p, &view, &table, &local);
        assert_eq!(table.len(), 1);
        let h = idx(&p, &d, "h");
        let after = idx(&p, &d, "after");
        let s_hh = idx(&p, &d, "S_h_h");
        // Delayable out of h into both the repeat block and the exit.
        assert!(d.x_delayed.row(h).get(0));
        assert!(d.n_delayed.row(s_hh).get(0));
        assert!(d.n_delayed.row(after).get(0));
        // The meet at h's entry fails (path from s carries no instance).
        assert!(!d.n_delayed.row(h).get(0));
        // Insertions: at the exit of the repeat block, and at the entry
        // of the loop exit (blocked there by out(x)).
        assert!(d.x_insert.row(s_hh).get(0));
        assert!(d.n_insert.row(after).get(0));
        assert!(!d.x_insert.row(h).get(0));
    }

    /// Entry boundary: nothing is delayed into the start node.
    #[test]
    fn entry_is_never_delayed_into() {
        let (p, _t, d) = analyse("prog { block s { x := 1; goto e } block e { halt } }");
        assert!(d.n_delayed.row(p.entry().index()).none());
        // But the candidate makes the exit delayed.
        assert!(d.x_delayed.row(p.entry().index()).get(0));
        // Exit node has no successors: no X-INSERT.
        assert!(d.x_insert.row(p.exit().index()).none());
    }

    /// A pattern delayable to the end node is never inserted anywhere:
    /// it is dropped (it would be dead at e anyway).
    #[test]
    fn delayed_to_exit_has_no_insertion() {
        let (p, _t, d) =
            analyse("prog { block s { x := 1; goto m } block m { goto e } block e { halt } }");
        for n in p.node_ids() {
            assert!(d.n_insert.row(n.index()).none(), "{}", p.block(n).name);
            assert!(d.x_insert.row(n.index()).none(), "{}", p.block(n).name);
        }
    }
}
