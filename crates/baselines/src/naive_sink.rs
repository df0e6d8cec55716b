//! A naive, loop-oblivious instruction sinker in the spirit of Briggs &
//! Cooper's sinking pass (Related Work, discussion of Figure 6).
//!
//! The paper's criticism: "their strategy of instruction sinking can
//! significantly impair certain program executions, since instructions
//! can be moved into loops in a way which cannot be 'repaired' by a
//! subsequent partial redundancy elimination". This module reproduces
//! exactly that behaviour as a *semantics-preserving but potentially
//! impairing* strawman:
//!
//! * a sinking candidate moves from block `n` into its sole successor
//!   `m` whenever `n` is `m`'s only predecessor (safe, also done by
//!   `ask`), **and additionally**
//! * a candidate moves into a natural-loop header `m` even when `m` has
//!   back-edge predecessors, provided the re-execution per iteration is
//!   value-identical: the pattern's operands and left-hand side are not
//!   modified anywhere in the loop (other than by the moved assignment
//!   itself) and the candidate's source dominates... is the unique
//!   non-latch predecessor. The program then recomputes the assignment
//!   on *every* iteration — same semantics, strictly more work.
//!
//! Dead code elimination afterwards cannot remove the loop copy (its
//! value is used), and lazy code motion cannot hoist it back out for
//! safety reasons — which the `related_work` integration tests verify.

use pdce_dfa::AnalysisCache;
use pdce_ir::{CfgView, NodeId, Program, Stmt};

use pdce_core::local::LocalInfo;
use pdce_core::patterns::PatternTable;

/// Outcome of the naive sinking pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveSinkOutcome {
    /// Moves into ordinary successors.
    pub plain_moves: u64,
    /// Moves into loop headers (the impairing kind).
    pub loop_moves: u64,
}

/// Runs the naive sinker until no move applies (bounded by a pass cap).
///
/// # Example
///
/// ```
/// use pdce_baselines::naive_sink;
/// use pdce_ir::parser::parse;
///
/// // The strawman pushes the invariant assignment INTO the loop.
/// let mut prog = parse(
///     "prog { block pre { x := a + b; goto h }
///             block h { y := y + x; if i < n then h2 else post }
///             block h2 { i := i + 1; goto h }
///             block post { out(y); goto e } block e { halt } }",
/// )?;
/// let outcome = naive_sink(&mut prog);
/// assert_eq!(outcome.loop_moves, 1);
/// # Ok::<(), pdce_ir::ParseError>(())
/// ```
pub fn naive_sink(prog: &mut Program) -> NaiveSinkOutcome {
    // Moves only edit statement lists, so the topology survives every
    // sweep and the cache merely refreshes the instruction layout.
    let mut cache = AnalysisCache::new();
    let mut outcome = NaiveSinkOutcome::default();
    let max_passes = prog.num_blocks() * 2 + 4;
    for _ in 0..max_passes {
        if !one_pass(prog, &mut cache, &mut outcome) {
            break;
        }
    }
    outcome
}

/// One sweep over all blocks; returns whether anything moved.
fn one_pass(prog: &mut Program, cache: &mut AnalysisCache, outcome: &mut NaiveSinkOutcome) -> bool {
    let view = cache.cfg(prog);
    let table = PatternTable::build(prog);
    if table.is_empty() {
        return false;
    }
    let local = LocalInfo::compute(prog, &table);
    let back_edges = view.natural_back_edges();

    // Collect loop bodies per header.
    let mut loop_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); prog.num_blocks()];
    for &(tail, head) in &back_edges {
        for n in natural_loop(&view, tail, head) {
            if !loop_nodes[head.index()].contains(&n) {
                loop_nodes[head.index()].push(n);
            }
        }
    }

    for n in prog.node_ids().collect::<Vec<_>>() {
        let succs = view.succs(n).to_vec();
        if succs.len() != 1 {
            continue;
        }
        let m = succs[0];
        if m == prog.exit() || m == n {
            continue;
        }
        let Some(&(k, pat)) = local.candidates_of(n).first() else {
            continue;
        };
        let (lhs, rhs) = table.pattern(pat);
        let preds_m = view.preds(m).to_vec();
        let plain = preds_m == [n];
        let loopy = !plain
            && preds_m
                .iter()
                .all(|&p| p == n || loop_nodes[m.index()].contains(&p))
            && loop_is_transparent(prog, &loop_nodes[m.index()], pat, &table);
        if !(plain || loopy) {
            continue;
        }
        let moved = prog.stmts_mut(n).remove(k);
        debug_assert_eq!(moved, Stmt::Assign { lhs, rhs });
        prog.stmts_mut(m).insert(0, moved);
        if plain {
            outcome.plain_moves += 1;
        } else {
            outcome.loop_moves += 1;
        }
        return true; // restart with fresh analyses
    }
    false
}

/// Nodes of the natural loop of back edge `(tail, head)`.
fn natural_loop(view: &CfgView, tail: NodeId, head: NodeId) -> Vec<NodeId> {
    let mut body = vec![head];
    let mut stack = vec![tail];
    while let Some(x) = stack.pop() {
        if body.contains(&x) {
            continue;
        }
        body.push(x);
        for &p in view.preds(x) {
            stack.push(p);
        }
    }
    body
}

/// Whether re-executing `x := t` once per iteration of the loop is
/// value-identical: no loop instruction modifies `x` or an operand of
/// `t`. (Uses of `x` are fine — they read the same value.)
fn loop_is_transparent(prog: &Program, body: &[NodeId], pat: usize, table: &PatternTable) -> bool {
    let (x, t) = table.pattern(pat);
    for &n in body {
        for stmt in &prog.block(n).stmts {
            if let Some(m) = stmt.modified() {
                if m == x || prog.terms().term_uses(t, m) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::interp::{run_with, ExecLimits};
    use pdce_ir::parser::parse;
    use pdce_ir::printer::{diff, structural_eq};

    /// The Figure 6 situation: an assignment sitting just before a loop
    /// whose body *uses* it is pushed into the loop header.
    #[test]
    fn pushes_assignment_into_loop() {
        let mut p = parse(
            "prog {
               block pre { x := a + b; goto h }
               block h { i := i + 1; y := y + x; if i < n then h2 else post }
               block h2 { goto h }
               block post { out(y); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let orig = p.clone();
        let out = naive_sink(&mut p);
        assert_eq!(out.loop_moves, 1);
        let expected = parse(
            "prog {
               block pre { goto h }
               block h { x := a + b; i := i + 1; y := y + x; if i < n then h2 else post }
               block h2 { goto h }
               block post { out(y); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert!(structural_eq(&p, &expected), "{}", diff(&p, &expected));

        // Semantics preserved, dynamic work increased.
        let inputs = [("a", 3), ("b", 4), ("n", 5)];
        let t0 = run_with(&orig, &inputs, vec![], ExecLimits::default());
        let t1 = run_with(&p, &inputs, vec![], ExecLimits::default());
        assert_eq!(t0.outputs, t1.outputs);
        assert!(
            t1.executed_assignments > t0.executed_assignments,
            "naive sinking must impair the execution: {} vs {}",
            t1.executed_assignments,
            t0.executed_assignments
        );
    }

    /// When the loop modifies an operand the move is rejected (it would
    /// change semantics).
    #[test]
    fn refuses_unsound_loop_move() {
        let src = "prog {
            block pre { x := a + b; goto h }
            block h { a := a + 1; y := y + x; if a < n then h2 else post }
            block h2 { goto h }
            block post { out(y); goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        let out = naive_sink(&mut p);
        assert_eq!(out.loop_moves, 0);
        assert!(structural_eq(&p, &parse(src).unwrap()));
    }

    #[test]
    fn plain_chain_moves_toward_use() {
        let mut p = parse(
            "prog {
               block a { x := 1 + c; goto b }
               block b { skip; goto c1 }
               block c1 { out(x); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let out = naive_sink(&mut p);
        assert!(out.plain_moves >= 2);
        let c1 = p.block_by_name("c1").unwrap();
        assert_eq!(p.block(c1).stmts.len(), 2, "x := 1 + c arrives at its use");
    }

    #[test]
    fn semantics_preserved_on_random_inputs() {
        let src = "prog {
            block pre { x := a * 2; goto h }
            block h { i := i + 1; s := s + x; if i < n then h2 else post }
            block h2 { goto h }
            block post { out(s); out(i); goto e }
            block e { halt }
        }";
        let orig = parse(src).unwrap();
        let mut sunk = parse(src).unwrap();
        naive_sink(&mut sunk);
        for a in [-5i64, 0, 3, 99] {
            for n in [0i64, 1, 7] {
                let inputs = [("a", a), ("n", n)];
                let t0 = run_with(&orig, &inputs, vec![], ExecLimits::default());
                let t1 = run_with(&sunk, &inputs, vec![], ExecLimits::default());
                assert_eq!(t0.outputs, t1.outputs, "a={a} n={n}");
            }
        }
    }
}
