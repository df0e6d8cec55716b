//! Well-formedness checks for programs.
//!
//! Section 2 of the paper assumes: a unique start node `s` with no
//! predecessors, a unique end node `e` with no successors, and that every
//! node lies on some path from `s` to `e`. [`validate`] enforces exactly
//! these conditions plus basic structural sanity.

use crate::cfg::CfgView;
use crate::error::IrError;
use crate::program::{NodeId, Program, Terminator};

/// Checks the paper's flow-graph well-formedness conditions.
///
/// # Errors
///
/// Returns the first violated condition as an [`IrError`].
pub fn validate(prog: &Program) -> Result<(), IrError> {
    // Exactly one halt, and it is the designated exit.
    let halts: Vec<NodeId> = prog
        .node_ids()
        .filter(|&n| matches!(prog.block(n).term, Terminator::Halt))
        .collect();
    if halts.len() != 1 {
        return Err(IrError::ExitCount(halts.len()));
    }
    if halts[0] != prog.exit() {
        return Err(IrError::BadExit);
    }

    // Nondet terminators must have at least one target.
    for n in prog.node_ids() {
        if let Terminator::Nondet(targets) = &prog.block(n).term {
            if targets.is_empty() {
                return Err(IrError::EmptyNondet(prog.block(n).name.clone()));
            }
        }
    }

    // Entry has no predecessors.
    let view = CfgView::new(prog);
    if !view.preds(prog.entry()).is_empty() {
        return Err(IrError::EntryHasPredecessors);
    }

    // Every node is reachable from the entry...
    let reachable = reachable_from(prog, prog.entry());
    for n in prog.node_ids() {
        if !reachable[n.index()] {
            return Err(IrError::Unreachable(prog.block(n).name.clone()));
        }
    }

    // ...and can reach the exit.
    let reaches_exit = reaches(&view, prog.exit());
    for n in prog.node_ids() {
        if !reaches_exit[n.index()] {
            return Err(IrError::CannotReachExit(prog.block(n).name.clone()));
        }
    }
    Ok(())
}

/// Forward reachability from `start`, as a dense boolean vector.
pub fn reachable_from(prog: &Program, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; prog.num_blocks()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(n) = stack.pop() {
        prog.block(n).term.for_each_successor(|m| {
            if !seen[m.index()] {
                seen[m.index()] = true;
                stack.push(m);
            }
        });
    }
    seen
}

/// Backward reachability: which nodes can reach `target`, walking the
/// predecessor slabs of `view`.
pub fn reaches(view: &CfgView, target: NodeId) -> Vec<bool> {
    let mut seen = vec![false; view.num_nodes()];
    let mut stack = vec![target];
    seen[target.index()] = true;
    while let Some(n) = stack.pop() {
        for &m in view.preds(n) {
            if !seen[m.index()] {
                seen[m.index()] = true;
                stack.push(m);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unvalidated;

    #[test]
    fn accepts_well_formed_program() {
        let p = parse_unvalidated(
            "prog {
               block s { nondet a b }
               block a { goto e }
               block b { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn rejects_entry_with_predecessors() {
        let p = parse_unvalidated("prog { block s { nondet s e } block e { halt } }").unwrap();
        assert_eq!(validate(&p), Err(IrError::EntryHasPredecessors));
    }

    #[test]
    fn rejects_node_that_cannot_reach_exit() {
        let p = parse_unvalidated(
            "prog {
               block s { nondet trap e }
               block trap { goto trap2 }
               block trap2 { goto trap }
               block e { halt }
             }",
        )
        .unwrap();
        assert!(matches!(validate(&p), Err(IrError::CannotReachExit(_))));
    }

    #[test]
    fn rejects_unreachable_node() {
        let p = parse_unvalidated(
            "prog {
               block s { goto e }
               block island { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert_eq!(validate(&p), Err(IrError::Unreachable("island".into())));
    }

    #[test]
    fn reachability_helpers() {
        let p = parse_unvalidated(
            "prog {
               block s { nondet a e }
               block a { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let r = reachable_from(&p, p.block_by_name("a").unwrap());
        assert!(!r[p.entry().index()]);
        assert!(r[p.exit().index()]);
    }
}
