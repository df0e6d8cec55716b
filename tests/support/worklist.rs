//! A reference worklist: the solver engine with its queue kept as a
//! `BinaryHeap` min-heap over iteration-order positions and a position
//! table built per solve, as the production engine kept it before its
//! bitset worklist. It charges evaluations and word operations exactly
//! as the production engine does, so equal counts on a problem mean the
//! two popped the same nodes in the same order.
//!
//! The dead, faint and delay problems are rebuilt here from the IR:
//! dead's block gen/kill rows by composing each statement's rule, faint's
//! block transfer by applying Table 1's instruction rule last to first,
//! delay's rows read from [`LocalInfo`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pdce::core::LocalInfo;
use pdce::dfa::{BitMatrix, BitVec, Direction, Meet, Row, RowMut};
use pdce::ir::{CfgView, NodeId, Program, Stmt, TermId};

/// A reference solve: rows in program orientation plus its counters.
pub struct Reference {
    pub entry: BitMatrix,
    pub exit: BitMatrix,
    pub evaluations: u64,
    pub word_ops: u64,
}

/// The priority worklist over a heap: every node of the iteration order
/// queued up front, the lowest position popped first, a node whose
/// output changes re-queueing the dependents not already queued.
pub fn solve_with(
    view: &CfgView,
    direction: Direction,
    meet: Meet,
    boundary: Row<'_>,
    mut transfer: impl FnMut(NodeId, Row<'_>, &mut RowMut<'_>) -> (bool, u64),
) -> Reference {
    let n = view.num_nodes();
    let width = boundary.len();
    let words = width.div_ceil(64) as u64;
    let interior_init = meet == Meet::Intersection;
    let mut input = BitMatrix::new(n, width, interior_init);
    let mut output = BitMatrix::new(n, width, interior_init);
    let boundary_node = match direction {
        Direction::Forward => view.entry(),
        Direction::Backward => view.exit(),
    };
    input.row_mut(boundary_node.index()).copy_from(boundary);
    let order: &[NodeId] = match direction {
        Direction::Forward => view.rpo(),
        Direction::Backward => view.postorder(),
    };
    let mut order_pos = vec![u32::MAX; n];
    for (i, &node) in order.iter().enumerate() {
        order_pos[node.index()] = i as u32;
    }
    let (mut evaluations, mut word_ops) = (0u64, 0u64);
    let mut heap: BinaryHeap<Reverse<u32>> = (0..order.len() as u32).map(Reverse).collect();
    let mut queued = vec![true; order.len()];
    while let Some(Reverse(pos)) = heap.pop() {
        queued[pos as usize] = false;
        let node = order[pos as usize];
        let i = node.index();
        evaluations += 1;
        if node != boundary_node {
            let sources = match direction {
                Direction::Forward => view.preds(node),
                Direction::Backward => view.succs(node),
            };
            if let Some((first, rest)) = sources.split_first() {
                word_ops += words;
                let mut acc = input.row_mut(i);
                acc.copy_from(output.row(first.index()));
                for &src in rest {
                    word_ops += match meet {
                        Meet::Intersection => acc.intersect_with_skip(output.row(src.index())),
                        Meet::Union => acc.union_with_skip(output.row(src.index())),
                    };
                }
            }
        }
        let (changed, ops) = transfer(node, input.row(i), &mut output.row_mut(i));
        word_ops += ops;
        if changed {
            let dependents = match direction {
                Direction::Forward => view.succs(node),
                Direction::Backward => view.preds(node),
            };
            for &d in dependents {
                let dpos = order_pos[d.index()];
                if dpos != u32::MAX && !queued[dpos as usize] {
                    queued[dpos as usize] = true;
                    heap.push(Reverse(dpos));
                }
            }
        }
    }
    let (entry, exit) = match direction {
        Direction::Forward => (input, output),
        Direction::Backward => (output, input),
    };
    Reference {
        entry,
        exit,
        evaluations,
        word_ops,
    }
}

fn set_vars(prog: &Program, t: Option<TermId>, row: &mut RowMut<'_>, value: bool) {
    if let Some(t) = t {
        for &v in prog.terms().vars_of(t) {
            row.set(v.index(), value);
        }
    }
}

/// A statement's deadness rule: its used variables become live, then
/// its left-hand side dead unless it also reads it.
fn dead_rule(prog: &Program, stmt: &Stmt, row: &mut RowMut<'_>) {
    set_vars(prog, stmt.used_term(), row, false);
    if let Some(m) = stmt.modified() {
        if !stmt.uses(prog.terms(), m) {
            row.set(m.index(), true);
        }
    }
}

/// Dead variables: backward, all paths, everything dead at the end, as
/// a gen/kill problem charged three words per transfer.
pub fn dead(prog: &Program, view: &CfgView) -> Reference {
    let width = prog.num_vars();
    let words = width.div_ceil(64) as u64;
    let mut gen = BitMatrix::zeros(prog.num_blocks(), width);
    let mut kill = BitMatrix::zeros(prog.num_blocks(), width);
    for n in prog.node_ids() {
        let block = prog.block(n);
        let (mut g, mut k) = (gen.row_mut(n.index()), kill.row_mut(n.index()));
        set_vars(prog, block.term.used_term(), &mut g, false);
        set_vars(prog, block.term.used_term(), &mut k, true);
        for stmt in block.stmts.iter().rev() {
            dead_rule(prog, stmt, &mut g);
            set_vars(prog, stmt.used_term(), &mut k, true);
        }
    }
    solve_with(
        view,
        Direction::Backward,
        Meet::Intersection,
        BitVec::ones(width).as_row(),
        |n, input, output| {
            let i = n.index();
            (
                output.set_transfer(input, gen.row(i), kill.row(i)),
                3 * words,
            )
        },
    )
}

/// Faint variables: Table 1's instruction rule applied last to first as
/// the block transfer, charged two row words plus one per instruction.
pub fn faint(prog: &Program, view: &CfgView) -> Reference {
    let width = prog.num_vars();
    let words = width.div_ceil(64) as u64;
    let mut scratch = BitVec::zeros(width);
    solve_with(
        view,
        Direction::Backward,
        Meet::Intersection,
        BitVec::ones(width).as_row(),
        |n, input, output| {
            let block = prog.block(n);
            let mut row = scratch.as_row_mut();
            row.copy_from(input);
            set_vars(prog, block.term.used_term(), &mut row, false);
            for stmt in block.stmts.iter().rev() {
                let transparent = matches!(*stmt, Stmt::Assign { lhs, .. } if row.get(lhs.index()));
                if !transparent {
                    dead_rule(prog, stmt, &mut row);
                }
            }
            let changed = output.intersect_with_changed(row.as_row());
            (changed, 2 * words + block.stmts.len() as u64 + 1)
        },
    )
}

/// Delayability: forward, all paths, nothing delayed at the start, with
/// `LOCDELAYED`/`LOCBLOCKED` as gen/kill, charged three words per
/// transfer.
pub fn delay(view: &CfgView, local: &LocalInfo) -> Reference {
    let width = local.locdelayed.width();
    let words = width.div_ceil(64) as u64;
    solve_with(
        view,
        Direction::Forward,
        Meet::Intersection,
        BitVec::zeros(width).as_row(),
        |n, input, output| {
            let i = n.index();
            (
                output.set_transfer(input, local.locdelayed.row(i), local.locblocked.row(i)),
                3 * words,
            )
        },
    )
}
