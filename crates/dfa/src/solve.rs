//! Worklist solver for block-level data-flow problems over bit rows.
//!
//! The solver computes the *greatest* or *least* fixpoint of a
//! monotone block-transfer system over a control-flow graph, in either
//! direction, with either meet. The paper's analyses are all all-paths
//! problems (meet = ∩, greatest fixpoint): dead variables and
//! delayability are gen/kill problems ([`BitProblem`]); faint variables
//! are not distributive and hand the solver their block transfer as a
//! closure ([`solve_with`]). The baselines add may-problems (reaching
//! definitions/copies, meet = ∪, least fixpoint).
//!
//! There is one engine: a direction-aware priority worklist that only
//! re-evaluates nodes whose inputs may have changed, earliest in
//! iteration order first (reverse postorder for forward problems,
//! postorder for backward ones). Every solve starts cold from the
//! optimistic bound; monotone systems over finite lattices have a unique
//! extremal fixpoint from there, which the executable specification in
//! `tests/support/` checks bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pdce_ir::{CfgView, NodeId};

use crate::bitvec::BitVec;
use crate::matrix::{BitMatrix, Row, RowMut};

/// Analysis direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Information flows along edges (entry → exit).
    Forward,
    /// Information flows against edges (exit → entry).
    Backward,
}

/// Confluence operator at join points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meet {
    /// All-paths (must) problems; optimistic interior init is all-ones.
    Intersection,
    /// Any-path (may) problems; optimistic interior init is all-zeros.
    Union,
}

/// A block-level bit-vector data-flow problem. Node `n`'s transfer is
/// `f_n(X) = gen_n ∪ (X ∖ kill_n)`, read from row `n` of the borrowed
/// `gen` and `kill` matrices, so a problem over per-block predicates an
/// analysis already stores (delayability's `LOCDELAYED`/`LOCBLOCKED`)
/// costs no copy.
#[derive(Debug, Clone)]
pub struct BitProblem<'a> {
    /// Direction of flow.
    pub direction: Direction,
    /// Confluence operator.
    pub meet: Meet,
    /// Bit width of the vectors.
    pub width: usize,
    /// Per-node `gen` rows, indexed by node index.
    pub gen: &'a BitMatrix,
    /// Per-node `kill` rows, indexed by node index.
    pub kill: &'a BitMatrix,
    /// Boundary value: at the entry's entry (forward) or the exit's exit
    /// (backward).
    pub boundary: BitVec,
}

/// Solution of a [`BitProblem`].
///
/// Row `n` of `entry`/`exit` is the value at block `n`'s entry and exit
/// in *program* orientation, independent of analysis direction.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Value at each block's entry.
    pub entry: BitMatrix,
    /// Value at each block's exit.
    pub exit: BitMatrix,
    /// Number of node evaluations performed (for complexity experiments).
    pub evaluations: u64,
    /// `u64` word operations spent on bit-vector meets, transfers, and
    /// convergence compares — the paper's bit-vector cost unit.
    pub word_ops: u64,
}

impl Solution {
    /// Value at the entry of `n`.
    pub fn at_entry(&self, n: NodeId) -> Row<'_> {
        self.entry.row(n.index())
    }

    /// Value at the exit of `n`.
    pub fn at_exit(&self, n: NodeId) -> Row<'_> {
        self.exit.row(n.index())
    }
}

/// Solves `problem` over the graph `view` with the priority worklist:
/// [`solve_with`] under the distributive block transfer
/// `f_n(X) = gen_n ∪ (X ∖ kill_n)`, charged three words per row (read,
/// write, convergence compare).
///
/// # Panics
///
/// Panics if the transfer matrices do not have one row per node or
/// widths are inconsistent.
pub fn solve(view: &CfgView, problem: &BitProblem<'_>) -> Solution {
    let n = view.num_nodes();
    let BitProblem {
        direction,
        meet,
        width,
        gen,
        kill,
        ref boundary,
    } = *problem;
    assert_eq!(gen.rows(), n, "one gen row per node required");
    assert_eq!(kill.rows(), n, "one kill row per node required");
    assert_eq!(boundary.len(), width, "boundary width mismatch");
    assert_eq!(gen.width(), width, "transfer width mismatch");
    assert_eq!(kill.width(), width, "transfer width mismatch");
    let words = width.div_ceil(64) as u64;
    solve_with(
        view,
        direction,
        meet,
        boundary.as_row(),
        |node, input, output| {
            let i = node.index();
            (
                output.set_transfer(input, gen.row(i), kill.row(i)),
                words * 3,
            )
        },
    )
}

/// Solves a block-level problem whose transfer is the closure
/// `transfer(node, input, output)` with the priority worklist.
///
/// `transfer` overwrites `output` with `f_node(input)` and returns
/// whether any bit changed plus the word operations it spent. `f` must
/// be monotone; the worklist then reaches the extremal fixpoint from
/// the optimistic start (all-ones under ∩, all-zeros under ∪), with
/// `boundary` pinned at the entry's entry (forward) or the exit's exit
/// (backward). Gen/kill problems are the distributive instance
/// ([`solve`]); the faint analysis supplies a non-distributive one.
///
/// Every node in the iteration order is queued once up front; a node
/// whose output changes re-queues the flow-successors whose meet reads
/// it. Each pop is charged one pop against the active budget. Nodes
/// outside the order (unreachable) are never evaluated, so their rows
/// stay the meet identity. The meet and the transfer write straight
/// into the node's rows, so a solve allocates the same handful of
/// buffers whatever the node count.
pub fn solve_with(
    view: &CfgView,
    direction: Direction,
    meet: Meet,
    boundary: Row<'_>,
    mut transfer: impl FnMut(NodeId, Row<'_>, &mut RowMut<'_>) -> (bool, u64),
) -> Solution {
    let n = view.num_nodes();
    let width = boundary.len();
    pdce_trace::fault::fire("solve");
    let trace_span = pdce_trace::span_with(
        "solver",
        "bitvec-solve",
        if pdce_trace::enabled() {
            vec![
                (
                    "direction",
                    match direction {
                        Direction::Forward => "forward",
                        Direction::Backward => "backward",
                    }
                    .into(),
                ),
                (
                    "meet",
                    match meet {
                        Meet::Intersection => "intersection",
                        Meet::Union => "union",
                    }
                    .into(),
                ),
                ("width", width.into()),
                ("nodes", n.into()),
            ]
        } else {
            Vec::new()
        },
    );
    // Words per bit vector: the unit of the word-operation counter.
    let words = width.div_ceil(64) as u64;

    // Row `n` of `input` is the meet-side value (entry for forward, exit
    // for backward); row `n` of `output` is the transferred value.
    let interior_init = meet == Meet::Intersection;
    let mut input = BitMatrix::new(n, width, interior_init);
    let mut output = BitMatrix::new(n, width, interior_init);
    let boundary_node = match direction {
        Direction::Forward => view.entry(),
        Direction::Backward => view.exit(),
    };
    input.row_mut(boundary_node.index()).copy_from(boundary);

    // Iterate in an order that converges fast: RPO for forward problems,
    // postorder for backward ones — both precomputed slices of the view.
    let order: &[NodeId] = match direction {
        Direction::Forward => view.rpo(),
        Direction::Backward => view.postorder(),
    };
    // Position of each node in the iteration order; u32::MAX for nodes
    // outside it.
    let mut order_pos = vec![u32::MAX; n];
    for (i, &node) in order.iter().enumerate() {
        order_pos[node.index()] = i as u32;
    }

    let mut evaluations: u64 = 0;
    let mut word_ops: u64 = 0;
    // Min-heap over order positions, seeded with every node; `queued`
    // dedups so a position is in the heap at most once.
    let mut heap: BinaryHeap<Reverse<u32>> = (0..order.len() as u32).map(Reverse).collect();
    let mut queued = BitVec::ones(order.len());
    while let Some(Reverse(pos)) = heap.pop() {
        queued.set(pos as usize, false);
        let node = order[pos as usize];
        let i = node.index();
        evaluations += 1;
        pdce_trace::budget::charge_pops(1);
        if node != boundary_node {
            let sources: &[NodeId] = match direction {
                Direction::Forward => view.preds(node),
                Direction::Backward => view.succs(node),
            };
            if let Some((first, rest)) = sources.split_first() {
                // One copy, then sparse word-skipping meets that only
                // touch (and only count) non-identity words.
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
            // Re-queue flow-successors whose meet reads this node's
            // output.
            let dependents: &[NodeId] = match direction {
                Direction::Forward => view.succs(node),
                Direction::Backward => view.preds(node),
            };
            for &d in dependents {
                let dpos = order_pos[d.index()];
                if dpos != u32::MAX && !queued.get(dpos as usize) {
                    queued.set(dpos as usize, true);
                    heap.push(Reverse(dpos));
                }
            }
        }
    }

    pdce_trace::record_solver(pdce_trace::SolverStats {
        problems: 1,
        evaluations,
        revisits: evaluations.saturating_sub(order.len() as u64),
        word_ops,
        priority_pops: evaluations,
        ..pdce_trace::SolverStats::ZERO
    });
    trace_span.finish_with(if pdce_trace::enabled() {
        vec![
            ("evaluations", evaluations.into()),
            ("word_ops", word_ops.into()),
        ]
    } else {
        Vec::new()
    });

    let (entry, exit) = match direction {
        Direction::Forward => (input, output),
        Direction::Backward => (output, input),
    };
    Solution {
        entry,
        exit,
        evaluations,
        word_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;
    use pdce_ir::Program;

    /// Solves a trivial one-bit problem: bit 0 is generated in blocks
    /// whose name is in `gens`, killed in blocks in `kills`, and zero at
    /// the boundary.
    fn solve_for(
        prog: &Program,
        direction: Direction,
        meet: Meet,
        gens: &[&str],
        kills: &[&str],
    ) -> Solution {
        let width = 1;
        let mut gen = BitMatrix::zeros(prog.num_blocks(), width);
        let mut kill = BitMatrix::zeros(prog.num_blocks(), width);
        for n in prog.node_ids() {
            let name = prog.block(n).name.as_str();
            gen.row_mut(n.index()).set(0, gens.contains(&name));
            kill.row_mut(n.index()).set(0, kills.contains(&name));
        }
        let problem = BitProblem {
            direction,
            meet,
            width,
            gen: &gen,
            kill: &kill,
            boundary: BitVec::zeros(width),
        };
        solve(&CfgView::new(prog), &problem)
    }

    fn diamond() -> Program {
        parse(
            "prog {
               block s { nondet a b }
               block a { goto j }
               block b { goto j }
               block j { goto e }
               block e { halt }
             }",
        )
        .unwrap()
    }

    #[test]
    fn forward_union_reaches_any_path() {
        // "Generated in a": reaches j and e via union.
        let p = diamond();
        let sol = solve_for(&p, Direction::Forward, Meet::Union, &["a"], &[]);
        let j = p.block_by_name("j").unwrap();
        assert!(sol.at_entry(j).get(0));
        assert!(sol.at_exit(p.exit()).get(0));
        assert!(!sol.at_entry(p.block_by_name("b").unwrap()).get(0));
    }

    #[test]
    fn forward_intersection_requires_all_paths() {
        let p = diamond();
        // Generated only on one arm: does not survive the join under ∩.
        let sol = solve_for(&p, Direction::Forward, Meet::Intersection, &["a"], &[]);
        let j = p.block_by_name("j").unwrap();
        assert!(!sol.at_entry(j).get(0));
        // Generated on both arms: survives.
        let sol = solve_for(&p, Direction::Forward, Meet::Intersection, &["a", "b"], &[]);
        assert!(sol.at_entry(j).get(0));
    }

    #[test]
    fn backward_intersection_loop_greatest_fixpoint() {
        // Loop: h <-> body; "generated" at x (after the loop). Under the
        // greatest fixpoint the property holds throughout the loop: on
        // every path to the exit we pass x.
        let p = parse(
            "prog {
               block s { goto h }
               block h { nondet body x }
               block body { goto h }
               block x { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let sol = solve_for(&p, Direction::Backward, Meet::Intersection, &["x"], &[]);
        let h = p.block_by_name("h").unwrap();
        let body = p.block_by_name("body").unwrap();
        assert!(sol.at_entry(h).get(0));
        assert!(sol.at_entry(body).get(0));
    }

    #[test]
    fn kill_stops_propagation() {
        let p = parse(
            "prog {
               block s { goto a }
               block a { goto k }
               block k { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let sol = solve_for(&p, Direction::Forward, Meet::Union, &["a"], &["k"]);
        let k = p.block_by_name("k").unwrap();
        assert!(sol.at_entry(k).get(0));
        assert!(!sol.at_exit(k).get(0));
        assert!(!sol.at_entry(p.exit()).get(0));
    }

    /// A chain `s → a → b → e` solved backward under ∩ with a
    /// cross-bit rule no gen/kill pair expresses: bit 0 survives a block
    /// only while bit 1 holds, and block `b` clears bit 1.
    fn chain_with_cross_bit_rule() -> (Program, Solution) {
        let p = parse(
            "prog {
               block s { goto a }
               block a { goto b }
               block b { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let b = p.block_by_name("b").unwrap();
        let sol = solve_with(
            &CfgView::new(&p),
            Direction::Backward,
            Meet::Intersection,
            BitVec::ones(2).as_row(),
            |node, input, output| {
                let mut next = input.to_bitvec();
                if node == b {
                    next.set(1, false);
                }
                if !next.get(1) {
                    next.set(0, false);
                }
                (output.intersect_with_changed(next.as_row()), 1)
            },
        );
        (p, sol)
    }

    #[test]
    fn closure_transfer_propagates_along_a_chain() {
        let (p, sol) = chain_with_cross_bit_rule();
        let at = |name: &str| p.block_by_name(name).unwrap();
        assert!(sol.at_exit(at("b")).get(0) && sol.at_exit(at("b")).get(1));
        // Falsity enters at `b` and spreads through both bits upstream.
        for name in ["s", "a", "b"] {
            assert!(sol.at_entry(at(name)).none(), "{name}");
        }
        assert_eq!(sol.evaluations, 4, "one pop per block, no revisit");
    }

    /// Greatest fixpoint: the loop `h → h` supports its own bit, which
    /// stays true although only `x` sets it and the exit's is false — a
    /// least solution would have it false — as the faint analysis needs
    /// for self-supporting cycles.
    #[test]
    fn closure_transfer_keeps_a_self_supporting_loop() {
        let p = parse(
            "prog {
               block s { goto h }
               block h { nondet h x }
               block x { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let (h, x) = (p.block_by_name("h").unwrap(), p.block_by_name("x").unwrap());
        let sol = solve_with(
            &CfgView::new(&p),
            Direction::Backward,
            Meet::Intersection,
            BitVec::zeros(1).as_row(),
            |node, input, output| {
                let mut next = input.to_bitvec();
                next.set(0, next.get(0) || node == x);
                (output.intersect_with_changed(next.as_row()), 1)
            },
        );
        assert!(sol.at_entry(h).get(0) && sol.at_exit(h).get(0));
        assert!(!sol.at_exit(x).get(0), "the exit path is false");
    }

    #[test]
    fn evaluation_count_is_bounded() {
        // A monotone row can drop each bit at most once per node, so a
        // node is re-evaluated at most once per bit and per
        // flow-predecessor on top of its first visit.
        let (p, sol) = chain_with_cross_bit_rule();
        let view = CfgView::new(&p);
        let bound: usize = view
            .postorder()
            .iter()
            .map(|&n| 1 + 2 * view.succs(n).len())
            .sum();
        assert!(sol.evaluations as usize <= bound, "{}", sol.evaluations);
    }

    #[test]
    fn worklist_pops_are_charged_against_the_budget() {
        use pdce_trace::budget::{install, Budget};
        use pdce_trace::sandbox::{catch, SandboxError};
        let solve = |max_pops: u64| {
            let _budget = install(Budget {
                max_pops: Some(max_pops),
                ..Budget::UNLIMITED
            });
            catch(chain_with_cross_bit_rule)
        };
        // One pop per block of the four-block chain: exactly 4 fits.
        let (_, sol) = solve(4).expect("4 pops fit");
        assert_eq!(sol.evaluations, 4);
        match solve(3) {
            Err(SandboxError::Budget(b)) => assert_eq!(b.resource, "pops"),
            other => panic!("the worklist must exhaust the pop budget: {other:?}"),
        }
    }

    #[test]
    fn worklist_observes_cancellation() {
        use pdce_trace::budget::{install_cancel, CancelToken};
        use pdce_trace::sandbox::{catch, SandboxError};
        let p = diamond();
        let token = CancelToken::new();
        let _guard = install_cancel(token.clone());
        let evaluations = std::cell::Cell::new(0);
        let outcome = catch(|| {
            solve_with(
                &CfgView::new(&p),
                Direction::Backward,
                Meet::Intersection,
                BitVec::ones(1).as_row(),
                |_, input, output| {
                    evaluations.set(evaluations.get() + 1);
                    // Raised inside the first transfer, after its pop
                    // was charged: only the next pop's checkpoint sees it.
                    token.cancel();
                    (output.intersect_with_changed(input), 1)
                },
            )
        });
        match outcome {
            Err(SandboxError::Budget(b)) => assert_eq!(b.resource, "cancelled"),
            other => panic!("the worklist must observe the cancel: {other:?}"),
        }
        assert_eq!(evaluations.get(), 1, "aborted at the second pop");
    }

    #[test]
    fn boundary_overrides_interior_init() {
        let p = diamond();
        // Intersection problem with zero boundary: without boundary
        // handling the all-ones init would claim the property at entry.
        let sol = solve_for(&p, Direction::Forward, Meet::Intersection, &[], &[]);
        assert!(!sol.at_entry(p.entry()).get(0));
        assert!(!sol.at_exit(p.exit()).get(0));
    }
}
