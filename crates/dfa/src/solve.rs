//! Worklist solver for block-level bit-vector problems.
//!
//! The solver computes the *greatest* or *least* fixpoint of a gen/kill
//! system over a control-flow graph, in either direction, with either
//! meet. The paper's analyses are all all-paths problems (meet = ∩,
//! greatest fixpoint): dead variables and delayability; the baselines add
//! may-problems (reaching definitions/copies, meet = ∪, least fixpoint).
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
use crate::genkill::GenKill;

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

/// A block-level bit-vector data-flow problem.
#[derive(Debug, Clone)]
pub struct BitProblem {
    /// Direction of flow.
    pub direction: Direction,
    /// Confluence operator.
    pub meet: Meet,
    /// Bit width of the vectors.
    pub width: usize,
    /// Per-node transfer functions, indexed by node index.
    pub transfer: Vec<GenKill>,
    /// Boundary value: at the entry's entry (forward) or the exit's exit
    /// (backward).
    pub boundary: BitVec,
}

/// Solution of a [`BitProblem`].
///
/// `entry[n]`/`exit[n]` are the values at block entry and exit in
/// *program* orientation, independent of analysis direction.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Value at each block's entry.
    pub entry: Vec<BitVec>,
    /// Value at each block's exit.
    pub exit: Vec<BitVec>,
    /// Number of node evaluations performed (for complexity experiments).
    pub evaluations: u64,
    /// `u64` word operations spent on bit-vector meets, transfers, and
    /// convergence compares — the paper's bit-vector cost unit.
    pub word_ops: u64,
}

impl Solution {
    /// Value at the entry of `n`.
    pub fn at_entry(&self, n: NodeId) -> &BitVec {
        &self.entry[n.index()]
    }

    /// Value at the exit of `n`.
    pub fn at_exit(&self, n: NodeId) -> &BitVec {
        &self.exit[n.index()]
    }
}

/// Solves `problem` over the graph `view` with the priority worklist.
///
/// Every node in the iteration order is queued once up front; a node
/// whose output changes re-queues the flow-successors whose meet reads
/// it. Nodes outside the order (unreachable) are never evaluated, so
/// their outputs stay the meet identity.
///
/// # Panics
///
/// Panics if `problem.transfer.len()` does not match the node count or
/// widths are inconsistent.
pub fn solve(view: &CfgView, problem: &BitProblem) -> Solution {
    let n = view.num_nodes();
    let BitProblem {
        direction,
        meet,
        width,
        ref transfer,
        ref boundary,
    } = *problem;
    assert_eq!(transfer.len(), n, "one transfer per node required");
    assert_eq!(boundary.len(), width, "boundary width mismatch");
    for t in transfer {
        assert_eq!(t.width(), width, "transfer width mismatch");
    }
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

    let interior_init = match meet {
        Meet::Intersection => BitVec::ones(width),
        Meet::Union => BitVec::zeros(width),
    };

    // `input[n]` is the meet-side value (entry for forward, exit for
    // backward); `output[n]` is the transferred value.
    let mut input = vec![interior_init.clone(); n];
    let mut output = vec![interior_init.clone(); n];
    let boundary_node = match direction {
        Direction::Forward => view.entry(),
        Direction::Backward => view.exit(),
    };
    input[boundary_node.index()] = boundary.clone();

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
    // Scratch vectors reused across every evaluation: the meet
    // accumulator swaps into `input` (taking the old row as the next
    // round's buffer) and the transfer result swaps into `output`.
    let mut acc = interior_init.clone();
    let mut new_out = interior_init;
    // Min-heap over order positions, seeded with every node; `queued`
    // dedups so a position is in the heap at most once.
    let mut heap: BinaryHeap<Reverse<u32>> = (0..order.len() as u32).map(Reverse).collect();
    let mut queued = BitVec::ones(order.len());
    while let Some(Reverse(pos)) = heap.pop() {
        queued.set(pos as usize, false);
        let node = order[pos as usize];
        evaluations += 1;
        pdce_trace::budget::charge_pops(1);
        if node != boundary_node {
            let sources: &[NodeId] = match direction {
                Direction::Forward => view.preds(node),
                Direction::Backward => view.succs(node),
            };
            if !sources.is_empty() {
                // One copy, then sparse word-skipping meets that only
                // touch (and only count) non-identity words.
                word_ops += words;
                acc.copy_from(&output[sources[0].index()]);
                for &src in &sources[1..] {
                    word_ops += match meet {
                        Meet::Intersection => acc.intersect_with_skip(&output[src.index()]),
                        Meet::Union => acc.union_with_skip(&output[src.index()]),
                    };
                }
                std::mem::swap(&mut input[node.index()], &mut acc);
            }
        }
        // Gen/kill transfer (&!kill then |gen) plus the convergence
        // compare.
        word_ops += words * 3;
        transfer[node.index()].apply_into(&input[node.index()], &mut new_out);
        if new_out != output[node.index()] {
            std::mem::swap(&mut output[node.index()], &mut new_out);
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

    /// Builds a trivial per-node transfer: bit 0 is generated in blocks
    /// whose name is in `gens`, killed in blocks in `kills`.
    fn problem_for(
        prog: &Program,
        direction: Direction,
        meet: Meet,
        gens: &[&str],
        kills: &[&str],
    ) -> BitProblem {
        let width = 1;
        let transfer = prog
            .node_ids()
            .map(|n| {
                let name = prog.block(n).name.as_str();
                let mut gen = BitVec::zeros(width);
                let mut kill = BitVec::zeros(width);
                if gens.contains(&name) {
                    gen.set(0, true);
                }
                if kills.contains(&name) {
                    kill.set(0, true);
                }
                GenKill::new(gen, kill)
            })
            .collect();
        let boundary = match meet {
            Meet::Intersection => BitVec::zeros(width),
            Meet::Union => BitVec::zeros(width),
        };
        BitProblem {
            direction,
            meet,
            width,
            transfer,
            boundary,
        }
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
        let view = CfgView::new(&p);
        let prob = problem_for(&p, Direction::Forward, Meet::Union, &["a"], &[]);
        let sol = solve(&view, &prob);
        let j = p.block_by_name("j").unwrap();
        assert!(sol.at_entry(j).get(0));
        assert!(sol.at_exit(p.exit()).get(0));
        assert!(!sol.at_entry(p.block_by_name("b").unwrap()).get(0));
    }

    #[test]
    fn forward_intersection_requires_all_paths() {
        let p = diamond();
        let view = CfgView::new(&p);
        // Generated only on one arm: does not survive the join under ∩.
        let prob = problem_for(&p, Direction::Forward, Meet::Intersection, &["a"], &[]);
        let sol = solve(&view, &prob);
        let j = p.block_by_name("j").unwrap();
        assert!(!sol.at_entry(j).get(0));
        // Generated on both arms: survives.
        let prob = problem_for(&p, Direction::Forward, Meet::Intersection, &["a", "b"], &[]);
        let sol = solve(&view, &prob);
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
        let view = CfgView::new(&p);
        let prob = problem_for(&p, Direction::Backward, Meet::Intersection, &["x"], &[]);
        let sol = solve(&view, &prob);
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
        let view = CfgView::new(&p);
        let prob = problem_for(&p, Direction::Forward, Meet::Union, &["a"], &["k"]);
        let sol = solve(&view, &prob);
        let k = p.block_by_name("k").unwrap();
        assert!(sol.at_entry(k).get(0));
        assert!(!sol.at_exit(k).get(0));
        assert!(!sol.at_entry(p.exit()).get(0));
    }

    #[test]
    fn boundary_overrides_interior_init() {
        let p = diamond();
        let view = CfgView::new(&p);
        // Intersection problem with zero boundary: without boundary
        // handling the all-ones init would claim the property at entry.
        let prob = problem_for(&p, Direction::Forward, Meet::Intersection, &[], &[]);
        let sol = solve(&view, &prob);
        assert!(!sol.at_entry(p.entry()).get(0));
        assert!(!sol.at_exit(p.exit()).get(0));
    }
}
