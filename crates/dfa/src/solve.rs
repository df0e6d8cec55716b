//! Worklist solver for block-level bit-vector problems.
//!
//! The solver computes the *greatest* or *least* fixpoint of a gen/kill
//! system over a control-flow graph, in either direction, with either
//! meet. The paper's analyses are all all-paths problems (meet = ∩,
//! greatest fixpoint): dead variables and delayability; the baselines add
//! may-problems (reaching definitions/copies, meet = ∪, least fixpoint).
//!
//! Two scheduling strategies are available (see [`SolverStrategy`]):
//! the original round-robin sweep (the FIFO reference implementation)
//! and a direction-aware priority worklist that only re-evaluates nodes
//! whose inputs may have changed, earliest-in-iteration-order first.
//! Both compute the identical fixpoint — monotone systems over finite
//! lattices have a unique Kleene fixpoint from the optimistic start —
//! which the differential oracle in `tests/` checks bit-for-bit.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use pdce_ir::{CfgView, NodeId};

use crate::bitvec::BitVec;
use crate::genkill::GenKill;

/// Scheduling strategy of the fixpoint solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverStrategy {
    /// Full sweeps over the iteration order until one sweep changes
    /// nothing. Every node evaluation counts as one pop of the implicit
    /// whole-order FIFO. Kept as the reference implementation the
    /// priority strategy is differentially tested against.
    Fifo,
    /// Priority worklist keyed by iteration-order index — reverse
    /// postorder for forward problems, postorder for backward ones — so
    /// information crosses the graph in as few re-evaluations as
    /// possible (cf. Krause's "lospre in linear time" scheduling
    /// argument). Uses sparse word-skipping meets.
    #[default]
    Priority,
    /// Sparse propagation over the def-use chain graph: each bit gets
    /// its own worklist task seeded from the nodes that force it, and
    /// the forced value is closed through identity-transfer nodes along
    /// flow edges. Work is O(affected edges) per bit rather than a
    /// dense sweep of every node's full row; the dense strategies
    /// remain the differential oracle (DESIGN.md §15).
    Sparse,
}

impl SolverStrategy {
    /// Parses a strategy name as used by `--solver` and the `SOLVER`
    /// environment variable.
    pub fn parse(s: &str) -> Option<SolverStrategy> {
        match s {
            "fifo" => Some(SolverStrategy::Fifo),
            "priority" => Some(SolverStrategy::Priority),
            "sparse" => Some(SolverStrategy::Sparse),
            _ => None,
        }
    }

    /// The canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            SolverStrategy::Fifo => "fifo",
            SolverStrategy::Priority => "priority",
            SolverStrategy::Sparse => "sparse",
        }
    }
}

thread_local! {
    /// Scoped override installed by [`with_strategy`].
    static STRATEGY: Cell<Option<SolverStrategy>> = const { Cell::new(None) };
}

/// Process-wide strategy from the `SOLVER` environment variable,
/// resolved once (unknown values fall back to the default).
static ENV_STRATEGY: OnceLock<Option<SolverStrategy>> = OnceLock::new();

fn env_strategy() -> Option<SolverStrategy> {
    *ENV_STRATEGY.get_or_init(|| {
        std::env::var("SOLVER")
            .ok()
            .and_then(|v| SolverStrategy::parse(&v))
    })
}

/// The strategy explicitly selected on this thread, if any: the
/// innermost [`with_strategy`] scope, else the `SOLVER` environment
/// variable (`fifo` / `priority` / `sparse`). `None` means no override
/// is in force, so each analysis runs its own default engine (the faint
/// network, for one, then solves with the sparse falsity closure).
pub fn strategy_override() -> Option<SolverStrategy> {
    STRATEGY.with(|s| s.get()).or_else(env_strategy)
}

/// The strategy the bit-vector solvers on this thread currently use:
/// [`strategy_override`], else [`SolverStrategy::Priority`].
pub fn current_strategy() -> SolverStrategy {
    strategy_override().unwrap_or_default()
}

/// Runs `f` with every solver on this thread using `strategy`,
/// restoring the previous selection afterwards (also on panic). This is
/// how the differential tests pit the strategies against each other
/// in-process.
pub fn with_strategy<R>(strategy: SolverStrategy, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SolverStrategy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            STRATEGY.with(|s| s.set(prev));
        }
    }
    let prev = STRATEGY.with(|s| s.replace(Some(strategy)));
    let _restore = Restore(prev);
    f()
}

thread_local! {
    /// Scoped override installed by [`with_incremental`].
    static INCREMENTAL: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Process-wide incremental toggle from the `INCREMENTAL` environment
/// variable, resolved once (unknown values fall back to the default).
static ENV_INCREMENTAL: OnceLock<Option<bool>> = OnceLock::new();

fn env_incremental() -> Option<bool> {
    *ENV_INCREMENTAL.get_or_init(|| {
        std::env::var("INCREMENTAL")
            .ok()
            .and_then(|v| match v.as_str() {
                "on" | "1" | "true" => Some(true),
                "off" | "0" | "false" => Some(false),
                _ => None,
            })
    })
}

/// Whether warm-start (seeded) re-solving is enabled on this thread:
/// the innermost [`with_incremental`] scope if any, else the
/// `INCREMENTAL` environment variable (`on` / `off`), else on.
///
/// When off, every analysis request falls back to a cold solve from the
/// lattice bound — the reference path the warm≡cold differential oracle
/// compares against, selectable via `--no-incremental` on the CLI.
pub fn incremental_enabled() -> bool {
    INCREMENTAL
        .with(|s| s.get())
        .or_else(env_incremental)
        .unwrap_or(true)
}

/// Runs `f` with incremental re-analysis forced on or off on this
/// thread, restoring the previous selection afterwards (also on panic).
/// This is how the differential tests pit warm-start against cold-start
/// in-process.
pub fn with_incremental<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            INCREMENTAL.with(|s| s.set(prev));
        }
    }
    let prev = INCREMENTAL.with(|s| s.replace(Some(enabled)));
    let _restore = Restore(prev);
    f()
}

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
    /// Full sweeps over the iteration order until the fixpoint was
    /// certified (the final no-change sweep included).
    pub sweeps: u64,
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

/// Solves `problem` over the graph `view` with a worklist algorithm.
///
/// # Panics
///
/// Panics if `problem.transfer.len()` does not match the node count or
/// widths are inconsistent.
pub fn solve(view: &CfgView, problem: &BitProblem) -> Solution {
    let n = view.num_nodes();
    assert_eq!(problem.transfer.len(), n, "one transfer per node required");
    assert_eq!(problem.boundary.len(), problem.width);
    for t in &problem.transfer {
        assert_eq!(t.width(), problem.width, "transfer width mismatch");
    }
    if current_strategy() == SolverStrategy::Sparse {
        return crate::sparse::solve_sparse(view, problem);
    }
    solve_fn(
        view,
        problem.direction,
        problem.meet,
        problem.width,
        &problem.boundary,
        |node, input, out| problem.transfer[node.index()].apply_into(input, out),
    )
}

/// Generalized solver taking the block transfer as a function.
///
/// [`solve`] uses pre-composed gen/kill block summaries; this entry
/// point lets a client apply per-instruction transfers on every
/// evaluation instead (the ablation benchmarked in `pdce-bench`), or
/// use transfers that are not of gen/kill shape at all. The transfer
/// writes its result into the provided scratch vector (fully
/// overwriting it) so the hot loop reuses one buffer across all
/// evaluations instead of allocating per call.
///
/// # Panics
///
/// Panics if `boundary.len() != width`.
pub fn solve_fn(
    view: &CfgView,
    direction: Direction,
    meet: Meet,
    width: usize,
    boundary: &BitVec,
    mut transfer: impl FnMut(NodeId, &BitVec, &mut BitVec),
) -> Solution {
    let n = view.num_nodes();
    assert_eq!(boundary.len(), width, "boundary width mismatch");
    pdce_trace::fault::fire("solve");
    // The sparse strategy needs gen/kill-shaped transfers and is
    // dispatched in [`solve`] before this generalized entry point; a
    // caller handing us an opaque closure under `sparse` (the
    // per-instruction ablation) runs the priority discipline instead
    // and records its pops as such.
    let strategy = match current_strategy() {
        SolverStrategy::Sparse => SolverStrategy::Priority,
        s => s,
    };
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
                ("strategy", strategy.name().into()),
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

    let mut evaluations: u64 = 0;
    let mut sweeps: u64 = 0;
    let mut word_ops: u64 = 0;
    // Scratch vectors reused across every evaluation: the meet
    // accumulator swaps into `input` (taking the old row as the next
    // round's buffer) and the transfer result swaps into `output`.
    let mut acc = interior_init.clone();
    let mut new_out = interior_init.clone();
    match strategy {
        SolverStrategy::Fifo => {
            // Initial sweep computes outputs; subsequent sweeps propagate.
            let mut changed = true;
            while changed {
                changed = false;
                sweeps += 1;
                for &node in order {
                    evaluations += 1;
                    pdce_trace::budget::charge_pops(1);
                    // Meet over flow-predecessors.
                    if node != boundary_node {
                        let sources: &[NodeId] = match direction {
                            Direction::Forward => view.preds(node),
                            Direction::Backward => view.succs(node),
                        };
                        if !sources.is_empty() {
                            // One copy plus one meet per further source.
                            word_ops += words * sources.len() as u64;
                            acc.copy_from(&output[sources[0].index()]);
                            for &src in &sources[1..] {
                                match meet {
                                    Meet::Intersection => acc.intersect_with(&output[src.index()]),
                                    Meet::Union => acc.union_with(&output[src.index()]),
                                }
                            }
                            std::mem::swap(&mut input[node.index()], &mut acc);
                        }
                    }
                    // Gen/kill transfer (&!kill then |gen) plus the
                    // convergence compare.
                    word_ops += words * 3;
                    transfer(node, &input[node.index()], &mut new_out);
                    if new_out != output[node.index()] {
                        std::mem::swap(&mut output[node.index()], &mut new_out);
                        changed = true;
                    }
                }
            }
        }
        SolverStrategy::Priority => {
            // Position of each node in the iteration order; u32::MAX for
            // nodes outside it (unreachable — never evaluated, exactly
            // like the sweep, so their outputs stay the meet identity).
            let mut order_pos = vec![u32::MAX; n];
            for (i, &node) in order.iter().enumerate() {
                order_pos[node.index()] = i as u32;
            }
            // Min-heap over order positions, seeded with every node;
            // `queued` dedups so a position is in the heap at most once.
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
                        // One copy, then sparse word-skipping meets that
                        // only touch (and only count) non-identity words.
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
                word_ops += words * 3;
                transfer(node, &input[node.index()], &mut new_out);
                if new_out != output[node.index()] {
                    std::mem::swap(&mut output[node.index()], &mut new_out);
                    // Re-queue flow-successors whose meet reads this
                    // node's output.
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
        }
        SolverStrategy::Sparse => unreachable!("sparse is mapped to the priority discipline above"),
    }

    // Every evaluation is one worklist pop: explicit for the priority
    // heap, one pop of the implicit whole-order FIFO for the sweep.
    pdce_trace::record_solver(pdce_trace::SolverStats {
        problems: 1,
        sweeps,
        evaluations,
        revisits: evaluations.saturating_sub(order.len() as u64),
        word_ops,
        fifo_pops: match strategy {
            SolverStrategy::Fifo => evaluations,
            _ => 0,
        },
        priority_pops: match strategy {
            SolverStrategy::Priority => evaluations,
            _ => 0,
        },
        cold_solves: 1,
        ..pdce_trace::SolverStats::ZERO
    });
    trace_span.finish_with(if pdce_trace::enabled() {
        vec![
            ("sweeps", sweeps.into()),
            ("evaluations", evaluations.into()),
            ("word_ops", word_ops.into()),
        ]
    } else {
        Vec::new()
    });

    match direction {
        Direction::Forward => Solution {
            entry: input,
            exit: output,
            evaluations,
            sweeps,
            word_ops,
        },
        Direction::Backward => Solution {
            entry: output,
            exit: input,
            evaluations,
            sweeps,
            word_ops,
        },
    }
}

/// The flow-closure of `dirty`: every node reachable from a dirty node
/// along the direction information propagates in (transitive successors
/// for forward problems, transitive predecessors for backward ones),
/// dirty nodes included. Returned as a dense membership mask.
///
/// This is a sound over-approximation of the region a seeded re-solve
/// may have to re-iterate: any node outside it has an input chain that
/// never crosses a dirty node, so its previous fixpoint value is still
/// exact. [`solve_seeded`] itself works on a much sharper, per-bit
/// region derived from the gen/kill delta — the closure remains the
/// outer node-level bound of what can change (useful for property
/// tests and impact estimates).
pub fn affected_closure(view: &CfgView, direction: Direction, dirty: &[NodeId]) -> BitVec {
    let n = view.num_nodes();
    let mut in_set = BitVec::zeros(n);
    let mut stack: Vec<NodeId> = Vec::with_capacity(dirty.len());
    for &d in dirty {
        if !in_set.get(d.index()) {
            in_set.set(d.index(), true);
            stack.push(d);
        }
    }
    while let Some(node) = stack.pop() {
        let next: &[NodeId] = match direction {
            Direction::Forward => view.succs(node),
            Direction::Backward => view.preds(node),
        };
        for &m in next {
            if !in_set.get(m.index()) {
                in_set.set(m.index(), true);
                stack.push(m);
            }
        }
    }
    in_set
}

/// Warm-start solve of `problem`, seeded from a previous fixpoint.
///
/// `prev` must be the solution of `prev_problem` over the same CFG; the
/// result is then bit-identical to a cold [`solve`] of `problem`.
/// `dirty` names the blocks whose statements changed since (it scopes
/// the trace span); correctness does not depend on it, because the
/// solver diffs `prev_problem` against `problem` node by node and works
/// off the *semantic* delta. Structural (CFG) changes are not seedable;
/// callers detect them via `Program::changes_since` and fall back to a
/// cold solve, and the solver itself falls back when the two problems
/// disagree on direction, meet, width, node count, or boundary.
///
/// The re-solve exploits that a gen/kill transfer acts on each bit
/// independently, as one of three functions forming a chain:
/// `const-0 < identity < const-1`. Diffing old against new gen/kill
/// therefore splits every changed bit into a move *toward* the lattice
/// bound the iteration descends from (up for intersection problems,
/// down for union ones) or *away* from it.
///
/// * Moves **away** from the bound only lower the extremal fixpoint, so
///   re-evaluating the changed nodes and chasing actual value changes
///   (plain damped worklist repair) is exact.
/// * Moves **toward** the bound can raise it, and a raise can need
///   mutual support around a cycle — stale values on the back edge
///   would lock the iteration into a non-extremal fixpoint. Those bits
///   are first *elevated*: set to the bound on the rising node and on
///   every node reachable from it through bits the transfers pass
///   unchanged (gen/kill bits stop the propagation, which is what keeps
///   the region small — it is the per-bit refinement of
///   [`affected_closure`]). Elevation restores the invariant that the
///   iteration starts on the extremal side of the new fixpoint, and
///   descending chaotic iteration from there converges to it exactly.
///
/// Nodes with no semantic delta and no elevated bits are never touched:
/// a warm re-solve of an unchanged problem costs zero evaluations, and
/// a damped change re-iterates only its actual impact region instead of
/// the whole flow closure.
///
/// Seeded runs always use priority-heap scheduling regardless of
/// [`current_strategy`] (the fixpoint is scheduling-independent), and
/// record their pops as `seeded_pops`.
///
/// # Panics
///
/// Panics like [`solve`] on transfer/boundary shape mismatches of
/// `problem` itself.
pub fn solve_seeded(
    view: &CfgView,
    problem: &BitProblem,
    prev_problem: &BitProblem,
    prev: &Solution,
    dirty: &[NodeId],
) -> Solution {
    let n = view.num_nodes();
    assert_eq!(problem.transfer.len(), n, "one transfer per node required");
    assert_eq!(problem.boundary.len(), problem.width);
    for t in &problem.transfer {
        assert_eq!(t.width(), problem.width, "transfer width mismatch");
    }
    // A previous solution is only a usable seed when the problem kept
    // its shape; otherwise re-solve from scratch.
    if prev_problem.direction != problem.direction
        || prev_problem.meet != problem.meet
        || prev_problem.width != problem.width
        || prev_problem.transfer.len() != n
        || prev_problem.boundary != problem.boundary
        || prev.entry.len() != n
        || prev.exit.len() != n
    {
        return solve(view, problem);
    }
    let direction = problem.direction;
    let meet = problem.meet;
    let width = problem.width;
    pdce_trace::fault::fire("solve");
    let trace_span = pdce_trace::span_with(
        "solver",
        "bitvec-solve-seeded",
        if pdce_trace::enabled() {
            vec![
                ("width", width.into()),
                ("nodes", n.into()),
                ("dirty", dirty.len().into()),
            ]
        } else {
            Vec::new()
        },
    );
    let words = width.div_ceil(64) as u64;

    // Previous fixpoint mapped to solver orientation: `input` is the
    // meet-side value (entry for forward, exit for backward), `output`
    // the transferred one.
    let (mut input, mut output): (Vec<BitVec>, Vec<BitVec>) = match direction {
        Direction::Forward => (prev.entry.to_vec(), prev.exit.to_vec()),
        Direction::Backward => (prev.exit.to_vec(), prev.entry.to_vec()),
    };
    let boundary_node = match direction {
        Direction::Forward => view.entry(),
        Direction::Backward => view.exit(),
    };
    let order: &[NodeId] = match direction {
        Direction::Forward => view.rpo(),
        Direction::Backward => view.postorder(),
    };
    let mut order_pos = vec![u32::MAX; n];
    for (i, &node) in order.iter().enumerate() {
        order_pos[node.index()] = i as u32;
    }
    // Information flows from a node to its flow-successors; a node's
    // meet reads its flow-predecessors.
    let flow_succs = |node: NodeId| -> &[NodeId] {
        match direction {
            Direction::Forward => view.succs(node),
            Direction::Backward => view.preds(node),
        }
    };

    let mut word_ops: u64 = 0;

    // Per-node semantic delta. On each bit, rank the transfer on the
    // const-0 < identity < const-1 chain and compare old vs new; `gen`
    // wins over `kill` in [`GenKill::apply`], so const-1 is `gen` and
    // const-0 is `kill ∖ gen`.
    let toward_bound = |old: &GenKill, new: &GenKill| -> BitVec {
        // Bits where the new transfer is strictly above the old one:
        // (new const-1 ∧ ¬old const-1) ∪ (new identity ∧ old const-0).
        let mut up = new.gen.clone();
        up.difference_with(&old.gen);
        let mut id_over_zero = old.kill.clone();
        id_over_zero.difference_with(&old.gen);
        id_over_zero.difference_with(&new.gen);
        id_over_zero.difference_with(&new.kill);
        up.union_with(&id_over_zero);
        up
    };
    let mut delta: Vec<BitVec> = Vec::with_capacity(n);
    let mut elevate_seed: Vec<BitVec> = Vec::with_capacity(n);
    for i in 0..n {
        let old = &prev_problem.transfer[i];
        let new = &problem.transfer[i];
        word_ops += words * 4;
        let up = toward_bound(old, new);
        let down = toward_bound(new, old);
        // A move toward the bound can raise the extremal fixpoint and
        // needs elevation; intersection problems descend from ones,
        // union problems ascend from zeros.
        let seed = match meet {
            Meet::Intersection => up.clone(),
            Meet::Union => down.clone(),
        };
        let mut d = up;
        d.union_with(&down);
        delta.push(d);
        elevate_seed.push(seed);
    }

    // Per-bit closure of the rising bits along flow edges. A risen
    // output bit can raise a successor's output only where the
    // successor's transfer is the identity on that bit, so gen/kill
    // bits stop the propagation.
    let mut elevated: Vec<BitVec> = vec![BitVec::zeros(width); n];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..n {
        if order_pos[i] != u32::MAX && elevate_seed[i].any() {
            elevated[i] = std::mem::replace(&mut elevate_seed[i], BitVec::zeros(0));
            stack.push(i);
        }
    }
    while let Some(v) = stack.pop() {
        for &m in flow_succs(NodeId::from_index(v)) {
            let mi = m.index();
            if order_pos[mi] == u32::MAX {
                continue; // unreachable, never evaluated
            }
            if m == boundary_node {
                continue; // input pinned to the boundary, cannot rise
            }
            let mut add = elevated[v].clone();
            add.difference_with(&problem.transfer[mi].gen);
            add.difference_with(&problem.transfer[mi].kill);
            add.difference_with(&elevated[mi]);
            word_ops += words * 3;
            if add.any() {
                elevated[mi].union_with(&add);
                stack.push(mi);
            }
        }
    }

    // Apply the elevation and enqueue every node whose equation may be
    // violated at the seed: nodes with a semantic delta, nodes whose
    // output the elevation actually moved, and the flow-successors of
    // the latter (their meet input changed).
    let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    let mut queued = BitVec::zeros(order.len());
    let enqueue = |i: usize, heap: &mut BinaryHeap<Reverse<u32>>, queued: &mut BitVec| {
        let pos = order_pos[i];
        if pos != u32::MAX && !queued.get(pos as usize) {
            queued.set(pos as usize, true);
            heap.push(Reverse(pos));
        }
    };
    for i in 0..n {
        if order_pos[i] == u32::MAX {
            continue;
        }
        if elevated[i].any() {
            word_ops += words * 2;
            let moved = match meet {
                Meet::Intersection => {
                    let moved = !elevated[i].is_subset_of(&output[i]);
                    output[i].union_with(&elevated[i]);
                    moved
                }
                Meet::Union => {
                    let mut hit = elevated[i].clone();
                    hit.intersect_with(&output[i]);
                    let moved = hit.any();
                    output[i].difference_with(&elevated[i]);
                    moved
                }
            };
            if moved {
                enqueue(i, &mut heap, &mut queued);
                for &m in flow_succs(NodeId::from_index(i)) {
                    enqueue(m.index(), &mut heap, &mut queued);
                }
            }
        }
        if delta[i].any() {
            enqueue(i, &mut heap, &mut queued);
        }
    }
    let seeded: u64 = heap.len() as u64;

    // Damped repair: descending (toward-fixpoint) chaotic iteration
    // from the elevated seed, chasing actual value changes only. The
    // meet accumulator and transfer result are scratch vectors reused
    // (via swap) across all pops.
    let mut evaluations: u64 = 0;
    let mut acc = BitVec::zeros(width);
    let mut new_out = BitVec::zeros(width);
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
        word_ops += words * 3;
        problem.transfer[node.index()].apply_into(&input[node.index()], &mut new_out);
        if new_out != output[node.index()] {
            std::mem::swap(&mut output[node.index()], &mut new_out);
            for &d in flow_succs(node) {
                enqueue(d.index(), &mut heap, &mut queued);
            }
        }
    }

    pdce_trace::record_solver(pdce_trace::SolverStats {
        problems: 1,
        evaluations,
        revisits: evaluations.saturating_sub(seeded),
        word_ops,
        warm_solves: 1,
        seeded_pops: evaluations,
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

    match direction {
        Direction::Forward => Solution {
            entry: input,
            exit: output,
            evaluations,
            sweeps: 0,
            word_ops,
        },
        Direction::Backward => Solution {
            entry: output,
            exit: input,
            evaluations,
            sweeps: 0,
            word_ops,
        },
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

    #[test]
    fn strategy_parse_and_names_roundtrip() {
        for s in [
            SolverStrategy::Fifo,
            SolverStrategy::Priority,
            SolverStrategy::Sparse,
        ] {
            assert_eq!(SolverStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(SolverStrategy::parse("zap"), None);
    }

    #[test]
    fn with_strategy_scopes_nest_and_restore() {
        let outer = current_strategy();
        let outer_override = strategy_override();
        assert_eq!(outer, outer_override.unwrap_or_default());
        with_strategy(SolverStrategy::Fifo, || {
            assert_eq!(current_strategy(), SolverStrategy::Fifo);
            assert_eq!(strategy_override(), Some(SolverStrategy::Fifo));
            with_strategy(SolverStrategy::Priority, || {
                assert_eq!(current_strategy(), SolverStrategy::Priority);
            });
            assert_eq!(current_strategy(), SolverStrategy::Fifo);
        });
        assert_eq!(current_strategy(), outer);
        assert_eq!(strategy_override(), outer_override);
    }

    #[test]
    fn strategies_reach_identical_fixpoints() {
        // Loopy graph exercising both directions and both meets: the
        // priority worklist must land on the same bit patterns as the
        // reference sweep, node for node.
        let p = parse(
            "prog {
               block s { goto h }
               block h { nondet b1 b2 }
               block b1 { goto h2 }
               block b2 { goto h2 }
               block h2 { nondet h x }
               block x { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        for direction in [Direction::Forward, Direction::Backward] {
            for meet in [Meet::Intersection, Meet::Union] {
                let prob = problem_for(&p, direction, meet, &["b1", "x"], &["b2"]);
                let fifo = with_strategy(SolverStrategy::Fifo, || solve(&view, &prob));
                let prio = with_strategy(SolverStrategy::Priority, || solve(&view, &prob));
                let sparse = with_strategy(SolverStrategy::Sparse, || solve(&view, &prob));
                assert_eq!(fifo.entry, prio.entry, "{direction:?}/{meet:?} entry");
                assert_eq!(fifo.exit, prio.exit, "{direction:?}/{meet:?} exit");
                assert_eq!(
                    fifo.entry, sparse.entry,
                    "{direction:?}/{meet:?} sparse entry"
                );
                assert_eq!(fifo.exit, sparse.exit, "{direction:?}/{meet:?} sparse exit");
                assert!(
                    prio.evaluations <= fifo.evaluations,
                    "priority must not evaluate more than the sweep"
                );
            }
        }
    }

    #[test]
    fn with_incremental_scopes_nest_and_restore() {
        let outer = incremental_enabled();
        with_incremental(false, || {
            assert!(!incremental_enabled());
            with_incremental(true, || assert!(incremental_enabled()));
            assert!(!incremental_enabled());
        });
        assert_eq!(incremental_enabled(), outer);
    }

    #[test]
    fn affected_closure_follows_flow_direction() {
        // s -> h -> x -> e with a back edge x -> h.
        let p = parse(
            "prog {
               block s { goto h }
               block h { goto x }
               block x { nondet h e }
               block e { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        let h = p.block_by_name("h").unwrap();
        let fwd = affected_closure(&view, Direction::Forward, &[h]);
        // Forward: h reaches x, e, and itself (via the back edge); not s.
        assert!(!fwd.get(p.block_by_name("s").unwrap().index()));
        assert!(fwd.get(h.index()));
        assert!(fwd.get(p.block_by_name("x").unwrap().index()));
        assert!(fwd.get(p.block_by_name("e").unwrap().index()));
        let bwd = affected_closure(&view, Direction::Backward, &[h]);
        // Backward: h's transitive predecessors are s, x, and h itself.
        assert!(bwd.get(p.block_by_name("s").unwrap().index()));
        assert!(bwd.get(h.index()));
        assert!(bwd.get(p.block_by_name("x").unwrap().index()));
        assert!(!bwd.get(p.block_by_name("e").unwrap().index()));
    }

    #[test]
    fn seeded_solve_matches_cold_solve_after_transfer_change() {
        // Loopy graph; change one node's transfer and re-solve seeded
        // with exactly that node dirty. Exercises all four
        // direction/meet combinations, including the loop case where
        // naive stale-value seeding would converge to a wrong fixpoint.
        let p = parse(
            "prog {
               block s { goto h }
               block h { nondet b1 b2 }
               block b1 { goto h2 }
               block b2 { goto h2 }
               block h2 { nondet h x }
               block x { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        let changed = p.block_by_name("b2").unwrap();
        for direction in [Direction::Forward, Direction::Backward] {
            for meet in [Meet::Intersection, Meet::Union] {
                let before = problem_for(&p, direction, meet, &["b1", "x"], &["b2"]);
                let prev = solve(&view, &before);
                // Flip b2 from killing to generating bit 0.
                let mut after = problem_for(&p, direction, meet, &["b1", "b2", "x"], &[]);
                after.boundary = before.boundary.clone();
                let cold = solve(&view, &after);
                let warm = solve_seeded(&view, &after, &before, &prev, &[changed]);
                assert_eq!(cold.entry, warm.entry, "{direction:?}/{meet:?} entry");
                assert_eq!(cold.exit, warm.exit, "{direction:?}/{meet:?} exit");
            }
        }
    }

    #[test]
    fn seeded_solve_with_empty_dirty_set_is_free() {
        let p = diamond();
        let view = CfgView::new(&p);
        let prob = problem_for(&p, Direction::Forward, Meet::Union, &["a"], &[]);
        let prev = solve(&view, &prob);
        let before = pdce_trace::solver_totals();
        let warm = solve_seeded(&view, &prob, &prob, &prev, &[]);
        let delta = pdce_trace::solver_totals().since(&before);
        assert_eq!(warm.entry, prev.entry);
        assert_eq!(warm.exit, prev.exit);
        assert_eq!(warm.evaluations, 0);
        assert_eq!(delta.warm_solves, 1);
        assert_eq!(delta.seeded_pops, 0);
    }

    #[test]
    fn seeded_pops_are_tagged_in_solver_stats() {
        let p = diamond();
        let view = CfgView::new(&p);
        let old = problem_for(&p, Direction::Forward, Meet::Union, &[], &["a"]);
        let prev = solve(&view, &old);
        let mut new = problem_for(&p, Direction::Forward, Meet::Union, &["a"], &[]);
        new.boundary = old.boundary.clone();
        let dirty = [p.block_by_name("a").unwrap()];
        let before = pdce_trace::solver_totals();
        solve_seeded(&view, &new, &old, &prev, &dirty);
        let delta = pdce_trace::solver_totals().since(&before);
        assert_eq!(delta.warm_solves, 1);
        assert_eq!(delta.cold_solves, 0);
        assert!(delta.seeded_pops > 0);
        assert_eq!(delta.fifo_pops, 0);
        assert_eq!(delta.priority_pops, 0);
    }

    #[test]
    fn strategy_pops_are_tagged_in_solver_stats() {
        let p = diamond();
        let view = CfgView::new(&p);
        let prob = problem_for(&p, Direction::Forward, Meet::Union, &["a"], &[]);
        let before = pdce_trace::solver_totals();
        with_strategy(SolverStrategy::Fifo, || solve(&view, &prob));
        let after_fifo = pdce_trace::solver_totals().since(&before);
        assert!(after_fifo.fifo_pops > 0);
        assert_eq!(after_fifo.priority_pops, 0);
        with_strategy(SolverStrategy::Priority, || solve(&view, &prob));
        let after_both = pdce_trace::solver_totals().since(&before);
        assert!(after_both.priority_pops > 0);
        assert_eq!(after_both.fifo_pops, after_fifo.fifo_pops);
        with_strategy(SolverStrategy::Sparse, || solve(&view, &prob));
        let after_sparse = pdce_trace::solver_totals().since(&before);
        assert_eq!(after_sparse.sparse_pops, prob.width as u64);
        assert!(after_sparse.sparse_edge_visits > 0);
        assert_eq!(after_sparse.priority_pops, after_both.priority_pops);
    }
}
