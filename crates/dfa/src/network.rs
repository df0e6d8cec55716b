//! Greatest-fixpoint solver for monotone boolean networks.
//!
//! The faint-variable analysis (Table 1 of the paper) is *not* a
//! bit-vector problem: the equation for a slot `(ι, x)` reads the slot
//! `(ι, lhs_ι)` of a *different variable*. The paper solves it with an
//! "iterative worklist algorithm operating slotwise on bit-vectors"
//! (citing Dhamdhere/Rosen/Zadeck). This module provides the general
//! machinery: a network of boolean slots, each with a *monotone*
//! (non-increasing in the greatest-fixpoint iteration) evaluation
//! function and an explicit dependency structure.
//!
//! Starting from all-true, a slot can only flip to false; each flip
//! enqueues its dependents. Total work is `O(#slots + #dependency edges)`
//! slot evaluations times evaluation cost — exactly the bound used in the
//! paper's Section 6.1.2 complexity argument.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::bitvec::BitVec;
use crate::csr::Csr;

/// Result of solving a boolean network.
#[derive(Debug, Clone)]
pub struct NetworkSolution {
    /// Final slot values (greatest fixpoint).
    pub values: BitVec,
    /// Number of slot evaluations performed.
    pub evaluations: u64,
}

/// Computes the greatest fixpoint of a monotone boolean network.
///
/// * `num_slots` — number of boolean unknowns.
/// * `dependents.neighbors(s)` — slots whose equations read slot `s`
///   (i.e. must be re-evaluated when `s` drops to false), stored as one
///   flat CSR edge array so every flip walks a contiguous slice.
/// * `eval(s, values)` — the right-hand side of slot `s`'s equation over
///   the current values. It must be monotone: flipping any input from
///   true to false may only flip the output from true to false.
///
/// # Panics
///
/// Panics if `dependents.num_nodes() != num_slots`.
pub fn solve_greatest(
    num_slots: usize,
    dependents: &Csr,
    mut eval: impl FnMut(usize, &BitVec) -> bool,
) -> NetworkSolution {
    assert_eq!(
        dependents.num_nodes(),
        num_slots,
        "one dependent slab per slot"
    );
    pdce_trace::fault::fire("solve");
    let trace_span = pdce_trace::span_with(
        "solver",
        "network-solve",
        if pdce_trace::enabled() {
            vec![("slots", num_slots.into())]
        } else {
            Vec::new()
        },
    );
    let mut values = BitVec::ones(num_slots);
    let mut queue: VecDeque<u32> = (0..num_slots as u32).collect();
    let mut queued = BitVec::ones(num_slots);
    let mut evaluations: u64 = 0;
    let mut pops: u64 = 0;

    while let Some(slot) = queue.pop_front() {
        pops += 1;
        pdce_trace::budget::charge_pops(1);
        let s = slot as usize;
        queued.set(s, false);
        if !values.get(s) {
            continue; // already false; false is final.
        }
        evaluations += 1;
        if !eval(s, &values) {
            values.set(s, false);
            for &d in dependents.neighbors(s) {
                let d = d as usize;
                if values.get(d) && !queued.get(d) {
                    queued.set(d, true);
                    queue.push_back(d as u32);
                }
            }
        }
    }
    pdce_trace::record_solver(pdce_trace::SolverStats {
        problems: 1,
        sweeps: 0, // worklist-driven, no sweep structure
        evaluations,
        revisits: pops.saturating_sub(num_slots as u64),
        word_ops: 0,
        fifo_pops: pops,
        priority_pops: 0,
        cold_solves: 1,
        warm_solves: 0,
        seeded_pops: 0,
        sparse_pops: 0,
        sparse_edge_visits: 0,
    });
    trace_span.finish_with(if pdce_trace::enabled() {
        vec![("pops", pops.into()), ("evaluations", evaluations.into())]
    } else {
        Vec::new()
    });
    NetworkSolution {
        values,
        evaluations,
    }
}

/// [`solve_greatest`] with a priority-ordered worklist: ready slots are
/// evaluated smallest `priority[slot]` first instead of FIFO. With
/// priorities following the flow of falsity (e.g. instruction-graph
/// postorder for the backward-flavoured faint analysis), flips reach
/// their dependents before those are first evaluated, cutting
/// re-evaluations. The greatest fixpoint is order-independent, so the
/// result is bit-identical to [`solve_greatest`]'s — the differential
/// property tests check exactly that.
///
/// # Panics
///
/// Panics if `dependents.num_nodes()` or `priority.len()` differ from
/// `num_slots`.
pub fn solve_greatest_prioritized(
    num_slots: usize,
    dependents: &Csr,
    priority: &[u32],
    mut eval: impl FnMut(usize, &BitVec) -> bool,
) -> NetworkSolution {
    assert_eq!(
        dependents.num_nodes(),
        num_slots,
        "one dependent slab per slot"
    );
    assert_eq!(priority.len(), num_slots, "one priority per slot");
    pdce_trace::fault::fire("solve");
    let trace_span = pdce_trace::span_with(
        "solver",
        "network-solve-prioritized",
        if pdce_trace::enabled() {
            vec![("slots", num_slots.into())]
        } else {
            Vec::new()
        },
    );
    let mut values = BitVec::ones(num_slots);
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = (0..num_slots as u32)
        .map(|s| Reverse((priority[s as usize], s)))
        .collect();
    let mut queued = BitVec::ones(num_slots);
    let mut evaluations: u64 = 0;
    let mut pops: u64 = 0;

    while let Some(Reverse((_, slot))) = heap.pop() {
        pops += 1;
        pdce_trace::budget::charge_pops(1);
        let s = slot as usize;
        queued.set(s, false);
        if !values.get(s) {
            continue; // already false; false is final.
        }
        evaluations += 1;
        if !eval(s, &values) {
            values.set(s, false);
            for &d in dependents.neighbors(s) {
                let d = d as usize;
                if values.get(d) && !queued.get(d) {
                    queued.set(d, true);
                    heap.push(Reverse((priority[d], d as u32)));
                }
            }
        }
    }
    pdce_trace::record_solver(pdce_trace::SolverStats {
        problems: 1,
        sweeps: 0,
        evaluations,
        revisits: pops.saturating_sub(num_slots as u64),
        word_ops: 0,
        fifo_pops: 0,
        priority_pops: pops,
        cold_solves: 1,
        warm_solves: 0,
        seeded_pops: 0,
        sparse_pops: 0,
        sparse_edge_visits: 0,
    });
    trace_span.finish_with(if pdce_trace::enabled() {
        vec![("pops", pops.into()), ("evaluations", evaluations.into())]
    } else {
        Vec::new()
    });
    NetworkSolution {
        values,
        evaluations,
    }
}

/// Sparse variant of [`solve_greatest`]: instead of seeding the worklist
/// with *every* slot and walking a prebuilt dense dependents CSR, the
/// caller hands over only the slots whose equations are constant-false
/// under the all-true start (`false_seeds`) and a lazy edge enumerator
/// (`dependents_of`), which appends the dependents of a slot to the
/// scratch vector. Slots never named by either stay true without ever
/// being evaluated — for the faint network that is the overwhelming
/// majority, and the dense dependents CSR (instructions × variables
/// edges) is never materialized at all (DESIGN.md §15).
///
/// `dependents_of` must enumerate exactly the edges the dense CSR would
/// hold (duplicates are harmless), and `eval` the same monotone
/// equations, so the greatest fixpoint is bit-identical to
/// [`solve_greatest`]'s — the differential oracle checks that.
///
/// Each seed is one outer-worklist pop (`SolverStats::sparse_pops`);
/// falsity then spreads by plain closure, every traversed edge counted
/// in `sparse_edge_visits`. A slot flips at most once, so total work is
/// `O(#seeds + #edges touched by falsity)`. Both the seeds and every
/// closure pop are charged against the active budget, so `max_pops`,
/// the wall-time limit and a raised `CancelToken` abort the closure
/// like any other worklist.
pub fn solve_greatest_sparse(
    num_slots: usize,
    false_seeds: &[u32],
    mut dependents_of: impl FnMut(usize, &mut Vec<u32>),
    mut eval: impl FnMut(usize, &BitVec) -> bool,
) -> NetworkSolution {
    pdce_trace::fault::fire("solve");
    let trace_span = pdce_trace::span_with(
        "solver",
        "network-solve-sparse",
        if pdce_trace::enabled() {
            vec![
                ("slots", num_slots.into()),
                ("seeds", false_seeds.len().into()),
            ]
        } else {
            Vec::new()
        },
    );
    let mut values = BitVec::ones(num_slots);
    let mut stack: Vec<u32> = Vec::new();
    let mut evaluations: u64 = 0;
    let mut edge_visits: u64 = 0;
    for &s in false_seeds {
        pdce_trace::budget::charge_pops(1);
        let s = s as usize;
        if values.get(s) {
            evaluations += 1;
            if !eval(s, &values) {
                values.set(s, false);
                stack.push(s as u32);
            }
        }
    }
    let mut deps: Vec<u32> = Vec::new();
    while let Some(s) = stack.pop() {
        pdce_trace::budget::charge_pops(1);
        deps.clear();
        dependents_of(s as usize, &mut deps);
        for &dep in &deps {
            edge_visits += 1;
            let d = dep as usize;
            if values.get(d) {
                evaluations += 1;
                if !eval(d, &values) {
                    values.set(d, false);
                    stack.push(d as u32);
                }
            }
        }
    }
    pdce_trace::record_solver(pdce_trace::SolverStats {
        problems: 1,
        evaluations,
        sparse_pops: false_seeds.len() as u64,
        sparse_edge_visits: edge_visits,
        cold_solves: 1,
        ..pdce_trace::SolverStats::ZERO
    });
    trace_span.finish_with(if pdce_trace::enabled() {
        vec![
            ("seeds", false_seeds.len().into()),
            ("evaluations", evaluations.into()),
            ("edge_visits", edge_visits.into()),
        ]
    } else {
        Vec::new()
    });
    NetworkSolution {
        values,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain network: slot `i` reads slot `i + 1`, so the dependents
    /// of slot `i + 1` are `[i]`.
    fn chain_dependents(n: usize) -> Csr {
        let mut dependents = vec![Vec::new(); n];
        for i in 0..n - 1 {
            dependents[i + 1].push(i as u32);
        }
        Csr::from_lists(&dependents)
    }

    /// Chain: slot i is true iff slot i+1 is true; the last slot is false.
    /// Greatest fixpoint: everything false.
    #[test]
    fn falsity_propagates_along_chain() {
        let n = 10;
        let sol = solve_greatest(n, &chain_dependents(n), |s, vals| {
            if s == n - 1 {
                false
            } else {
                vals.get(s + 1)
            }
        });
        assert!(sol.values.none());
    }

    /// A cycle of mutually supporting slots stays true (greatest fixpoint),
    /// which is exactly what the faint analysis needs for cyclic uses.
    #[test]
    fn self_supporting_cycle_stays_true() {
        let n = 3;
        let mut dependents = vec![Vec::new(); n];
        for i in 0..n {
            dependents[(i + 1) % n].push(i as u32); // slot i reads slot i+1 mod n
        }
        let sol = solve_greatest(n, &Csr::from_lists(&dependents), |s, vals| {
            vals.get((s + 1) % n)
        });
        assert_eq!(sol.values.count_ones(), 3);
    }

    /// Conjunction over two inputs: false wins through either side.
    #[test]
    fn conjunction_network() {
        // slot 0 = slot 1 && slot 2; slot 1 = true; slot 2 = false.
        let dependents = Csr::from_lists(&[vec![], vec![0u32], vec![0u32]]);
        let sol = solve_greatest(3, &dependents, |s, vals| match s {
            0 => vals.get(1) && vals.get(2),
            1 => true,
            2 => false,
            _ => unreachable!(),
        });
        assert!(!sol.values.get(0));
        assert!(sol.values.get(1));
        assert!(!sol.values.get(2));
    }

    #[test]
    fn evaluation_count_is_bounded() {
        // Every slot is evaluated at least once; flips cause bounded
        // re-evaluations (≤ 1 + #incoming dependency edges per slot).
        let n = 100;
        let sol = solve_greatest(n, &chain_dependents(n), |s, vals| {
            if s == n - 1 {
                false
            } else {
                vals.get(s + 1)
            }
        });
        assert!(sol.evaluations <= 2 * n as u64);
    }

    #[test]
    fn empty_network() {
        let empty = Csr::from_lists(&[]);
        let sol = solve_greatest(0, &empty, |_, _| unreachable!());
        assert_eq!(sol.values.len(), 0);
        assert_eq!(sol.evaluations, 0);
        let sol = solve_greatest_prioritized(0, &empty, &[], |_, _| unreachable!());
        assert_eq!(sol.evaluations, 0);
    }

    #[test]
    fn prioritized_matches_fifo_and_saves_evaluations() {
        // Falsity enters at the chain's end; evaluating end-first (small
        // priority = late position) lets every slot see its final input
        // on first evaluation: exactly n evaluations vs ~2n for FIFO.
        let n = 50;
        let dependents = chain_dependents(n);
        let eval = |s: usize, vals: &BitVec| if s == n - 1 { false } else { vals.get(s + 1) };
        let fifo = solve_greatest(n, &dependents, eval);
        let priority: Vec<u32> = (0..n).map(|s| (n - 1 - s) as u32).collect();
        let prio = solve_greatest_prioritized(n, &dependents, &priority, eval);
        assert_eq!(fifo.values, prio.values);
        assert!(prio.evaluations <= fifo.evaluations);
        assert_eq!(prio.evaluations, n as u64);
    }

    #[test]
    fn sparse_matches_dense_and_skips_untouched_slots() {
        // Chain with falsity entering at the end: the lazy-edge sparse
        // solve must reach the identical fixpoint from the single seed.
        let n = 10;
        let csr = chain_dependents(n);
        let eval = |s: usize, vals: &BitVec| if s == n - 1 { false } else { vals.get(s + 1) };
        let dense = solve_greatest(n, &csr, eval);
        let sparse = solve_greatest_sparse(
            n,
            &[(n - 1) as u32],
            |s, out| out.extend_from_slice(csr.neighbors(s)),
            eval,
        );
        assert_eq!(dense.values, sparse.values);
        // A self-supporting cycle has no constant-false seed: nothing is
        // evaluated and everything stays true.
        let sol = solve_greatest_sparse(
            3,
            &[],
            |_, _| unreachable!("no falsity, no edges walked"),
            |_, _| unreachable!("no seeds, no evaluations"),
        );
        assert_eq!(sol.values.count_ones(), 3);
        assert_eq!(sol.evaluations, 0);
    }

    #[test]
    fn sparse_closure_pops_are_charged_against_the_budget() {
        use pdce_trace::budget::{install, Budget};
        use pdce_trace::sandbox::{catch, SandboxError};
        let n = 10;
        let csr = chain_dependents(n);
        let solve = |max_pops: u64| {
            let _budget = install(Budget {
                max_pops: Some(max_pops),
                ..Budget::UNLIMITED
            });
            catch(|| {
                solve_greatest_sparse(
                    n,
                    &[(n - 1) as u32],
                    |s, out| out.extend_from_slice(csr.neighbors(s)),
                    |s, vals| if s == n - 1 { false } else { vals.get(s + 1) },
                )
            })
        };
        // One pop for the seed plus one per closure pop (every slot
        // flips and is popped once): exactly 1 + n fits.
        let sol = solve(1 + n as u64).expect("1 + n pops fit");
        assert!(sol.values.none());
        match solve(n as u64) {
            Err(SandboxError::Budget(b)) => assert_eq!(b.resource, "pops"),
            other => panic!("closure must exhaust the pop budget: {other:?}"),
        }
    }

    #[test]
    fn sparse_closure_observes_cancellation() {
        use pdce_trace::budget::{install_cancel, CancelToken};
        use pdce_trace::sandbox::{catch, SandboxError};
        let n = 10;
        let csr = chain_dependents(n);
        let token = CancelToken::new();
        let _guard = install_cancel(token.clone());
        let evaluations = std::cell::Cell::new(0);
        let outcome = catch(|| {
            solve_greatest_sparse(
                n,
                &[(n - 1) as u32],
                |s, out| out.extend_from_slice(csr.neighbors(s)),
                |s, vals| {
                    evaluations.set(evaluations.get() + 1);
                    // Raised while the last seed is evaluated, after its
                    // charge: only the closure's checkpoints can see it.
                    token.cancel();
                    if s == n - 1 {
                        false
                    } else {
                        vals.get(s + 1)
                    }
                },
            )
        });
        match outcome {
            Err(SandboxError::Budget(b)) => assert_eq!(b.resource, "cancelled"),
            other => panic!("the closure must observe the cancel: {other:?}"),
        }
        assert_eq!(evaluations.get(), 1, "aborted at the first closure pop");
    }

    #[test]
    fn prioritized_keeps_self_supporting_cycle() {
        let n = 3;
        let mut dependents = vec![Vec::new(); n];
        for i in 0..n {
            dependents[(i + 1) % n].push(i as u32);
        }
        let priority = vec![0u32; n];
        let sol =
            solve_greatest_prioritized(n, &Csr::from_lists(&dependents), &priority, |s, vals| {
                vals.get((s + 1) % n)
            });
        assert_eq!(sol.values.count_ones(), 3);
    }
}
