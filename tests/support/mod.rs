//! Shared support for the integration tests: the executable
//! specification every analysis and optimizer is checked against, and
//! the random statement mutator the oracles perturb programs with.
#![allow(dead_code)]

pub mod spec;

use pdce::dfa::BitVec;
use pdce::ir::{NodeId, Program};
use pdce_rng::Rng;

/// A production bit vector as the spec's `Vec<bool>`.
pub fn bits(v: &BitVec) -> Vec<bool> {
    (0..v.len()).map(|i| v.get(i)).collect()
}

/// Applies one shape-preserving statement-list mutation through
/// [`Program::stmts_mut`] — a deletion, a duplicated statement appended,
/// or a rotation — and returns the block it touched, or `None` if the
/// program has no statements.
pub fn mutate_stmts(p: &mut Program, rng: &mut Rng) -> Option<NodeId> {
    let candidates: Vec<NodeId> = p
        .node_ids()
        .filter(|&n| !p.block(n).stmts.is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let n = candidates[rng.next_u64() as usize % candidates.len()];
    let kind = rng.next_u64() % 3;
    let stmts = p.stmts_mut(n);
    let i = rng.next_u64() as usize % stmts.len();
    match kind {
        0 => {
            stmts.remove(i);
        }
        1 => {
            let s = stmts[i];
            stmts.push(s);
        }
        _ => {
            let mid = i.max(1) % stmts.len().max(1);
            stmts.rotate_left(mid);
        }
    }
    Some(n)
}
