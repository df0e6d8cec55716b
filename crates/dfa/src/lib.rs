//! Bit-vector data-flow analysis framework for the PDCE reproduction.
//!
//! Three layers:
//!
//! * [`bitvec`] — dense fixed-width bit vectors;
//! * [`genkill`] + [`solve`](mod@solve) — block-level gen/kill problems solved by a
//!   worklist algorithm, covering the dead-variable (Table 1) and
//!   delayability (Table 2) analyses of the paper plus the baseline
//!   analyses (liveness, reaching definitions/copies, availability,
//!   anticipability);
//! * [`network`] — a slotwise greatest-fixpoint solver for monotone
//!   boolean networks, needed for the faint-variable analysis which is
//!   not expressible as a bit-vector problem (Section 5.2/6.1.2);
//! * [`du`](mod@du) + [`sparse`](mod@sparse) — the def-use chain graph
//!   and the sparse solver family built on it: per-bit forced-value
//!   closures that touch O(affected edges) nodes instead of sweeping
//!   dense rows, selectable as [`SolverStrategy::Sparse`] with the
//!   dense strategies as differential oracle (DESIGN.md §15);
//! * [`pass`](mod@pass) — the pass-manager framework: the [`Pass`] trait every
//!   transform in the workspace implements, and the revision-keyed
//!   [`AnalysisCache`] that shares `CfgView`s, dominators, and solver
//!   solutions across passes instead of rebuilding them per transform.
//!
//! # Example
//!
//! ```
//! use pdce_dfa::{BitVec, GenKill};
//!
//! let mut gen = BitVec::zeros(4);
//! gen.set(1, true);
//! let f = GenKill::new(gen, BitVec::zeros(4));
//! assert!(f.apply(&BitVec::zeros(4)).get(1));
//! ```

pub mod bitvec;
pub mod csr;
pub mod du;
pub mod genkill;
pub mod network;
pub mod pass;
pub mod solve;
pub mod sparse;

pub use bitvec::BitVec;
pub use csr::Csr;
pub use du::{DuGraph, InstrKind};
pub use genkill::GenKill;
pub use network::{
    solve_greatest, solve_greatest_prioritized, solve_greatest_sparse, NetworkSolution,
};
pub use pass::{run_until_stable, AnalysisCache, CacheStats, Pass, PassOutcome, Preserves};
pub use solve::{
    affected_closure, current_strategy, incremental_enabled, solve, solve_fn, solve_seeded,
    strategy_override, with_incremental, with_strategy, BitProblem, Direction, Meet, Solution,
    SolverStrategy,
};
pub use sparse::solve_sparse;
