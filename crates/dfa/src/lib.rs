//! Bit-vector data-flow analysis framework for the PDCE reproduction.
//!
//! Layers:
//!
//! * [`bitvec`] — dense fixed-width bit vectors;
//! * [`genkill`] + [`solve`](mod@solve) — block-level gen/kill problems solved by a
//!   priority worklist, covering the dead-variable (Table 1) and
//!   delayability (Table 2) analyses of the paper plus the baseline
//!   analyses (liveness, reaching definitions/copies, availability,
//!   anticipability);
//! * [`network`] — the sparse falsity closure, a greatest-fixpoint
//!   solver for monotone boolean networks, needed for the faint-variable
//!   analysis which is not expressible as a bit-vector problem (Section
//!   5.2/6.1.2);
//! * [`du`](mod@du) — the def-use chain graph the falsity closure walks
//!   (DESIGN.md §15);
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

pub use bitvec::BitVec;
pub use csr::Csr;
pub use du::{DuGraph, InstrKind};
pub use genkill::GenKill;
pub use network::{solve_greatest_sparse, NetworkSolution};
pub use pass::{run_until_stable, AnalysisCache, CacheStats, Pass, PassOutcome, Preserves};
pub use solve::{solve, BitProblem, Direction, Meet, Solution};
