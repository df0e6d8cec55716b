//! Bit-vector data-flow analysis framework for the PDCE reproduction.
//!
//! Layers:
//!
//! * [`bitvec`] + [`matrix`] — dense fixed-width bit vectors, and the
//!   row-strided [`BitMatrix`] every solve stores its per-node vectors
//!   in, read through borrowed [`Row`] views;
//! * [`solve`](mod@solve) — block-level gen/kill problems solved by a
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
//! use pdce_dfa::{BitMatrix, BitVec};
//!
//! // Three 70-bit rows in one allocation, two words per row.
//! let mut m = BitMatrix::zeros(3, 70);
//! m.row_mut(1).set(69, true);
//! assert_eq!(m.stride(), 2);
//! assert_eq!(m.row(1).iter_ones().collect::<Vec<_>>(), vec![69]);
//! let copy: BitVec = m.row(1).to_bitvec();
//! assert!(m.row(0).none() && copy.get(69));
//! ```

pub mod bitvec;
pub mod csr;
pub mod du;
pub mod matrix;
pub mod network;
pub mod pass;
pub mod solve;

pub use bitvec::BitVec;
pub use csr::Csr;
pub use du::{DuGraph, InstrKind};
pub use matrix::{BitMatrix, Row, RowMut};
pub use network::{solve_greatest_sparse, NetworkSolution};
pub use pass::{run_until_stable, AnalysisCache, CacheStats, Pass, PassOutcome, Preserves};
pub use solve::{solve, BitProblem, Direction, Meet, Solution};
