//! Bit-vector data-flow analysis framework for the PDCE reproduction.
//!
//! Layers:
//!
//! * [`bitvec`] + [`matrix`] — dense fixed-width bit vectors, and the
//!   row-strided [`BitMatrix`] every solve stores its per-node vectors
//!   in, read through borrowed [`Row`] views;
//! * [`solve`](mod@solve) — block-level problems solved by one
//!   priority worklist over word rows: gen/kill problems (the
//!   dead-variable and delayability analyses of Tables 1–2 plus the
//!   baseline analyses: liveness, reaching definitions/copies,
//!   availability, anticipability) and, through a block-transfer
//!   closure, the faint-variable analysis, which is not a gen/kill
//!   problem (Section 5.2, DESIGN.md §15);
//! * [`du`](mod@du) — an instruction-level def-use chain graph, kept
//!   only for the benchmark's layer replica;
//! * [`pass`](mod@pass) — the revision-keyed [`AnalysisCache`] that
//!   shares `CfgView`s and solver solutions between the
//!   elimination and sinking steps instead of rebuilding them per
//!   transform.
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
pub mod pass;
pub mod solve;

pub use bitvec::BitVec;
pub use csr::Csr;
pub use du::{DuGraph, InstrKind};
pub use matrix::{BitMatrix, Row, RowMut};
pub use pass::{AnalysisCache, CacheStats, Preserves};
pub use solve::{solve, solve_with, BitProblem, Direction, Meet, Solution};
