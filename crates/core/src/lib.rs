//! Partial dead code elimination — Knoop, Rüthing & Steffen, PLDI 1994.
//!
//! This crate implements the paper's contribution in full:
//!
//! * [`dead`] — the dead-variable analysis of Table 1 (bit-vector),
//! * [`faint`] — the faint-variable analysis of Table 1 (slotwise),
//! * [`local`] + [`patterns`] — sinking candidates and the local
//!   predicates `LOCDELAYED`/`LOCBLOCKED` (Figure 13),
//! * [`delay`] — the delayability analysis and insertion points of
//!   Table 2,
//! * [`elim`] — the dead/faint code elimination step,
//! * [`sink`] — the assignment-sinking transformation `ask`,
//! * [`driver`] — the global fixpoint loop `pde`/`pfe` (Section 5) with
//!   statistics for the Section 6 complexity experiments,
//! * [`better`] — the `better` relation of Definition 3.6 (per-path
//!   assignment-pattern counts), used to validate improvement and
//!   optimality,
//! * [`universe`] — a bounded brute-force enumeration of the universe
//!   `G_T` of Definition 3.5, used to cross-check Theorem 5.2's
//!   optimality claim on small programs.
//!
//! # Example
//!
//! ```
//! use pdce_core::driver::pde;
//! use pdce_ir::parser::parse;
//!
//! // Figure 1 of the paper.
//! let mut prog = parse(
//!     "prog {
//!        block s  { goto n1 }
//!        block n1 { y := a + b; nondet n2 n3 }
//!        block n2 { out(y); goto n4 }
//!        block n3 { y := 4; goto n4 }
//!        block n4 { out(y); goto e }
//!        block e  { halt }
//!      }",
//! )?;
//! let stats = pde(&mut prog)?;
//! // The partially dead `y := a + b` was sunk and its dead copy removed.
//! assert_eq!(stats.eliminated_assignments, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod better;
pub mod dead;
pub mod delay;
pub mod driver;
pub mod elim;
pub mod faint;
pub mod local;
pub mod patterns;
pub mod sink;
pub mod tv;
pub mod universe;

pub use better::{check_improvement, DominanceReport};
pub use dead::DeadSolution;
pub use delay::DelayInfo;
pub use driver::{
    optimize, optimize_resilient, optimize_with_cache, pde, pfe, DegradedMode, PdceConfig,
    PdceError, PdceStats,
};
pub use elim::{eliminate_fixpoint, eliminate_once, Mode};
pub use faint::FaintSolution;
pub use local::LocalInfo;
pub use patterns::PatternTable;
pub use sink::{sink_assignments, sink_with_table, sinking_is_stable, SinkOutcome};
