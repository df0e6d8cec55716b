//! Lazy code motion (partial redundancy elimination) — the dual
//! transformation the PDCE paper builds on conceptually.
//!
//! PRE hoists *computations* against the control flow to make their
//! results as universally available as possible; PDCE sinks *assignments*
//! with the flow to make them as specifically needed as possible
//! (Section 1 of the paper). This module provides the classical lazy
//! code motion of Knoop/Rüthing/Steffen '92 in the Drechsler–Stadel
//! block formulation, used here to
//!
//! * reproduce the Related-Work claim around Figure 6 (naive sinking
//!   into a loop cannot be repaired by a subsequent PRE for safety
//!   reasons), and
//! * exercise the `pdce-dfa` framework with a second full client.

pub use crate::exprs::{ExprLocal, ExprTable};
pub use crate::transform::{lazy_code_motion, LcmStats};
