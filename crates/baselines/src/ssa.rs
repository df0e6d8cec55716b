//! Static single assignment form and sparse SSA-based dead code
//! elimination.
//!
//! Section 5.2 of the PDCE paper compares its iterative eliminations
//! with def-use-graph methods and notes that Cytron et al.'s sparse
//! SSA-based variant reaches `O(i·v)` worst-case time — "which coincides
//! with the complexity of our simple iterative algorithm". This module
//! implements that comparison point from scratch:
//!
//! * [`DomInfo`] — dominator trees and dominance frontiers (the
//!   two-runner algorithm of Cytron/Ferrante/Rosen/Wegman/Zadeck '91),
//! * [`SsaWeb`] — minimal-SSA φ placement via iterated dominance
//!   frontiers, stack-based renaming over the dominator tree, and the
//!   resulting *sparse def-use web* (no IR rewrite needed for DCE),
//! * [`ssa_dce`] — marks the web with the du-chain method's
//!   [`mark`](crate::mark); its removal power coincides with faint code
//!   elimination, verified against both `pdce-core`'s fce and the dense
//!   du-chain marking of [`duchain`](crate::duchain) in the integration
//!   tests.

pub use crate::domfront::DomInfo;
pub use crate::web::{ssa_dce, DefSite, SsaWeb};
