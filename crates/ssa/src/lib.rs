//! Static single assignment form and sparse SSA-based dead code
//! elimination.
//!
//! Section 5.2 of the PDCE paper compares its iterative eliminations
//! with def-use-graph methods and notes that Cytron et al.'s sparse
//! SSA-based variant reaches `O(i·v)` worst-case time — "which coincides
//! with the complexity of our simple iterative algorithm". This crate
//! implements that comparison point from scratch:
//!
//! * [`domfront`] — dominator trees and dominance frontiers (the
//!   two-runner algorithm of Cytron/Ferrante/Rosen/Wegman/Zadeck '91),
//! * [`web`] — minimal-SSA φ placement via iterated dominance frontiers,
//!   stack-based renaming over the dominator tree, and the resulting
//!   *sparse def-use web* (no IR rewrite needed for DCE), plus
//!   [`web::ssa_dce`], whose removal power coincides with faint
//!   code elimination — verified against both `pdce-core`'s fce and the
//!   dense du-chain marking of `pdce-baselines` in the cross-crate
//!   tests.

pub mod domfront;
pub mod web;

pub use domfront::DomInfo;
pub use web::{ssa_dce, DefSite, SsaWeb};
