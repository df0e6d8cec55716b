//! Baseline transformations the PLDI'94 PDCE paper positions itself
//! against, plus supporting classics:
//!
//! * [`liveness`] — live-variable analysis and iterated liveness DCE
//!   (the usual "totally dead" elimination; an independent cross-check
//!   of `pdce-core`'s dead analysis),
//! * [`duchain`] — def-use-chain marking DCE, the "standard method" of
//!   Section 5.2, whose removal set coincides with faint code
//!   elimination and whose graph size realizes the `O(i²·v)` bound,
//! * [`naive_sink`](mod@naive_sink) — a Briggs/Cooper-style loop-oblivious sinker that
//!   reproduces the Figure 6 impairment discussed in Related Work,
//! * [`copyprop`] — global copy propagation (footnote 1's interleaving
//!   partner),
//! * [`hoist`] — Dhamdhere-style assignment *hoisting* (\[9\]): the dual
//!   motion, which merges partially redundant assignments but cannot
//!   eliminate partially dead ones.

pub mod copyprop;
pub mod duchain;
pub mod hoist;
pub mod liveness;
pub mod naive_sink;

pub use copyprop::{copy_propagate, copy_propagate_once};
pub use duchain::{duchain_dce, DuGraph};
pub use hoist::{hoist_assignments, HoistOutcome};
pub use liveness::{liveness_dce, Liveness};
pub use naive_sink::{naive_sink, NaiveSinkOutcome};
