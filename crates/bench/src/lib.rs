//! Shared harness for the benchmark suite and the `report` binary.
//!
//! The paper has no measured tables — its "evaluation" is the worked
//! figures plus the Section 6 complexity analysis. This crate regenerates
//! both: [`figures`] holds the figure corpus with expected outputs (used
//! by the `figures` bench and the report), and [`sweep`] provides the
//! scaling experiments with log–log slope fitting for the C1–C6 claims
//! tracked in `EXPERIMENTS.md`.

pub mod benchjson;
pub mod figures;
pub mod sweep;
pub mod timeit;

pub use figures::{figure_corpus, verify_figure, Figure};
pub use sweep::{fit_loglog_slope, measure, Measurement};
