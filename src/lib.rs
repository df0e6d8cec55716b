//! Facade crate for the PDCE reproduction workspace.
//!
//! Re-exports the public API of every subsystem so examples and
//! integration tests can use a single dependency:
//!
//! * [`ir`] — flow-graph IR, parser, printer, interpreter, paths
//! * [`dfa`] — bit-vector data-flow framework
//! * [`core`] — partial dead/faint code elimination (the paper's algorithm)
//! * [`baselines`] — what the paper compares against: DCE variants
//!   (liveness, du-chain marking, sparse SSA-based DCE), naive sinking,
//!   lazy code motion, copy propagation, assignment hoisting
//! * [`progen`] — random program generators
//! * [`serve`] — optimization-as-a-service: newline-delimited JSON
//!   protocol, budget admission control, persistent result cache
//! * [`trace`] — structured tracing: span/event collector, solver
//!   telemetry, transformation provenance, Chrome-trace and `--explain`
//!   exporters
//! * [`metrics`] — the metrics plane (`pdce_trace::metrics`): Prometheus
//!   exposition of the run statistics' counter families, a lock-free
//!   registry of log2 histograms and pool counters, JSONL event log,
//!   optional counting allocator (`--features alloc-metrics`)
//!
//! # Quickstart
//!
//! ```
//! use pdce::ir::parser::parse;
//! use pdce::core::driver::{optimize, PdceConfig};
//!
//! let mut prog = parse(
//!     "prog {
//!        block s  { goto n1 }
//!        block n1 { y := a + b; nondet n2 n3 }
//!        block n2 { y := 4; goto n4 }
//!        block n3 { goto n4 }
//!        block n4 { out(y); goto e }
//!        block e  { halt }
//!      }",
//! )?;
//! let stats = optimize(&mut prog, &PdceConfig::pde())?;
//! assert!(stats.eliminated_assignments > 0 || stats.sunk_assignments > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// With `--features alloc-metrics`, route every allocation in this crate's
// binaries and tests through the counting allocator so allocation
// snapshots carry real data.
#[cfg(feature = "alloc-metrics")]
#[global_allocator]
static COUNTING_ALLOC: pdce_trace::metrics::alloc::CountingAlloc =
    pdce_trace::metrics::alloc::CountingAlloc;

pub use pdce_baselines as baselines;
pub use pdce_core as core;
pub use pdce_dfa as dfa;
pub use pdce_ir as ir;
pub use pdce_par as par;
pub use pdce_progen as progen;
pub use pdce_serve as serve;
pub use pdce_trace as trace;
pub use pdce_trace::metrics;
