//! The repository benchmark: one command runs one named workload from a
//! seed, checks every output, and prints end-to-end metrics (untraced)
//! or per-layer metrics (traced run). See `perfbench/README.md`.

pub mod check;
pub mod client;
pub mod corpus;
pub mod measure;
pub mod replica;
pub mod spans;
pub mod workloads;
