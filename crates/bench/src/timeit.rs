//! Minimal self-contained timing harness for the `benches/` targets.
//!
//! The workspace builds fully offline, so the benches cannot use an
//! external framework; this module provides the small slice actually
//! needed — warmup, adaptive iteration counts, and a median/min/max
//! report — behind a one-call API:
//!
//! ```no_run
//! # fn expensive() {}
//! pdce_bench::timeit::report("group/case", || expensive());
//! ```

use std::time::{Duration, Instant};

/// One benchmark's measurements, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Timing {
    /// `group/case` label.
    pub label: String,
    /// Measured iterations (after warmup).
    pub iters: usize,
    /// Median time per iteration.
    pub median_ns: u128,
    /// Fastest iteration.
    pub min_ns: u128,
    /// Slowest iteration.
    pub max_ns: u128,
}

/// Runs `f` repeatedly and measures it: 2 warmup iterations, then
/// samples until ~200 ms have elapsed (at least 5, at most 101
/// iterations). Deterministic in iteration structure, adaptive in count.
pub fn bench<R>(label: &str, mut f: impl FnMut() -> R) -> Timing {
    for _ in 0..2 {
        std::hint::black_box(f());
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5
        || (samples.len() < 101 && started.elapsed() < Duration::from_millis(200))
    {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_nanos());
    }
    samples.sort_unstable();
    Timing {
        label: label.to_string(),
        iters: samples.len(),
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
    }
}

fn human(ns: u128) -> String {
    format!("{:.2?}", Duration::from_nanos(ns as u64))
}

/// [`bench()`] plus an aligned one-line summary on stdout.
pub fn report<R>(label: &str, f: impl FnMut() -> R) -> Timing {
    let t = bench(label, f);
    println!(
        "{:<44} {:>10}/iter  (min {:>9}, max {:>9}, {:>3} iters)",
        t.label,
        human(t.median_ns),
        human(t.min_ns),
        human(t.max_ns),
        t.iters
    );
    t
}

/// Prints a section header for a group of related benchmarks.
pub fn group(title: &str) {
    println!("\n--- {title} ---");
}
