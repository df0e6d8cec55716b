//! Optional counting global allocator (`--features alloc-metrics`).
//!
//! The counters always exist so instrumentation can read them
//! unconditionally; they only move once a binary installs
//! `CountingAlloc` as its `#[global_allocator]`, which the root `pdce`
//! crate does when built with the `alloc-metrics` feature. Without the
//! feature the snapshots stay at zero.

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Cumulative allocation totals since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    pub bytes: u64,
    pub allocs: u64,
}

impl AllocSnapshot {
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            allocs: self.allocs.saturating_sub(earlier.allocs),
        }
    }
}

/// Read the cumulative allocation counters. All zeros unless a
/// `CountingAlloc` is installed as the global allocator.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        bytes: BYTES.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
    }
}

/// Whether any allocation has been counted (i.e. the counting allocator
/// is actually installed and live).
pub fn active() -> bool {
    ALLOCS.load(Ordering::Relaxed) != 0
}

/// `System`-backed allocator that counts allocations and bytes requested.
/// Deallocations are forwarded untouched: the counters are cumulative
/// totals (work done), not live-heap gauges, which keeps them monotone and
/// delta-friendly like every other counter in the registry.
#[cfg(feature = "alloc-metrics")]
pub struct CountingAlloc;

#[cfg(feature = "alloc-metrics")]
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = unsafe { std::alloc::System.alloc(layout) };
        if !p.is_null() {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { std::alloc::System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let grown = new_size.saturating_sub(layout.size());
            BYTES.fetch_add(grown as u64, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_monotone() {
        let before = snapshot();
        let after = snapshot();
        let d = after.since(&before);
        // Without the allocator installed both snapshots are equal; with it
        // installed the delta is non-negative either way.
        assert!(d.bytes <= after.bytes);
        assert!(d.allocs <= after.allocs);
    }
}
