//! Allocation bound of the bit-vector solves: the dead and faint
//! solves, sinking's local predicates and the delay solve store every
//! per-block vector in row-strided matrices, so each allocates the same
//! number of buffers whatever the block count. Counted by the
//! `alloc-metrics` global allocator; run with `cargo test --features
//! alloc-metrics`.
#![cfg(feature = "alloc-metrics")]

use pdce::core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable};
use pdce::ir::{CfgView, Program};
use pdce::progen::{structured, GenConfig};

fn program(blocks: usize) -> Program {
    structured(&GenConfig {
        seed: 0xa110c,
        target_blocks: blocks,
        num_vars: 20,
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: true,
    })
}

/// Allocations `f` makes, as the minimum over three runs so that a
/// stray allocation on another thread cannot inflate the count.
fn allocs<T>(mut f: impl FnMut() -> T) -> u64 {
    (0..3)
        .map(|_| {
            let before = pdce_metrics::alloc::snapshot();
            std::hint::black_box(f());
            pdce_metrics::alloc::snapshot().since(&before).allocs
        })
        .min()
        .expect("three runs")
}

/// `[dead, faint, local, delay]` allocation counts on `prog`.
fn solve_allocs(prog: &Program) -> [u64; 4] {
    let view = CfgView::new(prog);
    let table = PatternTable::build(prog);
    let local = LocalInfo::compute(prog, &table);
    [
        allocs(|| DeadSolution::compute(prog, &view)),
        allocs(|| FaintSolution::compute(prog, &view)),
        allocs(|| LocalInfo::compute(prog, &table)),
        allocs(|| DelayInfo::compute(prog, &view, &table, &local)),
    ]
}

#[test]
fn solve_allocations_do_not_grow_with_the_block_count() {
    assert!(
        pdce_metrics::alloc::active(),
        "the counting allocator is not installed"
    );
    let small = program(50);
    let large = program(400);
    assert_eq!(small.num_vars(), large.num_vars());
    assert!(
        large.num_blocks() >= 6 * small.num_blocks(),
        "{} vs {} blocks",
        large.num_blocks(),
        small.num_blocks()
    );
    // Warm-up: first-use initialization (metric handles, thread-locals)
    // must not count against the first measured program.
    solve_allocs(&small);
    let (at_small, at_large) = (solve_allocs(&small), solve_allocs(&large));
    assert!(at_small.iter().all(|&n| n > 0), "{at_small:?}");
    assert_eq!(
        at_small,
        at_large,
        "[dead, faint, local, delay] allocations at {} vs {} blocks",
        small.num_blocks(),
        large.num_blocks()
    );
}
