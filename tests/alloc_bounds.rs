//! Allocation bounds of the bit-vector solves, the resilient driver and
//! the text layer.
//!
//! The dead and faint solves, sinking's local predicates and the delay
//! solve store every per-block vector in row-strided matrices, so each
//! allocates the same number of buffers whatever the block count. The
//! printer writes a whole program into one pre-sized buffer, and the
//! parser borrows every token from its input, so parsing allocates per
//! block (a name, a statement list), never per token. The serve cache's
//! compaction streams its snapshot through one fixed-size buffer, so it
//! allocates per entry, never a copy of the live set.
//!
//! Counted by the `alloc-metrics` global allocator; run with `cargo
//! test --features alloc-metrics`.
#![cfg(feature = "alloc-metrics")]

use pdce::core::{
    optimize, optimize_resilient, DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable,
    PdceConfig,
};
use pdce::ir::parser::parse;
use pdce::ir::printer::print_program;
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

/// The counter is process-wide: the tests here take turns so that one
/// test's allocations never land in another's count.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Allocations `f` makes, as the minimum over three runs so that a
/// stray allocation on another thread cannot inflate the count.
fn allocs<T>(mut f: impl FnMut() -> T) -> u64 {
    (0..3)
        .map(|_| {
            let before = pdce_trace::metrics::alloc::snapshot();
            std::hint::black_box(f());
            pdce_trace::metrics::alloc::snapshot().since(&before).allocs
        })
        .min()
        .expect("three runs")
}

/// Bytes `f` allocates, as the minimum over three runs.
fn alloc_bytes<T>(mut f: impl FnMut() -> T) -> u64 {
    (0..3)
        .map(|_| {
            let before = pdce_trace::metrics::alloc::snapshot();
            std::hint::black_box(f());
            pdce_trace::metrics::alloc::snapshot().since(&before).bytes
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
    let _serial = serial();
    assert!(
        pdce_trace::metrics::alloc::active(),
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

/// `optimize_resilient` runs each rung in place and undoes a failed one
/// through its edit log instead of optimizing a copy of the program. On
/// an already-stable program nothing is edited and nothing fails, so a
/// run allocates the same count at 50 and at 400 blocks — apart from its
/// one pattern table and its two CFG views (edge splitting's and the
/// analysis cache's), whose sort and DFS buffers grow by doubling with
/// the pattern count and the graph depth. A copy of the program would
/// add two allocations per block (its name and its statement list).
#[test]
fn resilient_runs_on_stable_programs_allocate_independently_of_block_count() {
    let _serial = serial();
    let stable = |blocks| {
        let mut p = program(blocks);
        optimize(&mut p, &PdceConfig::pde()).unwrap();
        p
    };
    let (mut small, mut large) = (stable(50), stable(400));
    assert!(large.num_blocks() >= 6 * small.num_blocks());
    let mut beyond_table_and_views = |p: &mut Program| {
        let resilient = allocs(|| {
            let stats = optimize_resilient(p, &PdceConfig::pde());
            assert_eq!((stats.rounds, stats.degraded), (1, None));
        });
        resilient - allocs(|| PatternTable::build(p)) - 2 * allocs(|| CfgView::new(p))
    };
    // Warm-up, as above.
    beyond_table_and_views(&mut small);
    let at_small = beyond_table_and_views(&mut small);
    let at_large = beyond_table_and_views(&mut large);
    assert_eq!(
        at_small,
        at_large,
        "optimize_resilient allocations beyond its table and views at {} vs {} blocks",
        small.num_blocks(),
        large.num_blocks()
    );
}

/// `print_program` allocates its one buffer (at most once more if the
/// size estimate falls short) whatever the block count; `parse`
/// allocates a bounded number of buffers per block plus a fixed set
/// (token vector, interners, validation), never one per token.
#[test]
fn text_layer_allocations_are_constant_in_print_and_per_block_in_parse() {
    let _serial = serial();
    // Warm-up, as above.
    print_program(&parse(&print_program(&program(20))).unwrap());
    for blocks in [60, 200, 400] {
        let text = print_program(&program(blocks));
        let prog = parse(&text).unwrap();
        let n = prog.num_blocks() as u64;
        let printed = allocs(|| print_program(&prog));
        assert!(
            printed <= 2,
            "print_program: {printed} allocations at {n} blocks"
        );
        let parsed = allocs(|| parse(&text).unwrap());
        assert!(
            parsed <= 4 * n + 512,
            "parse: {parsed} allocations at {n} blocks ({} bytes of text)",
            text.len()
        );
    }
}

/// `PersistentCache::save` writes the header and one insert record per
/// live entry through one fixed-size buffer: it allocates less than
/// 64 KiB plus 64 bytes per entry, whatever the entries' size. A
/// snapshot rendered into one string would allocate at least the live
/// set (here over four times the bound) and a framed copy of each
/// record on top.
#[test]
fn cache_save_allocates_per_entry_not_per_live_byte() {
    use pdce::serve::{CacheKey, PersistentCache, ResultPayload};
    let _serial = serial();
    let path = std::env::temp_dir().join(format!("pdce-alloc-save-{}.cache", std::process::id()));
    std::fs::remove_file(&path).ok();
    let entries: u64 = 200;
    let mut cache = PersistentCache::load(&path, 1 << 30);
    for i in 0..entries {
        let program = format!(
            "prog {{ block e {{ out({i}); halt }} }}\n{}",
            " ".repeat(2000)
        );
        cache.insert(
            CacheKey(u128::from(i)),
            ResultPayload {
                program,
                rounds: 2,
                eliminated: 1,
                sunk: 0,
                inserted: 0,
                rung: "none".into(),
            },
        );
    }
    let live = cache.bytes();
    let bound = 64 * 1024 + 64 * entries;
    assert!(
        live > 4 * bound,
        "live set {live} bytes is too small to tell"
    );
    let saved = alloc_bytes(|| cache.save().unwrap());
    std::fs::remove_file(&path).ok();
    assert!(
        saved < bound,
        "save() allocated {saved} bytes for {entries} entries, live set {live} bytes"
    );
}
