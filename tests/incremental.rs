//! The program's mutation log: `Program::changes_since` must never
//! report a structural edit as statement-local, because the analysis
//! cache keeps a `CfgView`'s adjacency and orders (re-deriving only the
//! instruction layout) exactly when it does.

use pdce::progen::{structured, GenConfig};
use pdce_rng::Rng;

const CASES: usize = 48;

/// Distinct program seeds per property, derived deterministically.
/// Salts are disjoint from the ones `tests/properties.rs` uses.
fn seeds(salt: u64) -> Vec<u64> {
    let mut rng = Rng::new(0x1c2e_7000 ^ salt);
    (0..CASES).map(|_| rng.next_u64()).collect()
}

fn small_config(seed: u64, nondet: bool) -> GenConfig {
    GenConfig {
        seed,
        target_blocks: 18,
        num_vars: 5,
        stmts_per_block: (1, 3),
        out_prob: 0.25,
        loop_prob: 0.3,
        max_depth: 3,
        expr_depth: 2,
        nondet,
    }
}

/// Structural mutations are never misreported as statement-only edits:
/// a `block_mut` borrow (which can reach the terminator) must surface
/// as a structural delta or an unaccountable log (`None`) — both make
/// the cache rebuild the view from scratch.
#[test]
fn structural_mutations_force_cold_fallback() {
    for seed in seeds(3) {
        let mut p = structured(&small_config(seed, false));
        let rev = p.revision();
        let n = p.node_ids().next().unwrap();
        let _ = p.block_mut(n);
        if let Some(cs) = p.changes_since(rev) {
            assert!(
                cs.structural(),
                "block_mut must be conservative (seed {seed})"
            );
        }
    }
}
