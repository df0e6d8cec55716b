//! Cross-validation of independent implementations.
//!
//! * The core dead-variable analysis (Table 1) against the baseline
//!   live-variable analysis: iterated DCE must produce identical
//!   programs.
//! * Faint code elimination (slotwise, Table 1) against def-use-chain
//!   marking DCE (Section 5.2's "standard method"): the paper notes the
//!   optimistic marking detects exactly the faint assignments.

use pdce::baselines::ssa::ssa_dce;
use pdce::baselines::{duchain_dce, liveness_dce};
use pdce::core::driver::{optimize, PdceConfig};
use pdce::ir::printer::{canonical_string, structural_eq};
use pdce::progen::{structured, tangled, GenConfig};

fn config(seed: u64) -> GenConfig {
    GenConfig {
        seed,
        target_blocks: 20,
        num_vars: 5,
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.35,
        max_depth: 3,
        expr_depth: 2,
        nondet: true,
    }
}

#[test]
fn liveness_dce_equals_core_dce_on_random_programs() {
    for seed in 0..60u64 {
        let p = structured(&config(seed));
        let mut a = p.clone();
        liveness_dce(&mut a);
        let mut b = p.clone();
        optimize(&mut b, &PdceConfig::dce_only()).unwrap();
        assert!(
            structural_eq(&a, &b),
            "seed {seed}:\nliveness:\n{}\ncore dce:\n{}",
            canonical_string(&a),
            canonical_string(&b)
        );
    }
}

#[test]
fn duchain_marking_equals_fce_on_random_programs() {
    for seed in 0..60u64 {
        let p = structured(&config(seed.wrapping_mul(31)));
        let mut a = p.clone();
        duchain_dce(&mut a);
        let mut b = p.clone();
        optimize(&mut b, &PdceConfig::fce_only()).unwrap();
        assert!(
            structural_eq(&a, &b),
            "seed {seed}:\ndu-chain:\n{}\nfce:\n{}",
            canonical_string(&a),
            canonical_string(&b)
        );
    }
}

#[test]
fn agreement_extends_to_irreducible_graphs() {
    for seed in 0..30u64 {
        let p = tangled(&config(seed), 6);
        let mut a = p.clone();
        duchain_dce(&mut a);
        let mut b = p.clone();
        optimize(&mut b, &PdceConfig::fce_only()).unwrap();
        assert!(
            structural_eq(&a, &b),
            "seed {seed}:\ndu-chain:\n{}\nfce:\n{}",
            canonical_string(&a),
            canonical_string(&b)
        );

        let mut a = p.clone();
        liveness_dce(&mut a);
        let mut b = p.clone();
        optimize(&mut b, &PdceConfig::dce_only()).unwrap();
        assert!(structural_eq(&a, &b), "seed {seed} (liveness)");
    }
}

/// Sparse SSA-based DCE (Cytron et al., the §5.2 comparison point) is a
/// third independent implementation of faint-code elimination: its
/// removal set must coincide with fce and with du-chain marking.
#[test]
fn ssa_dce_equals_fce_on_random_programs() {
    for seed in 0..60u64 {
        let p = structured(&config(seed.wrapping_mul(77)));
        let mut a = p.clone();
        ssa_dce(&mut a);
        let mut b = p.clone();
        optimize(&mut b, &PdceConfig::fce_only()).unwrap();
        assert!(
            structural_eq(&a, &b),
            "seed {seed}:\nssa-dce:\n{}\nfce:\n{}",
            canonical_string(&a),
            canonical_string(&b)
        );
    }
    // Including irreducible graphs (dominance handles them fine).
    for seed in 0..30u64 {
        let p = tangled(&config(seed ^ 0x55), 6);
        let mut a = p.clone();
        ssa_dce(&mut a);
        let mut b = p.clone();
        optimize(&mut b, &PdceConfig::fce_only()).unwrap();
        assert!(structural_eq(&a, &b), "tangled seed {seed}");
    }
}

/// The inclusion chain of removal power: dce ⊆ fce pointwise (every
/// program dce can strip, fce strips at least as much).
#[test]
fn fce_removes_at_least_as_much_as_dce() {
    for seed in 0..40u64 {
        let p = structured(&config(seed ^ 0xabc));
        let mut with_dce = p.clone();
        optimize(&mut with_dce, &PdceConfig::dce_only()).unwrap();
        let mut with_fce = p.clone();
        optimize(&mut with_fce, &PdceConfig::fce_only()).unwrap();
        assert!(
            with_fce.num_assignments() <= with_dce.num_assignments(),
            "seed {seed}"
        );
    }
}
