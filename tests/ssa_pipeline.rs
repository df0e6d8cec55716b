//! SSA-substrate integration: the sparse web on hostile control flow,
//! and sparse SSA-based DCE against pfe (Section 5.2).

use pdce::core::driver::{optimize, PdceConfig};
use pdce::ir::CfgView;
use pdce::progen::{tangled, GenConfig};
use pdce::ssa::{ssa_dce, SsaWeb};

/// The SSA web stays sparse on tangled, irreducible graphs: edges grow
/// linearly with statements (φs included), never quadratically.
#[test]
fn web_stays_sparse_on_irreducible_graphs() {
    for seed in 0..10u64 {
        let p = tangled(
            &GenConfig {
                seed,
                target_blocks: 40,
                num_vars: 6,
                nondet: true,
                ..GenConfig::default()
            },
            10,
        );
        let view = CfgView::new(&p);
        let web = SsaWeb::build(&p, &view);
        let i = p.num_stmts().max(1) as u64;
        let v = p.num_vars() as u64;
        assert!(
            web.edges <= 20 * i * v,
            "seed {seed}: {} edges for i={i}, v={v}",
            web.edges
        );
    }
}

/// ssa_dce after pde is a no-op: pde's internal dce already removed all
/// dead code, and sinking never introduces faint assignments... except
/// where sinking *creates* new total deadness that dce already caught.
/// (pfe ≥ ssa_dce in power, so running ssa_dce after pfe removes 0.)
#[test]
fn ssa_dce_finds_nothing_after_pfe() {
    for seed in 0..20u64 {
        let mut p = pdce::progen::structured(&GenConfig {
            seed,
            target_blocks: 20,
            nondet: true,
            ..GenConfig::default()
        });
        optimize(&mut p, &PdceConfig::pfe()).unwrap();
        assert_eq!(ssa_dce(&mut p), 0, "seed {seed}");
    }
}
