//! Differential oracle for incremental re-analysis: warm-started
//! (seeded) solving must be indistinguishable from cold solving.
//!
//! Three layers of evidence, strongest first:
//!
//! * **End-to-end**: full pde/pfe runs with incremental re-analysis on
//!   and off emit byte-identical programs on 200 generated CFGs, under
//!   every solver strategy. Every round past the first warm-starts its
//!   dead/delay fixpoints, so any seeding bug that changes a single bit
//!   shows up as a placement or elimination divergence.
//! * **Analysis-level**: after random statement-list mutations, each
//!   seeded `compute_seeded` fixpoint is bit-identical to a cold one.
//!   Faint has no warm start; its default sparse closure is checked
//!   against the FIFO reference on the same mutated programs.
//! * **Change tracking**: the `ChangeSet` dirty-set, widened by
//!   [`affected_closure`], is a superset of the blocks whose cold
//!   fixpoint actually moved — the invariant the warm-start contract
//!   rests on.

use pdce::core::driver::{optimize, PdceConfig};
use pdce::core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable};
use pdce::dfa::{affected_closure, with_incremental, with_strategy, Direction, SolverStrategy};
use pdce::ir::printer::canonical_string;
use pdce::ir::{CfgView, NodeId, Program, Var};
use pdce::progen::{structured, tangled, GenConfig};
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

/// Applies one shape-preserving statement-list mutation through
/// [`Program::stmts_mut`] (so the change log records it) and returns
/// the block it touched, or `None` if the program has no statements.
fn mutate_stmts(p: &mut Program, rng: &mut Rng) -> Option<NodeId> {
    let candidates: Vec<NodeId> = p
        .node_ids()
        .filter(|&n| !p.block(n).stmts.is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let n = candidates[rng.next_u64() as usize % candidates.len()];
    let kind = rng.next_u64() % 3;
    let stmts = p.stmts_mut(n);
    let i = rng.next_u64() as usize % stmts.len();
    match kind {
        0 => {
            stmts.remove(i);
        }
        1 => {
            let s = stmts[i];
            stmts.push(s);
        }
        _ => {
            let mid = i.max(1) % stmts.len().max(1);
            stmts.rotate_left(mid);
        }
    }
    Some(n)
}

/// Full pde/pfe runs with warm-start seeding enabled and disabled emit
/// byte-identical programs on 200 generator-seeded CFGs (every fourth
/// one irreducible), under all three solver strategies. Rounds past the
/// first warm-start every analysis, so this exercises seeding across
/// all rounds of real optimizer runs.
#[test]
fn incremental_and_cold_optimizers_agree_on_200_cfgs() {
    const STRATEGIES: [SolverStrategy; 3] = [
        SolverStrategy::Fifo,
        SolverStrategy::Priority,
        SolverStrategy::Sparse,
    ];

    let mut rng = Rng::new(0x9a9e_50de);
    for case in 0..200usize {
        let seed = rng.next_u64();
        let p = if case % 4 == 3 {
            tangled(&small_config(seed, true), 6)
        } else {
            structured(&small_config(seed, case % 2 == 0))
        };
        for config in [PdceConfig::pde(), PdceConfig::pfe()] {
            for strategy in STRATEGIES {
                let printed = [true, false].map(|incremental| {
                    let mut q = p.clone();
                    with_strategy(strategy, || {
                        with_incremental(incremental, || optimize(&mut q, &config))
                    })
                    .unwrap();
                    canonical_string(&q)
                });
                assert_eq!(
                    printed[0], printed[1],
                    "incremental changed {:?} output under {strategy:?} (case {case})",
                    config.mode
                );
            }
        }
    }
}

/// After a random sequence of statement-list mutations, every seeded
/// analysis fixpoint is bit-identical to a cold re-solve of the
/// mutated program: dead (backward ∩) and delayability (forward ∩,
/// including the derived insertion points). Faint (boolean network),
/// which always solves cold, must match the FIFO reference under the
/// default engine on the same programs.
#[test]
fn seeded_analyses_match_cold_after_random_mutations() {
    for (case, seed) in seeds(1).into_iter().enumerate() {
        let mut rng = Rng::new(seed ^ 0xa5a5);
        let mut p = if case % 4 == 3 {
            tangled(&small_config(seed, true), 6)
        } else {
            structured(&small_config(seed, case % 2 == 0))
        };
        let view = CfgView::new(&p);
        let table0 = PatternTable::build(&p);
        let local0 = LocalInfo::compute(&p, &table0);
        let prev_dead = DeadSolution::compute(&p, &view);
        let prev_delay = DelayInfo::compute(&p, &view, &table0, &local0);

        let rev = p.revision();
        for _ in 0..3 {
            mutate_stmts(&mut p, &mut rng);
        }
        let cs = p
            .changes_since(rev)
            .expect("stmts_mut keeps the log contiguous");
        assert!(!cs.structural(), "stmts_mut must not report structural");
        let dirty = cs.dirty_blocks();

        let cold = DeadSolution::compute(&p, &view);
        let warm = DeadSolution::compute_seeded(&p, &view, &prev_dead, dirty);
        for n in p.node_ids() {
            assert_eq!(
                cold.at_entry(n),
                warm.at_entry(n),
                "dead entry (case {case})"
            );
            assert_eq!(cold.at_exit(n), warm.at_exit(n), "dead exit (case {case})");
        }

        // Statement edits changed the instruction arena; refresh the
        // layout the way `AnalysisCache::sync` does on stmt-local deltas.
        let view = view.relayout(&p);
        let default_f = FaintSolution::compute(&p, &view);
        let fifo_f = with_strategy(SolverStrategy::Fifo, || FaintSolution::compute(&p, &view));
        for n in p.node_ids() {
            for k in 0..=p.block(n).stmts.len() {
                for v in (0..p.num_vars()).map(Var::from_index) {
                    assert_eq!(
                        default_f.faint_before(n, k, v),
                        fifo_f.faint_before(n, k, v),
                        "faint (case {case})"
                    );
                }
            }
        }

        let table = PatternTable::build(&p);
        let local = LocalInfo::compute(&p, &table);
        let cold_d = DelayInfo::compute(&p, &view, &table, &local);
        let warm_d = DelayInfo::compute_seeded(&p, &view, &table, &local, &prev_delay, dirty);
        assert_eq!(cold_d.n_delayed, warm_d.n_delayed, "case {case}");
        assert_eq!(cold_d.x_delayed, warm_d.x_delayed, "case {case}");
        assert_eq!(cold_d.n_insert, warm_d.n_insert, "case {case}");
        assert_eq!(cold_d.x_insert, warm_d.x_insert, "case {case}");
    }
}

/// Replaying a random mutation sequence yields a dirty-set whose
/// dependence-frontier closure is a superset of the blocks whose
/// cold-solve fixpoint actually changed. Deadness is backward, so the
/// frontier of an edit reaches transitive *predecessors*.
#[test]
fn changeset_closure_covers_all_fixpoint_changes() {
    for (case, seed) in seeds(2).into_iter().enumerate() {
        let mut rng = Rng::new(seed ^ 0x5a5a);
        let mut p = structured(&small_config(seed, case % 2 == 0));
        let view = CfgView::new(&p);
        let before = DeadSolution::compute(&p, &view);

        let rev = p.revision();
        let rounds = 1 + (rng.next_u64() % 4) as usize;
        for _ in 0..rounds {
            mutate_stmts(&mut p, &mut rng);
        }
        let cs = p
            .changes_since(rev)
            .expect("stmts_mut keeps the log contiguous");
        assert!(!cs.structural());
        let closure = affected_closure(&view, Direction::Backward, cs.dirty_blocks());

        let after = DeadSolution::compute(&p, &view);
        for n in p.node_ids() {
            if before.at_entry(n) != after.at_entry(n) || before.at_exit(n) != after.at_exit(n) {
                assert!(
                    closure.get(n.index()),
                    "fixpoint moved in {} outside the dirty closure (case {case})",
                    p.block(n).name
                );
            }
        }
    }
}

/// The def-use chain graph's incremental patch is indistinguishable
/// from a cold rebuild: after every mutation of a random statement-list
/// mutation sequence, `DuGraph::patch` over the dirty block equals
/// `DuGraph::build` of the mutated program, structurally — kinds, defs,
/// uses, flow chains, and occurrence sets alike. The patched graph
/// feeds the next step, so splicing errors would compound and surface.
#[test]
fn patched_du_graph_matches_cold_rebuild_after_random_mutations() {
    use pdce::dfa::DuGraph;
    for (case, seed) in seeds(4).into_iter().enumerate() {
        let mut rng = Rng::new(seed ^ 0x00d1);
        let mut p = if case % 4 == 3 {
            tangled(&small_config(seed, true), 6)
        } else {
            structured(&small_config(seed, case % 2 == 0))
        };
        let mut prev = DuGraph::build(&p, &CfgView::new(&p));
        for step in 0..6 {
            let Some(dirty) = mutate_stmts(&mut p, &mut rng) else {
                break;
            };
            let view = CfgView::new(&p);
            let cold = DuGraph::build(&p, &view);
            let patched = DuGraph::patch(&p, &view, &prev, &[dirty]);
            assert_eq!(cold, patched, "case {case} step {step}");
            prev = patched;
        }
    }
}

/// Structural mutations are never misreported as statement-only edits:
/// a `block_mut` borrow (which can reach the terminator) must surface
/// as a structural delta or an unaccountable log (`None`) — both force
/// the cold-solve fallback.
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
