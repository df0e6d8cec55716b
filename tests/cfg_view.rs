//! Cross-layer `CfgView` guarantees.
//!
//! Every analysis layer (the worklist solvers in `pdce-dfa`, the
//! dominance machinery in `pdce-ssa`, the faint network in `pdce-core`)
//! now consumes its traversal orders from the one revision-cached
//! [`CfgView`] instead of recomputing private DFS orders. These tests
//! pin the two properties that refactor rests on:
//!
//! 1. the view's orders equal the reference DFS orders every consumer
//!    used to compute privately (200 generator-seeded CFGs, reducible
//!    and irreducible), and
//! 2. any sequence of program mutations — statement-local edits,
//!    conservative interior edits, block additions, edge splits, and
//!    whole-graph rewrites — leaves the cache's view identical to a
//!    cold rebuild.

use pdce::dfa::AnalysisCache;
use pdce::ir::{simplify_cfg, Block, CfgView, NodeId, Program, Stmt, Terminator};
use pdce::progen::{structured, tangled, GenConfig};
use pdce::ssa::DomInfo;
use pdce_rng::Rng;

fn config(seed: u64, nondet: bool) -> GenConfig {
    GenConfig {
        seed,
        target_blocks: 20,
        num_vars: 5,
        stmts_per_block: (1, 3),
        out_prob: 0.25,
        loop_prob: 0.3,
        max_depth: 3,
        expr_depth: 2,
        nondet,
    }
}

fn generate(case: usize, seed: u64) -> Program {
    if case % 4 == 3 {
        tangled(&config(seed, true), 5)
    } else {
        structured(&config(seed, case.is_multiple_of(2)))
    }
}

/// Reference block DFS postorder: successor order, entry-rooted — the
/// private traversal `domfront` and the solvers each derived before the
/// refactor.
fn reference_postorder(p: &Program) -> Vec<NodeId> {
    fn go(p: &Program, n: NodeId, seen: &mut [bool], post: &mut Vec<NodeId>) {
        seen[n.index()] = true;
        for m in p.successors(n) {
            if !seen[m.index()] {
                go(p, m, seen, post);
            }
        }
        post.push(n);
    }
    let mut seen = vec![false; p.num_blocks()];
    let mut post = Vec::new();
    go(p, p.entry(), &mut seen, &mut post);
    post
}

/// The view's block orders, dominator input order, and instruction
/// order all agree with the reference traversals on 200 generated CFGs.
#[test]
fn orders_agree_with_reference_dfs_on_200_cfgs() {
    let mut rng = Rng::new(0xcf9_0001);
    for case in 0..200 {
        let p = generate(case, rng.next_u64());
        let view = CfgView::new(&p);

        // Block postorder and its reverse.
        let post = reference_postorder(&p);
        assert_eq!(view.postorder(), &post[..], "postorder (case {case})");
        let rpo: Vec<NodeId> = post.iter().rev().copied().collect();
        assert_eq!(view.rpo(), &rpo[..], "rpo (case {case})");
        for (i, &n) in rpo.iter().enumerate() {
            assert_eq!(view.rpo_index(n), i, "rpo_index (case {case})");
        }
        for n in p.node_ids() {
            if !post.contains(&n) {
                assert_eq!(view.rpo_index(n), usize::MAX, "unreachable (case {case})");
            }
        }

        // Adjacency matches the authoritative terminators.
        for n in p.node_ids() {
            assert_eq!(view.succs(n), &p.successors(n)[..], "succs (case {case})");
        }

        // The dominance layer consumes the same orders: its idoms match
        // the view's own solver.
        let dom = DomInfo::compute(&view);
        assert_eq!(dom.idom, view.immediate_dominators(), "idoms (case {case})");

        // Instruction arena layout.
        let mut expect_off = vec![0u32];
        for n in p.node_ids() {
            expect_off.push(expect_off.last().unwrap() + p.block(n).stmts.len() as u32 + 1);
        }
        assert_eq!(
            view.instr_offsets(),
            &expect_off[..],
            "offsets (case {case})"
        );
    }
}

/// One random mutation step. Returns a label for failure messages.
fn mutate(p: &mut Program, rng: &mut Rng, step: usize) -> &'static str {
    match rng.next_u64() % 6 {
        0 => {
            // Statement-local edit through the logged accessor.
            let candidates: Vec<NodeId> = p
                .node_ids()
                .filter(|&n| !p.block(n).stmts.is_empty())
                .collect();
            if let Some(&n) = candidates.get(rng.next_u64() as usize % candidates.len().max(1)) {
                let stmts = p.stmts_mut(n);
                let i = rng.next_u64() as usize % stmts.len();
                if rng.next_u64().is_multiple_of(2) {
                    stmts.remove(i);
                } else {
                    stmts.insert(i, Stmt::Skip);
                }
            }
            "stmts_mut"
        }
        1 => {
            // Conservative interior edit (logged as structural).
            let n = NodeId::from_index(rng.next_u64() as usize % p.num_blocks());
            p.block_mut(n).stmts.push(Stmt::Skip);
            "block_mut"
        }
        2 => {
            let name = format!("extra_{step}");
            let exit = p.exit();
            p.add_block(Block::new(name, Terminator::Goto(exit)))
                .expect("fresh name");
            "add_block"
        }
        3 => {
            let edges: Vec<(NodeId, NodeId)> = CfgView::new(p).edges().collect();
            if !edges.is_empty() {
                let (from, to) = edges[rng.next_u64() as usize % edges.len()];
                p.split_edge(from, to);
            }
            "split_edge"
        }
        4 => {
            p.touch();
            "touch"
        }
        _ => {
            // Whole-graph rewrite (drop unreachable blocks, merge
            // chains) through `replace_graph`.
            simplify_cfg(p);
            "simplify_cfg"
        }
    }
}

/// Property: after ANY `ChangeSet` sequence, the cached view equals a
/// cold rebuild — revision memoization never serves a stale view.
#[test]
fn cached_view_equals_cold_rebuild_under_random_mutations() {
    let mut rng = Rng::new(0xcf9_0002);
    for case in 0..40 {
        let mut p = generate(case, rng.next_u64());
        let mut cache = AnalysisCache::new();
        // Warm the cache before mutating.
        cache.cfg(&p);
        for step in 0..12 {
            let label = mutate(&mut p, &mut rng, step);
            let cached = cache.cfg(&p);
            assert_eq!(
                *cached,
                CfgView::new(&p),
                "cached view diverged after {label} (case {case}, step {step})"
            );
            // A second read with no interleaved mutation is a pure hit.
            let again = cache.cfg(&p);
            assert_eq!(
                *again, *cached,
                "idempotent read (case {case}, step {step})"
            );
        }
    }
}
