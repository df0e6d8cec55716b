//! Sinking's local predicates and its stability predicate, checked
//! against their definitions.
//!
//! * **Mask equivalence**: [`LocalInfo::compute`] builds `LOCDELAYED`,
//!   `LOCBLOCKED` and the sinking candidates from per-variable blocking
//!   masks in one backward scan per block. It must agree bit for bit
//!   with the executable specification's per-pattern forward scan over
//!   its definition of "blocks" (`tests/support/spec.rs`) on the corpus
//!   and on generated programs, before and after random statement
//!   insertions and deletions; the masks themselves must agree with
//!   that definition statement by statement.
//! * **Stability** (Section 5.4's termination condition):
//!   `sinking_is_stable_cached` holds iff one further
//!   `sink_assignments_cached` pass leaves the program unchanged.

mod support;

use pdce::core::elim::{eliminate_once_cached, Mode};
use pdce::core::sink::{sink_assignments_cached, sinking_is_stable_cached};
use pdce::core::{LocalInfo, PatternTable};
use pdce::dfa::{AnalysisCache, BitVec};
use pdce::ir::edgesplit::split_critical_edges;
use pdce::ir::parser::parse;
use pdce::ir::printer::canonical_string;
use pdce::ir::{Program, Stmt};
use pdce::progen::{structured, tangled, GenConfig};
use pdce_rng::Rng;
use support::bits;

fn assert_matches_reference(prog: &Program, what: &str) {
    let table = PatternTable::build(prog);
    let got = LocalInfo::compute(prog, &table);
    let want = support::spec::local(prog, table.pairs());
    for n in prog.node_ids() {
        let (i, name) = (n.index(), &prog.block(n).name);
        assert_eq!(
            bits(&got.locdelayed[i]),
            want.locdelayed[i],
            "{what}: LOCDELAYED differs in {name}"
        );
        assert_eq!(
            bits(&got.locblocked[i]),
            want.locblocked[i],
            "{what}: LOCBLOCKED differs in {name}"
        );
        assert_eq!(
            got.candidates[i], want.candidates[i],
            "{what}: candidates differ in {name}"
        );
    }
}

fn corpus() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pdce"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus went missing?");
    files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).expect("corpus file readable");
            (
                path.display().to_string(),
                parse(&src).expect("corpus parses"),
            )
        })
        .collect()
}

/// 200 generated programs of 10–400 blocks (log-uniform, stratified so
/// every size band is hit) with 8–24 variables; every eighth one is
/// irreducible.
fn generated() -> Vec<(String, Program)> {
    const COUNT: usize = 200;
    let mut rng = Rng::new(0x10ca_1b17);
    (0..COUNT)
        .map(|i| {
            let position = (i as f64 + rng.gen_f64()) / COUNT as f64;
            let target_blocks = (10.0 * 40f64.powf(position)) as usize;
            let config = GenConfig {
                seed: rng.next_u64(),
                target_blocks,
                num_vars: rng.gen_range_inclusive(8, 24),
                stmts_per_block: (1, 4),
                out_prob: 0.2,
                loop_prob: 0.3,
                max_depth: 12,
                expr_depth: 2,
                nondet: true,
            };
            let prog = if i % 8 == 7 {
                tangled(&config, (target_blocks / 12).max(1))
            } else {
                structured(&config)
            };
            (format!("generated #{i} ({target_blocks} blocks)"), prog)
        })
        .collect()
}

/// Inserts a copy of a random statement of `p` at a random position of
/// a random block, or deletes a random statement.
fn insert_or_delete(p: &mut Program, rng: &mut Rng) {
    let all: Vec<Stmt> = p
        .node_ids()
        .flat_map(|n| p.block(n).stmts.iter().copied())
        .collect();
    let blocks: Vec<_> = p.node_ids().collect();
    let n = blocks[rng.gen_range(0, blocks.len())];
    let stmts = p.stmts_mut(n);
    if rng.gen_bool(0.5) && !stmts.is_empty() {
        stmts.remove(rng.gen_range(0, stmts.len()));
    } else if !all.is_empty() {
        let at = rng.gen_range(0, stmts.len() + 1);
        stmts.insert(at, all[rng.gen_range(0, all.len())]);
    }
}

/// The masks are the per-pattern blocking rules, one variable at a time.
#[test]
fn masks_agree_with_blocking_rules() {
    let p = parse(
        "prog {
           block s { goto m }
           block m { y := a + b; a := 1; z := y; y := 2; skip; out(c); x := x + a; goto t }
           block t { if y < z then m else e }
           block e { halt }
         }",
    )
    .unwrap();
    let table = PatternTable::build(&p);
    let rule = |blocks: &dyn Fn(support::spec::Pattern) -> bool| -> Vec<usize> {
        (0..table.len())
            .filter(|&q| blocks(table.pattern(q)))
            .collect()
    };
    for n in p.node_ids() {
        let block = p.block(n);
        for stmt in &block.stmts {
            let mut got = BitVec::zeros(table.len());
            table.union_stmt_blocks(&p, stmt, &mut got);
            let want = rule(&|q| support::spec::stmt_blocks(&p, q, stmt));
            assert_eq!(got.iter_ones().collect::<Vec<_>>(), want, "{stmt:?}");
        }
        let mut got = BitVec::zeros(table.len());
        table.union_terminator_blocks(&p, &block.term, &mut got);
        let want = rule(&|q| support::spec::terminator_blocks(&p, q, &block.term));
        assert_eq!(got.iter_ones().collect::<Vec<_>>(), want);
    }
}

#[test]
fn mask_local_predicates_match_the_per_pattern_reference() {
    let mut rng = Rng::new(0x10ca_1ed1);
    for (name, mut prog) in corpus().into_iter().chain(generated()) {
        assert_matches_reference(&prog, &name);
        for step in 0..4 {
            insert_or_delete(&mut prog, &mut rng);
            assert_matches_reference(&prog, &format!("{name} after edit {step}"));
        }
    }
}

/// Checks the predicate against one pass at every state of an
/// alternating sink/dce walk: after a pass that changes nothing, dce
/// may expose new sinking opportunities, and the walk ends once dce
/// finds nothing either.
#[test]
fn sinking_is_stable_iff_one_more_pass_changes_nothing() {
    let (mut stable_seen, mut unstable_seen) = (0, 0);
    for (name, mut prog) in corpus().into_iter().chain(generated()) {
        split_critical_edges(&mut prog);
        let mut cache = AnalysisCache::new();
        for step in 0..16 {
            let stable = sinking_is_stable_cached(&prog, &mut cache);
            let before = (prog.revision(), canonical_string(&prog));
            let outcome = sink_assignments_cached(&mut prog, &mut cache, None)
                .expect("critical edges were split");
            let unchanged = !outcome.changed && prog.revision() == before.0;
            assert_eq!(
                stable,
                unchanged,
                "{name}, step {step}: sinking_is_stable says {stable}, one more pass {}",
                if unchanged {
                    "changes nothing"
                } else {
                    "changes the program"
                }
            );
            if unchanged {
                assert_eq!(canonical_string(&prog), before.1, "{name}, step {step}");
                stable_seen += 1;
                if eliminate_once_cached(&mut prog, &mut cache, Mode::Dead, None) == 0 {
                    break;
                }
            } else {
                unstable_seen += 1;
            }
        }
    }
    assert!(stable_seen > 0 && unstable_seen > 0, "both sides exercised");
}
