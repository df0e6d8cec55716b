//! Tables 1 and 2 of the paper, checked against hand-computed fixpoints
//! on the Figure 1 program:
//!
//! ```text
//! s  → n1
//! n1: y := a + b        → n2 | n3
//! n2: y := 4            → n4
//! n3: out(y)            → n4
//! n4: out(y)            → e
//! e:  halt
//! ```
//!
//! Hand derivation (variables y, a, b):
//!
//! * Dead (Table 1, backward, all-paths, everything dead at exit):
//!   - exit of n4: all dead. entry of n4: y live (out(y)).
//!   - exit of n2 = exit of n3 = entry of n4: y live, a b dead.
//!   - entry of n2: y dead (redefined); entry of n3: y live.
//!   - exit of n1 = entry(n2) ∧ entry(n3): y live (n3 side), a b dead.
//!   - entry of n1: y dead... no — y's deadness before `y := a+b`:
//!     N-DEAD(y) = ¬USED(y) ∧ (X-DEAD ∨ MOD) = true ∧ (false ∨ true):
//!     y is dead on entry to n1 (it is overwritten before any use).
//!     a, b are used by the assignment: live at entry of n1.
//!
//! * Delayability (Table 2, forward, all-paths, patterns
//!   α₁ = `y := 4`, α₂ = `y := a + b`):
//!   - LOCDELAYED: n1 {α₂}, n2 {α₁}. LOCBLOCKED: n1 {α₁ α₂ — the
//!     occurrence modifies y}, n2 {α₁ α₂}, n3 {α₁ α₂ — out(y) uses y},
//!     n4 {α₁ α₂}.
//!   - N-DELAYED: n2 {α₂}, n3 {α₂} (from n1's exit); n4 ∅ (α₂ blocked
//!     in both preds; α₁ not delayed on the n3 path).
//!   - N-INSERT: n2 {α₂}, n3 {α₂}. X-INSERT: n2 {α₁} (α₁'s candidate
//!     stops at n2's exit because n4's meet fails).

use pdce::core::{DeadSolution, DelayInfo, LocalInfo, PatternTable};
use pdce::ir::parser::parse;
use pdce::ir::CfgView;

const FIG1: &str = "prog {
    block s  { goto n1 }
    block n1 { y := a + b; nondet n2 n3 }
    block n2 { y := 4; goto n4 }
    block n3 { out(y); goto n4 }
    block n4 { out(y); goto e }
    block e  { halt }
}";

#[test]
fn table1_dead_fixpoint_on_fig1() {
    let p = parse(FIG1).unwrap();
    let view = CfgView::new(&p);
    let sol = DeadSolution::compute(&p, &view);
    let var = |name: &str| p.vars().lookup(name).unwrap();
    let node = |name: &str| p.block_by_name(name).unwrap();
    let y = var("y");
    let a = var("a");
    let b = var("b");

    // Exit of the program: everything dead.
    assert!(sol.at_exit(p.exit()).get(y.index()));
    assert!(sol.at_exit(p.exit()).get(a.index()));
    assert!(sol.at_exit(p.exit()).get(b.index()));

    // Entry of n4: y live (out(y)), a b dead.
    let n4 = node("n4");
    assert!(!sol.at_entry(n4).get(y.index()));
    assert!(sol.at_entry(n4).get(a.index()));
    assert!(sol.at_entry(n4).get(b.index()));

    // Entry of n2: y dead (redefined before use).
    assert!(sol.at_entry(node("n2")).get(y.index()));
    // Entry of n3: y live.
    assert!(!sol.at_entry(node("n3")).get(y.index()));

    // Exit of n1 (meet over n2, n3): y live.
    let n1 = node("n1");
    assert!(!sol.at_exit(n1).get(y.index()));
    // Entry of n1: y dead (overwritten), a b live (used by the rhs).
    assert!(sol.at_entry(n1).get(y.index()));
    assert!(!sol.at_entry(n1).get(a.index()));
    assert!(!sol.at_entry(n1).get(b.index()));

    // Immediately after `y := a + b` the variable is NOT dead (it is
    // used on the n3 path before redefinition): partial deadness.
    assert!(!sol.dead_after(&p, n1, 0, y));
}

#[test]
fn table2_delayability_fixpoint_on_fig1() {
    let p = parse(FIG1).unwrap();
    let view = CfgView::new(&p);
    let table = PatternTable::build(&p);
    let local = LocalInfo::compute(&p, &table);
    let delay = DelayInfo::compute(&p, &view, &table, &local);
    let node = |name: &str| p.block_by_name(name).unwrap().index();
    let pat = |key: &str| {
        (0..table.len())
            .find(|&i| table.key(i).as_str() == key)
            .unwrap()
    };
    let a1 = pat("y := 4");
    let a2 = pat("y := a + b");

    // Local predicates (Figure 13's candidate rules).
    assert!(local.locdelayed.row(node("n1")).get(a2));
    assert!(!local.locdelayed.row(node("n1")).get(a1));
    assert!(local.locdelayed.row(node("n2")).get(a1));
    assert!(local.locblocked.row(node("n1")).get(a1), "y := a+b mods y");
    assert!(
        local.locblocked.row(node("n1")).get(a2),
        "the occurrence itself"
    );
    assert!(local.locblocked.row(node("n3")).get(a1), "out(y) uses y");
    assert!(local.locblocked.row(node("n3")).get(a2));
    assert!(local.locblocked.row(node("n4")).get(a1));
    assert!(local.locblocked.row(node("n4")).get(a2));
    assert!(!local.locblocked.row(node("s")).get(a1));
    assert!(!local.locblocked.row(node("s")).get(a2));

    // N-DELAYED: α₂ reaches the entries of n2 and n3, nothing else.
    for (blk, bit, expected) in [
        ("s", a2, false),
        ("n1", a2, false),
        ("n2", a2, true),
        ("n3", a2, true),
        ("n4", a2, false),
        ("e", a2, false),
        ("n2", a1, false),
        ("n4", a1, false),
    ] {
        assert_eq!(
            delay.n_delayed.row(node(blk)).get(bit),
            expected,
            "N-DELAYED mismatch at {blk}"
        );
    }

    // X-DELAYED: α₂ at n1's exit; α₁ at n2's exit.
    assert!(delay.x_delayed.row(node("n1")).get(a2));
    assert!(delay.x_delayed.row(node("n2")).get(a1));
    assert!(!delay.x_delayed.row(node("n2")).get(a2));
    assert!(!delay.x_delayed.row(node("n3")).get(a2));

    // Insertion points: α₂ at the entries of n2 and n3; α₁ re-inserted
    // at n2's exit (the n3 path never carries it, so the meet at n4
    // fails).
    assert!(delay.n_insert.row(node("n2")).get(a2));
    assert!(delay.n_insert.row(node("n3")).get(a2));
    assert!(!delay.n_insert.row(node("n4")).get(a2));
    assert!(delay.x_insert.row(node("n2")).get(a1));
    for blk in ["s", "n1", "e"] {
        assert!(delay.n_insert.row(node(blk)).none(), "{blk}");
        assert!(delay.x_insert.row(node(blk)).none(), "{blk}");
    }
}

/// The faint analysis agrees with the dead analysis on Figure 1 (no
/// faint-only code there), and extends it on the Figure 9 loop.
#[test]
fn table1_faint_column_on_fig1_and_fig9() {
    use pdce::core::FaintSolution;
    let p = parse(FIG1).unwrap();
    let view = CfgView::new(&p);
    let dead = DeadSolution::compute(&p, &view);
    let faint = FaintSolution::compute(&p, &view);
    for n in p.node_ids() {
        for (k, stmt) in p.block(n).stmts.iter().enumerate() {
            if let Some(lhs) = stmt.modified() {
                assert_eq!(
                    dead.dead_after(&p, n, k, lhs),
                    faint.faint_after(n, k, lhs),
                    "fig1 has no faint-only assignment ({}[{}])",
                    p.block(n).name,
                    k
                );
            }
        }
    }

    let p9 = parse(
        "prog {
           block s { goto l }
           block l { x := x + 1; nondet l d }
           block d { goto e }
           block e { halt }
         }",
    )
    .unwrap();
    let view9 = CfgView::new(&p9);
    let dead9 = DeadSolution::compute(&p9, &view9);
    let faint9 = FaintSolution::compute(&p9, &view9);
    let l = p9.block_by_name("l").unwrap();
    let x = p9.vars().lookup("x").unwrap();
    assert!(!dead9.dead_after(&p9, l, 0, x), "not dead (self-use)");
    assert!(faint9.faint_after(l, 0, x), "but faint (Figure 9)");
}
