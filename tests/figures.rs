//! End-to-end reproduction of every figure of the paper.
//!
//! The supplied scan's figures are OCR-degraded, so each program below is
//! a reconstruction that exhibits *exactly the behaviour the prose
//! describes* (which transformation fires, what the result looks like,
//! and which effects are second-order). Every test also checks the
//! `better` relation of Definition 3.6 (the result dominates the input
//! on every corresponding path).

use std::rc::Rc;

use pdce::core::better::{check_improvement, BetterOptions};
use pdce::core::driver::{optimize, PdceConfig, PdceError, PdceStats};
use pdce::core::elim::{eliminate_once, Mode};
use pdce::ir::parser::parse;
use pdce::ir::printer::{canonical_string, diff, structural_eq};
use pdce::ir::Program;
use pdce::trace::{self, ProvAction};

/// Runs the driver under a provenance collector and checks that the
/// sunk and inserted counts it reports are exactly the sink pass's
/// provenance records: a block that re-derives its own statements
/// counts as neither.
fn optimize_counted(p: &mut Program, config: &PdceConfig) -> Result<PdceStats, PdceError> {
    let collector = Rc::new(trace::Collector::new());
    let stats = {
        let _guard = trace::install(collector.clone());
        optimize(p, config)?
    };
    let log = collector.provenance();
    let records = |action| {
        log.iter()
            .filter(|r| r.pass == "sink" && r.action == action)
            .count() as u64
    };
    assert_eq!(
        (stats.sunk_assignments, stats.inserted_assignments),
        (records(ProvAction::Sunk), records(ProvAction::Inserted)),
        "sunk/inserted counts vs sink provenance records"
    );
    Ok(stats)
}

fn pde(p: &mut Program) -> Result<PdceStats, PdceError> {
    optimize_counted(p, &PdceConfig::pde())
}

fn pfe(p: &mut Program) -> Result<PdceStats, PdceError> {
    optimize_counted(p, &PdceConfig::pfe())
}

fn assert_result(got: &Program, want_src: &str) {
    let want = parse(want_src).unwrap();
    assert!(
        structural_eq(got, &want),
        "result mismatch:\n{}\ngot:\n{}",
        diff(got, &want),
        canonical_string(got)
    );
}

fn assert_improves(original: &str, optimized: &Program) {
    let orig = parse(original).unwrap();
    let report = check_improvement(&orig, optimized, &BetterOptions::default());
    assert!(
        report.holds(),
        "Definition 3.6 dominance violated: {:#?}",
        report.violations
    );
}

/// Figures 1 → 2: the motivating example. `y := a + b` is dead on the
/// branch that redefines `y` and alive on the other; sinking it to both
/// branch entries makes the dead copy removable.
#[test]
fn fig_1_2_motivating_example() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { y := 4; goto n4 }
        block n3 { out(y); goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";
    let mut p = parse(src).unwrap();
    let stats = pde(&mut p).unwrap();
    assert_result(
        &p,
        "prog {
            block s  { goto n1 }
            block n1 { nondet n2 n3 }
            block n2 { y := 4; goto n4 }
            block n3 { y := a + b; out(y); goto n4 }
            block n4 { out(y); goto e }
            block e  { halt }
        }",
    );
    assert_eq!(stats.eliminated_assignments, 1);
    // `y := a + b` leaves n1 for the entries of n2 and n3; n2's own
    // `y := 4` is re-inserted at its exit behind the new entry copy.
    assert_eq!((stats.sunk_assignments, stats.inserted_assignments), (2, 3));
    assert_improves(src, &p);
}

/// Figures 3 → 4: the "loop invariant" two-instruction fragment. The
/// first instruction defines an operand of the second, so loop-invariant
/// code motion cannot touch it; pde removes the *second* assignment from
/// the loop first (it is partially dead past the loop), which unblocks
/// the first — a second-order effect needing multiple global rounds.
#[test]
fn fig_3_4_second_order_loop() {
    let src = "prog {
        block s { goto h }
        block h { y := a + b; c := y - d; nondet hb after }
        block hb { x := x + 1; goto h }
        block after { nondet n7 n8 }
        block n7 { out(c); goto e }
        block n8 { out(x); goto e }
        block e { halt }
    }";
    let mut p = parse(src).unwrap();
    let stats = pde(&mut p).unwrap();
    assert_result(
        &p,
        "prog {
            block s { goto h }
            block h { nondet hb after }
            block hb { x := x + 1; goto h }
            block after { nondet n7 n8 }
            block n7 { y := a + b; c := y - d; out(c); goto e }
            block n8 { out(x); goto e }
            block e { halt }
        }",
    );
    assert!(
        stats.rounds >= 3,
        "second-order effect needs several rounds, got {}",
        stats.rounds
    );
    assert_improves(src, &p);
    // The loop body now only contains the genuinely loop-carried work.
    let h = p.block_by_name("h").unwrap();
    assert!(p.block(h).stmts.is_empty());
}

/// Figures 5 → 6: irreducible control flow. The assignment moves across
/// the two-entry (irreducible) region, is eliminated on the branch that
/// redefines `x`, and lands in the synthetic node on the loop-entry
/// edge. It remains *partially* dead there: eliminating it would demand
/// sinking into the second loop, which would impair executions — pde
/// must leave it alone (Theorem 5.2's "no impairment" guarantee).
#[test]
fn fig_5_6_irreducible_loops() {
    let src = "prog {
        block n1 { x := a + b; nondet n2 n3 }
        block n2 { nondet n3 n4 }
        block n3 { nondet n2 n4 }
        block n4 { nondet n5 n6 }
        block n5 { nondet n7 n8 }
        block n6 { x := c + 1; out(x); goto n10 }
        block n7 { y := y + x; goto n9 }
        block n8 { goto n9 }
        block n9 { nondet n5 n10 }
        block n10 { out(y); goto e }
        block e { halt }
    }";
    let mut p = parse(src).unwrap();
    let stats = pde(&mut p).unwrap();
    // The graph is genuinely irreducible.
    assert!(!pdce::ir::CfgView::new(&parse(src).unwrap()).is_reducible());

    // x := a+b left n1 and was eliminated on the n6 path.
    let n1 = p.block_by_name("n1").unwrap();
    assert!(p.block(n1).stmts.is_empty(), "assignment must leave n1");
    let n6 = p.block_by_name("n6").unwrap();
    assert_eq!(p.block(n6).stmts.len(), 2, "dead copy at n6 removed");
    // It sits in the synthetic node S_n4_n5 on the loop-entry edge.
    let s45 = p
        .block_by_name("S_n4_n5")
        .expect("edge (n4,n5) was critical and split");
    assert_eq!(p.block(s45).stmts.len(), 1);
    assert_eq!(
        pdce::ir::printer::print_stmt(&p, &p.block(s45).stmts[0]),
        "x := a + b"
    );
    // And pde does NOT push it into the loop (header n5 stays empty).
    let n5 = p.block_by_name("n5").unwrap();
    assert!(p.block(n5).stmts.is_empty(), "must not sink into the loop");
    let n7 = p.block_by_name("n7").unwrap();
    assert_eq!(p.block(n7).stmts.len(), 1, "loop body unchanged");
    assert!(stats.synthetic_blocks > 0);
    assert_improves(src, &p);
}

/// Figure 7: m-to-n sinking. Occurrences on both arms merge at the join
/// and sink simultaneously; on the arm that never uses `a` the
/// assignment disappears entirely — impossible when treating occurrences
/// one at a time (the Feigen et al. limitation).
#[test]
fn fig_7_m_to_n_sinking() {
    let src = "prog {
        block s  { nondet n1 n2 }
        block n1 { a := a + 1; goto n3 }
        block n2 { y := c + d; a := a + 1; goto n3 }
        block n3 { nondet n4 n5 }
        block n4 { out(a); goto e }
        block n5 { out(b); goto e }
        block e  { halt }
    }";
    let mut p = parse(src).unwrap();
    pde(&mut p).unwrap();
    assert_result(
        &p,
        "prog {
            block s  { nondet n1 n2 }
            block n1 { goto n3 }
            block n2 { goto n3 }
            block n3 { nondet n4 n5 }
            block n4 { a := a + 1; out(a); goto e }
            block n5 { out(b); goto e }
            block e  { halt }
        }",
    );
    assert_improves(src, &p);
}

/// Figure 8: critical edges. Without splitting, `x := a + b` cannot be
/// eliminated (moving it to n2 would add a computation to the n3 path);
/// the synthetic node `S_n1_n2` unblocks it.
#[test]
fn fig_8_critical_edge() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { x := a + b; nondet n2 n3 }
        block n3 { x := 5; goto n2 }
        block n2 { out(x); goto e }
        block e  { halt }
    }";
    let mut p = parse(src).unwrap();
    let stats = pde(&mut p).unwrap();
    assert_eq!(stats.synthetic_blocks, 1);
    assert_result(
        &p,
        "prog {
            block s  { goto n1 }
            block n1 { nondet S_n1_n2 n3 }
            block S_n1_n2 { x := a + b; goto n2 }
            block n3 { x := 5; goto n2 }
            block n2 { out(x); goto e }
            block e  { halt }
        }",
    );
    assert_improves(src, &p);
}

/// Figure 9: faint but not dead. `x := x + 1` in a loop, never observed:
/// dead-code elimination (and hence pde) keeps it; faint-code
/// elimination (pfe) removes it.
#[test]
fn fig_9_faint_not_dead() {
    let src = "prog {
        block s { goto l }
        block l { x := x + 1; nondet l d }
        block d { goto e }
        block e { halt }
    }";
    let mut p = parse(src).unwrap();
    pde(&mut p).unwrap();
    assert_eq!(p.num_assignments(), 1, "pde keeps the faint increment");

    let mut p = parse(src).unwrap();
    let stats = pfe(&mut p).unwrap();
    assert_eq!(p.num_assignments(), 0, "pfe removes it");
    assert_eq!(stats.eliminated_assignments, 1);
    assert_improves(src, &p);
}

/// Figure 10: sinking–sinking. `y := a + b` is blocked by `a := c`;
/// only after `a := c` sinks (to its use in n5) can `y := a + b` follow
/// — and then dce removes its copy on the redefining arm.
#[test]
fn fig_10_sinking_sinking() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; goto n2 }
        block n2 { a := c; nondet n3 n4 }
        block n3 { y := d; goto n5 }
        block n4 { goto n5 }
        block n5 { x := a + c; goto n6 }
        block n6 { out(x + y); goto e }
        block e  { halt }
    }";
    let mut p = parse(src).unwrap();
    let stats = pde(&mut p).unwrap();
    assert_result(
        &p,
        "prog {
            block s  { goto n1 }
            block n1 { goto n2 }
            block n2 { nondet n3 n4 }
            block n3 { y := d; goto n5 }
            block n4 { y := a + b; goto n5 }
            block n5 { goto n6 }
            block n6 { a := c; x := a + c; out(x + y); goto e }
            block e  { halt }
        }",
    );
    assert!(stats.rounds >= 2, "second-order: needs ≥ 2 rounds");
    assert_improves(src, &p);
    // Note: the paper's Figure 10(b) leaves `a := c; x := a + c` in node
    // 5; our fixpoint carries them one (unconditional) block further into
    // node 6. The two placements have identical per-path occurrence
    // counts — the optimal program is only unique "up to some reordering
    // in basic blocks" (Section 3).
}

/// Figure 11: elimination–sinking. `z := y + 1` blocks the sinking of
/// `y := a + b` but is itself dead (z is redefined before use); its
/// *elimination* unblocks the sinking.
#[test]
fn fig_11_elimination_sinking() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; z := y + 1; z := 2; nondet n4 n5 }
        block n4 { y := 0; out(z); goto e }
        block n5 { out(y); goto e }
        block e  { halt }
    }";
    let mut p = parse(src).unwrap();
    let stats = pde(&mut p).unwrap();
    assert_result(
        &p,
        "prog {
            block s  { goto n1 }
            block n1 { nondet n4 n5 }
            block n4 { z := 2; out(z); goto e }
            block n5 { y := a + b; out(y); goto e }
            block e  { halt }
        }",
    );
    // Eliminated: the dead z := y + 1 (the unblocking step), the sunk
    // copy of y := a + b on the n4 arm, and y := 0 (dead once y is no
    // longer observed on that arm).
    assert!(stats.eliminated_assignments >= 3);
    assert_improves(src, &p);
}

/// Figure 12: elimination–elimination. The dead `y := a + b` at n4 must
/// go before `a := c + 1` becomes dead: two dce passes for pde, a single
/// fce pass for pfe (first-order for faint, Section 4.4).
#[test]
fn fig_12_elimination_elimination() {
    let src = "prog {
        block s  { a := c + 1; nondet n3 n4 }
        block n3 { goto n5 }
        block n4 { y := a + b; goto n5 }
        block n5 { y := c + d; out(y); goto e }
        block e  { halt }
    }";
    let expected = "prog {
        block s  { nondet n3 n4 }
        block n3 { goto n5 }
        block n4 { goto n5 }
        block n5 { y := c + d; out(y); goto e }
        block e  { halt }
    }";
    // Dead mode: strictly two passes.
    let mut p = parse(src).unwrap();
    assert_eq!(eliminate_once(&mut p, Mode::Dead), 1);
    assert_eq!(eliminate_once(&mut p, Mode::Dead), 1);
    assert_result(&p, expected);
    // Faint mode: one pass removes both.
    let mut p = parse(src).unwrap();
    assert_eq!(eliminate_once(&mut p, Mode::Faint), 2);
    assert_result(&p, expected);
    // Full drivers agree.
    let mut p = parse(src).unwrap();
    pde(&mut p).unwrap();
    assert_result(&p, expected);
    assert_improves(src, &p);
}

/// Figure 13: sinking candidates. (The fine-grained per-occurrence
/// checks live in `pdce-core`'s local-predicate unit tests; this is the
/// end-to-end view: only unblocked trailing occurrences move.)
#[test]
fn fig_13_sinking_candidates() {
    let src = "prog {
        block s { y := a + b; a := c; x := 3 * y; nondet n1 n2 }
        block n1 { out(x); goto e }
        block n2 { out(a); goto e }
        block e { halt }
    }";
    let mut p = parse(src).unwrap();
    let stats = pde(&mut p).unwrap();
    // Round 1: y := a + b is not a candidate (blocked by both a := c and
    // x := 3 * y), but those two are and sink to their uses. Round 2:
    // the unblocked y := a + b follows, dying on the n2 arm — the full
    // sinking-sinking cascade.
    assert_result(
        &p,
        "prog {
            block s { nondet n1 n2 }
            block n1 { y := a + b; x := 3 * y; out(x); goto e }
            block n2 { a := c; out(a); goto e }
            block e { halt }
        }",
    );
    assert!(stats.rounds >= 2);
    assert_improves(src, &p);
}

/// Cross-cutting: pfe subsumes pde on every figure program (Theorem 5.2
/// orders the universes: faint elimination is strictly more powerful).
#[test]
fn pfe_never_worse_than_pde_on_figures() {
    let sources = [
        "prog { block s { goto n1 } block n1 { y := a + b; nondet n2 n3 }
          block n2 { y := 4; goto n4 } block n3 { out(y); goto n4 }
          block n4 { out(y); goto e } block e { halt } }",
        "prog { block s { goto l } block l { x := x + 1; nondet l d }
          block d { goto e } block e { halt } }",
        "prog { block s { a := c + 1; nondet n3 n4 } block n3 { goto n5 }
          block n4 { y := a + b; goto n5 } block n5 { y := c + d; out(y); goto e }
          block e { halt } }",
    ];
    for src in sources {
        let mut with_pde = parse(src).unwrap();
        pde(&mut with_pde).unwrap();
        let mut with_pfe = parse(src).unwrap();
        pfe(&mut with_pfe).unwrap();
        assert!(
            with_pfe.num_assignments() <= with_pde.num_assignments(),
            "pfe left more assignments than pde on:\n{src}"
        );
    }
}

/// Cross-cutting: dce-only and fce-only are strictly weaker than their
/// sinking counterparts on the motivating example.
#[test]
fn sinking_strictly_extends_elimination() {
    let src = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { y := 4; goto n4 }
        block n3 { out(y); goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";
    for (weak, strong) in [
        (PdceConfig::dce_only(), PdceConfig::pde()),
        (PdceConfig::fce_only(), PdceConfig::pfe()),
    ] {
        let mut pw = parse(src).unwrap();
        optimize(&mut pw, &weak).unwrap();
        let mut ps = parse(src).unwrap();
        optimize(&mut ps, &strong).unwrap();
        // The weak variant removes nothing here; the strong one kills the
        // partially dead copy on the redefining arm.
        assert_eq!(pw.num_assignments(), 2);
        assert_eq!(ps.num_assignments(), 2); // sunk: one copy per arm... but
                                             // counts per path drop:
        let report = check_improvement(&pw, &ps, &BetterOptions::default());
        assert!(report.holds());
    }
}
