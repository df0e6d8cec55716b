//! The elimination step (Section 5.2).
//!
//! "Process every basic block by successively eliminating all assignments
//! whose left-hand side variables are dead (faint) immediately after
//! them." One pass over a fixed analysis solution is sound: removing a
//! dead assignment never makes anything *less* dead. Second-order
//! elimination–elimination effects (Figure 12) are handled by iterating
//! the pass to a fixpoint in the driver.

use pdce_dfa::{AnalysisCache, Preserves};
use pdce_ir::{Program, Stmt};

use crate::dead::DeadSolution;
use crate::faint::FaintSolution;

/// Which notion of uselessness drives eliminations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Dead variables (bit-vector analysis; `pde`/`dce`).
    Dead,
    /// Faint variables (slotwise analysis; `pfe`/`fce`).
    Faint,
}

/// Runs one elimination pass, removing every assignment whose left-hand
/// side is dead (faint) immediately after it. Returns the number of
/// removed assignments.
pub fn eliminate_once(prog: &mut Program, mode: Mode) -> u64 {
    eliminate_once_in(prog, mode, None)
}

/// [`eliminate_once`] restricted to a hot region (Section 7's
/// localization heuristic): assignments are only removed from blocks
/// whose index is allowed. The analyses remain global, so region
/// results are always sound — just less aggressive.
pub fn eliminate_once_in(prog: &mut Program, mode: Mode, region: Option<&[bool]>) -> u64 {
    eliminate_once_cached(prog, &mut AnalysisCache::new(), mode, region)
}

/// [`eliminate_once_in`] sharing analyses through an [`AnalysisCache`]:
/// the `CfgView` and the dead/faint solution are served from `cache`
/// when the program has not changed since they were computed (which is
/// exactly the case in the stability-certifying final pass of the
/// fixpoint iteration, and whenever a preceding pass in a pipeline left
/// them valid). After removals the cache is retained at
/// [`Preserves::Cfg`]: eliminations only edit statement lists.
pub fn eliminate_once_cached(
    prog: &mut Program,
    cache: &mut AnalysisCache,
    mode: Mode,
    region: Option<&[bool]>,
) -> u64 {
    let (pass_name, detail) = match mode {
        Mode::Dead => ("dce", "lhs dead after"),
        Mode::Faint => ("fce", "lhs faint after"),
    };
    let trace_span = pdce_trace::span("transform", pass_name);
    let view = cache.cfg(prog);
    // Skip unreachable blocks: the solvers never evaluate them, so their
    // optimistic initial state would claim everything dead there.
    let in_region =
        |n: pdce_ir::NodeId| region.is_none_or(|r| r[n.index()]) && view.rpo_index(n) != usize::MAX;
    let mut removed = 0u64;
    match mode {
        Mode::Dead => {
            let sol = cache.analysis_seeded::<DeadSolution, _>(prog, |p, v, seed| match seed {
                Some((prev, delta)) => {
                    DeadSolution::compute_seeded(p, v, prev, delta.dirty_blocks())
                }
                None => DeadSolution::compute(p, v),
            });
            let plans: Vec<(pdce_ir::NodeId, Vec<usize>)> = prog
                .node_ids()
                .filter(|&n| in_region(n))
                .map(|n| {
                    // The rolling visitor walks the block backwards once
                    // instead of materializing one vector per statement.
                    let stmts = &prog.block(n).stmts;
                    let mut doomed: Vec<usize> = Vec::new();
                    sol.for_each_stmt_after(prog, n, |k, after| {
                        if let Stmt::Assign { lhs, .. } = stmts[k] {
                            if after.get(lhs.index()) {
                                doomed.push(k);
                            }
                        }
                    });
                    doomed.reverse(); // visitor runs last-to-first
                    (n, doomed)
                })
                .collect();
            let mut plans = plans;
            if pdce_trace::fault::flip("dead") {
                inject_decision_bitflip(prog, &mut plans);
            }
            record_eliminations(prog, &plans, pass_name, detail);
            removed += apply_removals(prog, &plans);
        }
        Mode::Faint => {
            // The revision-cached chain graph feeds the faint network,
            // which is always solved cold (DESIGN.md §15).
            let du = cache.du(prog);
            let sol = cache.analysis::<FaintSolution, _>(prog, |p, view| {
                FaintSolution::compute_with_du(p, view, &du)
            });
            let plans: Vec<(pdce_ir::NodeId, Vec<usize>)> = prog
                .node_ids()
                .filter(|&n| in_region(n))
                .map(|n| {
                    let doomed = prog
                        .block(n)
                        .stmts
                        .iter()
                        .enumerate()
                        .filter_map(|(k, stmt)| match *stmt {
                            Stmt::Assign { lhs, .. } if sol.faint_after(n, k, lhs) => Some(k),
                            _ => None,
                        })
                        .collect();
                    (n, doomed)
                })
                .collect();
            let mut plans = plans;
            if pdce_trace::fault::flip("faint") {
                inject_decision_bitflip(prog, &mut plans);
            }
            record_eliminations(prog, &plans, pass_name, detail);
            removed += apply_removals(prog, &plans);
        }
    }
    if removed > 0 {
        // Removals touch statement lists only; the CFG shape survives.
        cache.retain(prog, Preserves::Cfg);
    }
    trace_span.finish_with(if pdce_trace::enabled() {
        vec![("removed", removed.into())]
    } else {
        Vec::new()
    });
    removed
}

/// Logs one provenance record per planned removal (only when a tracer is
/// installed — statement pretty-printing is not free).
fn record_eliminations(
    prog: &Program,
    plans: &[(pdce_ir::NodeId, Vec<usize>)],
    pass: &'static str,
    detail: &'static str,
) {
    if !pdce_trace::enabled() {
        return;
    }
    for (n, doomed) in plans {
        for &k in doomed {
            pdce_trace::provenance(pdce_trace::ProvenanceRecord {
                action: pdce_trace::ProvAction::Eliminated,
                pass,
                round: pdce_trace::round(),
                revision: prog.revision(),
                block: prog.block(*n).name.clone(),
                stmt: pdce_ir::printer::print_stmt(prog, &prog.block(*n).stmts[k]),
                detail,
            });
        }
    }
}

/// Iterates [`eliminate_once`] until no assignment is removable, which
/// captures elimination–elimination second-order effects (Figure 12) for
/// the dead mode. Returns `(total removed, passes that removed something)`.
pub fn eliminate_fixpoint(prog: &mut Program, mode: Mode) -> (u64, u64) {
    eliminate_fixpoint_in(prog, mode, None)
}

/// [`eliminate_fixpoint`] restricted to a hot region.
pub fn eliminate_fixpoint_in(
    prog: &mut Program,
    mode: Mode,
    region: Option<&[bool]>,
) -> (u64, u64) {
    eliminate_fixpoint_cached(prog, &mut AnalysisCache::new(), mode, region)
}

/// [`eliminate_fixpoint_in`] sharing analyses through an
/// [`AnalysisCache`]. The `CfgView` is built (at most) once for the
/// whole iteration instead of once per pass.
pub fn eliminate_fixpoint_cached(
    prog: &mut Program,
    cache: &mut AnalysisCache,
    mode: Mode,
    region: Option<&[bool]>,
) -> (u64, u64) {
    let mut total = 0u64;
    let mut passes = 0u64;
    loop {
        let removed = eliminate_once_cached(prog, cache, mode, region);
        if removed == 0 {
            return (total, passes);
        }
        total += removed;
        passes += 1;
    }
}

/// `FAULT_INJECT=bitflip:dead:n` / `bitflip:faint:n` support: flips one
/// elimination decision bit by dooming the first assignment the
/// analysis did *not* prove removable — a deliberate miscompile that
/// per-round translation validation must catch and roll back.
fn inject_decision_bitflip(prog: &Program, plans: &mut [(pdce_ir::NodeId, Vec<usize>)]) {
    for (n, doomed) in plans.iter_mut() {
        let stmts = &prog.block(*n).stmts;
        for (k, stmt) in stmts.iter().enumerate() {
            if matches!(stmt, Stmt::Assign { .. }) && !doomed.contains(&k) {
                doomed.push(k);
                doomed.sort_unstable();
                return;
            }
        }
    }
}

fn apply_removals(prog: &mut Program, plans: &[(pdce_ir::NodeId, Vec<usize>)]) -> u64 {
    let mut removed = 0u64;
    for (n, doomed) in plans {
        if doomed.is_empty() {
            continue;
        }
        // `stmts_mut` (vs `block_mut`) logs a statement-level change, so
        // the next round's analyses can warm-start from this block alone.
        let stmts = prog.stmts_mut(*n);
        let mut keep = Vec::with_capacity(stmts.len() - doomed.len());
        let mut d = doomed.iter().peekable();
        for (k, stmt) in stmts.iter().enumerate() {
            if d.peek() == Some(&&k) {
                d.next();
                removed += 1;
            } else {
                keep.push(*stmt);
            }
        }
        *stmts = keep;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;
    use pdce_ir::printer::{diff, structural_eq};

    fn check(mode: Mode, src: &str, expected: &str) {
        let mut p = parse(src).unwrap();
        eliminate_fixpoint(&mut p, mode);
        let want = parse(expected).unwrap();
        assert!(
            structural_eq(&p, &want),
            "mismatch after elimination:\n{}",
            diff(&p, &want)
        );
    }

    #[test]
    fn removes_totally_dead_assignment() {
        check(
            Mode::Dead,
            "prog { block s { x := 1; y := 2; out(y); goto e } block e { halt } }",
            "prog { block s { y := 2; out(y); goto e } block e { halt } }",
        );
    }

    #[test]
    fn keeps_partially_dead_assignment() {
        let src = "prog {
            block s  { y := a + b; nondet n2 n3 }
            block n2 { y := 4; goto n4 }
            block n3 { goto n4 }
            block n4 { out(y); goto e }
            block e  { halt }
        }";
        check(Mode::Dead, src, src);
    }

    /// Figure 12: `y := a + b` at node 4 is dead (y is redefined at node
    /// 5 before use); its removal makes `a := c + 1` dead too. Two passes
    /// of dead elimination; one pass of faint elimination.
    #[test]
    fn fig12_elimination_elimination_effect() {
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
        // Dead mode needs two passes.
        let mut p = parse(src).unwrap();
        assert_eq!(eliminate_once(&mut p, Mode::Dead), 1);
        assert_eq!(eliminate_once(&mut p, Mode::Dead), 1);
        assert_eq!(eliminate_once(&mut p, Mode::Dead), 0);
        assert!(structural_eq(&p, &parse(expected).unwrap()));
        // Faint mode removes both in a single pass (first-order for PFE).
        let mut p = parse(src).unwrap();
        assert_eq!(eliminate_once(&mut p, Mode::Faint), 2);
        assert!(structural_eq(&p, &parse(expected).unwrap()));
    }

    /// Figure 9: the faint self-increment is removed by fce, not by dce.
    #[test]
    fn fig9_faint_not_dead() {
        let src = "prog {
            block s { goto l }
            block l { x := x + 1; nondet l d }
            block d { goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        assert_eq!(eliminate_fixpoint(&mut p, Mode::Dead).0, 0);
        let mut p = parse(src).unwrap();
        assert_eq!(eliminate_fixpoint(&mut p, Mode::Faint).0, 1);
    }

    #[test]
    fn within_block_chain_removed_in_one_faint_pass() {
        check(
            Mode::Faint,
            "prog { block s { a := 1; b := a + 1; c := b + 1; out(9); goto e } block e { halt } }",
            "prog { block s { out(9); goto e } block e { halt } }",
        );
    }

    #[test]
    fn multiple_blocks_processed_in_one_pass() {
        check(
            Mode::Dead,
            "prog {
               block s { x := 1; goto m }
               block m { y := 2; goto e }
               block e { halt }
             }",
            "prog {
               block s { goto m }
               block m { goto e }
               block e { halt }
             }",
        );
    }

    #[test]
    fn out_and_skip_are_never_removed() {
        check(
            Mode::Faint,
            "prog { block s { skip; out(1); skip; goto e } block e { halt } }",
            "prog { block s { skip; out(1); skip; goto e } block e { halt } }",
        );
    }
}
