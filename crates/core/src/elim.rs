//! The elimination step (Section 5.2).
//!
//! "Process every basic block by successively eliminating all assignments
//! whose left-hand side variables are dead (faint) immediately after
//! them." One pass over a fixed analysis solution is sound: removing a
//! dead assignment never makes anything *less* dead. Dead elimination
//! has second-order elimination–elimination effects (Figure 12), so its
//! pass is iterated to a fixpoint; faint elimination has none, so one
//! pass is final (see [`eliminate_fixpoint_cached`]).

use std::rc::Rc;

use pdce_dfa::{AnalysisCache, Preserves, Row};
use pdce_ir::{NodeId, Program, Stmt};

use crate::dead::{record_walks, DeadSolution};
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
/// when the program has not changed since they were computed (as in a
/// driver round whose previous round's sinking changed nothing). After
/// removals the cache is retained at [`Preserves::Cfg`]: eliminations
/// only edit statement lists.
pub fn eliminate_once_cached(
    prog: &mut Program,
    cache: &mut AnalysisCache,
    mode: Mode,
    region: Option<&[bool]>,
) -> u64 {
    let (pass_name, detail, fault_site) = match mode {
        Mode::Dead => ("dce", "lhs dead after", "dead"),
        Mode::Faint => ("fce", "lhs faint after", "faint"),
    };
    let trace_span = pdce_trace::span("transform", pass_name);
    let view = cache.cfg(prog);
    // Skip unreachable blocks: the solvers never evaluate them, so their
    // optimistic initial state would claim everything dead there.
    let in_region =
        |n: NodeId| region.is_none_or(|r| r[n.index()]) && view.rpo_index(n) != usize::MAX;
    let analysis = ElimAnalysis::get(prog, cache, mode);
    let mut plans = analysis.plan(prog, prog.node_ids().filter(|&n| in_region(n)));
    if pdce_trace::fault::flip(fault_site) {
        inject_decision_bitflip(prog, &mut plans);
    }
    record_eliminations(prog, &plans, pass_name, detail);
    let removed = apply_removals(prog, &plans);
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

/// The analysis that drives eliminations in one mode, served from the
/// cache. Both answer through the same rolling visitor, which walks a
/// block backwards once instead of materializing one row per statement.
pub(crate) enum ElimAnalysis {
    Dead(Rc<DeadSolution>),
    Faint(Rc<FaintSolution>),
}

impl ElimAnalysis {
    /// `mode`'s analysis of `prog`, from `cache` when still valid.
    pub(crate) fn get(prog: &Program, cache: &mut AnalysisCache, mode: Mode) -> ElimAnalysis {
        match mode {
            Mode::Dead => {
                ElimAnalysis::Dead(cache.analysis::<DeadSolution, _>(prog, DeadSolution::compute))
            }
            Mode::Faint => ElimAnalysis::Faint(
                cache.analysis::<FaintSolution, _>(prog, FaintSolution::compute),
            ),
        }
    }

    /// Each of `blocks` with the indices of its assignments whose
    /// left-hand side is dead (faint) immediately after them, ascending.
    /// The walks' word operations are summed and recorded once, not once
    /// per block.
    pub(crate) fn plan(
        &self,
        prog: &Program,
        blocks: impl Iterator<Item = NodeId>,
    ) -> Vec<(NodeId, Vec<usize>)> {
        let mut word_ops = 0;
        let plans = blocks
            .map(|n| {
                let stmts = &prog.block(n).stmts;
                let mut doomed = Vec::new();
                let mut visit = |k: usize, after: Row<'_>| {
                    if let Stmt::Assign { lhs, .. } = stmts[k] {
                        if after.get(lhs.index()) {
                            doomed.push(k);
                        }
                    }
                };
                word_ops += match self {
                    ElimAnalysis::Dead(d) => d.walk_stmts_after(prog, n, &mut visit),
                    ElimAnalysis::Faint(f) => f.walk_stmts_after(prog, n, &mut visit),
                };
                doomed.reverse(); // the walk runs last-to-first
                (n, doomed)
            })
            .collect();
        record_walks(word_ops);
        plans
    }
}

/// Logs one provenance record per planned removal (only when a tracer is
/// installed — statement pretty-printing is not free).
fn record_eliminations(
    prog: &Program,
    plans: &[(NodeId, Vec<usize>)],
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
/// the dead mode; the faint mode stops after one pass, which is already
/// final (see [`eliminate_fixpoint_cached`]). Returns `(total removed,
/// passes that removed something)`.
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
///
/// Dead mode repeats its pass until one removes nothing: removing
/// `y := a + b` can make `a := c + 1` dead (Figure 12). Faint mode
/// returns after its first pass, because removing assignments that are
/// faint after them never makes another assignment faint (Section 4.4).
/// Let `F` be the faint solution of `P`, and `P'` be `P` without any set
/// of assignments `x := t` that each have `x` faint after them in `F`.
/// Such an assignment maps `F`'s row after it to itself, exactly as no
/// instruction does, and every other equation of `P'` is one of `P`'s.
/// So `F` is a fixpoint of `P'` and lies below its greatest fixpoint
/// `F'`. Conversely `F' ⊇ F` still has `x` faint after each removed
/// assignment, so `F'` with those assignments put back is a fixpoint of
/// `P`, and lies below `F`. Hence `F' = F`: the assignments faint in
/// `P'` are exactly those faint in `P` that were kept. The pass removes
/// every faint assignment in the region, so a second pass in the same
/// region removes nothing, whatever the region (and so under any
/// hot-region mask). Debug builds re-check this after every faint pass
/// that removed something, unless a fault is injected (a `bitflip`
/// removes an assignment that is not faint, which the argument does not
/// cover).
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
        if mode == Mode::Faint {
            debug_assert!(
                pdce_trace::fault::armed() || !crate::faint::faint_assignment_remains(prog, region),
                "a second fce pass would remove an assignment"
            );
            return (total, passes);
        }
    }
}

/// `FAULT_INJECT=bitflip:dead:n` / `bitflip:faint:n` support: flips one
/// elimination decision bit by dooming the first assignment the
/// analysis did *not* prove removable — a deliberate miscompile that
/// per-round translation validation must catch and roll back.
fn inject_decision_bitflip(prog: &Program, plans: &mut [(NodeId, Vec<usize>)]) {
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

fn apply_removals(prog: &mut Program, plans: &[(NodeId, Vec<usize>)]) -> u64 {
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
