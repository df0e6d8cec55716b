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

use crate::dead::DeadSolution;
use crate::faint::FaintSolution;
use crate::run::Run;

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
    eliminate_once_run(prog, cache, &mut Run::new(prog), mode, region)
}

/// [`eliminate_once_cached`] on a run's state: dead's gen/kill rows come
/// from the run's kept rows, only blocks edited since their last walk or
/// whose exit row changed are walked, and every removal goes through the
/// run's edit log.
pub(crate) fn eliminate_once_run(
    prog: &mut Program,
    cache: &mut AnalysisCache,
    run: &mut Run,
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
        |n: &NodeId| region.is_none_or(|r| r[n.index()]) && view.rpo_index(*n) != usize::MAX;
    let analysis = ElimAnalysis::get(prog, cache, run, mode);
    let mut plans = run.rows.plan(
        prog,
        &run.edits,
        &analysis,
        prog.node_ids().filter(in_region),
    );
    if pdce_trace::fault::flip(fault_site) {
        inject_decision_bitflip(prog, prog.node_ids().filter(in_region), &mut plans);
    }
    record_eliminations(prog, &plans, pass_name, detail);
    let mut removed = 0u64;
    for (n, doomed) in &plans {
        removed += doomed.len() as u64;
        run.edits
            .rewrite(prog, *n, |old, out| keep_survivors(old, doomed, out));
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

/// The analysis that drives eliminations in one mode, served from the
/// cache. Both answer through the same rolling visitor, which walks a
/// block backwards once instead of materializing one row per statement.
pub(crate) enum ElimAnalysis {
    Dead(Rc<DeadSolution>),
    Faint(Rc<FaintSolution>),
}

impl ElimAnalysis {
    /// `mode`'s analysis of `prog`, from `cache` when still valid; a
    /// dead solve on a miss reads `run`'s kept gen/kill rows.
    pub(crate) fn get(
        prog: &Program,
        cache: &mut AnalysisCache,
        run: &mut Run,
        mode: Mode,
    ) -> ElimAnalysis {
        match mode {
            Mode::Dead => ElimAnalysis::Dead(cache.analysis::<DeadSolution, _>(prog, |p, v| {
                let (gen, kill) = run.rows.dead(p, &run.edits);
                DeadSolution::solve_rows(v, gen, kill)
            })),
            Mode::Faint => ElimAnalysis::Faint(
                cache.analysis::<FaintSolution, _>(prog, FaintSolution::compute),
            ),
        }
    }

    /// The row after block `n`'s terminator, where its walk starts.
    pub(crate) fn at_exit(&self, n: NodeId) -> Row<'_> {
        match self {
            ElimAnalysis::Dead(d) => d.at_exit(n),
            ElimAnalysis::Faint(f) => f.at_exit(n),
        }
    }

    /// Appends the ascending indices of block `n`'s assignments whose
    /// left-hand side is dead (faint) immediately after them to
    /// `doomed`, returning the walk's word operations unrecorded.
    pub(crate) fn doomed(&self, prog: &Program, n: NodeId, doomed: &mut Vec<usize>) -> u64 {
        let stmts = &prog.block(n).stmts;
        let from = doomed.len();
        let mut visit = |k: usize, after: Row<'_>| {
            if let Stmt::Assign { lhs, .. } = stmts[k] {
                if after.get(lhs.index()) {
                    doomed.push(k);
                }
            }
        };
        let word_ops = match self {
            ElimAnalysis::Dead(d) => d.walk_stmts_after(prog, n, &mut visit),
            ElimAnalysis::Faint(f) => f.walk_stmts_after(prog, n, &mut visit),
        };
        doomed[from..].reverse(); // the walk runs last-to-first
        word_ops
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
    eliminate_fixpoint_run(prog, cache, &mut Run::new(prog), mode, region)
}

/// [`eliminate_fixpoint_cached`] on a run's state (see
/// [`eliminate_once_run`]).
pub(crate) fn eliminate_fixpoint_run(
    prog: &mut Program,
    cache: &mut AnalysisCache,
    run: &mut Run,
    mode: Mode,
    region: Option<&[bool]>,
) -> (u64, u64) {
    let mut total = 0u64;
    let mut passes = 0u64;
    loop {
        let removed = eliminate_once_run(prog, cache, run, mode, region);
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
/// elimination decision bit by dooming the first assignment, over
/// `blocks` in order, that the analysis did *not* prove removable — a
/// deliberate miscompile that per-round translation validation must
/// catch and roll back. `plans` lists the planned blocks in node order.
fn inject_decision_bitflip(
    prog: &Program,
    blocks: impl Iterator<Item = NodeId>,
    plans: &mut Vec<(NodeId, Vec<usize>)>,
) {
    for n in blocks {
        let at = plans.partition_point(|&(m, _)| m < n);
        let planned = plans.get(at).filter(|(m, _)| *m == n);
        let doomed = planned.map_or(&[][..], |(_, d)| d.as_slice());
        let spared = prog
            .block(n)
            .stmts
            .iter()
            .enumerate()
            .position(|(k, stmt)| matches!(stmt, Stmt::Assign { .. }) && !doomed.contains(&k));
        if let Some(k) = spared {
            if planned.is_some() {
                plans[at].1.push(k);
                plans[at].1.sort_unstable();
            } else {
                plans.insert(at, (n, vec![k]));
            }
            return;
        }
    }
}

/// Removes, for each `(block, doomed)` plan, the statements at the
/// ascending indices `doomed`, returning how many went. Blocks with an
/// empty plan are left untouched (their revision does not move).
pub fn apply_removals(prog: &mut Program, plans: &[(NodeId, Vec<usize>)]) -> u64 {
    let mut removed = 0u64;
    for (n, doomed) in plans {
        if doomed.is_empty() {
            continue;
        }
        let mut keep = Vec::with_capacity(prog.block(*n).stmts.len() - doomed.len());
        keep_survivors(&prog.block(*n).stmts, doomed, &mut keep);
        removed += doomed.len() as u64;
        // `stmts_mut` (vs `block_mut`) logs a statement-level change, so
        // the analysis cache keeps its `CfgView` across the removal and
        // only relayouts the view's instruction arena (`CfgView::relayout`)
        // instead of rebuilding the graph.
        *prog.stmts_mut(*n) = keep;
    }
    removed
}

/// Appends the statements of `old` whose indices are not in the
/// ascending list `doomed` to `out`.
fn keep_survivors(old: &[Stmt], doomed: &[usize], out: &mut Vec<Stmt>) {
    let mut d = doomed.iter().peekable();
    for (k, stmt) in old.iter().enumerate() {
        if d.peek() == Some(&&k) {
            d.next();
        } else {
            out.push(*stmt);
        }
    }
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
