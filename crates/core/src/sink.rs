//! The assignment-sinking transformation `ask` (Section 5.3).
//!
//! One pass: compute sinking candidates and the delayability solution,
//! then
//!
//! 1. remove every sinking candidate, and
//! 2. insert an instance of every pattern `α` at the entry of each block
//!    with `N-INSERT_n(α)` and at the exit of each block with
//!    `X-INSERT_n(α)`.
//!
//! Patterns inserted at the same point are independent (the paper's
//! observation before "The Insertion Step"), so they are placed in
//! pattern-index order for determinism. The program must be free of
//! critical edges; otherwise `X-INSERT` could demand an insertion at the
//! exit of a branching node, which is unsound (Figure 8).

use std::error::Error;
use std::fmt;

use pdce_dfa::{AnalysisCache, Preserves};
use pdce_ir::{Program, Stmt, TermId, Var};

use crate::delay::DelayInfo;
use crate::local::LocalInfo;
use crate::patterns::PatternTable;

/// Cached delayability solution together with the inputs it was derived
/// under. The delay fixpoint depends on the pattern indexing and the
/// region mask, not just the program revision, so both are recorded and
/// checked before a cache hit is trusted. It hits in the driver's
/// certifying round after a round whose elimination changed the program
/// but whose sinking did not: that round sinks again at the same
/// revision.
struct CachedDelay {
    patterns: Vec<(Var, TermId)>,
    region: Option<Vec<bool>>,
    info: DelayInfo,
}

/// Outcome of one `ask` pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkOutcome {
    /// Sinking candidates removed.
    pub removed: u64,
    /// Pattern instances inserted.
    pub inserted: u64,
    /// Whether any block's statement list changed structurally.
    pub changed: bool,
}

/// `ask` was called on a program that still has critical edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalEdgeError;

impl fmt::Display for CriticalEdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "assignment sinking requires critical edges to be split first"
        )
    }
}

impl Error for CriticalEdgeError {}

/// Runs one assignment-sinking pass over `prog`.
///
/// # Errors
///
/// Returns [`CriticalEdgeError`] if the program has critical edges; call
/// [`pdce_ir::edgesplit::split_critical_edges`] first (the driver does).
///
/// # Example
///
/// ```
/// use pdce_core::sink_assignments;
/// use pdce_ir::parser::parse;
///
/// // The assignment sinks to its use.
/// let mut prog = parse(
///     "prog { block s { x := a + 1; goto m } block m { out(x); goto e }
///             block e { halt } }",
/// )?;
/// let outcome = sink_assignments(&mut prog)?;
/// assert_eq!(outcome.removed, 1);
/// assert!(prog.block(prog.entry()).stmts.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sink_assignments(prog: &mut Program) -> Result<SinkOutcome, CriticalEdgeError> {
    sink_assignments_in(prog, None)
}

/// Runs one sinking pass restricted to a *hot region* (Section 7's
/// localization heuristic): only blocks whose index is allowed (or all
/// blocks, when `region` is `None`) contribute sinking candidates, and
/// disallowed blocks are treated as fully blocking, so no instance
/// moves through, out of, or originates in them. Insertions may land at
/// the entry of a boundary block, which is sound (the instance simply
/// stops at the region border).
///
/// # Errors
///
/// Returns [`CriticalEdgeError`] if the program has critical edges.
pub fn sink_assignments_in(
    prog: &mut Program,
    region: Option<&[bool]>,
) -> Result<SinkOutcome, CriticalEdgeError> {
    sink_assignments_cached(prog, &mut AnalysisCache::new(), region)
}

/// [`sink_assignments_in`] sharing analyses through an
/// [`AnalysisCache`]: the `CfgView` and [`PatternTable`] are served
/// from `cache` when still valid (the elimination step that precedes
/// sinking leaves both alive). Blocks whose statement list would be
/// rewritten identically are left untouched, so a stable program keeps
/// its revision — and its cache — intact.
///
/// The table is the current revision's, so this suits callers whose
/// edits may create patterns (copy propagation does). The driver,
/// whose rounds never create one, pins a single table for the whole run
/// and calls [`sink_with_table`] instead.
///
/// # Errors
///
/// Returns [`CriticalEdgeError`] if the program has critical edges.
pub fn sink_assignments_cached(
    prog: &mut Program,
    cache: &mut AnalysisCache,
    region: Option<&[bool]>,
) -> Result<SinkOutcome, CriticalEdgeError> {
    let table = cache.analysis::<PatternTable, _>(prog, |p, _| PatternTable::build(p));
    sink_with_table(prog, cache, &table, region)
}

/// One `ask` pass whose bit-vectors range over `table`, which must index
/// every assignment pattern of `prog` and may index more. Patterns that
/// no longer occur have no candidates, so their delayability and
/// insertion bits are all zero, and a sorted superset keeps the relative
/// order of the patterns that do occur: the result is the same as with
/// `prog`'s own table. Critical edges are read off the cached view.
///
/// # Errors
///
/// Returns [`CriticalEdgeError`] if the program has critical edges.
pub fn sink_with_table(
    prog: &mut Program,
    cache: &mut AnalysisCache,
    table: &PatternTable,
    region: Option<&[bool]>,
) -> Result<SinkOutcome, CriticalEdgeError> {
    let view = cache.cfg(prog);
    if !view.critical_edges().is_empty() {
        return Err(CriticalEdgeError);
    }
    debug_assert!(
        prog.node_ids()
            .flat_map(|n| prog.block(n).stmts.iter())
            .all(|s| !matches!(s, Stmt::Assign { .. }) || table.index_of_stmt(s).is_some()),
        "the pattern table does not cover the program's assignments"
    );
    let trace_span = pdce_trace::span("transform", "sink");
    if table.is_empty() {
        return Ok(SinkOutcome::default());
    }
    let mut local = LocalInfo::compute(prog, table);
    if let Some(allowed) = region {
        local.restrict_to(allowed);
    }
    let region_key: Option<Vec<bool>> = region.map(<[bool]>::to_vec);
    let cached = cache.analysis::<CachedDelay, _>(prog, |p, v| CachedDelay {
        patterns: table.pairs().to_vec(),
        region: region_key.clone(),
        info: DelayInfo::compute(p, v, table, &local),
    });
    // A fresh cache hit may have been produced under a different region
    // mask (or pattern indexing); it must not be trusted blindly.
    let delay_direct;
    let delay: &DelayInfo =
        if cached.patterns.as_slice() == table.pairs() && cached.region == region_key {
            &cached.info
        } else {
            delay_direct = DelayInfo::compute(prog, &view, table, &local);
            &delay_direct
        };

    let mut outcome = SinkOutcome::default();
    for n in prog.node_ids() {
        // Unreachable blocks (possible when a prior pass folded a branch
        // and simplify_cfg has not run yet) are outside the paper's
        // program model; the solver never evaluates them, so their
        // optimistic all-ones state must not drive transformations.
        if view.rpo_index(n) == usize::MAX {
            continue;
        }
        // Insertions in pattern-index order.
        let entry_ins = delay.n_insert.row(n.index());
        let exit_ins = delay.x_insert.row(n.index());
        let candidates = local.candidates_of(n);
        if entry_ins.none() && exit_ins.none() && candidates.is_empty() {
            continue;
        }
        debug_assert!(
            exit_ins.none() || view.succs(n).len() <= 1,
            "X-INSERT at branching node {} — critical edge left unsplit?",
            prog.block(n).name
        );

        let make = |p: usize| {
            let (lhs, rhs) = table.pattern(p);
            Stmt::Assign { lhs, rhs }
        };
        let old = &prog.block(n).stmts;
        let inserted = entry_ins.count_ones() + exit_ins.count_ones();
        let mut new_stmts = Vec::with_capacity(old.len() + inserted);
        new_stmts.extend(entry_ins.iter_ones().map(make));
        let mut doomed = candidates.iter().map(|&(k, _)| k).peekable();
        for (k, stmt) in old.iter().enumerate() {
            if doomed.peek() == Some(&k) {
                doomed.next();
            } else {
                new_stmts.push(*stmt);
            }
        }
        new_stmts.extend(exit_ins.iter_ones().map(make));
        // Write back and count only when the list actually differs (a
        // stable block re-derives its own statements: candidates removed
        // and re-inserted in place). Skipping the write keeps the
        // program revision — and therefore the cache — intact.
        if new_stmts != *old {
            outcome.removed += candidates.len() as u64;
            outcome.inserted += inserted as u64;
            if pdce_trace::enabled() {
                // Provenance: candidates leave this block; instances
                // re-materialize at the recorded insertion points (a
                // stable block never reaches here, so no phantom moves
                // are logged).
                let rev = prog.revision();
                let rnd = pdce_trace::round();
                let prov = |action, stmt: &Stmt, detail| pdce_trace::ProvenanceRecord {
                    action,
                    pass: "sink",
                    round: rnd,
                    revision: rev,
                    block: prog.block(n).name.clone(),
                    stmt: pdce_ir::printer::print_stmt(prog, stmt),
                    detail,
                };
                for &(k, _) in candidates {
                    pdce_trace::provenance(prov(
                        pdce_trace::ProvAction::Sunk,
                        &old[k],
                        "sinking candidate",
                    ));
                }
                for p in entry_ins.iter_ones() {
                    pdce_trace::provenance(prov(
                        pdce_trace::ProvAction::Inserted,
                        &make(p),
                        "entry insertion",
                    ));
                }
                for p in exit_ins.iter_ones() {
                    pdce_trace::provenance(prov(
                        pdce_trace::ProvAction::Inserted,
                        &make(p),
                        "exit insertion",
                    ));
                }
            }
            outcome.changed = true;
            // `stmts_mut` logs a statement-level change so the next
            // round's analyses can warm-start from this block alone.
            *prog.stmts_mut(n) = new_stmts;
        }
    }
    if outcome.changed {
        // Sinking moves statements between existing blocks; the CFG
        // shape survives.
        cache.retain(prog, Preserves::Cfg);
    }
    trace_span.finish_with(if pdce_trace::enabled() {
        vec![
            ("removed", outcome.removed.into()),
            ("inserted", outcome.inserted.into()),
        ]
    } else {
        Vec::new()
    });
    Ok(outcome)
}

/// Whether a further `ask` pass would leave the program invariant
/// (Section 5.4's termination condition): every reachable block `n`
/// satisfies `N-INSERT_n = false` and `X-INSERT_n = LOCDELAYED_n`.
///
/// The paper's condition leaves a block's candidates free to move
/// past the independent statements after them. The pass re-inserts
/// `X-INSERT` at the block's exit in pattern-index order, so the block
/// is left as it is only if its candidates already form its tail in
/// that order; the predicate checks that too. Unreachable blocks are
/// skipped, as the pass skips them.
pub fn sinking_is_stable(prog: &Program) -> bool {
    sinking_is_stable_cached(prog, &mut AnalysisCache::new())
}

/// [`sinking_is_stable`] sharing analyses through an [`AnalysisCache`]
/// (the predicate is read-only, so everything it requests stays cached
/// for later passes).
pub fn sinking_is_stable_cached(prog: &Program, cache: &mut AnalysisCache) -> bool {
    let view = cache.cfg(prog);
    let table = cache.analysis::<PatternTable, _>(prog, |p, _| PatternTable::build(p));
    if table.is_empty() {
        return true;
    }
    let local = LocalInfo::compute(prog, &table);
    let delay = DelayInfo::compute(prog, &view, &table, &local);
    prog.node_ids().all(|n| {
        let i = n.index();
        let cands = local.candidates_of(n);
        let tail = prog.block(n).stmts.len() - cands.len();
        view.rpo_index(n) == usize::MAX
            || (delay.n_insert.row(i).none()
                && delay.x_insert.row(i) == local.locdelayed.row(i)
                && cands.iter().enumerate().all(|(j, &(k, _))| k == tail + j)
                && cands.windows(2).all(|w| w[0].1 < w[1].1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;
    use pdce_ir::printer::{diff, structural_eq};
    use pdce_ir::CfgView;

    fn sink(src: &str) -> Program {
        let mut p = parse(src).unwrap();
        sink_assignments(&mut p).unwrap();
        p
    }

    fn expect(got: &Program, want_src: &str) {
        let want = parse(want_src).unwrap();
        assert!(
            structural_eq(got, &want),
            "mismatch after sinking:\n{}",
            diff(got, &want)
        );
    }

    /// Figure 1 → Figure 2's sinking half: `y := a+b` moves from n1 to
    /// the entries of n2 and n3 (the elimination of the dead copy at n3
    /// is dce's job).
    #[test]
    fn fig1_sinks_into_both_successors() {
        let got = sink(
            "prog {
               block s  { goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { out(y); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        );
        expect(
            &got,
            "prog {
               block s  { goto n1 }
               block n1 { nondet n2 n3 }
               block n2 { y := a + b; out(y); goto n4 }
               block n3 { y := a + b; y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        );
    }

    #[test]
    fn one_sided_join_inserts_at_exit() {
        let got = sink(
            "prog {
               block s  { nondet l r }
               block l  { x := a + 1; skip; goto j }
               block r  { goto j }
               block j  { out(x); goto e }
               block e  { halt }
             }",
        );
        expect(
            &got,
            "prog {
               block s  { nondet l r }
               block l  { skip; x := a + 1; goto j }
               block r  { goto j }
               block j  { out(x); goto e }
               block e  { halt }
             }",
        );
    }

    /// Sinking towards loop exits: after splitting the critical back
    /// edge, one `ask` pass moves the loop-header assignment into the
    /// synthetic repeat block `S_h_h` and the exit block. (A subsequent
    /// dce pass removes the `S_h_h` copy, completing the loop removal —
    /// tested with the driver.)
    #[test]
    fn sinks_toward_loop_exits() {
        let mut p = parse(
            "prog {
               block s { goto h }
               block h { x := a + b; nondet h after }
               block after { out(x); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        pdce_ir::edgesplit::split_critical_edges(&mut p);
        sink_assignments(&mut p).unwrap();
        expect(
            &p,
            "prog {
               block s { goto h }
               block h { nondet S_h_h after }
               block S_h_h { x := a + b; goto h }
               block after { x := a + b; out(x); goto e }
               block e { halt }
             }",
        );
    }

    /// An assignment used by the loop body must stay.
    #[test]
    fn does_not_sink_used_assignment_out_of_loop() {
        let mut p = parse(
            "prog {
               block s { goto h }
               block h { x := a + b; out(x); nondet h after }
               block after { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        pdce_ir::edgesplit::split_critical_edges(&mut p);
        let before = pdce_ir::printer::canonical_string(&p);
        let out = sink_assignments(&mut p).unwrap();
        assert!(!out.changed);
        assert_eq!(pdce_ir::printer::canonical_string(&p), before);
    }

    /// Pattern delayable to the exit node dissolves (it would be dead).
    #[test]
    fn unneeded_assignment_sinks_off_the_end() {
        let got = sink("prog { block s { x := 1; out(2); goto e } block e { halt } }");
        // x := 1 is a candidate (out(2) doesn't block it), delayable to e
        // with no insertion point: removed entirely.
        expect(&got, "prog { block s { out(2); goto e } block e { halt } }");
    }

    #[test]
    fn critical_edges_are_rejected() {
        let mut p = parse(
            "prog {
               block s  { x := 1; nondet a j }
               block a  { goto j }
               block j  { out(x); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        assert_eq!(sink_assignments(&mut p), Err(CriticalEdgeError));
    }

    /// Sinking reads critical edges off the cached view: every view a
    /// call builds is a cache miss.
    #[test]
    fn sink_builds_no_view_outside_the_cache() {
        let mut p = parse(
            "prog {
               block s  { x := 1; nondet a j }
               block a  { goto j }
               block j  { out(x); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        let mut cache = AnalysisCache::new();
        let views = CfgView::builds_on_this_thread();
        let table = PatternTable::build(&p);
        assert_eq!(
            sink_with_table(&mut p, &mut cache, &table, None),
            Err(CriticalEdgeError)
        );
        pdce_ir::edgesplit::split_critical_edges(&mut p);
        let split_views = 1;
        let outcome = sink_with_table(&mut p, &mut cache, &table, None).unwrap();
        assert!(outcome.changed);
        assert_eq!(
            CfgView::builds_on_this_thread() - views,
            cache.stats().cfg_misses + split_views
        );
    }

    /// A table of a superset of the program's patterns (here: of the
    /// program before a pattern was eliminated) sinks exactly like the
    /// program's own table.
    #[test]
    fn superset_table_sinks_like_the_programs_own() {
        let src = "prog {
               block s  { z := c; i := 0; goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { out(y + i); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }";
        let wide = parse(src).unwrap();
        let table = PatternTable::build(&wide);
        let mut pinned = wide.clone();
        pinned.stmts_mut(pinned.entry()).remove(0);
        let mut own = pinned.clone();
        sink_with_table(&mut pinned, &mut AnalysisCache::new(), &table, None).unwrap();
        sink_assignments(&mut own).unwrap();
        assert_eq!(
            pdce_ir::printer::print_program(&pinned),
            pdce_ir::printer::print_program(&own)
        );
        assert!(PatternTable::build(&own).len() < table.len());
    }

    /// Figure 7 (m-to-n sinking): occurrences of `a := a+1` on both arms
    /// merge at the join and sink together past it — the bit-vector
    /// treatment is inherently simultaneous.
    #[test]
    fn fig7_m_to_n_simultaneous_sinking() {
        let got = sink(
            "prog {
               block s  { nondet n1 n2 }
               block n1 { a := a + 1; goto n3 }
               block n2 { a := a + 1; y := a + b; out(x + y); goto n3 }
               block n3 { nondet n4 n5 }
               block n4 { out(a); goto e }
               block n5 { out(a + b); goto e }
               block e  { halt }
             }",
        );
        // From n1 the pattern sinks freely. In n2 it is blocked (y := a+b
        // uses a) — the candidate there is only y := a+b? No: the last
        // occurrence of a := a+1 in n2 is followed by a use of a, so n2
        // has no candidate for it and X-DELAYED_n2(a+1) is false. Hence
        // N-DELAYED_n3 is false and n1 must re-insert at its own exit:
        // nothing moves across the join unless *both* arms delay it.
        expect(
            &got,
            "prog {
               block s  { nondet n1 n2 }
               block n1 { a := a + 1; goto n3 }
               block n2 { a := a + 1; y := a + b; out(x + y); goto n3 }
               block n3 { nondet n4 n5 }
               block n4 { out(a); goto e }
               block n5 { out(a + b); goto e }
               block e  { halt }
             }",
        );
    }

    #[test]
    fn fig7_both_arms_delay_then_join_sinks() {
        // Variant where both arms end with the candidate: it crosses the
        // join simultaneously (the real Figure 7 effect) and lands at the
        // entries of both final blocks.
        let got = sink(
            "prog {
               block s  { nondet n1 n2 }
               block n1 { a := a + 1; goto n3 }
               block n2 { y := c + d; a := a + 1; goto n3 }
               block n3 { nondet n4 n5 }
               block n4 { out(a); goto e }
               block n5 { out(a + b); goto e }
               block e  { halt }
             }",
        );
        expect(
            &got,
            "prog {
               block s  { nondet n1 n2 }
               block n1 { goto n3 }
               block n2 { y := c + d; goto n3 }
               block n3 { nondet n4 n5 }
               block n4 { a := a + 1; out(a); goto e }
               block n5 { a := a + 1; out(a + b); goto e }
               block e  { halt }
             }",
        );
    }

    #[test]
    fn stability_predicate() {
        let mut p = parse(
            "prog {
               block s  { goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { out(y); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        assert!(!sinking_is_stable(&p));
        sink_assignments(&mut p).unwrap();
        assert!(sinking_is_stable(&p));
        // A second pass leaves the program unchanged.
        let before = pdce_ir::printer::canonical_string(&p);
        let out = sink_assignments(&mut p).unwrap();
        assert!(!out.changed);
        assert_eq!(pdce_ir::printer::canonical_string(&p), before);
    }

    /// `i := 0; sum := 0; prod := 1` are all candidates that stay in
    /// their block (the loop reads all three), so `X-INSERT = LOCDELAYED`
    /// holds. The pass still re-inserts them in pattern-index order
    /// (`i`, `prod`, `sum`), so the program is not yet stable; once
    /// reordered, it is.
    #[test]
    fn stability_predicate_sees_exit_reordering() {
        let mut p = parse(
            "prog {
               block s    { i := 0; sum := 0; prod := 1; goto head }
               block head { if i < 5 then body else tail }
               block body { sum := sum + i; prod := prod * 2; i := i + 1; goto head }
               block tail { out(sum + prod); goto e }
               block e    { halt }
             }",
        )
        .unwrap();
        assert!(!sinking_is_stable(&p));
        assert!(sink_assignments(&mut p).unwrap().changed);
        let names: Vec<String> = p
            .block(p.entry())
            .stmts
            .iter()
            .map(|s| pdce_ir::printer::print_stmt(&p, s))
            .collect();
        assert_eq!(names, ["i := 0", "prod := 1", "sum := 0"]);
        assert!(sinking_is_stable(&p));
        assert!(!sink_assignments(&mut p).unwrap().changed);
    }

    /// A pattern can sink into the exit block itself when the blocking
    /// use lives there (the paper's e is skip-only, but nothing in the
    /// equations requires that).
    #[test]
    fn sinks_into_exit_block() {
        let got = sink(
            "prog {
               block s { x := a + b; goto m }
               block m { goto e }
               block e { out(x); halt }
             }",
        );
        expect(
            &got,
            "prog {
               block s { goto m }
               block m { goto e }
               block e { x := a + b; out(x); halt }
             }",
        );
    }

    #[test]
    fn empty_program_is_stable() {
        let mut p = parse("prog { block s { goto e } block e { halt } }").unwrap();
        assert!(sinking_is_stable(&p));
        let out = sink_assignments(&mut p).unwrap();
        assert_eq!(out, SinkOutcome::default());
    }
}
