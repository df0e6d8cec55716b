//! Assignment hoisting — Dhamdhere's extension of partial redundancy
//! elimination to assignment motion (\[9\] in the paper's Related Work),
//! where "assignments are hoisted rather than sunk, which does not
//! allow any elimination of partially dead code".
//!
//! This is the exact mirror of `pdce-core`'s `ask`: *hoisting
//! candidates* are up-exposed occurrences (no blocking statement before
//! them in their block), the hoistability analysis runs backward with
//! the all-paths meet, and instances are re-inserted where the upward
//! motion stops:
//!
//! ```text
//! X-HOISTABLE_n = ¬TERMBLOCKED_n ∧ ∧_{m ∈ succ(n)} N-HOISTABLE_m
//! N-HOISTABLE_n = LOCHOIST_n ∨ (X-HOISTABLE_n ∧ ¬LOCBLOCKED_n)
//!
//! X-INSERT_n = X-HOISTABLE_n ∧ LOCBLOCKED_n
//! N-INSERT_n = N-HOISTABLE_n ∧ (n = s ∨ ∃_{m ∈ pred(n)} ¬X-HOISTABLE_m)
//! ```
//!
//! The all-paths meet guarantees every inserted instance is *consumed*:
//! on every forward path an eliminated occurrence follows before any
//! use/modification interferes — so hoisting is semantics-preserving.
//! Hoisting merges partially *redundant* assignments (one instance
//! where two branches each had one), but a partially *dead* assignment
//! only becomes more universal, never removable — the claim the
//! related-work tests measure.

use pdce_core::patterns::PatternTable;
use pdce_dfa::{solve, AnalysisCache, BitMatrix, BitProblem, BitVec, Direction, Meet};
use pdce_ir::edgesplit::has_critical_edges;
use pdce_ir::{Program, Stmt};

pub use pdce_core::sink::CriticalEdgeError;

/// Outcome of one hoisting pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HoistOutcome {
    /// Hoisting candidates removed.
    pub removed: u64,
    /// Pattern instances inserted.
    pub inserted: u64,
    /// Whether any statement list changed structurally.
    pub changed: bool,
}

/// Runs one assignment-hoisting pass.
///
/// # Errors
///
/// Returns [`CriticalEdgeError`] if the program has critical edges
/// (hoisting needs split edges for the same reason sinking does).
///
/// # Example
///
/// ```
/// use pdce_baselines::hoist_assignments;
/// use pdce_ir::parser::parse;
///
/// // Identical assignments on both arms merge at the branch point.
/// let mut prog = parse(
///     "prog { block s { nondet l r }
///             block l { x := a + 1; out(x); goto j }
///             block r { x := a + 1; out(x + 1); goto j }
///             block j { goto e } block e { halt } }",
/// )?;
/// let outcome = hoist_assignments(&mut prog)?;
/// assert_eq!(outcome.removed, 2);
/// assert_eq!(prog.block(prog.entry()).stmts.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn hoist_assignments(prog: &mut Program) -> Result<HoistOutcome, CriticalEdgeError> {
    hoist_assignments_cached(prog, &mut AnalysisCache::new())
}

/// Like [`hoist_assignments`], but reads the CFG from `cache`'s
/// memoized [`CfgView`].
pub fn hoist_assignments_cached(
    prog: &mut Program,
    cache: &mut AnalysisCache,
) -> Result<HoistOutcome, CriticalEdgeError> {
    if has_critical_edges(prog) {
        return Err(CriticalEdgeError);
    }
    let view = cache.cfg(prog);
    let table = PatternTable::build(prog);
    if table.is_empty() {
        return Ok(HoistOutcome::default());
    }
    let width = table.len();
    let nblocks = prog.num_blocks();

    // Local predicates: up-exposed candidates, statement-level blocking,
    // terminator blocking.
    let mut lochoist = BitMatrix::zeros(nblocks, width);
    let mut locblocked = BitMatrix::zeros(nblocks, width);
    let mut termblocked = BitMatrix::zeros(nblocks, width);
    let mut candidates: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nblocks];
    // One forward scan per block: an occurrence is a candidate iff
    // nothing before it blocks its pattern, tested before the statement
    // ORs in its own blocking masks (an occurrence of `p` writes `x`, so
    // it blocks every later one). `locblocked` doubles as the running
    // set.
    for n in prog.node_ids() {
        let i = n.index();
        let block = prog.block(n);
        let mut blocked = locblocked.row_mut(i);
        for (k, stmt) in block.stmts.iter().enumerate() {
            if let Some(p) = table.index_of_stmt(stmt) {
                if !blocked.get(p) {
                    lochoist.row_mut(i).set(p, true);
                    candidates[i].push((k, p));
                }
            }
            table.union_stmt_blocks(prog, stmt, &mut blocked);
        }
        table.union_terminator_blocks(prog, &block.term, &mut termblocked.row_mut(i));
    }

    // Hoistability: backward, all-paths, boundary false at the exit.
    let mut kill = locblocked.clone();
    for i in 0..nblocks {
        kill.row_mut(i).union_with(termblocked.row(i));
    }
    let sol = solve(
        &view,
        &BitProblem {
            direction: Direction::Backward,
            meet: Meet::Intersection,
            width,
            gen: &lochoist,
            kill: &kill,
            boundary: BitVec::zeros(width),
        },
    );
    // `sol.entry` holds N-HOISTABLE; recover X-HOISTABLE from the meet
    // with the terminator blocking applied.
    let x_hoistable = |i: usize| -> BitVec {
        let mut x = sol.exit.row(i).to_bitvec();
        x.as_row_mut().difference_with(termblocked.row(i));
        x
    };

    // Insertion points.
    let mut exit_ins = vec![BitVec::zeros(width); nblocks];
    let mut entry_ins = vec![BitVec::zeros(width); nblocks];
    for n in prog.node_ids() {
        let i = n.index();
        let mut xi = x_hoistable(i);
        xi.as_row_mut().intersect_with(locblocked.row(i));
        exit_ins[i] = xi;

        let mut stops = BitVec::zeros(width);
        if n == prog.entry() {
            stops.fill(true); // nothing continues past the program start
        } else {
            for &m in view.preds(n) {
                let mut not_xh = x_hoistable(m.index());
                not_xh.negate();
                stops.union_with(&not_xh);
            }
        }
        let mut ni = sol.entry.row(i).to_bitvec();
        ni.intersect_with(&stops);
        entry_ins[i] = ni;
    }

    // Rewrite blocks: remove candidates, prepend entry inserts, append
    // exit inserts (pattern-index order for determinism).
    let mut outcome = HoistOutcome::default();
    for n in prog.node_ids().collect::<Vec<_>>() {
        let i = n.index();
        let ent: Vec<usize> = entry_ins[i].iter_ones().collect();
        let exi: Vec<usize> = exit_ins[i].iter_ones().collect();
        if ent.is_empty() && exi.is_empty() && candidates[i].is_empty() {
            continue;
        }
        let make = |p: usize| {
            let (lhs, rhs) = table.pattern(p);
            Stmt::Assign { lhs, rhs }
        };
        let old = &prog.block(n).stmts;
        let mut new_stmts = Vec::with_capacity(old.len() + ent.len() + exi.len());
        new_stmts.extend(ent.iter().map(|&p| make(p)));
        let mut doomed = candidates[i].iter().map(|&(k, _)| k).peekable();
        for (k, stmt) in old.iter().enumerate() {
            if doomed.peek() == Some(&k) {
                doomed.next();
                outcome.removed += 1;
            } else {
                new_stmts.push(*stmt);
            }
        }
        new_stmts.extend(exi.iter().map(|&p| make(p)));
        outcome.inserted += (ent.len() + exi.len()) as u64;
        // Stable blocks re-derive their own statement list; skipping the
        // write keeps the program revision (and analysis caches) intact.
        if new_stmts != *old {
            outcome.changed = true;
            *prog.stmts_mut(n) = new_stmts;
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::interp::{run_with, ExecLimits};
    use pdce_ir::parser::parse;
    use pdce_ir::printer::{canonical_string, diff, structural_eq};

    fn hoist(src: &str) -> Program {
        let mut p = parse(src).unwrap();
        hoist_assignments(&mut p).unwrap();
        p
    }

    fn expect(got: &Program, want_src: &str) {
        let want = parse(want_src).unwrap();
        assert!(
            structural_eq(got, &want),
            "mismatch after hoisting:\n{}",
            diff(got, &want)
        );
    }

    /// The PRE-of-assignments effect: identical assignments on both arms
    /// merge at the branch point.
    #[test]
    fn merges_branch_duplicates() {
        let got = hoist(
            "prog {
               block s { nondet l r }
               block l { x := a + 1; out(x); goto e2 }
               block r { x := a + 1; out(x + 1); goto e2 }
               block e2 { goto e }
               block e { halt }
             }",
        );
        expect(
            &got,
            "prog {
               block s { x := a + 1; nondet l r }
               block l { out(x); goto e2 }
               block r { out(x + 1); goto e2 }
               block e2 { goto e }
               block e { halt }
             }",
        );
    }

    /// One-sided occurrence cannot be hoisted past the branch (it would
    /// execute on the other path, where x is later observed differently).
    #[test]
    fn one_sided_occurrence_stays_put() {
        let src = "prog {
            block s { nondet l r }
            block l { x := a + 1; out(x); goto e2 }
            block r { out(x); goto e2 }
            block e2 { goto e }
            block e { halt }
        }";
        let got = hoist(src);
        expect(&got, src);
    }

    /// Use of the left-hand side blocks the upward motion.
    #[test]
    fn blocked_by_use_above() {
        let src = "prog {
            block s { out(x); x := a + 1; out(x); goto e }
            block e { halt }
        }";
        let got = hoist(src);
        expect(&got, src);
    }

    /// The paper's claim: hoisting does not eliminate partially dead
    /// code. On Figure 1 it must leave the per-path occurrence counts of
    /// `y := a + b` untouched.
    #[test]
    fn cannot_eliminate_partial_deadness() {
        let src = "prog {
            block s  { goto n1 }
            block n1 { y := a + b; nondet n2 n3 }
            block n2 { y := 4; goto n4 }
            block n3 { out(y); goto n4 }
            block n4 { out(y); goto e }
            block e  { halt }
        }";
        let mut p = parse(src).unwrap();
        // Iterate hoisting to its fixpoint, like the pde driver would.
        for _ in 0..10 {
            let before = canonical_string(&p);
            hoist_assignments(&mut p).unwrap();
            if canonical_string(&p) == before {
                break;
            }
        }
        assert_eq!(
            p.num_assignments(),
            2,
            "hoisting must not remove any assignment:\n{}",
            canonical_string(&p)
        );
        // The dead-path count is still 1 (pde brings it to 0).
        let paths = pdce_ir::paths::enumerate_paths(&p, 100).unwrap();
        let key = pdce_ir::PatternKey::of_stmt(
            &parse(src).unwrap(),
            &parse(src)
                .unwrap()
                .block(pdce_ir::NodeId::from_index(1))
                .stmts[0],
        )
        .unwrap();
        for path in paths {
            let counts = pdce_ir::pattern::path_pattern_counts(&p, &path);
            assert_eq!(counts.get(&key).copied().unwrap_or(0), 1);
        }
    }

    #[test]
    fn semantics_preserved() {
        let src = "prog {
            block s { nondet l r }
            block l { x := a * 2; y := x + 1; out(y); goto j }
            block r { x := a * 2; out(x); goto j }
            block j { out(x + a); goto e }
            block e { halt }
        }";
        let orig = parse(src).unwrap();
        let hoisted = hoist(src);
        for a in [-3i64, 0, 9] {
            for d in [vec![0], vec![1]] {
                let t0 = run_with(&orig, &[("a", a)], d.clone(), ExecLimits::default());
                let t1 = run_with(&hoisted, &[("a", a)], d, ExecLimits::default());
                assert_eq!(t0.outputs, t1.outputs, "a={a}");
            }
        }
    }

    #[test]
    fn rejects_critical_edges() {
        let mut p = parse(
            "prog {
               block s { nondet a j }
               block a { x := 1; goto j }
               block j { out(x); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert_eq!(hoist_assignments(&mut p), Err(CriticalEdgeError));
    }

    /// Branch conditions block hoisting across them (the instance would
    /// be evaluated before the condition reads the old value).
    #[test]
    fn condition_use_blocks_edge_crossing() {
        let src = "prog {
            block s { if x < 3 then l else r }
            block l { x := 9; out(x); goto e2 }
            block r { x := 9; out(x + 1); goto e2 }
            block e2 { goto e }
            block e { halt }
        }";
        let got = hoist(src);
        expect(&got, src);
    }
}
