//! Global copy propagation.
//!
//! The paper's footnote 1 observes that interleaving code motion with
//! copy propagation (as suggested by Dhamdhere/Rosen/Zadeck) removes the
//! right-hand-side *computations* of the Figure 3 loop but leaves the
//! assignment in place — unlike pde. This baseline provides that
//! interleaving partner: a classic available-copies analysis (forward,
//! intersection) followed by use rewriting.

use std::collections::HashMap;

use pdce_dfa::{solve, AnalysisCache, BitMatrix, BitProblem, BitVec, Direction, Meet, RowMut};
use pdce_ir::{Program, Stmt, TermData, TermId, Var};

/// A copy pattern `x := y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Copy {
    dst: Var,
    src: Var,
}

fn collect_copies(prog: &Program) -> Vec<Copy> {
    let mut copies = Vec::new();
    let mut seen = HashMap::new();
    for n in prog.node_ids() {
        for stmt in &prog.block(n).stmts {
            if let Stmt::Assign { lhs, rhs } = *stmt {
                if let TermData::Var(src) = prog.terms().data(rhs) {
                    if src != lhs && seen.insert((lhs, src), ()).is_none() {
                        copies.push(Copy { dst: lhs, src });
                    }
                }
            }
        }
    }
    copies
}

/// Applies a statement's available-copies transfer to `avail` in place:
/// a write of `m` kills every copy mentioning `m`, then a copy
/// statement generates itself. With `kill`, the killed copies are also
/// ORed into it, which composes the statement into a block's gen/kill
/// rows (`avail` then being the block's `gen` row).
fn apply_stmt(
    copies: &[Copy],
    prog: &Program,
    stmt: &Stmt,
    avail: &mut RowMut<'_>,
    mut kill: Option<&mut RowMut<'_>>,
) {
    if let Some(m) = stmt.modified() {
        for (i, c) in copies.iter().enumerate() {
            if c.dst == m || c.src == m {
                avail.set(i, false);
                if let Some(kill) = kill.as_deref_mut() {
                    kill.set(i, true);
                }
            }
        }
    }
    if let Stmt::Assign { lhs, rhs } = *stmt {
        if let TermData::Var(src) = prog.terms().data(rhs) {
            if src != lhs {
                if let Some(i) = copies.iter().position(|c| c.dst == lhs && c.src == src) {
                    avail.set(i, true);
                }
            }
        }
    }
}

/// Rewrites every use according to the available copies; returns the
/// number of replaced variable occurrences. Run to a fixpoint externally
/// if chains of copies should collapse fully.
pub fn copy_propagate_once(prog: &mut Program) -> u64 {
    copy_propagate_once_cached(prog, &mut AnalysisCache::new())
}

/// Like [`copy_propagate_once`], but reads the CFG from `cache`'s
/// memoized [`CfgView`].
pub fn copy_propagate_once_cached(prog: &mut Program, cache: &mut AnalysisCache) -> u64 {
    let copies = collect_copies(prog);
    if copies.is_empty() {
        return 0;
    }
    let width = copies.len();
    let view = cache.cfg(prog);
    // Block transfers composed in place, statements in execution order.
    let mut gen = BitMatrix::zeros(prog.num_blocks(), width);
    let mut kill = BitMatrix::zeros(prog.num_blocks(), width);
    for n in prog.node_ids() {
        let (mut g, mut k) = (gen.row_mut(n.index()), kill.row_mut(n.index()));
        for stmt in &prog.block(n).stmts {
            apply_stmt(&copies, prog, stmt, &mut g, Some(&mut k));
        }
    }
    let problem = BitProblem {
        direction: Direction::Forward,
        meet: Meet::Intersection,
        width,
        gen: &gen,
        kill: &kill,
        boundary: BitVec::zeros(width),
    };
    let sol = solve(&view, &problem);

    let mut replaced = 0u64;
    for n in prog.node_ids().collect::<Vec<_>>() {
        let mut avail = sol.at_entry(n).to_bitvec();
        // Substitution map from the available copy set.
        let block_len = prog.block(n).stmts.len();
        for k in 0..block_len {
            let subst: HashMap<Var, Var> = avail
                .iter_ones()
                .map(|i| (copies[i].dst, copies[i].src))
                .collect();
            let stmt = prog.block(n).stmts[k];
            if let Some(t) = stmt.used_term() {
                let (t2, count) = substitute(prog, t, &subst);
                if count > 0 {
                    replaced += count;
                    let new_stmt = match stmt {
                        Stmt::Assign { lhs, .. } => Stmt::Assign { lhs, rhs: t2 },
                        Stmt::Out(_) => Stmt::Out(t2),
                        Stmt::Skip => Stmt::Skip,
                    };
                    prog.stmts_mut(n)[k] = new_stmt;
                }
            }
            let stmt = prog.block(n).stmts[k];
            apply_stmt(&copies, prog, &stmt, &mut avail.as_row_mut(), None);
        }
        // Terminator condition.
        let subst: HashMap<Var, Var> = avail
            .iter_ones()
            .map(|i| (copies[i].dst, copies[i].src))
            .collect();
        if let Some(c) = prog.block(n).term.used_term() {
            let (c2, count) = substitute(prog, c, &subst);
            if count > 0 {
                replaced += count;
                if let pdce_ir::Terminator::Cond { cond, .. } = &mut prog.block_mut(n).term {
                    *cond = c2;
                }
            }
        }
    }
    replaced
}

/// Runs copy propagation to a fixpoint (bounded by the variable count,
/// the longest possible copy chain).
pub fn copy_propagate(prog: &mut Program) -> u64 {
    copy_propagate_cached(prog, &mut AnalysisCache::new())
}

/// Like [`copy_propagate`], but shares `cache`'s [`CfgView`] across the
/// fixpoint rounds.
pub fn copy_propagate_cached(prog: &mut Program, cache: &mut AnalysisCache) -> u64 {
    let mut total = 0;
    for _ in 0..prog.num_vars().max(1) {
        let replaced = copy_propagate_once_cached(prog, cache);
        if replaced == 0 {
            break;
        }
        total += replaced;
    }
    total
}

fn substitute(prog: &mut Program, t: TermId, subst: &HashMap<Var, Var>) -> (TermId, u64) {
    match prog.terms().data(t) {
        TermData::Const(_) => (t, 0),
        TermData::Var(v) => match subst.get(&v) {
            Some(&w) => (prog.terms_mut().intern(TermData::Var(w)), 1),
            None => (t, 0),
        },
        TermData::Unary(op, a) => {
            let (a2, c) = substitute(prog, a, subst);
            if c == 0 {
                (t, 0)
            } else {
                (prog.terms_mut().intern(TermData::Unary(op, a2)), c)
            }
        }
        TermData::Binary(op, a, b) => {
            let (a2, ca) = substitute(prog, a, subst);
            let (b2, cb) = substitute(prog, b, subst);
            if ca + cb == 0 {
                (t, 0)
            } else {
                (
                    prog.terms_mut().intern(TermData::Binary(op, a2, b2)),
                    ca + cb,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::interp::{run_with, ExecLimits};
    use pdce_ir::parser::parse;
    use pdce_ir::printer::{diff, structural_eq};

    fn check(src: &str, expected: &str) {
        let mut p = parse(src).unwrap();
        copy_propagate(&mut p);
        let want = parse(expected).unwrap();
        assert!(structural_eq(&p, &want), "{}", diff(&p, &want));
        // Copy propagation must preserve semantics.
        let orig = parse(src).unwrap();
        for a in [0i64, 5, -3] {
            let t0 = run_with(&orig, &[("a", a)], vec![0; 8], ExecLimits::default());
            let t1 = run_with(&p, &[("a", a)], vec![0; 8], ExecLimits::default());
            assert_eq!(t0.outputs, t1.outputs);
        }
    }

    #[test]
    fn straight_line_copy() {
        check(
            "prog { block s { x := a; y := x + 1; out(y); goto e } block e { halt } }",
            "prog { block s { x := a; y := a + 1; out(y); goto e } block e { halt } }",
        );
    }

    #[test]
    fn chains_collapse() {
        check(
            "prog { block s { x := a; y := x; out(y + x); goto e } block e { halt } }",
            "prog { block s { x := a; y := a; out(a + a); goto e } block e { halt } }",
        );
    }

    #[test]
    fn redefinition_kills_copy() {
        check(
            "prog { block s { x := a; a := 9; out(x); goto e } block e { halt } }",
            "prog { block s { x := a; a := 9; out(x); goto e } block e { halt } }",
        );
    }

    #[test]
    fn join_requires_copy_on_all_paths() {
        check(
            "prog {
               block s { nondet l r }
               block l { x := a; goto j }
               block r { x := 5; goto j }
               block j { out(x); goto e }
               block e { halt }
             }",
            "prog {
               block s { nondet l r }
               block l { x := a; goto j }
               block r { x := 5; goto j }
               block j { out(x); goto e }
               block e { halt }
             }",
        );
    }

    #[test]
    fn copy_available_on_both_paths_propagates() {
        check(
            "prog {
               block s { nondet l r }
               block l { x := a; goto j }
               block r { x := a; goto j }
               block j { out(x); goto e }
               block e { halt }
             }",
            "prog {
               block s { nondet l r }
               block l { x := a; goto j }
               block r { x := a; goto j }
               block j { out(a); goto e }
               block e { halt }
             }",
        );
    }

    #[test]
    fn branch_condition_rewritten() {
        check(
            "prog {
               block s { x := a; if x < 3 then t else e }
               block t { out(1); goto e }
               block e { halt }
             }",
            "prog {
               block s { x := a; if a < 3 then t else e }
               block t { out(1); goto e }
               block e { halt }
             }",
        );
    }

    #[test]
    fn self_copy_is_ignored() {
        let mut p = parse("prog { block s { x := x; out(x); goto e } block e { halt } }").unwrap();
        assert_eq!(copy_propagate(&mut p), 0);
    }
}
