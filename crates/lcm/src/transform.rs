//! The lazy-code-motion transformation (Knoop/Rüthing/Steffen '92, in
//! the block-level formulation of Drechsler & Stadel '93).
//!
//! Four analyses per candidate expression (bit-vector, all-paths):
//!
//! ```text
//! ANTIN_n  = ANTLOC_n ∨ (TRANSP_n ∧ ANTOUT_n)       (backward; ANTOUT_e = ∅)
//! AVOUT_n  = COMP_n ∨ (TRANSP_n ∧ AVIN_n)           (forward;  AVIN_s  = ∅)
//! EARLIEST_(m,n) = ANTIN_n ∧ ¬AVOUT_m ∧ (¬TRANSP_m ∨ ¬ANTOUT_m)
//! LATER_(m,n)    = EARLIEST_(m,n) ∨ (LATERIN_m ∧ ¬COMP_m)
//! LATERIN_n      = ∧_{(m,n)∈E} LATER_(m,n)
//! INSERT_(m,n)   = LATER_(m,n) ∧ ¬LATERIN_n
//! DELETE_n       = ANTLOC_n ∧ ¬LATERIN_n
//! ```
//!
//! The entry node is handled with a pseudo-edge `(⊥, s)` whose `LATER`
//! value is `ANTIN_s` (`AVOUT_⊥ = TRANSP_⊥ = ∅`).
//!
//! The rewrite follows the classical temporary discipline (Morel &
//! Renvoise): expressions with any insertion or deletion become *active*
//! and get a fresh temporary `h`. `INSERT` edges receive `h := t`;
//! deleted (up-exposed) computations read `h` directly; every *kept*
//! computation of an active expression is canonicalized to
//! `h := t; use h`, so `h` is defined on every path that may reach a
//! deleted computation (this is the invariant the LCM correctness proof
//! relies on — kept computations play the role of `COMP` availability).

use std::error::Error;
use std::fmt;

use pdce_dfa::{solve, BitMatrix, BitProblem, BitVec, Direction, Meet};
use pdce_ir::edgesplit::has_critical_edges;
use pdce_ir::{CfgView, NodeId, Program, Stmt, TermData, Terminator, Var};

use crate::exprs::{ExprLocal, ExprTable};

/// Statistics of one LCM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LcmStats {
    /// Number of candidate expressions considered.
    pub expressions: usize,
    /// `h := t` initializations inserted on edges.
    pub insertions: u64,
    /// Up-exposed computations rewritten to read the temporary.
    pub deletions: u64,
    /// Kept computations canonicalized to `h := t; use h`.
    pub canonicalized: u64,
}

/// LCM requires split critical edges, like the sinking transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LcmCriticalEdgeError;

impl fmt::Display for LcmCriticalEdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lazy code motion requires critical edges to be split first"
        )
    }
}

impl Error for LcmCriticalEdgeError {}

/// Runs lazy code motion on `prog`.
///
/// # Errors
///
/// Returns [`LcmCriticalEdgeError`] if the program has critical edges.
///
/// # Example
///
/// ```
/// use pdce_ir::parser::parse;
/// use pdce_lcm::lazy_code_motion;
///
/// // A loop-invariant computation is hoisted to the preheader.
/// let mut prog = parse(
///     "prog { block pre { goto h }
///             block h { x := a + b; out(x); nondet hs post }
///             block hs { goto h } block post { goto e }
///             block e { halt } }",
/// )?;
/// let stats = lazy_code_motion(&mut prog)?;
/// assert_eq!(stats.insertions, 1);
/// assert_eq!(stats.deletions, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lazy_code_motion(prog: &mut Program) -> Result<LcmStats, LcmCriticalEdgeError> {
    if has_critical_edges(prog) {
        return Err(LcmCriticalEdgeError);
    }
    let table = ExprTable::build(prog);
    let mut stats = LcmStats {
        expressions: table.len(),
        ..LcmStats::default()
    };
    if table.is_empty() {
        return Ok(stats);
    }
    let width = table.len();
    let view = CfgView::new(prog);
    let local = ExprLocal::compute(prog, &table);

    // Both problems kill what is not transparent.
    let not_transp = rows(&local.transp, width, true);
    // Anticipability (down-safety), backward.
    let ant = solve(
        &view,
        &BitProblem {
            direction: Direction::Backward,
            meet: Meet::Intersection,
            width,
            gen: &rows(&local.antloc, width, false),
            kill: &not_transp,
            boundary: BitVec::zeros(width),
        },
    );
    // Availability (up-safety), forward.
    let avail = solve(
        &view,
        &BitProblem {
            direction: Direction::Forward,
            meet: Meet::Intersection,
            width,
            gen: &rows(&local.comp, width, false),
            kill: &not_transp,
            boundary: BitVec::zeros(width),
        },
    );

    // Edge set with a pseudo entry edge (usize::MAX marks ⊥).
    let mut edges: Vec<(usize, NodeId)> = vec![(usize::MAX, prog.entry())];
    for n in prog.node_ids() {
        for m in view.succs(n) {
            edges.push((n.index(), *m));
        }
    }

    // EARLIEST per edge.
    let earliest: Vec<BitVec> = edges
        .iter()
        .map(|&(m, n)| {
            let mut e = ant.at_entry(n).to_bitvec();
            match m {
                usize::MAX => e, // ⊥: nothing available, nothing transparent
                m => {
                    e.as_row_mut().difference_with(avail.exit.row(m));
                    // ¬TRANSP_m ∨ ¬ANTOUT_m
                    let mut tr_and_ant = local.transp[m].clone();
                    tr_and_ant.as_row_mut().intersect_with(ant.exit.row(m));
                    e.difference_with(&tr_and_ant);
                    e
                }
            }
        })
        .collect();

    // LATER / LATERIN greatest fixpoint.
    let nblocks = prog.num_blocks();
    let mut laterin = vec![BitVec::ones(width); nblocks];
    let mut later: Vec<BitVec> = vec![BitVec::ones(width); edges.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for (ei, &(m, _n)) in edges.iter().enumerate() {
            let mut new_later = earliest[ei].clone();
            if m != usize::MAX {
                let mut flow = laterin[m].clone();
                let mut not_comp = local.comp[m].clone();
                not_comp.negate();
                flow.intersect_with(&not_comp);
                new_later.union_with(&flow);
            }
            if new_later != later[ei] {
                later[ei] = new_later;
                changed = true;
            }
        }
        for n in prog.node_ids() {
            let mut acc = BitVec::ones(width);
            for (ei, &(_, tgt)) in edges.iter().enumerate() {
                if tgt == n {
                    acc.intersect_with(&later[ei]);
                }
            }
            if acc != laterin[n.index()] {
                laterin[n.index()] = acc;
                changed = true;
            }
        }
    }

    // INSERT edges and DELETE blocks.
    let insert: Vec<BitVec> = edges
        .iter()
        .enumerate()
        .map(|(ei, &(_, n))| {
            let mut ins = later[ei].clone();
            let mut not_laterin = laterin[n.index()].clone();
            not_laterin.negate();
            ins.intersect_with(&not_laterin);
            ins
        })
        .collect();
    let delete: Vec<BitVec> = prog
        .node_ids()
        .map(|n| {
            let mut del = local.antloc[n.index()].clone();
            let mut not_laterin = laterin[n.index()].clone();
            not_laterin.negate();
            del.intersect_with(&not_laterin);
            del
        })
        .collect();

    // Active expressions get a fresh temporary.
    let mut active = BitVec::zeros(width);
    for ins in &insert {
        active.union_with(ins);
    }
    for del in &delete {
        active.union_with(del);
    }
    if active.none() {
        return Ok(stats);
    }
    let temps: Vec<Option<Var>> = (0..width)
        .map(|i| active.get(i).then(|| fresh_temp(prog, i)))
        .collect();

    // Gather edge insertions per block boundary.
    let mut entry_ins: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
    let mut exit_ins: Vec<Vec<usize>> = vec![Vec::new(); nblocks];
    for (ei, &(m, n)) in edges.iter().enumerate() {
        for i in insert[ei].iter_ones() {
            stats.insertions += 1;
            if m == usize::MAX {
                entry_ins[n.index()].push(i);
            } else if view.succs(NodeId::from_index(m)).len() == 1 {
                exit_ins[m].push(i);
            } else {
                debug_assert_eq!(view.preds(n).len(), 1, "critical edge survived splitting");
                entry_ins[n.index()].push(i);
            }
        }
    }

    // Rewrite every block.
    for n in prog.node_ids().collect::<Vec<_>>() {
        rewrite_block(
            prog,
            n,
            &table,
            &temps,
            &active,
            &delete[n.index()],
            &entry_ins[n.index()],
            &exit_ins[n.index()],
            &mut stats,
        );
    }
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn rewrite_block(
    prog: &mut Program,
    n: NodeId,
    table: &ExprTable,
    temps: &[Option<Var>],
    active: &BitVec,
    delete: &BitVec,
    entry_ins: &[usize],
    exit_ins: &[usize],
    stats: &mut LcmStats,
) {
    let width = table.len();
    // delete_pending[i]: the next up-exposed computation of i reads h
    // directly instead of recomputing.
    let mut delete_pending = delete.clone();

    let old = prog.block(n).stmts.clone();
    let mut new_stmts: Vec<Stmt> = Vec::with_capacity(old.len() + entry_ins.len() + 2);
    let make_init = |i: usize| -> Stmt {
        Stmt::Assign {
            lhs: temps[i].expect("active expression has a temp"),
            rhs: table.expr(i),
        }
    };
    for &i in entry_ins {
        new_stmts.push(make_init(i));
    }

    for stmt in old {
        let candidate = stmt.used_term().and_then(|t| table.index_of(t));
        match candidate {
            Some(i) if active.get(i) => {
                let h = temps[i].expect("active expression has a temp");
                let hterm = prog.term(TermData::Var(h));
                if delete_pending.get(i) {
                    delete_pending.set(i, false);
                    stats.deletions += 1;
                } else {
                    new_stmts.push(make_init(i));
                    stats.canonicalized += 1;
                }
                new_stmts.push(match stmt {
                    Stmt::Assign { lhs, .. } => Stmt::Assign { lhs, rhs: hterm },
                    Stmt::Out(_) => Stmt::Out(hterm),
                    Stmt::Skip => unreachable!("skip has no used term"),
                });
            }
            _ => new_stmts.push(stmt),
        }
        // Operand modifications invalidate pending deletions (ANTLOC
        // occurrences always precede the first modification, so this is
        // belt and braces).
        if let Some(m) = stmt.modified() {
            for i in 0..width {
                if delete_pending.get(i) && prog.terms().term_uses(table.expr(i), m) {
                    delete_pending.set(i, false);
                }
            }
        }
    }

    // The branch condition is the final computation of the block.
    if let Some(c) = prog.block(n).term.used_term() {
        if let Some(i) = table.index_of(c) {
            if active.get(i) {
                let h = temps[i].expect("active expression has a temp");
                let hterm = prog.term(TermData::Var(h));
                if delete_pending.get(i) {
                    delete_pending.set(i, false);
                    stats.deletions += 1;
                } else {
                    new_stmts.push(make_init(i));
                    stats.canonicalized += 1;
                }
                if let Terminator::Cond { cond, .. } = &mut prog.block_mut(n).term {
                    *cond = hterm;
                }
            }
        }
    }

    for &i in exit_ins {
        new_stmts.push(make_init(i));
    }
    // Write back only when the list actually differs, so a stable
    // program keeps its revision (and analysis caches) intact.
    if new_stmts != prog.block(n).stmts {
        *prog.stmts_mut(n) = new_stmts;
    }
}

/// The per-block vectors `vs` as matrix rows, complemented if `negate`.
fn rows(vs: &[BitVec], width: usize, negate: bool) -> BitMatrix {
    let mut m = BitMatrix::zeros(vs.len(), width);
    for (i, v) in vs.iter().enumerate() {
        let mut row = m.row_mut(i);
        row.copy_from(v.as_row());
        if negate {
            row.negate();
        }
    }
    m
}

fn fresh_temp(prog: &mut Program, i: usize) -> Var {
    let mut name = format!("h{i}");
    while prog.vars().lookup(&name).is_some() {
        name.push('_');
    }
    prog.var(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::interp::{run_with, ExecLimits};
    use pdce_ir::parser::parse;

    fn occurrences(p: &Program, needle: &str) -> usize {
        pdce_ir::printer::print_program(p).matches(needle).count()
    }

    fn check_semantics(src: &str, optimized: &Program, inputs: &[(&str, i64)]) {
        let orig = parse(src).unwrap();
        for decisions in [vec![0, 1, 0, 1, 1, 0], vec![1, 0, 1, 0, 0, 1], vec![0; 6]] {
            let t0 = run_with(&orig, inputs, decisions.clone(), ExecLimits::default());
            let t1 = run_with(optimized, inputs, decisions, ExecLimits::default());
            assert_eq!(t0.outputs, t1.outputs, "semantics changed");
        }
    }

    #[test]
    fn hoists_partially_redundant_computation() {
        // a+b computed on one arm and after the join: LCM inserts on the
        // empty arm so the join reuses the temp.
        let src = "prog {
            block s { nondet l r }
            block l { x := a + b; out(x); goto j }
            block r { skip; goto j }
            block j { y := a + b; out(y); goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        let stats = lazy_code_motion(&mut p).unwrap();
        assert_eq!(stats.insertions, 1, "one init on the r arm");
        assert_eq!(stats.deletions, 1, "the join recomputation goes");
        assert_eq!(stats.canonicalized, 1, "the l computation defines h");
        // Each path now computes a+b exactly once.
        check_semantics(src, &p, &[("a", 2), ("b", 3)]);
    }

    #[test]
    fn hoists_loop_invariant_computation() {
        let src = "prog {
            block pre { goto h }
            block h { x := a + b; out(x); nondet hs post }
            block hs { goto h }
            block post { goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        let stats = lazy_code_motion(&mut p).unwrap();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.deletions, 1);
        // The computation now sits in `pre`, not in the loop.
        let pre = p.block_by_name("pre").unwrap();
        assert_eq!(p.block(pre).stmts.len(), 1);
        assert_eq!(occurrences(&p, "a + b"), 1);
        check_semantics(src, &p, &[("a", 4), ("b", 5)]);
    }

    #[test]
    fn safety_blocks_hoisting_past_optional_path() {
        // a+b only computed on one side of a branch inside the loop:
        // not down-safe at the loop entry, must not be hoisted there.
        let src = "prog {
            block pre { goto h }
            block h { nondet uses skips }
            block uses { x := a + b; out(x); goto latch }
            block skips { out(0); goto latch }
            block latch { nondet hs post }
            block hs { goto h }
            block post { goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        lazy_code_motion(&mut p).unwrap();
        let pre = p.block_by_name("pre").unwrap();
        let h = p.block_by_name("h").unwrap();
        assert!(p.block(pre).stmts.is_empty(), "unsafe hoist into pre");
        assert!(p.block(h).stmts.is_empty(), "unsafe hoist into h");
        check_semantics(src, &p, &[("a", 1), ("b", 2)]);
    }

    #[test]
    fn rejects_critical_edges() {
        let mut p = parse(
            "prog {
               block s { nondet a j }
               block a { goto j }
               block j { out(x + y); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert_eq!(lazy_code_motion(&mut p), Err(LcmCriticalEdgeError));
    }

    #[test]
    fn straight_line_redundancy_untouched_by_design() {
        // Within one block the second computation is not up-exposed;
        // block-level LCM leaves it for local value numbering.
        let src = "prog {
            block s { x := a + b; y := a + b; out(x + y); goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        let stats = lazy_code_motion(&mut p).unwrap();
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.deletions, 0);
        check_semantics(src, &p, &[("a", 7), ("b", 1)]);
    }

    #[test]
    fn cross_block_full_redundancy_collapses() {
        let src = "prog {
            block s { x := a + b; out(x); goto j }
            block j { y := a + b; out(y); goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        let stats = lazy_code_motion(&mut p).unwrap();
        assert_eq!(stats.deletions, 1, "j's recomputation reads the temp");
        assert_eq!(stats.canonicalized, 1, "s's computation defines the temp");
        assert_eq!(stats.insertions, 0, "no edge insertion needed");
        assert_eq!(occurrences(&p, "a + b"), 1);
        check_semantics(src, &p, &[("a", 7), ("b", 1)]);
    }

    #[test]
    fn no_candidates_is_a_no_op() {
        let src = "prog { block s { x := a; out(x); goto e } block e { halt } }";
        let mut p = parse(src).unwrap();
        let stats = lazy_code_motion(&mut p).unwrap();
        assert_eq!(stats, LcmStats::default());
    }

    #[test]
    fn condition_expressions_participate() {
        let src = "prog {
            block s { x := a + b; if a + b < 99 then t else f }
            block t { out(1); goto e }
            block f { out(2); goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        lazy_code_motion(&mut p).unwrap();
        check_semantics(src, &p, &[("a", 50), ("b", 50)]);
        check_semantics(src, &p, &[("a", 1), ("b", 1)]);
    }

    /// The PRE guarantee, measured: dynamic operator applications never
    /// increase, and drop when redundancy is eliminated.
    #[test]
    fn operation_counts_never_increase() {
        let src = "prog {
            block pre { goto h }
            block h { x := a + b; out(x); nondet hs post }
            block hs { goto h }
            block post { goto e }
            block e { halt }
        }";
        let orig = parse(src).unwrap();
        let mut opt = parse(src).unwrap();
        lazy_code_motion(&mut opt).unwrap();
        // Loop three times then exit.
        let d = vec![0, 0, 0, 1];
        let t0 = run_with(
            &orig,
            &[("a", 1), ("b", 2)],
            d.clone(),
            ExecLimits::default(),
        );
        let t1 = run_with(&opt, &[("a", 1), ("b", 2)], d, ExecLimits::default());
        assert_eq!(t0.outputs, t1.outputs);
        assert!(
            t1.executed_operations < t0.executed_operations,
            "hoisting must reduce loop recomputation: {} vs {}",
            t1.executed_operations,
            t0.executed_operations
        );
    }

    #[test]
    fn temp_names_avoid_collisions() {
        let src = "prog {
            block s { h0 := 1; x := a + b; out(x + h0); goto j }
            block j { y := a + b; out(y); goto e }
            block e { halt }
        }";
        let mut p = parse(src).unwrap();
        let stats = lazy_code_motion(&mut p).unwrap();
        assert!(stats.deletions >= 1);
        check_semantics(src, &p, &[("a", 3), ("b", 4)]);
    }
}
