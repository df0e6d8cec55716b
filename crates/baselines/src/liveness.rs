//! Classic liveness-based dead code elimination.
//!
//! An *independent* implementation of the paper's baseline: live-variable
//! analysis (the complement of Table 1's dead-variable analysis, as a
//! may-problem with union meet) driving iterated removal of assignments
//! whose left-hand side is not live afterwards. Kept deliberately
//! separate from `pdce-core`'s dead analysis so the two can cross-check
//! each other (`¬LIVE ≡ DEAD`).

use pdce_dfa::{solve, AnalysisCache, BitMatrix, BitProblem, BitVec, Direction, Meet, Row, RowMut};
use pdce_ir::{CfgView, NodeId, Program, Stmt, TermId, Terminator, Var};

/// Live-variable solution.
#[derive(Debug, Clone)]
pub struct Liveness {
    solution: pdce_dfa::Solution,
}

/// ORs the variables of `used` into `row`.
fn set_used(prog: &Program, used: Option<TermId>, row: &mut RowMut<'_>) {
    if let Some(t) = used {
        for &v in prog.terms().vars_of(t) {
            row.set(v.index(), true);
        }
    }
}

/// Applies a statement's liveness transfer
/// (`live_in = USE ∪ (live_out ∖ DEF)`) to `live` in place.
fn apply_stmt(prog: &Program, stmt: &Stmt, live: &mut RowMut<'_>) {
    if let Some(m) = stmt.modified() {
        live.set(m.index(), false);
    }
    set_used(prog, stmt.used_term(), live);
}

/// Applies a terminator's liveness transfer: its condition is used.
fn apply_term(prog: &Program, term: &Terminator, live: &mut RowMut<'_>) {
    set_used(prog, term.used_term(), live);
}

impl Liveness {
    /// Runs live-variable analysis. Each block's gen/kill rows are
    /// composed in place by one backward walk: `gen` goes through the
    /// instructions' own transfers, `kill` collects their definitions.
    pub fn compute(prog: &Program, view: &CfgView) -> Liveness {
        let width = prog.num_vars();
        let mut gen = BitMatrix::zeros(prog.num_blocks(), width);
        let mut kill = BitMatrix::zeros(prog.num_blocks(), width);
        for n in prog.node_ids() {
            let block = prog.block(n);
            let (mut g, mut k) = (gen.row_mut(n.index()), kill.row_mut(n.index()));
            apply_term(prog, &block.term, &mut g);
            for stmt in block.stmts.iter().rev() {
                apply_stmt(prog, stmt, &mut g);
                if let Some(m) = stmt.modified() {
                    k.set(m.index(), true);
                }
            }
        }
        let problem = BitProblem {
            direction: Direction::Backward,
            meet: Meet::Union,
            width,
            gen: &gen,
            kill: &kill,
            boundary: BitVec::zeros(width), // nothing live at program end
        };
        Liveness {
            solution: solve(view, &problem),
        }
    }

    /// Live set at block entry.
    pub fn at_entry(&self, n: NodeId) -> Row<'_> {
        self.solution.at_entry(n)
    }

    /// Liveness vectors immediately after each statement of `n`.
    pub fn after_each_stmt(&self, prog: &Program, n: NodeId) -> Vec<BitVec> {
        let block = prog.block(n);
        let mut current = self.solution.at_exit(n).to_bitvec();
        apply_term(prog, &block.term, &mut current.as_row_mut());
        let mut out = vec![BitVec::zeros(0); block.stmts.len()];
        for (k, stmt) in block.stmts.iter().enumerate().rev() {
            out[k] = current.clone();
            apply_stmt(prog, stmt, &mut current.as_row_mut());
        }
        out
    }

    /// Whether `v` is live immediately after statement `k` of `n`.
    pub fn live_after(&self, prog: &Program, n: NodeId, k: usize, v: Var) -> bool {
        self.after_each_stmt(prog, n)[k].get(v.index())
    }
}

/// Iterated liveness-based DCE. Returns the number of assignments
/// removed.
pub fn liveness_dce(prog: &mut Program) -> u64 {
    liveness_dce_cached(prog, &mut AnalysisCache::new())
}

/// Like [`liveness_dce`], but shares `cache`'s [`CfgView`] across the
/// fixpoint rounds: the edits are statement-only, so the topology
/// survives every round and the cache merely refreshes the instruction
/// layout.
pub fn liveness_dce_cached(prog: &mut Program, cache: &mut AnalysisCache) -> u64 {
    let mut total = 0;
    loop {
        let view = cache.cfg(prog);
        let live = Liveness::compute(prog, &view);
        let mut removed = 0u64;
        for n in prog.node_ids().collect::<Vec<_>>() {
            let after = live.after_each_stmt(prog, n);
            let keep: Vec<Stmt> = prog
                .block(n)
                .stmts
                .iter()
                .enumerate()
                .filter_map(|(k, stmt)| match *stmt {
                    Stmt::Assign { lhs, .. } if !after[k].get(lhs.index()) => {
                        removed += 1;
                        None
                    }
                    s => Some(s),
                })
                .collect();
            if keep.len() != prog.block(n).stmts.len() {
                *prog.stmts_mut(n) = keep;
            }
        }
        if removed == 0 {
            return total;
        }
        total += removed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_core::dead::DeadSolution;
    use pdce_core::driver::{optimize, PdceConfig};
    use pdce_ir::parser::parse;
    use pdce_ir::printer::{canonical_string, structural_eq};

    #[test]
    fn live_is_complement_of_dead() {
        let p = parse(
            "prog {
               block s  { x := a + b; y := x; nondet n1 n2 }
               block n1 { out(y); goto n3 }
               block n2 { y := 7; goto n3 }
               block n3 { out(y); nondet s2 e }
               block s2 { goto n3 }
               block e  { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        let live = Liveness::compute(&p, &view);
        let dead = DeadSolution::compute(&p, &view);
        for n in p.node_ids() {
            let la = live.after_each_stmt(&p, n);
            let da = dead.after_each_stmt(&p, n);
            for k in 0..p.block(n).stmts.len() {
                for v in 0..p.num_vars() {
                    assert_ne!(
                        la[k].get(v),
                        da[k].get(v),
                        "live/dead must be complements at {}[{}] var {}",
                        p.block(n).name,
                        k,
                        v
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_core_dce() {
        let src = "prog {
            block s  { a := c + 1; nondet n3 n4 }
            block n3 { goto n5 }
            block n4 { y := a + b; goto n5 }
            block n5 { y := c + d; out(y); goto e }
            block e  { halt }
        }";
        let mut p1 = parse(src).unwrap();
        liveness_dce(&mut p1);
        let mut p2 = parse(src).unwrap();
        optimize(&mut p2, &PdceConfig::dce_only()).unwrap();
        assert!(
            structural_eq(&p1, &p2),
            "liveness DCE and core dce disagree:\n{}\nvs\n{}",
            canonical_string(&p1),
            canonical_string(&p2)
        );
    }

    #[test]
    fn keeps_observable_assignments() {
        let mut p = parse("prog { block s { x := 1; out(x); goto e } block e { halt } }").unwrap();
        assert_eq!(liveness_dce(&mut p), 0);
    }

    #[test]
    fn removes_cascading_dead_code() {
        let mut p = parse(
            "prog { block s { a := 1; b := a + 1; c := b + 1; out(7); goto e } block e { halt } }",
        )
        .unwrap();
        assert_eq!(liveness_dce(&mut p), 3);
        assert_eq!(p.num_assignments(), 0);
    }
}
