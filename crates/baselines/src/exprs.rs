//! Candidate expressions and their local predicates.
//!
//! Lazy code motion operates on *computations*: non-atomic terms
//! occurring as an assignment right-hand side, an `out` argument, or a
//! branch condition. For each candidate expression and block we compute
//! the classical local predicates:
//!
//! * `ANTLOC` — computed in the block before any operand modification,
//! * `COMP`   — computed in the block after the last operand
//!   modification (locally available at the exit),
//! * `TRANSP` — no operand modified in the block.

use std::collections::HashMap;

use pdce_dfa::{BitMatrix, BitVec};
use pdce_ir::{Program, TermData, TermId};

/// Dense table of candidate expressions.
#[derive(Debug, Clone)]
pub struct ExprTable {
    exprs: Vec<TermId>,
    index: HashMap<TermId, usize>,
}

impl ExprTable {
    /// Collects every non-atomic computed term of `prog`.
    pub fn build(prog: &Program) -> ExprTable {
        let mut exprs = Vec::new();
        let mut index = HashMap::new();
        let mut add = |t: TermId, prog: &Program| {
            if matches!(
                prog.terms().data(t),
                TermData::Unary(..) | TermData::Binary(..)
            ) && !index.contains_key(&t)
            {
                index.insert(t, exprs.len());
                exprs.push(t);
            }
        };
        for n in prog.node_ids() {
            for stmt in &prog.block(n).stmts {
                if let Some(t) = stmt.used_term() {
                    add(t, prog);
                }
            }
            if let Some(c) = prog.block(n).term.used_term() {
                add(c, prog);
            }
        }
        ExprTable { exprs, index }
    }

    /// Number of candidate expressions.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// The term at `index`.
    pub fn expr(&self, index: usize) -> TermId {
        self.exprs[index]
    }

    /// Index of term `t` if it is a candidate.
    pub fn index_of(&self, t: TermId) -> Option<usize> {
        self.index.get(&t).copied()
    }
}

/// Per-block local predicates for every candidate expression.
#[derive(Debug, Clone)]
pub struct ExprLocal {
    /// `ANTLOC_n`, row per block.
    pub antloc: BitMatrix,
    /// `COMP_n`, row per block.
    pub comp: BitMatrix,
    /// `TRANSP_n`, row per block.
    pub transp: BitMatrix,
}

impl ExprLocal {
    /// Computes the predicates for all blocks.
    pub fn compute(prog: &Program, table: &ExprTable) -> ExprLocal {
        let width = table.len();
        let nblocks = prog.num_blocks();
        let mut antloc = BitMatrix::zeros(nblocks, width);
        let mut comp = BitMatrix::zeros(nblocks, width);
        let mut transp = BitMatrix::ones(nblocks, width);

        for n in prog.node_ids() {
            let block = prog.block(n);
            // Forward scan: ANTLOC and TRANSP.
            let mut clean = BitVec::ones(width); // no operand modified yet
            for stmt in &block.stmts {
                if let Some(t) = stmt.used_term() {
                    if let Some(i) = table.index_of(t) {
                        if clean.get(i) {
                            antloc.row_mut(n.index()).set(i, true);
                        }
                    }
                }
                if let Some(m) = stmt.modified() {
                    for i in 0..width {
                        if prog.terms().term_uses(table.expr(i), m) {
                            clean.set(i, false);
                            transp.row_mut(n.index()).set(i, false);
                        }
                    }
                }
            }
            // Conditions are computed after all statements.
            if let Some(c) = prog.block(n).term.used_term() {
                if let Some(i) = table.index_of(c) {
                    if clean.get(i) {
                        antloc.row_mut(n.index()).set(i, true);
                    }
                    // Computed at the very end: always locally available.
                    comp.row_mut(n.index()).set(i, true);
                }
            }
            // Backward scan: COMP.
            let mut clean = BitVec::ones(width); // no operand modified after
            for stmt in block.stmts.iter().rev() {
                if let Some(t) = stmt.used_term() {
                    if let Some(i) = table.index_of(t) {
                        if clean.get(i) {
                            comp.row_mut(n.index()).set(i, true);
                        }
                    }
                }
                if let Some(m) = stmt.modified() {
                    for i in 0..width {
                        if prog.terms().term_uses(table.expr(i), m) {
                            clean.set(i, false);
                        }
                    }
                }
            }
        }
        ExprLocal {
            antloc,
            comp,
            transp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;
    use pdce_ir::Stmt;

    #[test]
    fn collects_only_composite_terms() {
        let p = parse(
            "prog { block s { x := a + b; y := a; out(x * y); if y < 1 then t else e } block t { goto e } block e { halt } }",
        )
        .unwrap();
        let t = ExprTable::build(&p);
        // a+b, x*y, y<1 — but not bare `a`.
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn local_predicates_on_mixed_block() {
        // Block: y := a+b; a := 1; z := a+b
        let p = parse(
            "prog { block s { y := a + b; a := 1; z := a + b; out(z + y); goto e } block e { halt } }",
        )
        .unwrap();
        let t = ExprTable::build(&p);
        let l = ExprLocal::compute(&p, &t);
        let ab = {
            let Stmt::Assign { rhs, .. } = p.block(p.entry()).stmts[0] else {
                unreachable!()
            };
            t.index_of(rhs).unwrap()
        };
        let s = p.entry().index();
        assert!(l.antloc.row(s).get(ab), "first a+b precedes the mod of a");
        assert!(l.comp.row(s).get(ab), "second a+b follows the mod of a");
        assert!(!l.transp.row(s).get(ab), "a := 1 kills transparency");
    }

    #[test]
    fn transparent_block_neither_computes_nor_kills() {
        let p = parse(
            "prog {
               block s { x := a + b; goto m }
               block m { c := 1; goto f }
               block f { out(a + b); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let t = ExprTable::build(&p);
        let l = ExprLocal::compute(&p, &t);
        let m = p.block_by_name("m").unwrap().index();
        let ab = 0;
        assert!(!l.antloc.row(m).get(ab));
        assert!(!l.comp.row(m).get(ab));
        assert!(l.transp.row(m).get(ab));
    }

    #[test]
    fn condition_is_locally_available_at_exit() {
        let p = parse(
            "prog {
               block s { if a + b < 3 then t else e }
               block t { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let t = ExprTable::build(&p);
        let l = ExprLocal::compute(&p, &t);
        let cidx = t
            .index_of(p.block(p.entry()).term.used_term().unwrap())
            .unwrap();
        let s = p.entry().index();
        assert!(l.antloc.row(s).get(cidx));
        assert!(l.comp.row(s).get(cidx));
    }
}
