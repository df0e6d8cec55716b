//! Dense indexing of the assignment patterns `AP` of a program.
//!
//! The delayability analysis of Table 2 works on "bit-vectors of sinking
//! candidates", one bit per assignment pattern occurring in the program.
//! [`PatternTable`] assigns each distinct pattern `x := t` a dense index
//! (stable for the lifetime of one analysis round) and answers the
//! blocking queries that the local predicates are built from.
//!
//! Blocking is stored per variable, as two pattern masks: a read of `v`
//! blocks row `v` of `by_use` (the patterns `v := t`), a write of `v`
//! blocks row `v` of `by_def` (the patterns `v := t` and every `x := t`
//! with `v` in `t`). A statement's blocked set is then the union of one
//! mask per variable it touches, ⌈a/64⌉ words each, instead of `a` term
//! probes.

use std::collections::HashMap;

use pdce_dfa::{BitMatrix, RowMut};
use pdce_ir::{PatternKey, Program, Stmt, TermId, Terminator, Var};

/// Dense table of the assignment patterns occurring in a program.
#[derive(Debug, Clone)]
pub struct PatternTable {
    patterns: Vec<(Var, TermId)>,
    keys: Vec<PatternKey>,
    index: HashMap<(Var, TermId), usize>,
    /// Row per variable: the patterns a read of it blocks.
    by_use: BitMatrix,
    /// Row per variable: the patterns a write of it blocks.
    by_def: BitMatrix,
}

impl PatternTable {
    /// Collects all assignment patterns of `prog`, in canonical-key order
    /// so that indices (and hence insertion order during sinking) are
    /// deterministic.
    pub fn build(prog: &Program) -> PatternTable {
        let mut pairs: Vec<(Var, TermId)> = Vec::new();
        let mut seen: HashMap<(Var, TermId), ()> = HashMap::new();
        for n in prog.node_ids() {
            for stmt in &prog.block(n).stmts {
                if let Stmt::Assign { lhs, rhs } = *stmt {
                    if seen.insert((lhs, rhs), ()).is_none() {
                        pairs.push((lhs, rhs));
                    }
                }
            }
        }
        let mut keyed: Vec<(PatternKey, (Var, TermId))> = pairs
            .into_iter()
            .map(|(v, t)| (PatternKey::of(prog, v, t), (v, t)))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        let width = keyed.len();
        let mut patterns = Vec::with_capacity(width);
        let mut keys = Vec::with_capacity(width);
        let mut index = HashMap::with_capacity(width);
        let mut by_use = BitMatrix::zeros(prog.num_vars(), width);
        let mut by_def = by_use.clone();
        for (i, (key, (x, t))) in keyed.into_iter().enumerate() {
            by_use.row_mut(x.index()).set(i, true);
            by_def.row_mut(x.index()).set(i, true);
            for v in prog.terms().vars_of(t) {
                by_def.row_mut(v.index()).set(i, true);
            }
            index.insert((x, t), i);
            patterns.push((x, t));
            keys.push(key);
        }
        PatternTable {
            patterns,
            keys,
            index,
            by_use,
            by_def,
        }
    }

    /// Number of distinct patterns (the paper's `a`).
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the program has no assignments.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The pattern `(lhs, rhs)` at `index`.
    pub fn pattern(&self, index: usize) -> (Var, TermId) {
        self.patterns[index]
    }

    /// All patterns in index order (e.g. for comparing two tables).
    pub fn pairs(&self) -> &[(Var, TermId)] {
        &self.patterns
    }

    /// The canonical key of the pattern at `index`.
    pub fn key(&self, index: usize) -> &PatternKey {
        &self.keys[index]
    }

    /// Index of the pattern of an assignment statement, if it is one.
    pub fn index_of_stmt(&self, stmt: &Stmt) -> Option<usize> {
        match *stmt {
            Stmt::Assign { lhs, rhs } => self.index.get(&(lhs, rhs)).copied(),
            _ => None,
        }
    }

    /// Index of a pattern by parts.
    pub fn index_of(&self, lhs: Var, rhs: TermId) -> Option<usize> {
        self.index.get(&(lhs, rhs)).copied()
    }

    /// ORs into `blocked` every pattern that `stmt` blocks: `by_use` of
    /// each variable it reads and `by_def` of the variable it writes.
    /// A statement blocks `x := t` when it modifies an operand of `t`,
    /// uses `x`, or modifies `x` (Definition 3.1 discussion); the local
    /// predicates of sinking and hoisting are built from these masks.
    /// Variables the table has never seen block nothing.
    pub fn union_stmt_blocks(&self, prog: &Program, stmt: &Stmt, blocked: &mut RowMut<'_>) {
        self.union_read_blocks(prog, stmt.used_term(), blocked);
        if let Some(m) = stmt.modified().filter(|m| m.index() < self.by_def.rows()) {
            blocked.union_with(self.by_def.row(m.index()));
        }
    }

    /// ORs into `blocked` every pattern that `term` blocks: `by_use` of
    /// each variable its condition reads. Only conditional branches read
    /// variables (the condition is a relevant use); no terminator
    /// modifies anything.
    pub fn union_terminator_blocks(
        &self,
        prog: &Program,
        term: &Terminator,
        blocked: &mut RowMut<'_>,
    ) {
        self.union_read_blocks(prog, term.used_term(), blocked);
    }

    fn union_read_blocks(&self, prog: &Program, read: Option<TermId>, blocked: &mut RowMut<'_>) {
        let Some(t) = read else { return };
        for v in prog.terms().vars_of(t) {
            if v.index() < self.by_use.rows() {
                blocked.union_with(self.by_use.row(v.index()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_dfa::BitVec;
    use pdce_ir::parser::parse;

    /// Whether `stmt` blocks pattern `p`, read off the masks.
    fn stmt_blocks(table: &PatternTable, prog: &Program, p: usize, stmt: &Stmt) -> bool {
        let mut blocked = BitVec::zeros(table.len());
        table.union_stmt_blocks(prog, stmt, &mut blocked.as_row_mut());
        blocked.get(p)
    }

    /// Whether `term` blocks pattern `p`, read off the masks.
    fn terminator_blocks(
        table: &PatternTable,
        prog: &Program,
        p: usize,
        term: &Terminator,
    ) -> bool {
        let mut blocked = BitVec::zeros(table.len());
        table.union_terminator_blocks(prog, term, &mut blocked.as_row_mut());
        blocked.get(p)
    }

    #[test]
    fn builds_deterministic_dense_indices() {
        let p = parse(
            "prog {
               block s { y := a + b; x := a; y := a + b; goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let table = PatternTable::build(&p);
        assert_eq!(table.len(), 2);
        // Canonical order: "x := a" < "y := a + b".
        assert_eq!(table.key(0).as_str(), "x := a");
        assert_eq!(table.key(1).as_str(), "y := a + b");
        let s0 = &p.block(p.entry()).stmts[0];
        assert_eq!(table.index_of_stmt(s0), Some(1));
        assert_eq!(table.index_of_stmt(&Stmt::Skip), None);
    }

    #[test]
    fn blocking_rules() {
        let p = parse(
            "prog {
               block s { y := a + b; a := 1; z := y; y := 2; skip; out(c); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let table = PatternTable::build(&p);
        let y_ab = table
            .index_of(p.vars().lookup("y").unwrap(), {
                let Stmt::Assign { rhs, .. } = p.block(p.entry()).stmts[0] else {
                    unreachable!()
                };
                rhs
            })
            .unwrap();
        let stmts = &p.block(p.entry()).stmts;
        // a := 1 modifies an operand of a+b.
        assert!(stmt_blocks(&table, &p, y_ab, &stmts[1]));
        // z := y uses y.
        assert!(stmt_blocks(&table, &p, y_ab, &stmts[2]));
        // y := 2 modifies y.
        assert!(stmt_blocks(&table, &p, y_ab, &stmts[3]));
        // skip blocks nothing.
        assert!(!stmt_blocks(&table, &p, y_ab, &stmts[4]));
        // out(c) does not touch y, a, b.
        assert!(!stmt_blocks(&table, &p, y_ab, &stmts[5]));
        // The occurrence itself blocks the pattern (modifies y).
        assert!(stmt_blocks(&table, &p, y_ab, &stmts[0]));
    }

    #[test]
    fn terminator_blocking() {
        let p = parse(
            "prog {
               block s { x := a + b; if x < 3 then t else e }
               block t { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let table = PatternTable::build(&p);
        let term = &p.block(p.entry()).term;
        assert!(terminator_blocks(&table, &p, 0, term));
        let goto = &p.block(p.block_by_name("t").unwrap()).term;
        assert!(!terminator_blocks(&table, &p, 0, goto));
    }

    #[test]
    fn out_relevant_statement_blocks_pattern_variable() {
        let p = parse("prog { block s { x := a; out(x + 1); goto e } block e { halt } }").unwrap();
        let table = PatternTable::build(&p);
        let out = &p.block(p.entry()).stmts[1];
        assert!(stmt_blocks(&table, &p, 0, out));
    }
}
