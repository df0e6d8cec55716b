//! Dense indexing of the assignment patterns `AP` of a program.
//!
//! The delayability analysis of Table 2 works on "bit-vectors of sinking
//! candidates", one bit per assignment pattern occurring in the program.
//! [`PatternTable`] assigns each distinct pattern `x := t` a dense index
//! and answers the blocking queries that the local predicates are built
//! from. The driver builds one table per run and keeps its indices for
//! every round (no round creates a pattern); `sink_assignments_cached`
//! takes each revision's table from the analysis cache.
//!
//! Blocking is stored per variable, as two pattern masks: a read of `v`
//! blocks row `v` of `by_use` (the patterns `v := t`), a write of `v`
//! blocks row `v` of `by_def` (the patterns `v := t` and every `x := t`
//! with `v` in `t`). A statement's blocked set is then the union of one
//! mask per variable it touches, ⌈a/64⌉ words each, instead of `a` term
//! probes.

use pdce_dfa::{BitMatrix, RowMut};
use pdce_ir::printer::write_term;
use pdce_ir::{PatternKey, Program, Stmt, TermId, Terminator, Var};

#[cfg(test)]
thread_local! {
    static BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Dense table of the assignment patterns occurring in a program.
#[derive(Debug, Clone)]
pub struct PatternTable {
    /// Patterns in canonical-key order: index `i` is pattern `i`.
    patterns: Vec<(Var, TermId)>,
    /// The patterns `v := t` are `by_lhs[lhs_start[v]..lhs_start[v + 1]]`,
    /// as `(t, index)` pairs sorted by `t`.
    lhs_start: Vec<u32>,
    by_lhs: Vec<(TermId, u32)>,
    /// Row per variable: the patterns a read of it blocks.
    by_use: BitMatrix,
    /// Row per variable: the patterns a write of it blocks.
    by_def: BitMatrix,
}

impl PatternTable {
    /// Collects all assignment patterns of `prog`, in canonical-key order
    /// (the byte order of `"x := t"`) so that indices (and hence insertion
    /// order during sinking) are deterministic.
    ///
    /// No key string is built. Patterns sort by lhs name, then by the
    /// rendering of the rhs, which is the key order because every
    /// identifier character sorts above the `' '` that ends the name in
    /// the key. Both sorts are over ranks: the variables are ranked by
    /// name once, and each distinct rhs is rendered once, into one
    /// shared buffer, and ranked by its rendering.
    pub fn build(prog: &Program) -> PatternTable {
        #[cfg(test)]
        BUILDS.with(|b| b.set(b.get() + 1));
        let mut occurring: Vec<(Var, TermId)> = prog
            .node_ids()
            .flat_map(|n| prog.block(n).stmts.iter())
            .filter_map(|stmt| match *stmt {
                Stmt::Assign { lhs, rhs } => Some((lhs, rhs)),
                _ => None,
            })
            .collect();
        occurring.sort_unstable();
        occurring.dedup();
        let width = occurring.len();

        let mut by_name: Vec<Var> = prog.vars().iter().collect();
        by_name.sort_unstable_by(|&a, &b| prog.vars().name(a).cmp(prog.vars().name(b)));
        let mut name_rank = vec![0u32; by_name.len()];
        for (r, v) in by_name.into_iter().enumerate() {
            name_rank[v.index()] = r as u32;
        }

        let mut rhs_ids: Vec<TermId> = occurring.iter().map(|&(_, t)| t).collect();
        rhs_ids.sort_unstable();
        rhs_ids.dedup();
        let mut text = String::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(rhs_ids.len());
        for &t in &rhs_ids {
            let lo = text.len();
            write_term(prog, t, &mut text);
            spans.push((lo, text.len()));
        }
        let rendered = |k: usize| &text[spans[k].0..spans[k].1];
        let mut by_text: Vec<usize> = (0..rhs_ids.len()).collect();
        by_text.sort_unstable_by(|&a, &b| rendered(a).cmp(rendered(b)));
        let mut rhs_rank = vec![0u32; rhs_ids.len()];
        for (r, k) in by_text.into_iter().enumerate() {
            rhs_rank[k] = r as u32;
        }

        let mut order: Vec<(u32, u32, u32)> = occurring
            .iter()
            .enumerate()
            .map(|(at, &(x, t))| {
                let rhs = rhs_ids.binary_search(&t).expect("ranked rhs");
                (name_rank[x.index()], rhs_rank[rhs], at as u32)
            })
            .collect();
        order.sort_unstable();

        let mut patterns = Vec::with_capacity(width);
        let mut rank = vec![0u32; width];
        let mut by_use = BitMatrix::zeros(prog.num_vars(), width);
        let mut by_def = by_use.clone();
        for (i, &(_, _, at)) in order.iter().enumerate() {
            let (x, t) = occurring[at as usize];
            rank[at as usize] = i as u32;
            by_use.row_mut(x.index()).set(i, true);
            by_def.row_mut(x.index()).set(i, true);
            for v in prog.terms().vars_of(t) {
                by_def.row_mut(v.index()).set(i, true);
            }
            patterns.push((x, t));
        }
        // `occurring` is sorted by (lhs, rhs): one contiguous, rhs-sorted
        // run per left-hand side.
        let mut lhs_start = vec![0u32; prog.num_vars() + 1];
        for &(x, _) in &occurring {
            lhs_start[x.index() + 1] += 1;
        }
        for v in 0..prog.num_vars() {
            lhs_start[v + 1] += lhs_start[v];
        }
        let by_lhs = occurring
            .iter()
            .zip(&rank)
            .map(|(&(_, t), &i)| (t, i))
            .collect();
        PatternTable {
            patterns,
            lhs_start,
            by_lhs,
            by_use,
            by_def,
        }
    }

    /// How many tables [`PatternTable::build`] has built on the calling
    /// thread, so tests can pin how often a run builds one.
    #[cfg(test)]
    pub(crate) fn builds_on_this_thread() -> u64 {
        BUILDS.with(std::cell::Cell::get)
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

    /// The canonical key of the pattern at `index`, formatted from `prog`
    /// (the program the table was built from, or a later revision of it).
    pub fn key(&self, prog: &Program, index: usize) -> PatternKey {
        let (lhs, rhs) = self.patterns[index];
        PatternKey::of(prog, lhs, rhs)
    }

    /// Index of the pattern of an assignment statement, if it is one.
    pub fn index_of_stmt(&self, stmt: &Stmt) -> Option<usize> {
        match *stmt {
            Stmt::Assign { lhs, rhs } => self.index_of(lhs, rhs),
            _ => None,
        }
    }

    /// Index of a pattern by parts.
    pub fn index_of(&self, lhs: Var, rhs: TermId) -> Option<usize> {
        let v = lhs.index();
        let (lo, hi) = (*self.lhs_start.get(v)?, *self.lhs_start.get(v + 1)?);
        let run = &self.by_lhs[lo as usize..hi as usize];
        let k = run.binary_search_by_key(&rhs, |&(t, _)| t).ok()?;
        Some(run[k].1 as usize)
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
        assert_eq!(table.key(&p, 0).as_str(), "x := a");
        assert_eq!(table.key(&p, 1).as_str(), "y := a + b");
        let s0 = &p.block(p.entry()).stmts[0];
        assert_eq!(table.index_of_stmt(s0), Some(1));
        assert_eq!(table.index_of_stmt(&Stmt::Skip), None);
    }

    /// The string-free order is the byte order of the formatted keys,
    /// also where one lhs name is a prefix of another (`v1` / `v10`,
    /// `x` / `x_`) and where renderings differ only in sign or
    /// parentheses, and the dense index finds every pattern.
    #[test]
    fn order_matches_formatted_keys() {
        let p = parse(
            "prog {
               block s { v10 := 1; v1 := v10 + 2; x_ := x; x := -(1); x := -1;
                         v1 := 3; v := v1 * v10; x := x_ - 1; goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let table = PatternTable::build(&p);
        let keys: Vec<String> = (0..table.len())
            .map(|i| table.key(&p, i).to_string())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 8);
        for stmt in &p.block(p.entry()).stmts {
            let i = table.index_of_stmt(stmt).unwrap();
            assert_eq!(
                table.key(&p, i).as_str(),
                pdce_ir::printer::print_stmt(&p, stmt)
            );
        }
    }

    #[test]
    fn unknown_variables_have_no_index() {
        let mut p = parse("prog { block s { x := a; goto e } block e { halt } }").unwrap();
        let table = PatternTable::build(&p);
        let fresh = p.var("fresh");
        let a = p.vars().lookup("a").unwrap();
        let t = p.terms_mut().var(a);
        assert_eq!(table.index_of(fresh, t), None);
        assert_eq!(table.index_of(p.vars().lookup("x").unwrap(), t), Some(0));
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
