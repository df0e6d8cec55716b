//! An instruction-level def-use chain graph.
//!
//! [`DuGraph`] is a CSR snapshot of per-instruction kind/def/use facts,
//! the instruction successor relation (statements chain within a block,
//! terminators branch along the `CfgView` edges) and its inverse, in the
//! view's arena numbering: statements plus one terminator
//! pseudo-instruction per block.
//!
//! No analysis reads it any more: faint runs on the block worklist
//! (DESIGN.md §15). It stays, revision-cached by `AnalysisCache::du`,
//! only because the benchmark's layer replica (`perfbench/src/replica.rs`)
//! builds it under its `du` span, until the next benchmark change drops
//! that span.

use pdce_ir::{CfgView, NodeId, Program, Stmt, Var};

use crate::csr::Csr;

/// What an instruction does, as far as the chain graph cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrKind {
    /// No variable effect (skip, goto, nondet, halt).
    Neutral,
    /// An assignment: defines [`DuGraph::def_of`], uses
    /// [`DuGraph::uses_of`] (the right-hand-side variables).
    Assign,
    /// A relevant use of [`DuGraph::uses_of`] (out statements and branch
    /// conditions) — the only instructions that pin variables live.
    Relevant,
}

/// Instruction-level def-use/use-def chains of one program, in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuGraph {
    num_vars: usize,
    num_instrs: usize,
    /// Per-instruction kind.
    kinds: Vec<InstrKind>,
    /// Per-instruction defined variable index; `u32::MAX` if none.
    defs: Vec<u32>,
    /// Per-instruction used variable indices (right-hand-side variables
    /// for assignments, used variables for relevant instructions).
    uses: Csr,
    /// Instruction successors: statements chain to the next instruction
    /// of their block, terminators branch to the first instruction of
    /// each successor block, in branch order.
    next: Csr,
    /// Inverse of `next` (use-def direction).
    prev: Csr,
}

/// Walks one block's instructions (statements, then the terminator
/// pseudo-instruction), reporting each one's kind, defined-variable
/// index (`u32::MAX` if none), and used variables.
fn scan_block(prog: &Program, n: NodeId, mut f: impl FnMut(InstrKind, u32, &[Var])) {
    let block = prog.block(n);
    for stmt in &block.stmts {
        match *stmt {
            Stmt::Skip => f(InstrKind::Neutral, u32::MAX, &[]),
            Stmt::Assign { lhs, rhs } => f(
                InstrKind::Assign,
                lhs.index() as u32,
                prog.terms().vars_of(rhs),
            ),
            Stmt::Out(t) => f(InstrKind::Relevant, u32::MAX, prog.terms().vars_of(t)),
        }
    }
    match block.term.used_term() {
        Some(c) => f(InstrKind::Relevant, u32::MAX, prog.terms().vars_of(c)),
        None => f(InstrKind::Neutral, u32::MAX, &[]),
    }
}

impl DuGraph {
    /// Builds the chain graph for `prog` from scratch.
    pub fn build(prog: &Program, view: &CfgView) -> DuGraph {
        debug_assert!(view.layout_matches(prog), "view layout is stale");
        let num_instrs = view.num_instrs();

        let mut kinds = Vec::with_capacity(num_instrs);
        let mut defs = Vec::with_capacity(num_instrs);
        let mut use_off = Vec::with_capacity(num_instrs + 1);
        use_off.push(0u32);
        let mut use_edges: Vec<u32> = Vec::new();
        for n in prog.node_ids() {
            scan_block(prog, n, |kind, def, uses| {
                kinds.push(kind);
                defs.push(def);
                use_edges.extend(uses.iter().map(|v| v.index() as u32));
                use_off.push(use_edges.len() as u32);
            });
        }
        let uses = Csr::from_parts(use_off, use_edges);
        let num_vars = prog.num_vars();

        let next = Csr::build(num_instrs, |emit| {
            for n in prog.node_ids() {
                let range = view.instr_range(n);
                for k in range.start..range.end - 1 {
                    emit(k as u32, k as u32 + 1);
                }
                for &m in view.succs(n) {
                    emit(range.end as u32 - 1, view.first_instr(m) as u32);
                }
            }
        });
        let prev = Csr::build(num_instrs, |emit| {
            for i in 0..num_instrs {
                for &nu in next.neighbors(i) {
                    emit(nu, i as u32);
                }
            }
        });
        DuGraph {
            num_vars,
            num_instrs,
            kinds,
            defs,
            uses,
            next,
            prev,
        }
    }

    /// Number of variables of the underlying program.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of instructions (statements plus one terminator
    /// pseudo-instruction per block).
    pub fn num_instrs(&self) -> usize {
        self.num_instrs
    }

    /// Kind of instruction `i`.
    pub fn kind(&self, i: usize) -> InstrKind {
        self.kinds[i]
    }

    /// Variable defined by instruction `i`, if any.
    pub fn def_of(&self, i: usize) -> Option<Var> {
        (self.defs[i] != u32::MAX).then(|| Var::from_index(self.defs[i] as usize))
    }

    /// Variable indices used by instruction `i`.
    pub fn uses_of(&self, i: usize) -> &[u32] {
        self.uses.neighbors(i)
    }

    /// Successor instructions of `i`, in flow order.
    pub fn next_of(&self, i: usize) -> &[u32] {
        self.next.neighbors(i)
    }

    /// Predecessor instructions of `i` (the use-def direction).
    pub fn prev_of(&self, i: usize) -> &[u32] {
        self.prev.neighbors(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    #[test]
    fn build_records_kinds_defs_uses_and_chains() {
        let prog = parse(
            "prog {
               block s { x := 1; y := x + z; out(y); if x < 2 then t else e }
               block t { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&prog);
        let du = DuGraph::build(&prog, &view);
        let x = prog.vars().lookup("x").unwrap();
        let y = prog.vars().lookup("y").unwrap();
        assert_eq!(du.num_instrs(), view.num_instrs());
        // Instruction 0 is `x := 1`, 1 is `y := x + z`, 2 is `out(y)`,
        // 3 is the branch on x.
        assert_eq!(du.kind(0), InstrKind::Assign);
        assert_eq!(du.def_of(0), Some(x));
        assert_eq!(du.uses_of(0), &[] as &[u32]);
        assert_eq!(du.kind(1), InstrKind::Assign);
        assert_eq!(du.def_of(1), Some(y));
        assert!(du.uses_of(1).contains(&(x.index() as u32)));
        assert_eq!(du.kind(2), InstrKind::Relevant);
        assert_eq!(du.uses_of(2), &[y.index() as u32]);
        assert_eq!(du.kind(3), InstrKind::Relevant);
        // Statements chain; the branch fans out to both targets.
        assert_eq!(du.next_of(0), &[1]);
        assert_eq!(du.next_of(3).len(), 2);
        assert_eq!(du.prev_of(1), &[0]);
    }
}
