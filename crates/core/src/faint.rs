//! Faint-variable analysis (Table 1 of the paper).
//!
//! A variable `x` is *faint* at a point if on every path to the end node
//! every right-hand-side occurrence of `x` is either preceded by a
//! modification of `x` or occurs in an assignment whose left-hand-side
//! variable is itself faint. Faintness subsumes deadness (Figure 9 shows
//! a faint-but-not-dead assignment) but is **not** a bit-vector problem:
//! the equation for slot `(ι, x)` of an assignment `ι` reads the slot of
//! a *different* variable, `(ι, lhs_ι)`:
//!
//! ```text
//! N-FAINT_ι(x) = ¬RELV-USED_ι(x) ∧ (X-FAINT_ι(x) ∨ MOD_ι(x))
//!                               ∧ (X-FAINT_ι(lhs_ι) ∨ ¬ASS-USED_ι(x))
//! X-FAINT_ι(x) = ∧_{ι' ∈ succ(ι)} N-FAINT_ι'(x)
//! ```
//!
//! Following Section 5.2 we solve it slotwise, with the paper's
//! subtlety: whenever slot `(ι, lhs_ι)` drops, the slots `(ι, z)` of all
//! right-hand-side variables `z` of `ι` are re-evaluated. The network is
//! solved by the sparse falsity closure of `pdce-dfa`, which touches
//! only the slots falsity reaches — the §6.1.2
//! `O(#slots + #dependency edges)` bound without materializing the
//! edges. Every solve is cold (DESIGN.md §15).

use pdce_dfa::network::{solve_greatest_sparse, NetworkSolution};
use pdce_dfa::{Csr, DuGraph, InstrKind};
use pdce_ir::{CfgView, NodeId, Program, Var};

/// Result of the faint-variable analysis.
#[derive(Debug)]
pub struct FaintSolution {
    num_vars: usize,
    /// First instruction index of each block.
    offsets: Vec<usize>,
    /// `N-FAINT` value of every `(instruction, variable)` slot.
    values: pdce_dfa::BitVec,
    /// Successor instruction indices of every instruction, in CSR form.
    next: Csr,
    evaluations: u64,
}

/// The slot network of one program, viewed through its def-use chain
/// graph: the [`DuGraph`] already holds the instruction layout, the
/// per-instruction kind/def/use facts, and the flow chains, so the
/// network is a thin slot-arithmetic layer over it. The closure walks
/// the use-def chains lazily; no dependency relation is materialized.
struct Network<'a> {
    num_vars: usize,
    num_instrs: usize,
    num_slots: usize,
    du: &'a DuGraph,
}

impl<'a> Network<'a> {
    fn new(du: &'a DuGraph) -> Network<'a> {
        let num_vars = du.num_vars();
        let num_instrs = du.num_instrs();
        Network {
            num_vars,
            num_instrs,
            num_slots: num_instrs * num_vars,
            du,
        }
    }

    /// The constant-false slots under the all-true start value: Table 1
    /// makes exactly the `RELV-USED` slots false unconditionally, so the
    /// sparse falsity closure seeds from the relevant instructions' used
    /// variables — every other equation is true while its inputs are.
    fn false_seeds(&self) -> Vec<u32> {
        let mut seeds = Vec::new();
        for i in 0..self.num_instrs {
            if self.du.kind(i) == InstrKind::Relevant {
                for &u in self.du.uses_of(i) {
                    seeds.push((i * self.num_vars + u as usize) as u32);
                }
            }
        }
        seeds
    }

    /// Lazy dependents of slot `s`, walking the use-def chains from the
    /// target side via `prev`: slot (ν, y) is read by (ι, y) whenever
    /// ν ∈ next(ι); additionally, for assignments, (ν, lhs) is read by
    /// (ι, z) for every right-hand-side variable z.
    fn sparse_dependents_of(&self, s: usize, out: &mut Vec<u32>) {
        let nu = s / self.num_vars;
        let y = (s % self.num_vars) as u32;
        for &i in self.du.prev_of(nu) {
            let i = i as usize;
            out.push((i * self.num_vars) as u32 + y);
            if self.du.kind(i) == InstrKind::Assign {
                let lhs = self.du.def_of(i).expect("assignment defines").index() as u32;
                if lhs == y {
                    for &z in self.du.uses_of(i) {
                        if z != y {
                            out.push((i * self.num_vars + z as usize) as u32);
                        }
                    }
                }
            }
        }
    }

    /// Table 1's `X-FAINT`: conjunction over successor instructions.
    fn x_faint(&self, values: &pdce_dfa::BitVec, instr: usize, v: usize) -> bool {
        self.du
            .next_of(instr)
            .iter()
            .all(|&nu| values.get(nu as usize * self.num_vars + v))
    }

    /// Table 1's `N-FAINT` right-hand side for one slot.
    fn eval(&self, s: usize, values: &pdce_dfa::BitVec) -> bool {
        let instr = s / self.num_vars;
        let x = s % self.num_vars;
        match self.du.kind(instr) {
            InstrKind::Neutral => self.x_faint(values, instr, x),
            InstrKind::Relevant => {
                !self.du.uses_of(instr).contains(&(x as u32)) && self.x_faint(values, instr, x)
            }
            InstrKind::Assign => {
                let lhs = self.du.def_of(instr).expect("assignment defines").index();
                (self.x_faint(values, instr, x) || x == lhs)
                    && (self.x_faint(values, instr, lhs)
                        || !self.du.uses_of(instr).contains(&(x as u32)))
            }
        }
    }
}

impl FaintSolution {
    /// Runs the analysis over `prog`.
    ///
    /// # Example
    ///
    /// ```
    /// use pdce_core::FaintSolution;
    /// use pdce_ir::parser::parse;
    ///
    /// // Figure 9: the self-increment is faint (though not dead).
    /// let prog = parse(
    ///     "prog { block s { goto l } block l { x := x + 1; nondet l d }
    ///             block d { goto e } block e { halt } }",
    /// )?;
    /// let faint = FaintSolution::compute(&prog, &pdce_ir::CfgView::new(&prog));
    /// let l = prog.block_by_name("l").unwrap();
    /// let x = prog.vars().lookup("x").unwrap();
    /// assert!(faint.faint_after(l, 0, x));
    /// # Ok::<(), pdce_ir::ParseError>(())
    /// ```
    pub fn compute(prog: &Program, view: &CfgView) -> FaintSolution {
        let du = DuGraph::build(prog, view);
        FaintSolution::compute_with_du(prog, view, &du)
    }

    /// Runs the analysis against an already-built def-use chain graph
    /// (typically the revision-cached one from `AnalysisCache::du`,
    /// avoiding the program re-scan). `du` must describe `prog` under
    /// `view`'s layout.
    ///
    /// The closure seeds the closed-form false slots and chases falsity
    /// along the use-def chains.
    pub fn compute_with_du(prog: &Program, view: &CfgView, du: &DuGraph) -> FaintSolution {
        debug_assert!(view.layout_matches(prog), "view layout is stale");
        debug_assert_eq!(du.num_instrs(), view.num_instrs(), "du graph is stale");
        let net = Network::new(du);
        let eval = |s: usize, values: &pdce_dfa::BitVec| net.eval(s, values);
        let NetworkSolution {
            values,
            evaluations,
        } = solve_greatest_sparse(
            net.num_slots,
            &net.false_seeds(),
            |s, out| net.sparse_dependents_of(s, out),
            eval,
        );

        FaintSolution {
            num_vars: net.num_vars,
            offsets: du.block_offsets().to_vec(),
            values,
            next: du.next().clone(),
            evaluations,
        }
    }

    /// [`FaintSolution::compute_with_du`] under the signature of the
    /// retired warm-start entry point: `prev` and `dirty` are ignored
    /// and every solve is cold. Kept only because the benchmark's layer
    /// replica (`perfbench/src/replica.rs`) calls it, until the next
    /// benchmark change moves the replica to `AnalysisCache::analysis`.
    pub fn compute_seeded_with_du(
        prog: &Program,
        view: &CfgView,
        du: &DuGraph,
        _prev: &FaintSolution,
        _dirty: &[NodeId],
    ) -> FaintSolution {
        FaintSolution::compute_with_du(prog, view, du)
    }

    fn instr_index(&self, n: NodeId, stmt_idx: usize) -> usize {
        self.offsets[n.index()] + stmt_idx
    }

    /// `N-FAINT` of variable `v` at statement `k` of block `n` (the
    /// terminator is statement index `block.stmts.len()`).
    pub fn faint_before(&self, n: NodeId, k: usize, v: Var) -> bool {
        self.values
            .get(self.instr_index(n, k) * self.num_vars + v.index())
    }

    /// `X-FAINT` of variable `v` immediately after statement `k` of
    /// block `n`.
    pub fn faint_after(&self, n: NodeId, k: usize, v: Var) -> bool {
        let instr = self.instr_index(n, k);
        self.next
            .neighbors(instr)
            .iter()
            .all(|&nu| self.values.get(nu as usize * self.num_vars + v.index()))
    }

    /// `N-FAINT` of `v` at the entry of block `n`.
    pub fn faint_at_entry(&self, n: NodeId, v: Var) -> bool {
        self.faint_before(n, 0, v)
    }

    /// Number of slot evaluations (for the Section 6.1.2 experiments).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    fn var(p: &Program, name: &str) -> Var {
        p.vars().lookup(name).unwrap()
    }

    /// Figure 9: `x := x + 1` inside a loop, never observed: faint
    /// (though not dead, cf. dead.rs tests).
    #[test]
    fn fig9_self_increment_is_faint() {
        let p = parse(
            "prog {
               block s { goto l }
               block l { x := x + 1; nondet l x2 }
               block x2 { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let l = p.block_by_name("l").unwrap();
        assert!(f.faint_after(l, 0, var(&p, "x")));
        assert!(f.faint_at_entry(l, var(&p, "x")));
    }

    /// The Horwitz/Demers/Teitelbaum-style chain: `y := x` where y is
    /// itself unused — both x's definition and the copy are faint.
    #[test]
    fn faint_chains_propagate() {
        let p = parse(
            "prog {
               block s { x := 1; y := x; goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let s = p.entry();
        assert!(f.faint_after(s, 0, var(&p, "x")), "x only feeds faint y");
        assert!(f.faint_after(s, 1, var(&p, "y")));
    }

    #[test]
    fn relevant_use_defeats_faintness() {
        let p = parse(
            "prog {
               block s { x := 1; y := x; out(y); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let s = p.entry();
        assert!(!f.faint_after(s, 0, var(&p, "x")));
        assert!(!f.faint_after(s, 1, var(&p, "y")));
        assert!(
            f.faint_after(s, 2, var(&p, "y")),
            "after out(y), y is faint"
        );
    }

    #[test]
    fn branch_condition_is_relevant() {
        let p = parse(
            "prog {
               block s { x := 1; if x < 2 then t else e }
               block t { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        assert!(!f.faint_after(p.entry(), 0, var(&p, "x")));
    }

    #[test]
    fn dead_implies_faint_on_example() {
        use crate::dead::DeadSolution;
        use pdce_ir::CfgView;
        let p = parse(
            "prog {
               block s { a := 1; b := a + 2; out(b); nondet l e }
               block l { c := c + b; nondet l e }
               block e { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        let d = DeadSolution::compute(&p, &view);
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        for n in p.node_ids() {
            for (k, stmt) in p.block(n).stmts.iter().enumerate() {
                if let Some(lhs) = stmt.modified() {
                    if d.dead_after(&p, n, k, lhs) {
                        assert!(
                            f.faint_after(n, k, lhs),
                            "dead ⟹ faint violated at {}[{}]",
                            p.block(n).name,
                            k
                        );
                    }
                }
            }
        }
    }

    /// Figure 12 seen through faintness: both `a := ...` (used only by a
    /// dead assignment) and the dead `y := a+b` are faint simultaneously
    /// — a first-order effect for PFE (Section 4.4).
    #[test]
    fn fig12_both_assignments_faint_simultaneously() {
        let p = parse(
            "prog {
               block s  { a := c + 1; nondet n3 n4 }
               block n3 { goto n5 }
               block n4 { y := a + b; goto n5 }
               block n5 { y := c + d; out(y); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let s = p.entry();
        let n4 = p.block_by_name("n4").unwrap();
        assert!(f.faint_after(s, 0, var(&p, "a")));
        assert!(f.faint_after(n4, 0, var(&p, "y")));
    }

    #[test]
    fn mutual_recursion_between_faint_variables() {
        // x feeds y, y feeds x, neither observed: both faint (greatest
        // fixpoint keeps the self-supporting cycle).
        let p = parse(
            "prog {
               block s { goto l }
               block l { x := y + 1; y := x + 1; nondet l d }
               block d { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let l = p.block_by_name("l").unwrap();
        assert!(f.faint_after(l, 0, var(&p, "x")));
        assert!(f.faint_after(l, 1, var(&p, "y")));
    }

    /// Pins the engine: a solve runs the sparse closure and never the
    /// bit-vector worklist, so a silent fallback fails here instead of
    /// only losing speed.
    #[test]
    fn default_engine_is_the_sparse_closure() {
        let p = parse(
            "prog {
               block s { x := 1; y := x; z := y; out(z); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let view = CfgView::new(&p);
        let before = pdce_trace::solver_totals();
        FaintSolution::compute(&p, &view);
        let d = pdce_trace::solver_totals().since(&before);
        assert!(d.sparse_pops > 0, "{d:?}");
        assert_eq!(d.priority_pops, 0, "{d:?}");
    }

    #[test]
    fn observed_cycle_is_not_faint() {
        let p = parse(
            "prog {
               block s { goto l }
               block l { x := y + 1; y := x + 1; nondet l d }
               block d { out(y); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let f = FaintSolution::compute(&p, &CfgView::new(&p));
        let l = p.block_by_name("l").unwrap();
        assert!(!f.faint_after(l, 0, var(&p, "x")));
        assert!(!f.faint_after(l, 1, var(&p, "y")));
    }
}
