//! Definition-use-chain based dead code elimination (Section 5.2's
//! "standard method").
//!
//! The paper contrasts its iterative eliminations with the usual
//! def-use-graph approach: connect every definition with its reachable
//! uses and run a *marking* algorithm from the relevant statements; with
//! optimistic assumptions every faint assignment is detected, at the cost
//! of a graph of worst-case size `O(i² · v)`. This module implements
//! that method faithfully:
//!
//! 1. reaching definitions (forward, union, bit per definition
//!    occurrence),
//! 2. the definition→use edges (du-chains),
//! 3. marking from `out`/branch-condition uses,
//! 4. removal of unmarked assignments.
//!
//! Its removal set coincides with faint code elimination, which the
//! tests (and the cross-crate property tests) verify, and its du-graph
//! size feeds the C6 complexity experiment.

use pdce_core::elim::apply_removals;
use pdce_dfa::{solve, BitMatrix, BitProblem, BitVec, Direction, Meet, Row};
use pdce_ir::{CfgView, NodeId, Program, Stmt, Var};

/// A definition occurrence: statement `k` of block `n` (an assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// Containing block.
    pub node: NodeId,
    /// Statement index within the block.
    pub stmt: usize,
    /// Defined variable.
    pub var: Var,
}

/// The definition-use graph of a program.
#[derive(Debug)]
pub struct DuGraph {
    /// All definition sites, densely indexed.
    pub defs: Vec<DefSite>,
    /// For each definition, the definitions reaching a use in its
    /// right-hand side — the def→def "needs" edges discovered through
    /// uses, one entry per du-chain.
    pub suppliers: Vec<Vec<u32>>,
    /// Definitions used by a relevant statement (out / branch condition).
    pub relevant: BitVec,
    /// Total number of definition→use edges (the graph size the paper
    /// bounds by `O(i² v)`).
    pub du_edges: u64,
}

impl DuGraph {
    /// Builds the du-graph of `prog`.
    pub fn build(prog: &Program, view: &CfgView) -> DuGraph {
        // Enumerate definitions.
        let mut defs = Vec::new();
        let mut def_at = vec![Vec::new(); prog.num_blocks()];
        for n in prog.node_ids() {
            for (k, stmt) in prog.block(n).stmts.iter().enumerate() {
                if let Stmt::Assign { lhs, .. } = *stmt {
                    def_at[n.index()].push((k, defs.len()));
                    defs.push(DefSite {
                        node: n,
                        stmt: k,
                        var: lhs,
                    });
                }
            }
        }
        let width = defs.len();

        // Reaching definitions: gen = this def, kill = other defs of the
        // same variable.
        let mut defs_of_var = BitMatrix::zeros(prog.num_vars(), width);
        for (i, d) in defs.iter().enumerate() {
            defs_of_var.row_mut(d.var.index()).set(i, true);
        }
        // Block transfers composed in place, definitions in execution
        // order: a definition kills the other definitions of its
        // variable, then generates itself.
        let mut gen = BitMatrix::zeros(prog.num_blocks(), width);
        let mut kill = BitMatrix::zeros(prog.num_blocks(), width);
        for n in prog.node_ids() {
            let (mut g, mut k) = (gen.row_mut(n.index()), kill.row_mut(n.index()));
            for &(_, i) in &def_at[n.index()] {
                let others = defs_of_var.row(defs[i].var.index());
                g.difference_with(others);
                g.set(i, true);
                for d in others.iter_ones().filter(|&d| d != i) {
                    k.set(d, true);
                }
            }
        }
        let problem = BitProblem {
            direction: Direction::Forward,
            meet: Meet::Union,
            width,
            gen: &gen,
            kill: &kill,
            boundary: BitVec::zeros(width),
        };
        let sol = solve(view, &problem);

        // Walk each block to connect uses with reaching definitions.
        let mut suppliers: Vec<Vec<u32>> = vec![Vec::new(); width];
        let mut relevant = BitVec::zeros(width);
        let mut du_edges = 0u64;
        for n in prog.node_ids() {
            let mut reach = sol.at_entry(n).to_bitvec();
            let mut def_iter = def_at[n.index()].iter().peekable();
            for (k, stmt) in prog.block(n).stmts.iter().enumerate() {
                let this_def = match def_iter.peek() {
                    Some(&&(dk, di)) if dk == k => {
                        def_iter.next();
                        Some(di)
                    }
                    _ => None,
                };
                // Uses of this statement see the current reaching set.
                if let Some(t) = stmt.used_term() {
                    for &v in prog.terms().vars_of(t) {
                        for d in reaching_defs_of(&reach, defs_of_var.row(v.index())) {
                            du_edges += 1;
                            match (stmt, this_def) {
                                (Stmt::Assign { .. }, Some(user)) => {
                                    suppliers[user].push(d as u32);
                                }
                                (Stmt::Out(_), _) => relevant.set(d, true),
                                _ => {}
                            }
                        }
                    }
                }
                // Then the definition takes effect.
                if let Some(di) = this_def {
                    let DefSite { var, .. } = defs[di];
                    reach
                        .as_row_mut()
                        .difference_with(defs_of_var.row(var.index()));
                    reach.set(di, true);
                }
            }
            // Branch conditions are relevant uses.
            if let Some(c) = prog.block(n).term.used_term() {
                for &v in prog.terms().vars_of(c) {
                    for d in reaching_defs_of(&reach, defs_of_var.row(v.index())) {
                        du_edges += 1;
                        relevant.set(d, true);
                    }
                }
            }
        }
        DuGraph {
            defs,
            suppliers,
            relevant,
            du_edges,
        }
    }
}

/// The optimistic marking algorithm over a def-use web: the definitions
/// in `relevant` plus every definition that (transitively) supplies a
/// marked one through `suppliers`. Serves both the dense du-graph and
/// the sparse [`SsaWeb`](crate::ssa::SsaWeb); whatever is left unmarked
/// is faint.
pub fn mark(relevant: &BitVec, suppliers: &[Vec<u32>]) -> BitVec {
    let mut marked = relevant.clone();
    let mut work: Vec<usize> = marked.iter_ones().collect();
    while let Some(d) = work.pop() {
        for &s in &suppliers[d] {
            let s = s as usize;
            if !marked.get(s) {
                marked.set(s, true);
                work.push(s);
            }
        }
    }
    marked
}

/// Removes the assignments at the `(block, statement)` sites `doomed`
/// through [`apply_removals`]; returns how many went.
pub(crate) fn remove_assignments(
    prog: &mut Program,
    doomed: impl IntoIterator<Item = (NodeId, usize)>,
) -> u64 {
    let mut plans: Vec<(NodeId, Vec<usize>)> = prog.node_ids().map(|n| (n, Vec::new())).collect();
    for (n, k) in doomed {
        plans[n.index()].1.push(k);
    }
    for (_, ks) in &mut plans {
        ks.sort_unstable();
    }
    apply_removals(prog, &plans)
}

fn reaching_defs_of(reach: &BitVec, of_var: Row<'_>) -> Vec<usize> {
    let mut r = reach.clone();
    r.as_row_mut().intersect_with(of_var);
    r.iter_ones().collect()
}

/// Def-use-chain DCE: removes every unmarked assignment. Returns the
/// number of removed assignments.
pub fn duchain_dce(prog: &mut Program) -> u64 {
    let graph = DuGraph::build(prog, &CfgView::new(prog));
    let marked = mark(&graph.relevant, &graph.suppliers);
    let doomed = graph
        .defs
        .iter()
        .enumerate()
        .filter(|&(i, _)| !marked.get(i));
    remove_assignments(prog, doomed.map(|(_, d)| (d.node, d.stmt)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_core::driver::{optimize, PdceConfig};
    use pdce_ir::parser::parse;
    use pdce_ir::printer::{canonical_string, structural_eq};

    fn agree_with_fce(src: &str) {
        let mut p1 = parse(src).unwrap();
        duchain_dce(&mut p1);
        let mut p2 = parse(src).unwrap();
        optimize(&mut p2, &PdceConfig::fce_only()).unwrap();
        assert!(
            structural_eq(&p1, &p2),
            "du-chain DCE and fce disagree on:\n{src}\ngot:\n{}\nwant:\n{}",
            canonical_string(&p1),
            canonical_string(&p2)
        );
    }

    #[test]
    fn marking_detects_faint_chain() {
        // a feeds b feeds nothing relevant: both unmarked (faint).
        agree_with_fce("prog { block s { a := 1; b := a + 1; out(7); goto e } block e { halt } }");
    }

    #[test]
    fn fig9_loop_increment_is_unmarked() {
        agree_with_fce(
            "prog {
               block s { goto l }
               block l { x := x + 1; nondet l d }
               block d { goto e }
               block e { halt }
             }",
        );
    }

    #[test]
    fn fig12_both_unmarked() {
        agree_with_fce(
            "prog {
               block s  { a := c + 1; nondet n3 n4 }
               block n3 { goto n5 }
               block n4 { y := a + b; goto n5 }
               block n5 { y := c + d; out(y); goto e }
               block e  { halt }
             }",
        );
    }

    #[test]
    fn branch_conditions_mark_their_definitions() {
        agree_with_fce(
            "prog {
               block s { x := a + 1; if x < 3 then t else e }
               block t { goto e }
               block e { halt }
             }",
        );
        let mut p = parse(
            "prog {
               block s { x := a + 1; if x < 3 then t else e }
               block t { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert_eq!(duchain_dce(&mut p), 0);
    }

    #[test]
    fn du_edges_counted() {
        let p =
            parse("prog { block s { a := 1; b := a + a; out(b + a); goto e } block e { halt } }")
                .unwrap();
        let view = CfgView::new(&p);
        let g = DuGraph::build(&p, &view);
        // a:=1 reaches the use in b:=a+a (1 edge, a occurs once in the
        // var set) and in out(b+a) (1 edge); b:=a+a reaches out (1 edge).
        assert_eq!(g.du_edges, 3);
        assert_eq!(g.defs.len(), 2);
    }

    #[test]
    fn multiple_reaching_defs_all_marked() {
        agree_with_fce(
            "prog {
               block s  { nondet l r }
               block l  { x := 1; goto j }
               block r  { x := 2; goto j }
               block j  { out(x); goto e }
               block e  { halt }
             }",
        );
    }
}
