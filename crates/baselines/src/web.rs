//! SSA construction as a sparse def-use web (Cytron et al. 1991).
//!
//! We do not rewrite the program into an SSA IR; for dead code
//! elimination only the *def-use structure* of the SSA form matters:
//! every definition site (real assignment, φ-function, or the implicit
//! entry definition), the suppliers of each definition, and which
//! definitions feed relevant statements. The web has `O(i)` φs and
//! edges on real programs — the sparsity the paper's Section 5.2 credits
//! with the `O(i·v)` bound, versus the dense du-graph's `O(i²·v)`.

use pdce_dfa::BitVec;
use pdce_ir::{CfgView, NodeId, Program, Stmt, Var};

use crate::domfront::DomInfo;
use crate::duchain::{mark, remove_assignments};

/// A definition site in the SSA web.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefSite {
    /// The implicit definition of a variable at the entry (initial `0`).
    Entry {
        /// Defined variable.
        var: Var,
    },
    /// A φ-function placed at a join block.
    Phi {
        /// Block carrying the φ.
        block: NodeId,
        /// Variable merged by the φ.
        var: Var,
    },
    /// A real assignment `stmts[stmt]` of `block`.
    Assign {
        /// Block of the assignment.
        block: NodeId,
        /// Statement index.
        stmt: usize,
        /// Defined variable.
        var: Var,
    },
}

/// The sparse SSA def-use web of a program.
#[derive(Debug)]
pub struct SsaWeb {
    /// All definition sites.
    pub defs: Vec<DefSite>,
    /// For each definition, the definitions it reads (φ arguments or the
    /// reaching definitions of right-hand-side variables).
    pub suppliers: Vec<Vec<u32>>,
    /// Definitions read by a relevant statement (`out` / branch
    /// condition).
    pub relevant: BitVec,
    /// Number of φ-functions placed.
    pub num_phis: usize,
    /// Total sparse use edges (supplier entries + relevant uses).
    pub edges: u64,
}

impl SsaWeb {
    /// Builds the web for `prog`.
    pub fn build(prog: &Program, view: &CfgView) -> SsaWeb {
        Builder::new(prog, view).build()
    }
}

struct Builder<'a> {
    prog: &'a Program,
    view: &'a CfgView,
    dom: DomInfo,
    defs: Vec<DefSite>,
    suppliers: Vec<Vec<u32>>,
    relevant_uses: Vec<u32>,
    edges: u64,
    /// φ def id per (block, var), dense map.
    phi_at: Vec<Option<u32>>,
    /// Current reaching definition per variable (renaming stacks).
    stacks: Vec<Vec<u32>>,
    num_vars: usize,
}

impl<'a> Builder<'a> {
    fn new(prog: &'a Program, view: &'a CfgView) -> Builder<'a> {
        let dom = DomInfo::compute(view);
        Builder {
            prog,
            view,
            dom,
            defs: Vec::new(),
            suppliers: Vec::new(),
            relevant_uses: Vec::new(),
            edges: 0,
            phi_at: vec![None; prog.num_blocks() * prog.num_vars()],
            stacks: vec![Vec::new(); prog.num_vars()],
            num_vars: prog.num_vars(),
        }
    }

    fn new_def(&mut self, site: DefSite) -> u32 {
        let id = u32::try_from(self.defs.len()).expect("def count overflow");
        self.defs.push(site);
        self.suppliers.push(Vec::new());
        id
    }

    #[allow(clippy::needless_range_loop)] // v doubles as the variable index
    fn build(mut self) -> SsaWeb {
        // Implicit entry definitions, one per variable; they seed the
        // renaming stacks so every use has a reaching definition.
        for v in 0..self.num_vars {
            let var = Var::from_index(v);
            let id = self.new_def(DefSite::Entry { var });
            self.stacks[v].push(id);
        }

        // φ placement: iterated dominance frontier of each variable's
        // definition blocks (minimal SSA).
        let mut def_blocks: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_vars];
        for n in self.prog.node_ids() {
            for stmt in &self.prog.block(n).stmts {
                if let Some(m) = stmt.modified() {
                    if !def_blocks[m.index()].contains(&n) {
                        def_blocks[m.index()].push(n);
                    }
                }
            }
        }
        let mut num_phis = 0;
        for v in 0..self.num_vars {
            let var = Var::from_index(v);
            let mut seeds = def_blocks[v].clone();
            seeds.push(self.prog.entry()); // the implicit def
            for block in self.dom.iterated_frontier(&seeds) {
                let id = self.new_def(DefSite::Phi { block, var });
                self.phi_at[block.index() * self.num_vars + v] = Some(id);
                num_phis += 1;
            }
        }

        // Renaming: DFS over the dominator tree.
        self.rename(self.prog.entry());

        let mut relevant = BitVec::zeros(self.defs.len());
        for &d in &self.relevant_uses {
            relevant.set(d as usize, true);
        }
        let edges = self.edges;
        SsaWeb {
            defs: self.defs,
            suppliers: self.suppliers,
            relevant,
            num_phis,
            edges,
        }
    }

    fn current(&self, v: Var) -> u32 {
        *self.stacks[v.index()]
            .last()
            .expect("entry def always on the stack")
    }

    fn rename(&mut self, block: NodeId) {
        let mut pushed: Vec<Var> = Vec::new();

        // φ definitions first.
        for v in 0..self.num_vars {
            if let Some(id) = self.phi_at[block.index() * self.num_vars + v] {
                let var = Var::from_index(v);
                self.stacks[v].push(id);
                pushed.push(var);
            }
        }

        // Statements.
        for (k, stmt) in self.prog.block(block).stmts.iter().enumerate() {
            match *stmt {
                Stmt::Skip => {}
                Stmt::Out(t) => {
                    for &v in self.prog.terms().vars_of(t) {
                        let d = self.current(v);
                        self.relevant_uses.push(d);
                        self.edges += 1;
                    }
                }
                Stmt::Assign { lhs, rhs } => {
                    let id = self.new_def(DefSite::Assign {
                        block,
                        stmt: k,
                        var: lhs,
                    });
                    for &v in self.prog.terms().vars_of(rhs) {
                        let d = self.current(v);
                        self.suppliers[id as usize].push(d);
                        self.edges += 1;
                    }
                    self.stacks[lhs.index()].push(id);
                    pushed.push(lhs);
                }
            }
        }

        // Branch conditions are relevant uses.
        if let Some(c) = self.prog.block(block).term.used_term() {
            for &v in self.prog.terms().vars_of(c) {
                let d = self.current(v);
                self.relevant_uses.push(d);
                self.edges += 1;
            }
        }

        // Fill successor φ arguments from the current stacks.
        for &succ in self.view.succs(block) {
            for v in 0..self.num_vars {
                if let Some(phi) = self.phi_at[succ.index() * self.num_vars + v] {
                    let d = self.current(Var::from_index(v));
                    self.suppliers[phi as usize].push(d);
                    self.edges += 1;
                }
            }
        }

        // Recurse over dominator-tree children.
        for child in self.dom.children[block.index()].clone() {
            self.rename(child);
        }

        // Pop this block's definitions.
        for var in pushed.into_iter().rev() {
            self.stacks[var.index()].pop();
        }
    }
}

/// Sparse SSA-based dead code elimination: builds the web, marks
/// definitions transitively feeding relevant statements, deletes every
/// unmarked real assignment. Returns the number of removals.
///
/// Removal power coincides with faint code elimination (the optimistic
/// marking detects every faint assignment, §5.2), which the cross-crate
/// tests verify.
///
/// # Example
///
/// ```
/// use pdce_baselines::ssa::ssa_dce;
/// use pdce_ir::parser::parse;
///
/// let mut prog = parse(
///     "prog { block s { a := 1; b := a + 1; out(7); goto e }
///             block e { halt } }",
/// )?;
/// assert_eq!(ssa_dce(&mut prog), 2); // the whole faint chain
/// # Ok::<(), pdce_ir::ParseError>(())
/// ```
pub fn ssa_dce(prog: &mut Program) -> u64 {
    let web = SsaWeb::build(prog, &CfgView::new(prog));
    let marked = mark(&web.relevant, &web.suppliers);
    let doomed = web
        .defs
        .iter()
        .enumerate()
        .filter_map(|(i, def)| match *def {
            DefSite::Assign { block, stmt, .. } if !marked.get(i) => Some((block, stmt)),
            _ => None,
        });
    remove_assignments(prog, doomed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    fn web_of(src: &str) -> (pdce_ir::Program, SsaWeb) {
        let p = parse(src).unwrap();
        let view = CfgView::new(&p);
        let w = SsaWeb::build(&p, &view);
        (p, w)
    }

    #[test]
    fn straight_line_has_no_phis() {
        let (_p, w) =
            web_of("prog { block s { x := 1; y := x + 1; out(y); goto e } block e { halt } }");
        assert_eq!(w.num_phis, 0);
        // defs: 3 entry-implicit (x, y... plus any rhs vars) + 2 assigns.
        let assigns = w
            .defs
            .iter()
            .filter(|d| matches!(d, DefSite::Assign { .. }))
            .count();
        assert_eq!(assigns, 2);
        let marked = mark(&w.relevant, &w.suppliers);
        // Both assignments feed out(y): marked.
        for (i, d) in w.defs.iter().enumerate() {
            if matches!(d, DefSite::Assign { .. }) {
                assert!(marked.get(i));
            }
        }
    }

    #[test]
    fn join_gets_one_phi_with_two_args() {
        let (_p, w) = web_of(
            "prog {
               block s { nondet a b }
               block a { x := 1; goto j }
               block b { x := 2; goto j }
               block j { out(x); goto e }
               block e { halt }
             }",
        );
        assert_eq!(w.num_phis, 1);
        let phi = w
            .defs
            .iter()
            .position(|d| matches!(d, DefSite::Phi { .. }))
            .unwrap();
        assert_eq!(w.suppliers[phi].len(), 2);
        let marked = mark(&w.relevant, &w.suppliers);
        assert!(marked.get(phi));
    }

    #[test]
    fn loop_phi_cycles_stay_unmarked_without_relevant_use() {
        // Figure 9: x := x + 1 in a loop, unobserved. The φ at the
        // header and the increment form a cycle with no relevant use.
        let mut p = parse(
            "prog {
               block s { goto l }
               block l { x := x + 1; nondet l d }
               block d { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert_eq!(ssa_dce(&mut p), 1);
        assert_eq!(p.num_assignments(), 0);
    }

    #[test]
    fn observed_loop_variable_is_kept() {
        let mut p = parse(
            "prog {
               block s { goto l }
               block l { x := x + 1; nondet l d }
               block d { out(x); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert_eq!(ssa_dce(&mut p), 0);
    }

    #[test]
    fn sparse_web_is_linear_where_dense_graph_is_quadratic() {
        // k defs on k arms, k uses after the join: the φ merges the
        // arms, so the sparse web has O(k) edges.
        for k in [8usize, 16, 32] {
            let p = build_many_defs(k);
            let view = CfgView::new(&p);
            let w = SsaWeb::build(&p, &view);
            assert!(
                w.edges <= 4 * k as u64 + 8,
                "k={k}: sparse web should be linear, got {} edges",
                w.edges
            );
        }
    }

    fn build_many_defs(k: usize) -> pdce_ir::Program {
        use std::fmt::Write as _;
        let mut src = String::from("prog { block s { nondet");
        for i in 0..k {
            let _ = write!(src, " d{i}");
        }
        src.push_str(" } ");
        for i in 0..k {
            let _ = write!(src, "block d{i} {{ x := {i}; goto u }} ");
        }
        src.push_str("block u { ");
        for _ in 0..k {
            src.push_str("out(x); ");
        }
        src.push_str("goto e } block e { halt } }");
        parse(&src).unwrap()
    }

    #[test]
    fn implicit_entry_defs_cover_uninitialized_uses() {
        let (_p, w) = web_of("prog { block s { out(q); goto e } block e { halt } }");
        // The relevant use resolves to the entry def of q.
        let entry_q = w
            .defs
            .iter()
            .position(|d| matches!(d, DefSite::Entry { .. }))
            .unwrap();
        assert!(w.relevant.get(entry_q));
    }

    #[test]
    fn faint_chain_removed_entirely() {
        let mut p = parse(
            "prog { block s { a := 1; b := a + 1; c := b + a; out(0); goto e } block e { halt } }",
        )
        .unwrap();
        assert_eq!(ssa_dce(&mut p), 3);
    }
}
