//! An executable specification of the paper's algorithm: Tables 1–2
//! taken literally, plus the driver that repeats `dce`/`fce` and `ask`
//! until nothing changes. It is the oracle the production analyses and
//! optimizers are checked against, bit for bit and byte for byte.
//!
//! Everything here is written for obviousness, not speed:
//!
//! * the flow graph is one node per instruction (each statement plus
//!   one terminator per block), restricted to the blocks reachable from
//!   the entry — unreachable blocks are outside the paper's program
//!   model, and no analysis value of a reachable block depends on them;
//! * every analysis is a round-robin sweep over that graph, one boolean
//!   per (instruction, variable) or (instruction, pattern), starting
//!   from "true" and repeated until a whole sweep changes nothing — the
//!   greatest fixpoint of each table's equations;
//! * `dce`/`fce` remove every assignment whose left-hand side is dead
//!   (faint) immediately after it, and `ask` sinks every pattern to its
//!   insertion points, as Sections 4–5 describe.
//!
//! The spec shares nothing with the optimizer beyond the IR (programs,
//! statements, critical-edge splitting) and the order of
//! `PatternTable::pairs`, which fixes the order insertions are emitted
//! in.

use pdce::core::PatternTable;
use pdce::ir::edgesplit::split_critical_edges;
use pdce::ir::{NodeId, Program, Stmt, TermId, Terminator, Var};

/// An assignment pattern `x := t`.
pub type Pattern = (Var, TermId);

/// Which elimination the driver runs: `dce` (pde) or `fce` (pfe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Dead,
    Faint,
}

/// The instruction-level flow graph of the reachable part of a program.
pub struct Flow {
    /// `(block, k)` of every instruction: statement `k`, or the
    /// terminator when `k` is the block's statement count.
    instrs: Vec<(NodeId, usize)>,
    /// Index of each block's first instruction; `None` if unreachable.
    first: Vec<Option<usize>>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    /// Table 1's local facts, tabulated once per instruction: `USED`
    /// and `RELV-USED` per variable, and the variable `MOD` assigns.
    used: Vec<Vec<bool>>,
    relv_used: Vec<Vec<bool>>,
    modified: Vec<Option<usize>>,
}

impl Flow {
    pub fn new(prog: &Program) -> Flow {
        // Depth-first postorder of the blocks reachable from the entry.
        // Instructions are laid out in reverse postorder, so forward
        // sweeps follow the flow and backward sweeps run against it,
        // which only saves sweeps.
        let mut visited = vec![false; prog.num_blocks()];
        let mut postorder = Vec::new();
        let mut stack = vec![(prog.entry(), prog.successors(prog.entry()))];
        visited[prog.entry().index()] = true;
        while let Some((n, succs)) = stack.last_mut() {
            match succs.pop() {
                Some(m) if !visited[m.index()] => {
                    visited[m.index()] = true;
                    let next = prog.successors(m);
                    stack.push((m, next));
                }
                Some(_) => {}
                None => {
                    postorder.push(*n);
                    stack.pop();
                }
            }
        }
        let mut instrs = Vec::new();
        let mut first = vec![None; prog.num_blocks()];
        for &n in postorder.iter().rev() {
            first[n.index()] = Some(instrs.len());
            instrs.extend((0..=prog.block(n).stmts.len()).map(|k| (n, k)));
        }
        let succ: Vec<Vec<usize>> = (0..instrs.len())
            .map(|i| {
                let (n, k) = instrs[i];
                if k < prog.block(n).stmts.len() {
                    vec![i + 1]
                } else {
                    prog.successors(n)
                        .iter()
                        .map(|m| first[m.index()].expect("successor of a reachable block"))
                        .collect()
                }
            })
            .collect();
        let mut pred = vec![Vec::new(); instrs.len()];
        for (i, ss) in succ.iter().enumerate() {
            for &j in ss {
                pred[j].push(i);
            }
        }
        let mut flow = Flow {
            instrs,
            first,
            succ,
            pred,
            used: Vec::new(),
            relv_used: Vec::new(),
            modified: Vec::new(),
        };
        // A terminator reads its branch condition, which is relevant;
        // an `out` reads relevantly, an assignment does not.
        for i in 0..flow.len() {
            let (read, relevant) = match flow.stmt(prog, i) {
                Some(s) => (s.used_term(), !s.is_assignment()),
                None => (flow.term(prog, i).used_term(), true),
            };
            let used: Vec<bool> = (0..prog.num_vars())
                .map(|v| read.is_some_and(|t| prog.terms().term_uses(t, Var::from_index(v))))
                .collect();
            flow.relv_used
                .push(used.iter().map(|&u| u && relevant).collect());
            flow.used.push(used);
            let lhs = flow.stmt(prog, i).and_then(Stmt::modified);
            flow.modified.push(lhs.map(Var::index));
        }
        flow
    }

    /// The instruction at statement `k` of block `n` (`k` = statement
    /// count for the terminator); `None` if `n` is unreachable.
    pub fn instr(&self, n: NodeId, k: usize) -> Option<usize> {
        self.first[n.index()].map(|f| f + k)
    }

    pub fn is_reachable(&self, n: NodeId) -> bool {
        self.first[n.index()].is_some()
    }

    fn len(&self) -> usize {
        self.instrs.len()
    }

    /// The instruction's statement, or `None` for a terminator.
    fn stmt<'p>(&self, prog: &'p Program, i: usize) -> Option<&'p Stmt> {
        let (n, k) = self.instrs[i];
        prog.block(n).stmts.get(k)
    }

    fn term<'p>(&self, prog: &'p Program, i: usize) -> &'p Terminator {
        &prog.block(self.instrs[i].0).term
    }

    /// Whether the instruction blocks the sinking of pattern `p`.
    fn blocks(&self, prog: &Program, p: Pattern, i: usize) -> bool {
        match self.stmt(prog, i) {
            Some(s) => stmt_blocks(prog, p, s),
            None => terminator_blocks(prog, p, self.term(prog, i)),
        }
    }
}

/// Whether `stmt` blocks the sinking of `x := t` (Definition 3.1
/// discussion): it modifies an operand of `t`, uses `x`, or modifies `x`.
pub fn stmt_blocks(prog: &Program, (x, t): Pattern, stmt: &Stmt) -> bool {
    stmt.uses(prog.terms(), x)
        || stmt
            .modified()
            .is_some_and(|m| m == x || prog.terms().term_uses(t, m))
}

/// Whether `term` blocks `x := t`: only a branch condition reads
/// variables, and no terminator modifies any.
pub fn terminator_blocks(prog: &Program, (x, _): Pattern, term: &Terminator) -> bool {
    term.used_term()
        .is_some_and(|c| prog.terms().term_uses(c, x))
}

/// Round-robin greatest fixpoint: every value starts true, and each
/// sweep re-evaluates every (instruction, bit) slot with `eval` until a
/// whole sweep changes nothing. `backward` sweeps from the last
/// instruction.
fn round_robin(
    len: usize,
    width: usize,
    backward: bool,
    mut eval: impl FnMut(usize, usize, &[Vec<bool>]) -> bool,
) -> Vec<Vec<bool>> {
    let mut rows = vec![vec![true; width]; len];
    let mut changed = true;
    while changed {
        changed = false;
        for step in 0..len {
            let i = if backward { len - 1 - step } else { step };
            for b in 0..width {
                let value = eval(i, b, &rows);
                if value != rows[i][b] {
                    rows[i][b] = value;
                    changed = true;
                }
            }
        }
    }
    rows
}

/// `X-…` of a backward analysis: the conjunction over successor
/// instructions (true at the end node, which has none).
fn meet_succs(flow: &Flow, n_rows: &[Vec<bool>], i: usize, v: usize) -> bool {
    flow.succ[i].iter().all(|&j| n_rows[j][v])
}

/// Per-instruction values of a backward analysis: the `N-…` row of every
/// instruction; `X-…` is the meet over successors, taken on demand.
pub struct Backward {
    pub flow: Flow,
    n: Vec<Vec<bool>>,
}

impl Backward {
    /// The value of variable `v` before statement `k` of block `n`.
    pub fn before(&self, n: NodeId, k: usize, v: Var) -> bool {
        self.n[self.flow.instr(n, k).expect("reachable block")][v.index()]
    }

    /// The value of variable `v` after statement `k` of block `n`.
    pub fn after(&self, n: NodeId, k: usize, v: Var) -> bool {
        let i = self.flow.instr(n, k).expect("reachable block");
        meet_succs(&self.flow, &self.n, i, v.index())
    }
}

/// Table 1, dead variables:
/// `N-DEAD = ¬USED ∧ (X-DEAD ∨ MOD)`, `X-DEAD = ∧ succ N-DEAD`.
pub fn dead(prog: &Program) -> Backward {
    let flow = Flow::new(prog);
    let n = round_robin(flow.len(), prog.num_vars(), true, |i, v, rows| {
        !flow.used[i][v] && (meet_succs(&flow, rows, i, v) || flow.modified[i] == Some(v))
    });
    Backward { flow, n }
}

/// Table 1, faint variables:
/// `N-FAINT(x) = ¬RELV-USED(x) ∧ (X-FAINT(x) ∨ MOD(x))
///              ∧ (X-FAINT(lhs) ∨ ¬ASS-USED(x))`,
/// `X-FAINT = ∧ succ N-FAINT`.
pub fn faint(prog: &Program) -> Backward {
    let flow = Flow::new(prog);
    let n = round_robin(flow.len(), prog.num_vars(), true, |i, x, rows| {
        let lhs = flow.modified[i];
        let ass_used = lhs.is_some() && flow.used[i][x];
        !flow.relv_used[i][x]
            && (meet_succs(&flow, rows, i, x) || lhs == Some(x))
            && (lhs.is_some_and(|l| meet_succs(&flow, rows, i, l)) || !ass_used)
    });
    Backward { flow, n }
}

/// Sinking's local predicates for one block, per pattern.
pub struct Local {
    /// `LOCDELAYED`: the block has a sinking candidate of the pattern.
    pub locdelayed: Vec<Vec<bool>>,
    /// `LOCBLOCKED`: some instruction of the block blocks the pattern.
    pub locblocked: Vec<Vec<bool>>,
    /// `(statement, pattern)` of every candidate, in statement order: the
    /// last occurrence of a pattern that nothing after it blocks.
    pub candidates: Vec<Vec<(usize, usize)>>,
}

/// The local predicates of every block, by a forward scan per pattern.
pub fn local(prog: &Program, patterns: &[Pattern]) -> Local {
    let width = patterns.len();
    let mut out = Local {
        locdelayed: vec![vec![false; width]; prog.num_blocks()],
        locblocked: vec![vec![false; width]; prog.num_blocks()],
        candidates: vec![Vec::new(); prog.num_blocks()],
    };
    for n in prog.node_ids() {
        let block = prog.block(n);
        let i = n.index();
        // `open[p]`: the latest occurrence of `p` nothing has blocked yet.
        let mut open: Vec<Option<usize>> = vec![None; width];
        for (k, stmt) in block.stmts.iter().enumerate() {
            for (p, slot) in open.iter_mut().enumerate() {
                if stmt_blocks(prog, patterns[p], stmt) {
                    out.locblocked[i][p] = true;
                    *slot = None;
                }
            }
            if let Stmt::Assign { lhs, rhs } = *stmt {
                let p = patterns.iter().position(|&q| q == (lhs, rhs));
                open[p.expect("every assignment is a pattern")] = Some(k);
            }
        }
        for (p, slot) in open.iter_mut().enumerate() {
            if terminator_blocks(prog, patterns[p], &block.term) {
                out.locblocked[i][p] = true;
                *slot = None;
            }
        }
        let mut cands: Vec<(usize, usize)> = open
            .iter()
            .enumerate()
            .filter_map(|(p, k)| k.map(|k| (k, p)))
            .collect();
        cands.sort_unstable();
        for &(_, p) in &cands {
            out.locdelayed[i][p] = true;
        }
        out.candidates[i] = cands;
    }
    out
}

/// Table 2 per block, with the pattern order of `PatternTable::pairs`.
pub struct Delay {
    pub patterns: Vec<Pattern>,
    pub n_delayed: Vec<Vec<bool>>,
    pub x_delayed: Vec<Vec<bool>>,
    pub n_insert: Vec<Vec<bool>>,
    pub x_insert: Vec<Vec<bool>>,
    pub local: Local,
    pub flow: Flow,
}

/// Table 2, delayability, solved per instruction:
/// `N-DELAYED = false` at the start node, else `∧ pred X-DELAYED`;
/// `X-DELAYED = OCC ∨ (N-DELAYED ∧ ¬BLOCKS)`. A block's `N-DELAYED` is
/// its first instruction's, its `X-DELAYED` its terminator's; then
/// `N-INSERT = N-DELAYED ∧ LOCBLOCKED` and
/// `X-INSERT = X-DELAYED ∧ ∃ succ ¬N-DELAYED`.
pub fn delay(prog: &Program) -> Delay {
    let patterns = PatternTable::build(prog).pairs().to_vec();
    let flow = Flow::new(prog);
    let start = flow.instr(prog.entry(), 0);
    let n_of = |rows: &[Vec<bool>], i: usize, p: usize| {
        Some(i) != start && flow.pred[i].iter().all(|&j| rows[j][p])
    };
    // `OCC` and `BLOCKS`, tabulated once per instruction and pattern.
    let occurrence: Vec<Option<Pattern>> = (0..flow.len())
        .map(|i| match flow.stmt(prog, i) {
            Some(&Stmt::Assign { lhs, rhs }) => Some((lhs, rhs)),
            _ => None,
        })
        .collect();
    let blocks: Vec<Vec<bool>> = (0..flow.len())
        .map(|i| patterns.iter().map(|&p| flow.blocks(prog, p, i)).collect())
        .collect();
    let x = round_robin(flow.len(), patterns.len(), false, |i, p, rows| {
        occurrence[i] == Some(patterns[p]) || (n_of(rows, i, p) && !blocks[i][p])
    });
    let local = local(prog, &patterns);
    let width = patterns.len();
    let blocks = prog.num_blocks();
    let mut n_delayed = vec![vec![false; width]; blocks];
    let mut x_delayed = vec![vec![false; width]; blocks];
    let reachable: Vec<NodeId> = prog.node_ids().filter(|&n| flow.is_reachable(n)).collect();
    for &n in &reachable {
        let head = flow.instr(n, 0).unwrap();
        let term = flow.instr(n, prog.block(n).stmts.len()).unwrap();
        n_delayed[n.index()] = (0..width).map(|p| n_of(&x, head, p)).collect();
        x_delayed[n.index()] = x[term].clone();
    }
    let mut n_insert = vec![vec![false; width]; blocks];
    let mut x_insert = vec![vec![false; width]; blocks];
    for &n in &reachable {
        let i = n.index();
        let succs = prog.successors(n);
        for p in 0..width {
            n_insert[i][p] = n_delayed[i][p] && local.locblocked[i][p];
            x_insert[i][p] = x_delayed[i][p] && succs.iter().any(|m| !n_delayed[m.index()][p]);
        }
    }
    Delay {
        patterns,
        n_delayed,
        x_delayed,
        n_insert,
        x_insert,
        local,
        flow,
    }
}

/// `dce`/`fce`: removes every assignment of a reachable block whose
/// left-hand side is dead (faint) immediately after it, all decided on
/// one solution. Returns how many it removed.
pub fn eliminate(prog: &mut Program, mode: Mode) -> usize {
    let sol = match mode {
        Mode::Dead => dead(prog),
        Mode::Faint => faint(prog),
    };
    let mut removed = 0;
    for n in prog.node_ids().collect::<Vec<_>>() {
        if !sol.flow.is_reachable(n) {
            continue;
        }
        let keep: Vec<Stmt> = prog
            .block(n)
            .stmts
            .iter()
            .enumerate()
            .filter(|&(k, s)| !s.modified().is_some_and(|x| sol.after(n, k, x)))
            .map(|(_, s)| *s)
            .collect();
        if keep.len() < prog.block(n).stmts.len() {
            removed += prog.block(n).stmts.len() - keep.len();
            *prog.stmts_mut(n) = keep;
        }
    }
    removed
}

/// `ask`: in every reachable block, the `N-INSERT` instances go first,
/// the sinking candidates leave, and the `X-INSERT` instances go last,
/// each in pattern order. Returns whether the program changed.
pub fn ask(prog: &mut Program) -> bool {
    let d = delay(prog);
    let mut changed = false;
    for n in prog.node_ids().collect::<Vec<_>>() {
        if !d.flow.is_reachable(n) {
            continue;
        }
        let i = n.index();
        let make = |p: usize| {
            let (lhs, rhs) = d.patterns[p];
            Stmt::Assign { lhs, rhs }
        };
        let inserted =
            |row: &[bool]| -> Vec<Stmt> { (0..row.len()).filter(|&p| row[p]).map(make).collect() };
        let old = &prog.block(n).stmts;
        let mut new = inserted(&d.n_insert[i]);
        new.extend(
            old.iter()
                .enumerate()
                .filter(|(k, _)| !d.local.candidates[i].iter().any(|&(c, _)| c == *k))
                .map(|(_, s)| *s),
        );
        new.extend(inserted(&d.x_insert[i]));
        if new != *old {
            *prog.stmts_mut(n) = new;
            changed = true;
        }
    }
    changed
}

/// The driver (Section 5): split critical edges, then repeat rounds of
/// elimination to its fixpoint followed by one `ask` pass, until a round
/// changes nothing.
pub fn optimize(prog: &mut Program, mode: Mode) {
    split_critical_edges(prog);
    loop {
        let mut changed = false;
        while eliminate(prog, mode) > 0 {
            changed = true;
        }
        changed |= ask(prog);
        if !changed {
            break;
        }
    }
}
