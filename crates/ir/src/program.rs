//! The flow graph `G = (N, E, s, e)`: basic blocks, terminators, and the
//! owning [`Program`] container.

use std::fmt;

use crate::error::IrError;
use crate::stmt::Stmt;
use crate::term::{TermArena, TermData, TermId};
use crate::var::{Var, VarPool};

/// Identifier of a basic block (a node of the flow graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a dense index.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index overflow"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(NodeId),
    /// Two-way conditional branch. The condition term is treated as a
    /// *relevant* use (paper footnote 2: branch conditions must be
    /// considered relevant).
    Cond {
        /// Branch condition; nonzero takes `then_to`.
        cond: TermId,
        /// Successor on a truthy condition.
        then_to: NodeId,
        /// Successor on a falsy condition.
        else_to: NodeId,
    },
    /// Nondeterministic branch, exactly as in the paper's program model.
    Nondet(Vec<NodeId>),
    /// Program end; only the exit node carries this.
    Halt,
}

impl Terminator {
    /// Successor nodes in branch order.
    pub fn successors(&self) -> Vec<NodeId> {
        match self {
            Terminator::Goto(n) => vec![*n],
            Terminator::Cond {
                then_to, else_to, ..
            } => vec![*then_to, *else_to],
            Terminator::Nondet(ns) => ns.clone(),
            Terminator::Halt => Vec::new(),
        }
    }

    /// Calls `f` on each successor, in branch order, without allocating.
    /// [`CfgView`](crate::CfgView) construction uses this to fill its
    /// CSR edge array directly.
    pub fn for_each_successor(&self, mut f: impl FnMut(NodeId)) {
        match self {
            Terminator::Goto(n) => f(*n),
            Terminator::Cond {
                then_to, else_to, ..
            } => {
                f(*then_to);
                f(*else_to);
            }
            Terminator::Nondet(ns) => ns.iter().copied().for_each(f),
            Terminator::Halt => {}
        }
    }

    /// Number of successors.
    pub fn successor_count(&self) -> usize {
        match self {
            Terminator::Goto(_) => 1,
            Terminator::Cond { .. } => 2,
            Terminator::Nondet(ns) => ns.len(),
            Terminator::Halt => 0,
        }
    }

    /// The term read by the terminator, if any (only `Cond`).
    pub fn used_term(&self) -> Option<TermId> {
        match self {
            Terminator::Cond { cond, .. } => Some(*cond),
            _ => None,
        }
    }

    /// Rewrites every successor equal to `from` into `to`.
    pub fn retarget(&mut self, from: NodeId, to: NodeId) {
        match self {
            Terminator::Goto(n) => {
                if *n == from {
                    *n = to;
                }
            }
            Terminator::Cond {
                then_to, else_to, ..
            } => {
                if *then_to == from {
                    *then_to = to;
                }
                if *else_to == from {
                    *else_to = to;
                }
            }
            Terminator::Nondet(ns) => {
                for n in ns {
                    if *n == from {
                        *n = to;
                    }
                }
            }
            Terminator::Halt => {}
        }
    }
}

/// Upper bound on retained change-log entries. When the log would grow
/// past this, the older half is discarded in bulk; deltas reaching back
/// past the trimmed prefix then report `None` (analyses fall back to a
/// cold solve), so trimming is a performance trade-off, never a
/// soundness one.
const CHANGE_LOG_CAP: usize = 1024;

/// One logged mutation, classified by what an analysis could observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    /// Only the statement list of one block changed; the control-flow
    /// shape (terminators, block set, entry/exit) is untouched.
    Stmts(NodeId),
    /// Anything else: terminator rewrites, block or edge additions,
    /// critical-edge splits, graph replacement, or an unclassified
    /// mutation through [`Program::block_mut`] (conservative — the
    /// borrow can reach the terminator).
    Structural,
}

/// The fine-grained delta between two program revisions, assembled by
/// [`Program::changes_since`] from the mutation log.
///
/// Incremental re-analysis consumes it as follows: when
/// [`structural`](ChangeSet::structural) is `false`, every cached
/// data-flow solution over the same CFG can be warm-started by resetting
/// only [`dirty_blocks`](ChangeSet::dirty_blocks) (and their dependence
/// frontier) to the lattice bound; a structural delta invalidates the
/// CFG itself and demands a cold solve.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    structural: bool,
    dirty: Vec<NodeId>,
}

impl ChangeSet {
    /// Whether the delta is empty (the program is unchanged).
    pub fn is_empty(&self) -> bool {
        !self.structural && self.dirty.is_empty()
    }

    /// Whether any structural (CFG-shape) mutation occurred.
    pub fn structural(&self) -> bool {
        self.structural
    }

    /// Blocks whose statement lists changed, sorted and deduplicated.
    /// Meaningful only when [`structural`](ChangeSet::structural) is
    /// `false` (a structural delta dirties everything).
    pub fn dirty_blocks(&self) -> &[NodeId] {
        &self.dirty
    }
}

/// A basic block: a named node holding a statement list and a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Human-readable name (unique within a program).
    pub name: String,
    /// Straight-line statements executed in order.
    pub stmts: Vec<Stmt>,
    /// Control transfer at the end of the block.
    pub term: Terminator,
    /// If the block was synthesized by critical-edge splitting, the
    /// original edge `(from, to)` it was inserted into.
    pub split_of: Option<(NodeId, NodeId)>,
}

impl Block {
    /// Creates a block with no statements and the given terminator.
    pub fn new(name: impl Into<String>, term: Terminator) -> Block {
        Block {
            name: name.into(),
            stmts: Vec::new(),
            term,
            split_of: None,
        }
    }

    /// Whether this block was synthesized by edge splitting.
    pub fn is_synthetic(&self) -> bool {
        self.split_of.is_some()
    }
}

/// A whole program: variable pool, term arena, and the flow graph.
///
/// Blocks are stored densely and addressed by [`NodeId`]; transformations
/// mutate blocks in place, so node identity is stable across optimization
/// (which is what makes the paper's per-path comparisons meaningful).
#[derive(Debug, Clone)]
pub struct Program {
    vars: VarPool,
    terms: TermArena,
    blocks: Vec<Block>,
    entry: NodeId,
    exit: NodeId,
    /// Monotonic mutation counter. Every operation that may change the
    /// program (mutable block access, adding blocks or edges, interning
    /// variables or terms, graph replacement) bumps it, so analysis
    /// caches can detect staleness in O(1) without hashing the program.
    revision: u64,
    /// Fine-grained mutation log: for each revision bump, the revision
    /// value *after* the change paired with what kind of change it was.
    /// Consumed by [`Program::changes_since`] for incremental
    /// re-analysis; capped at [`CHANGE_LOG_CAP`] entries.
    log: Vec<(u64, Change)>,
}

impl Program {
    /// Creates a program containing only an entry and an exit block.
    ///
    /// The entry is named `s`, falls through to the exit named `e`,
    /// matching the paper's convention of `skip`-only start and end nodes.
    pub fn new() -> Program {
        let entry = NodeId(0);
        let exit = NodeId(1);
        Program {
            vars: VarPool::new(),
            terms: TermArena::new(),
            blocks: vec![
                Block::new("s", Terminator::Goto(exit)),
                Block::new("e", Terminator::Halt),
            ],
            entry,
            exit,
            revision: 0,
            log: Vec::new(),
        }
    }

    /// Builds a program from parts. Used by the builder and parser.
    pub(crate) fn from_parts(
        vars: VarPool,
        terms: TermArena,
        blocks: Vec<Block>,
        entry: NodeId,
        exit: NodeId,
    ) -> Program {
        Program {
            vars,
            terms,
            blocks,
            entry,
            exit,
            revision: 0,
            log: Vec::new(),
        }
    }

    /// The current mutation revision. Two reads returning the same value
    /// with no interleaved `&mut self` call guarantee the program is
    /// unchanged between them; analysis caches key their entries on it.
    ///
    /// The value is a composite of a mutation counter and the arena
    /// sizes: interning a term or variable that already exists leaves
    /// the revision alone (the arenas are append-only, so a dedup hit
    /// changes nothing an analysis could observe), while a genuinely new
    /// term or variable moves it (cached solutions are sized by the
    /// variable universe and must not survive its growth).
    pub fn revision(&self) -> u64 {
        self.revision + self.terms.len() as u64 + self.vars.len() as u64
    }

    /// Appends a log entry stamped with the post-change revision. Must
    /// be called *after* the revision bump it describes.
    fn record(&mut self, change: Change) {
        if self.log.len() >= CHANGE_LOG_CAP {
            self.log.drain(..CHANGE_LOG_CAP / 2);
        }
        let rev = self.revision();
        self.log.push((rev, change));
    }

    /// The delta between revision `rev` (a value previously returned by
    /// [`Program::revision`]) and the current state, or `None` when the
    /// log cannot account for every intervening revision step — because
    /// the log was trimmed, `rev` belongs to a different program, or a
    /// revision moved without a log entry (interning a genuinely new
    /// variable or term grows the arenas, which the composite revision
    /// observes but the log does not). Callers must treat `None` as
    /// "anything may have changed" and fall back to a cold solve.
    pub fn changes_since(&self, rev: u64) -> Option<ChangeSet> {
        let cur = self.revision();
        if rev == cur {
            return Some(ChangeSet::default());
        }
        if rev > cur {
            return None;
        }
        let needed = usize::try_from(cur - rev).ok()?;
        if needed > self.log.len() {
            return None;
        }
        let suffix = &self.log[self.log.len() - needed..];
        let mut out = ChangeSet::default();
        for (i, (r, change)) in suffix.iter().enumerate() {
            // Contiguity check: each intervening revision must be
            // explained by exactly one log entry.
            if *r != rev + 1 + i as u64 {
                return None;
            }
            match change {
                Change::Stmts(n) => out.dirty.push(*n),
                Change::Structural => out.structural = true,
            }
        }
        out.dirty.sort_unstable();
        out.dirty.dedup();
        Some(out)
    }

    /// Bumps the revision without any structural change. Used by
    /// transformations that mutate through interior block access and
    /// want to be explicit, and by tests. Logged conservatively as a
    /// structural change (the interior mutation is unclassified).
    pub fn touch(&mut self) {
        self.revision += 1;
        self.record(Change::Structural);
    }

    /// The entry node `s`.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The exit node `e`.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Total number of statements over all blocks (the paper's `i`).
    pub fn num_stmts(&self) -> usize {
        self.blocks.iter().map(|b| b.stmts.len()).sum()
    }

    /// Total number of *assignment* statements.
    pub fn num_assignments(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.stmts)
            .filter(|s| s.is_assignment())
            .count()
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.blocks.len() as u32).map(NodeId)
    }

    /// Shared access to a block.
    pub fn block(&self, n: NodeId) -> &Block {
        &self.blocks[n.index()]
    }

    /// Mutable access to a block. Conservatively counts as a mutation
    /// for revision tracking, even if the caller changes nothing, and is
    /// logged as structural because the borrow can reach the terminator.
    /// Transformations that only edit the statement list should prefer
    /// [`Program::stmts_mut`], which logs a block-precise delta that
    /// incremental re-analysis can exploit.
    pub fn block_mut(&mut self, n: NodeId) -> &mut Block {
        self.revision += 1;
        self.record(Change::Structural);
        &mut self.blocks[n.index()]
    }

    /// Mutable access to one block's statement list. Counts as a
    /// mutation like [`Program::block_mut`], but is logged as a
    /// statements-only change of block `n`: the CFG shape is guaranteed
    /// untouched, so a cached [`CfgView`](crate::CfgView) stays valid
    /// and needs at most a [`relayout`](crate::CfgView::relayout) of its
    /// instruction arena.
    pub fn stmts_mut(&mut self, n: NodeId) -> &mut Vec<Stmt> {
        self.revision += 1;
        self.record(Change::Stmts(n));
        &mut self.blocks[n.index()].stmts
    }

    /// Looks a block up by name.
    pub fn block_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_ids().find(|&n| self.block(n).name == name)
    }

    /// Successors of `n` in branch order.
    pub fn successors(&self, n: NodeId) -> Vec<NodeId> {
        self.block(n).term.successors()
    }

    /// Shared access to the variable pool.
    pub fn vars(&self) -> &VarPool {
        &self.vars
    }

    /// Mutable access to the variable pool. The pool is append-only, so
    /// revision tracking observes its length instead of this borrow.
    pub fn vars_mut(&mut self) -> &mut VarPool {
        &mut self.vars
    }

    /// Shared access to the term arena.
    pub fn terms(&self) -> &TermArena {
        &self.terms
    }

    /// Mutable access to the term arena. The arena is append-only, so
    /// revision tracking observes its length instead of this borrow.
    pub fn terms_mut(&mut self) -> &mut TermArena {
        &mut self.terms
    }

    /// Interns a variable by name.
    pub fn var(&mut self, name: &str) -> Var {
        self.vars.intern(name)
    }

    /// Interns a term.
    pub fn term(&mut self, data: TermData) -> TermId {
        self.terms.intern(data)
    }

    /// Appends a fresh block and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DuplicateBlock`] if the name is taken.
    pub fn add_block(&mut self, block: Block) -> Result<NodeId, IrError> {
        if self.block_by_name(&block.name).is_some() {
            return Err(IrError::DuplicateBlock(block.name));
        }
        let id = NodeId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        self.revision += 1;
        self.record(Change::Structural);
        self.blocks.push(block);
        Ok(id)
    }

    /// Inserts a synthetic block on the edge `(from, to)` and returns it.
    ///
    /// The new block is named `S_<from>_<to>` (after the paper's
    /// `S_{m,n}` notation), suffixed with `_` until no block has the
    /// name, contains no statements, jumps to `to`, and `from`'s
    /// terminator is retargeted. Used by critical-edge splitting, which
    /// probes the names of a whole batch of splits against one set (see
    /// [`split_critical_edges`](crate::edgesplit::split_critical_edges)).
    ///
    /// # Panics
    ///
    /// Panics if `(from, to)` is not an edge of the graph.
    pub fn split_edge(&mut self, from: NodeId, to: NodeId) -> NodeId {
        let mut name = split_name(&self.block(from).name, &self.block(to).name);
        // Guard against pathological user-chosen names colliding.
        while self.block_by_name(&name).is_some() {
            name.push('_');
        }
        self.split_edge_named(from, to, name)
    }

    /// [`Program::split_edge`] under a name the caller has already
    /// checked is free.
    pub(crate) fn split_edge_named(&mut self, from: NodeId, to: NodeId, name: String) -> NodeId {
        let mut is_edge = false;
        self.block(from)
            .term
            .for_each_successor(|m| is_edge |= m == to);
        assert!(is_edge, "({from}, {to}) is not an edge");
        let mut block = Block::new(name, Terminator::Goto(to));
        block.split_of = Some((from, to));
        let id = NodeId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        self.revision += 1;
        self.record(Change::Structural);
        self.blocks.push(block);
        self.block_mut(from).term.retarget(to, id);
        id
    }

    /// Undoes the splits that added blocks `keep..`: each edge such a
    /// block was inserted into points at its original target again, and
    /// the blocks are dropped. The inverse of the [`Program::split_edge`]
    /// calls since the program had `keep` blocks, whatever was done to
    /// the other blocks' statement lists in between.
    ///
    /// # Panics
    ///
    /// Panics if a block from `keep` on is not a split block.
    pub fn unsplit_edges(&mut self, keep: usize) {
        if keep >= self.blocks.len() {
            return;
        }
        self.revision += 1;
        self.record(Change::Structural);
        for i in (keep..self.blocks.len()).rev() {
            let (from, to) = self.blocks[i]
                .split_of
                .unwrap_or_else(|| panic!("block {} is not a split block", self.blocks[i].name));
            self.blocks[from.index()]
                .term
                .retarget(NodeId::from_index(i), to);
        }
        self.blocks.truncate(keep);
    }

    /// The size `max(#stmts over blocks)` useful for growth statistics.
    pub fn max_block_len(&self) -> usize {
        self.blocks.iter().map(|b| b.stmts.len()).max().unwrap_or(0)
    }

    /// Replaces the entire block set (used by CFG simplification when
    /// compacting node indices). The variable pool and term arena are
    /// kept — term ids inside `blocks` stay valid.
    pub(crate) fn replace_graph(&mut self, blocks: Vec<Block>, entry: NodeId, exit: NodeId) {
        assert!(entry.index() < blocks.len() && exit.index() < blocks.len());
        self.revision += 1;
        self.record(Change::Structural);
        self.blocks = blocks;
        self.entry = entry;
        self.exit = exit;
    }
}

impl Default for Program {
    fn default() -> Program {
        Program::new()
    }
}

/// The paper's `S_{m,n}` name of the block splitting edge `(m, n)`,
/// before any collision suffix.
pub(crate) fn split_name(from: &str, to: &str) -> String {
    format!("S_{from}_{to}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_program_has_entry_and_exit() {
        let p = Program::new();
        assert_eq!(p.num_blocks(), 2);
        assert_eq!(p.block(p.entry()).name, "s");
        assert_eq!(p.block(p.exit()).name, "e");
        assert_eq!(p.successors(p.entry()), vec![p.exit()]);
        assert_eq!(p.successors(p.exit()), vec![]);
    }

    #[test]
    fn cfg_view_predecessors_mirror_successors() {
        let mut p = Program::new();
        let exit = p.exit();
        let b = p
            .add_block(Block::new("n1", Terminator::Goto(exit)))
            .unwrap();
        p.block_mut(p.entry()).term = Terminator::Nondet(vec![b, exit]);
        let view = crate::CfgView::new(&p);
        assert_eq!(view.preds(exit), [p.entry(), b]);
        assert_eq!(view.preds(b), [p.entry()]);
        assert!(view.preds(p.entry()).is_empty());
    }

    #[test]
    fn duplicate_block_names_rejected() {
        let mut p = Program::new();
        let exit = p.exit();
        let err = p.add_block(Block::new("s", Terminator::Goto(exit)));
        assert!(matches!(err, Err(IrError::DuplicateBlock(_))));
    }

    #[test]
    fn split_edge_rewires_terminator() {
        let mut p = Program::new();
        let exit = p.exit();
        let entry = p.entry();
        let s = p.split_edge(entry, exit);
        assert_eq!(p.successors(entry), vec![s]);
        assert_eq!(p.successors(s), vec![exit]);
        assert!(p.block(s).is_synthetic());
        assert_eq!(p.block(s).split_of, Some((entry, exit)));
        assert_eq!(p.block(s).name, "S_s_e");
    }

    #[test]
    fn retarget_rewrites_all_matching_successors() {
        let a = NodeId(5);
        let b = NodeId(7);
        let mut t = Terminator::Nondet(vec![a, b, a]);
        t.retarget(a, b);
        assert_eq!(t.successors(), vec![b, b, b]);
    }

    #[test]
    fn counting_helpers() {
        let mut p = Program::new();
        let exit = p.exit();
        let x = p.var("x");
        let one = p.terms_mut().constant(1);
        let mut blk = Block::new("n1", Terminator::Goto(exit));
        blk.stmts.push(Stmt::Assign { lhs: x, rhs: one });
        blk.stmts.push(Stmt::Skip);
        blk.stmts.push(Stmt::Out(one));
        let b = p.add_block(blk).unwrap();
        p.block_mut(p.entry()).term = Terminator::Goto(b);
        assert_eq!(p.num_stmts(), 3);
        assert_eq!(p.num_assignments(), 1);
        assert_eq!(p.max_block_len(), 3);
        assert_eq!(p.block_by_name("n1"), Some(b));
        assert_eq!(p.block_by_name("nope"), None);
    }

    #[test]
    fn changes_since_reports_statement_edits_per_block() {
        let mut p = Program::new();
        let entry = p.entry();
        let rev = p.revision();
        assert_eq!(p.changes_since(rev), Some(ChangeSet::default()));

        p.stmts_mut(entry).push(Stmt::Skip);
        p.stmts_mut(entry).push(Stmt::Skip);
        let cs = p.changes_since(rev).expect("contiguous log");
        assert!(!cs.structural());
        assert_eq!(cs.dirty_blocks(), &[entry]);
        assert!(!cs.is_empty());
    }

    #[test]
    fn changes_since_flags_structural_edits() {
        let mut p = Program::new();
        let rev = p.revision();
        let exit = p.exit();
        p.add_block(Block::new("n1", Terminator::Goto(exit)))
            .unwrap();
        let cs = p.changes_since(rev).expect("contiguous log");
        assert!(cs.structural());

        let rev2 = p.revision();
        p.block_mut(p.entry()).stmts.push(Stmt::Skip);
        assert!(p.changes_since(rev2).expect("logged").structural());
    }

    #[test]
    fn changes_since_falls_back_on_unlogged_revision_moves() {
        let mut p = Program::new();
        let rev = p.revision();
        // Interning a genuinely new variable moves the composite
        // revision without a log entry: the delta must be unavailable.
        p.var("fresh");
        assert_eq!(p.changes_since(rev), None);
        // Future revisions are never explainable.
        assert_eq!(p.changes_since(p.revision() + 1), None);
    }

    #[test]
    fn change_log_is_capped_and_trims_to_cold_fallback() {
        let mut p = Program::new();
        let entry = p.entry();
        let rev = p.revision();
        for _ in 0..(super::CHANGE_LOG_CAP + 8) {
            p.stmts_mut(entry).push(Stmt::Skip);
        }
        // The trimmed prefix is gone, so the oldest snapshot is cold...
        assert_eq!(p.changes_since(rev), None);
        // ...but recent deltas still resolve.
        let recent = p.revision();
        p.stmts_mut(entry).pop();
        let cs = p.changes_since(recent).expect("recent delta survives");
        assert_eq!(cs.dirty_blocks(), &[entry]);
    }

    #[test]
    fn split_edge_logs_structural_change() {
        let mut p = Program::new();
        let (entry, exit) = (p.entry(), p.exit());
        let rev = p.revision();
        p.split_edge(entry, exit);
        assert!(p.changes_since(rev).expect("logged").structural());
    }

    #[test]
    fn unsplit_edges_inverts_split_edge() {
        let mut p = Program::new();
        let (entry, exit) = (p.entry(), p.exit());
        let b = p
            .add_block(Block::new("b", Terminator::Goto(exit)))
            .unwrap();
        p.block_mut(entry).term = Terminator::Nondet(vec![b, exit, b]);
        let before = p.clone();
        let keep = p.num_blocks();
        let s1 = p.split_edge(entry, b);
        p.split_edge(entry, exit);
        p.stmts_mut(s1).push(Stmt::Skip);
        p.unsplit_edges(keep);
        assert_eq!(p.num_blocks(), keep);
        for n in p.node_ids() {
            assert_eq!(p.block(n), before.block(n));
        }
        p.unsplit_edges(keep);
        assert_eq!(p.num_blocks(), keep);
    }
}
