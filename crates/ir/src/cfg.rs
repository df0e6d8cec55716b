//! Control-flow-graph utilities: a flat CSR (compressed sparse row)
//! snapshot of the graph with cached orderings, plus dominators, loop
//! and irreducibility detection on top of it.
//!
//! [`CfgView`] is the one adjacency structure every analysis layer in
//! the workspace reads: both successor and predecessor edges live in
//! single flat arrays indexed by per-node offset ranges (no per-block
//! `Vec` chasing), the reverse-postorder/postorder numberings and the
//! per-block instruction arena layout are precomputed once, and the
//! critical-edge table is materialized eagerly. Solvers iterate over
//! cache-contiguous edge slabs instead of pointer-hopping through
//! `Vec<Block>`.

use std::cell::Cell;

use crate::program::{NodeId, Program};

thread_local! {
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// An immutable CSR snapshot of a program's control-flow structure.
///
/// Analyses take a `CfgView` so predecessors, successors, orders, and
/// the statement arena layout are computed once per solve. The view is
/// invalidated by any mutation of the program's terminators or block
/// set; statement-only edits keep the topology valid and only require
/// [`CfgView::relayout`]. The revision-keyed `AnalysisCache` in
/// `pdce-dfa` memoizes views (and relayouts them after statement-local
/// deltas reported by the mutation log), so passes rarely rebuild one.
///
/// # Layout
///
/// * successors of node `i` live in `succ_edges[succ_off[i] .. succ_off[i+1]]`,
///   in branch order;
/// * predecessors of `i` live in `pred_edges[pred_off[i] .. pred_off[i+1]]`,
///   ordered by source-node index (parallel edges appear once per
///   occurrence);
/// * instructions (statements plus one terminator pseudo-instruction
///   per block) of node `i` occupy the contiguous index range
///   `instr_off[i] .. instr_off[i+1]` of a single arena numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgView {
    entry: NodeId,
    exit: NodeId,
    succ_off: Vec<u32>,
    succ_edges: Vec<NodeId>,
    pred_off: Vec<u32>,
    pred_edges: Vec<NodeId>,
    rpo: Vec<NodeId>,
    post: Vec<NodeId>,
    rpo_index: Vec<u32>,
    instr_off: Vec<u32>,
    critical: Vec<(NodeId, NodeId)>,
}

impl CfgView {
    /// Builds the view for `prog`.
    ///
    /// # Example
    ///
    /// ```
    /// use pdce_ir::{parser::parse, CfgView};
    ///
    /// let prog = parse(
    ///     "prog { block s { nondet a b } block a { goto e }
    ///             block b { goto e } block e { halt } }",
    /// )?;
    /// let view = CfgView::new(&prog);
    /// assert_eq!(view.succs(prog.entry()).len(), 2);
    /// assert_eq!(view.preds(prog.exit()).len(), 2);
    /// assert!(view.is_acyclic());
    /// # Ok::<(), pdce_ir::ParseError>(())
    /// ```
    pub fn new(prog: &Program) -> CfgView {
        BUILDS.with(|b| b.set(b.get() + 1));
        let n = prog.num_blocks();

        // Successor CSR, edges in branch order.
        let mut succ_off = Vec::with_capacity(n + 1);
        succ_off.push(0u32);
        let mut num_edges = 0usize;
        for id in prog.node_ids() {
            num_edges += prog.block(id).term.successor_count();
            succ_off.push(num_edges as u32);
        }
        let mut succ_edges = Vec::with_capacity(num_edges);
        for id in prog.node_ids() {
            prog.block(id).term.for_each_successor(|m| {
                succ_edges.push(m);
            });
        }

        // Predecessor CSR: counting pass, then a cursor fill that visits
        // sources in ascending index order (so each predecessor slab is
        // sorted by source, parallel edges kept).
        let mut pred_off = vec![0u32; n + 1];
        for &m in &succ_edges {
            pred_off[m.index() + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let mut cursor: Vec<u32> = pred_off[..n].to_vec();
        let mut pred_edges = vec![NodeId::from_index(0); num_edges];
        for id in prog.node_ids() {
            let (lo, hi) = (
                succ_off[id.index()] as usize,
                succ_off[id.index() + 1] as usize,
            );
            for &m in &succ_edges[lo..hi] {
                pred_edges[cursor[m.index()] as usize] = id;
                cursor[m.index()] += 1;
            }
        }

        // Iterative DFS postorder from the entry, walking the CSR succ
        // slabs in branch order.
        let mut post: Vec<NodeId> = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unseen, 1 on stack, 2 done
        let mut stack: Vec<(NodeId, usize)> = vec![(prog.entry(), 0)];
        state[prog.entry().index()] = 1;
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            let lo = succ_off[node.index()] as usize;
            let hi = succ_off[node.index() + 1] as usize;
            if lo + *child < hi {
                let next = succ_edges[lo + *child];
                *child += 1;
                if state[next.index()] == 0 {
                    state[next.index()] = 1;
                    stack.push((next, 0));
                }
            } else {
                state[node.index()] = 2;
                post.push(node);
                stack.pop();
            }
        }
        let mut rpo = post.clone();
        rpo.reverse();
        let mut rpo_index = vec![u32::MAX; n];
        for (i, &id) in rpo.iter().enumerate() {
            rpo_index[id.index()] = i as u32;
        }

        // Critical edges (Section 2.1): multi-successor source into
        // multi-predecessor target. Sorted and deduped so parallel
        // critical edges (e.g. `nondet x x`) appear once — the order
        // edge splitting inserts synthetic blocks in.
        let mut critical: Vec<(NodeId, NodeId)> = Vec::new();
        for id in prog.node_ids() {
            let i = id.index();
            if succ_off[i + 1] - succ_off[i] <= 1 {
                continue;
            }
            for &m in &succ_edges[succ_off[i] as usize..succ_off[i + 1] as usize] {
                if pred_off[m.index() + 1] - pred_off[m.index()] > 1 {
                    critical.push((id, m));
                }
            }
        }
        critical.sort_unstable();
        critical.dedup();

        let instr_off = Self::layout(prog);

        CfgView {
            entry: prog.entry(),
            exit: prog.exit(),
            succ_off,
            succ_edges,
            pred_off,
            pred_edges,
            rpo,
            post,
            rpo_index,
            instr_off,
            critical,
        }
    }

    /// The instruction arena layout: per-block offsets (statements plus
    /// one terminator pseudo-instruction each).
    fn layout(prog: &Program) -> Vec<u32> {
        let mut instr_off = Vec::with_capacity(prog.num_blocks() + 1);
        instr_off.push(0u32);
        let mut num_instrs = 0u32;
        for id in prog.node_ids() {
            num_instrs += prog.block(id).stmts.len() as u32 + 1;
            instr_off.push(num_instrs);
        }
        instr_off
    }

    /// How many views [`CfgView::new`] has built on the calling thread,
    /// so tests can pin which layers build their own.
    pub fn builds_on_this_thread() -> u64 {
        BUILDS.with(Cell::get)
    }

    /// Rebuilds only the instruction arena layout for `prog`, reusing
    /// the adjacency and orders of `self`. Valid exactly when `prog`
    /// differs from the program this view was built for by
    /// statement-list edits only (the `Preserves::Cfg` contract).
    pub fn relayout(&self, prog: &Program) -> CfgView {
        debug_assert_eq!(self.num_nodes(), prog.num_blocks(), "topology changed");
        CfgView {
            instr_off: Self::layout(prog),
            ..self.clone()
        }
    }

    /// Whether the instruction layout still matches `prog`'s statement
    /// lists (then [`CfgView::relayout`] would be an exact no-op).
    pub fn layout_matches(&self, prog: &Program) -> bool {
        self.num_nodes() == prog.num_blocks()
            && prog.node_ids().all(|id| {
                let i = id.index();
                (self.instr_off[i + 1] - self.instr_off[i]) as usize
                    == prog.block(id).stmts.len() + 1
            })
    }

    /// Number of nodes covered by the view.
    pub fn num_nodes(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Number of edges of the graph.
    pub fn num_edges(&self) -> usize {
        self.succ_edges.len()
    }

    /// The entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Predecessors of `n`, ordered by source-node index.
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.pred_edges[self.pred_off[n.index()] as usize..self.pred_off[n.index() + 1] as usize]
    }

    /// Successors of `n`, in branch order.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succ_edges[self.succ_off[n.index()] as usize..self.succ_off[n.index() + 1] as usize]
    }

    /// Reverse postorder over nodes reachable from the entry.
    pub fn rpo(&self) -> &[NodeId] {
        &self.rpo
    }

    /// Position of `n` in reverse postorder (`usize::MAX` if unreachable).
    pub fn rpo_index(&self, n: NodeId) -> usize {
        match self.rpo_index[n.index()] {
            u32::MAX => usize::MAX,
            i => i as usize,
        }
    }

    /// Postorder (reverse of [`CfgView::rpo`]), the natural iteration
    /// order for backward analyses.
    pub fn postorder(&self) -> &[NodeId] {
        &self.post
    }

    /// All edges `(m, n)` of the graph, grouped by source in branch
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes()).flat_map(move |i| {
            let src = NodeId::from_index(i);
            self.succs(src).iter().map(move |&m| (src, m))
        })
    }

    /// Critical edges: from a node with several successors to a node
    /// with several predecessors (Section 2.1 of the paper). Sorted by
    /// `(source, target)` index and deduplicated.
    pub fn critical_edges(&self) -> &[(NodeId, NodeId)] {
        &self.critical
    }

    /// Total number of instructions in the arena layout: every block
    /// contributes its statements plus one terminator pseudo-
    /// instruction.
    pub fn num_instrs(&self) -> usize {
        *self.instr_off.last().expect("offsets nonempty") as usize
    }

    /// Per-block instruction offsets (`num_nodes() + 1` entries): block
    /// `i`'s instructions occupy `instr_offsets()[i] .. instr_offsets()[i+1]`.
    pub fn instr_offsets(&self) -> &[u32] {
        &self.instr_off
    }

    /// First instruction index of block `n`.
    pub fn first_instr(&self, n: NodeId) -> usize {
        self.instr_off[n.index()] as usize
    }

    /// Arena index range of block `n`'s instructions (statements then
    /// the terminator pseudo-instruction).
    pub fn instr_range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.instr_off[n.index()] as usize..self.instr_off[n.index() + 1] as usize
    }

    /// Immediate dominators, computed with the Cooper–Harvey–Kennedy
    /// iterative algorithm. `idom[entry] == entry`; unreachable nodes map
    /// to `None`.
    pub fn immediate_dominators(&self) -> Vec<Option<NodeId>> {
        let n = self.num_nodes();
        let mut idom: Vec<Option<NodeId>> = vec![None; n];
        idom[self.entry.index()] = Some(self.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &self.rpo {
                if b == self.entry {
                    continue;
                }
                let mut new_idom: Option<NodeId> = None;
                for &p in self.preds(b) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => self.intersect(&idom, p, cur),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    fn intersect(&self, idom: &[Option<NodeId>], mut a: NodeId, mut b: NodeId) -> NodeId {
        while a != b {
            while self.rpo_index(a) > self.rpo_index(b) {
                a = idom[a.index()].expect("dominator chain broken");
            }
            while self.rpo_index(b) > self.rpo_index(a) {
                b = idom[b.index()].expect("dominator chain broken");
            }
        }
        a
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, idom: &[Option<NodeId>], a: NodeId, b: NodeId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// Back edges `(tail, head)` where `head` dominates `tail` — the
    /// retreating edges of *natural* loops.
    pub fn natural_back_edges(&self) -> Vec<(NodeId, NodeId)> {
        let idom = self.immediate_dominators();
        self.edges()
            .filter(|&(m, n)| self.dominates(&idom, n, m))
            .collect()
    }

    /// Whether the graph is reducible: every retreating edge (w.r.t. a DFS)
    /// is a natural back edge. Detected by checking that removing natural
    /// back edges leaves an acyclic graph.
    pub fn is_reducible(&self) -> bool {
        let back: std::collections::HashSet<(NodeId, NodeId)> =
            self.natural_back_edges().into_iter().collect();
        // Kahn's algorithm over the remaining edges.
        let n = self.num_nodes();
        let mut indeg = vec![0usize; n];
        for (m, t) in self.edges() {
            if !back.contains(&(m, t)) {
                indeg[t.index()] += 1;
            }
        }
        let mut queue: Vec<NodeId> = (0..n)
            .map(NodeId::from_index)
            .filter(|x| indeg[x.index()] == 0)
            .collect();
        let mut seen = 0;
        while let Some(x) = queue.pop() {
            seen += 1;
            for &m in self.succs(x) {
                if back.contains(&(x, m)) {
                    continue;
                }
                indeg[m.index()] -= 1;
                if indeg[m.index()] == 0 {
                    queue.push(m);
                }
            }
        }
        seen == n
    }

    /// Whether the graph contains any cycle.
    pub fn is_acyclic(&self) -> bool {
        let n = self.num_nodes();
        let mut indeg = vec![0usize; n];
        for &t in &self.succ_edges {
            indeg[t.index()] += 1;
        }
        let mut queue: Vec<NodeId> = (0..n)
            .map(NodeId::from_index)
            .filter(|x| indeg[x.index()] == 0)
            .collect();
        let mut seen = 0;
        while let Some(x) = queue.pop() {
            seen += 1;
            for &m in self.succs(x) {
                indeg[m.index()] -= 1;
                if indeg[m.index()] == 0 {
                    queue.push(m);
                }
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn diamond() -> Program {
        parse(
            "prog {
               block s { nondet a b }
               block a { goto j }
               block b { goto j }
               block j { goto e }
               block e { halt }
             }",
        )
        .unwrap()
    }

    #[test]
    fn preds_and_succs() {
        let p = diamond();
        let v = CfgView::new(&p);
        let j = p.block_by_name("j").unwrap();
        let a = p.block_by_name("a").unwrap();
        let b = p.block_by_name("b").unwrap();
        assert_eq!(v.preds(j), &[a, b]);
        assert_eq!(v.succs(p.entry()), &[a, b]);
        assert_eq!(v.preds(p.entry()), &[] as &[NodeId]);
        assert_eq!(v.num_edges(), 5);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        let p = diamond();
        let v = CfgView::new(&p);
        assert_eq!(v.rpo()[0], p.entry());
        let j = p.block_by_name("j").unwrap();
        assert!(v.rpo_index(p.entry()) < v.rpo_index(j));
        assert!(v.rpo_index(j) < v.rpo_index(p.exit()));
        assert_eq!(v.rpo().len(), 5);
        // The cached postorder is exactly the reversed RPO.
        let mut reversed: Vec<NodeId> = v.rpo().to_vec();
        reversed.reverse();
        assert_eq!(v.postorder(), &reversed[..]);
    }

    #[test]
    fn dominators_of_diamond() {
        let p = diamond();
        let v = CfgView::new(&p);
        let idom = v.immediate_dominators();
        let j = p.block_by_name("j").unwrap();
        let a = p.block_by_name("a").unwrap();
        assert_eq!(idom[j.index()], Some(p.entry()));
        assert_eq!(idom[a.index()], Some(p.entry()));
        assert!(v.dominates(&idom, p.entry(), j));
        assert!(!v.dominates(&idom, a, j));
        assert!(v.dominates(&idom, j, j));
    }

    #[test]
    fn critical_edge_detection() {
        let p = parse(
            "prog {
               block s { nondet a j }
               block a { goto j }
               block j { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let v = CfgView::new(&p);
        let j = p.block_by_name("j").unwrap();
        assert_eq!(v.critical_edges(), &[(p.entry(), j)]);
    }

    #[test]
    fn parallel_critical_edges_are_deduplicated() {
        let p = parse(
            "prog {
               block s { nondet j j x }
               block x { goto j }
               block j { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let v = CfgView::new(&p);
        let j = p.block_by_name("j").unwrap();
        assert_eq!(v.critical_edges(), &[(p.entry(), j)]);
    }

    #[test]
    fn instr_layout_is_block_contiguous() {
        let p = parse(
            "prog {
               block s { x := 1; y := 2; nondet a b }
               block a { goto j }
               block b { out(x); goto j }
               block j { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let v = CfgView::new(&p);
        // stmts + 1 terminator per block: 3 + 1 + 2 + 1 + 1.
        assert_eq!(v.num_instrs(), 8);
        assert_eq!(v.instr_range(p.entry()), 0..3);
        let b = p.block_by_name("b").unwrap();
        assert_eq!(v.instr_range(b).len(), 2);
        assert_eq!(v.first_instr(b), v.instr_offsets()[b.index()] as usize);
    }

    #[test]
    fn relayout_tracks_statement_edits() {
        let mut p = parse(
            "prog {
               block s { x := 1; y := 2; goto j }
               block j { out(x); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let v = CfgView::new(&p);
        assert!(v.layout_matches(&p));
        let s = p.entry();
        p.stmts_mut(s).pop();
        assert!(!v.layout_matches(&p));
        let r = v.relayout(&p);
        assert_eq!(r, CfgView::new(&p), "relayout must equal a cold rebuild");
        assert!(r.layout_matches(&p));
        // Adjacency and orders are untouched.
        assert_eq!(r.rpo(), v.rpo());
        assert_eq!(r.preds(p.exit()), v.preds(p.exit()));
    }

    #[test]
    fn loop_and_reducibility_detection() {
        let looped = parse(
            "prog {
               block s { goto h }
               block h { nondet body e }
               block body { goto h }
               block e { halt }
             }",
        )
        .unwrap();
        let v = CfgView::new(&looped);
        assert!(!v.is_acyclic());
        assert!(v.is_reducible());
        let h = looped.block_by_name("h").unwrap();
        let body = looped.block_by_name("body").unwrap();
        assert_eq!(v.natural_back_edges(), vec![(body, h)]);

        // Two-entry loop {a, b}: the classic irreducible shape.
        let irred = parse(
            "prog {
               block s { nondet a b }
               block a { nondet b e }
               block b { goto a }
               block e { halt }
             }",
        )
        .unwrap();
        let v = CfgView::new(&irred);
        assert!(!v.is_acyclic());
        assert!(!v.is_reducible());
        assert!(v.natural_back_edges().is_empty());
    }

    #[test]
    fn acyclic_detection() {
        let p = diamond();
        assert!(CfgView::new(&p).is_acyclic());
    }
}
