//! The state of one optimizer run (DESIGN.md §10): the edit log that
//! every elimination pass and `ask` step writes through, and the
//! per-block rows they keep between steps.
//!
//! A pass edits few blocks (on 100–400-block programs, about 3% per
//! elimination pass and 13% per sinking pass), so the run keeps what a
//! block's statements determine — dead's gen/kill rows, the local
//! predicates and candidates of sinking, and each block's exit row as
//! of its last elimination walk — and re-derives it only for blocks
//! edited since. Every edit goes through [`EditLog::rewrite`], which
//! counts it *before* the block changes and keeps the block's pre-run
//! statement list on its first edit, so [`EditLog::undo`] can put the
//! program back as the run found it: statement lists restored, split
//! blocks dropped, split edges pointed at their targets again.

use pdce_dfa::BitMatrix;
use pdce_ir::{NodeId, Program, Stmt};

use crate::dead::{dead_block_rows, record_walks};
use crate::elim::ElimAnalysis;
use crate::local::LocalInfo;
use crate::patterns::PatternTable;

/// A kept row's edit count when it has not been derived.
const STALE: u64 = u64::MAX;

#[cfg(test)]
thread_local! {
    static LOCAL_ROWS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One run's edit log and kept rows. Every elimination pass and `ask`
/// step runs on one: the driver keeps its run across rounds (and a rung
/// of [`optimize_resilient`](crate::optimize_resilient) undoes it on
/// failure), a single public pass starts a fresh one, in which every
/// row is stale.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) edits: EditLog,
    pub(crate) rows: KeptRows,
}

impl Run {
    /// A run over `prog` as it is now: nothing edited, every row stale.
    pub(crate) fn new(prog: &Program) -> Run {
        Run {
            edits: EditLog {
                blocks_at_start: prog.num_blocks(),
                count: vec![0; prog.num_blocks()],
                undo: Vec::new(),
                saved: vec![false; prog.num_blocks()],
                spare: Vec::new(),
            },
            rows: KeptRows::default(),
        }
    }

    /// Puts `prog` back as [`Run::new`] found it and forgets every kept
    /// row.
    pub(crate) fn undo(&mut self, prog: &mut Program) {
        self.edits.undo(prog);
        self.rows = KeptRows::default();
    }
}

/// Which blocks a run edited, and their statement lists before it did.
#[derive(Debug)]
pub(crate) struct EditLog {
    /// Blocks the program had when the run began; the blocks after them
    /// are the run's critical-edge splits.
    blocks_at_start: usize,
    /// Each block's edit count. A kept row is current iff it was derived
    /// at the block's present count.
    count: Vec<u64>,
    /// The pre-run statement list of every edited block, in first-edit
    /// order.
    undo: Vec<(NodeId, Vec<Stmt>)>,
    /// Whether `undo` holds the block's list.
    saved: Vec<bool>,
    /// The buffer the next rewrite builds into: the replaced list of a
    /// block already saved, recycled.
    spare: Vec<Stmt>,
}

impl EditLog {
    /// How often block `n` has been edited in this run.
    pub(crate) fn of(&self, n: NodeId) -> u64 {
        self.count.get(n.index()).copied().unwrap_or(0)
    }

    /// Replaces block `n`'s statement list with the one `build` writes
    /// into its (empty) second argument from the current list. The edit
    /// is counted first; the replaced list is kept for [`EditLog::undo`]
    /// if this is the block's first edit and recycled otherwise.
    pub(crate) fn rewrite(
        &mut self,
        prog: &mut Program,
        n: NodeId,
        build: impl FnOnce(&[Stmt], &mut Vec<Stmt>),
    ) {
        let i = n.index();
        if i >= self.count.len() {
            self.count.resize(prog.num_blocks(), 0);
            self.saved.resize(prog.num_blocks(), false);
        }
        self.count[i] += 1;
        let mut new = std::mem::take(&mut self.spare);
        new.clear();
        build(&prog.block(n).stmts, &mut new);
        let old = std::mem::replace(prog.stmts_mut(n), new);
        if self.saved[i] {
            self.spare = old;
        } else {
            self.saved[i] = true;
            self.undo.push((n, old));
        }
    }

    /// Restores every edited block's pre-run statement list and undoes
    /// the run's critical-edge splits. The log is empty afterwards.
    fn undo(&mut self, prog: &mut Program) {
        for (n, stmts) in self.undo.drain(..) {
            if n.index() < self.blocks_at_start {
                *prog.stmts_mut(n) = stmts;
            }
        }
        prog.unsplit_edges(self.blocks_at_start);
        self.count.truncate(self.blocks_at_start);
        self.count.fill(0);
        self.saved.truncate(self.blocks_at_start);
        self.saved.fill(false);
    }
}

/// The per-block rows a run keeps between steps, each with the edit
/// count of its block when it was derived.
#[derive(Debug, Default)]
pub(crate) struct KeptRows {
    dead: Option<DeadRows>,
    local: Option<LocalRows>,
    walks: Option<WalkMemo>,
}

#[derive(Debug)]
struct DeadRows {
    gen: BitMatrix,
    kill: BitMatrix,
    seen: Vec<u64>,
}

#[derive(Debug)]
struct LocalRows {
    info: LocalInfo,
    seen: Vec<u64>,
    /// The candidate buffer the next re-derivation fills.
    spare: Vec<(usize, usize)>,
}

/// Each block's exit row as of its last elimination walk, which planned
/// nothing unless the block was edited since.
#[derive(Debug)]
struct WalkMemo {
    exit: BitMatrix,
    seen: Vec<u64>,
}

impl KeptRows {
    /// Dead's per-block gen/kill rows of `prog`, re-derived for the
    /// blocks edited since they were last derived.
    pub(crate) fn dead(&mut self, prog: &Program, edits: &EditLog) -> (&BitMatrix, &BitMatrix) {
        let (nblocks, width) = (prog.num_blocks(), prog.num_vars());
        if !self
            .dead
            .as_ref()
            .is_some_and(|d| d.gen.rows() == nblocks && d.gen.width() == width)
        {
            self.dead = Some(DeadRows {
                gen: BitMatrix::zeros(nblocks, width),
                kill: BitMatrix::zeros(nblocks, width),
                seen: vec![STALE; nblocks],
            });
        }
        let rows = self.dead.as_mut().expect("dead rows just set");
        for n in prog.node_ids() {
            let at = edits.of(n);
            if std::mem::replace(&mut rows.seen[n.index()], at) != at {
                rows.gen.row_mut(n.index()).fill(false);
                rows.kill.row_mut(n.index()).fill(false);
                dead_block_rows(prog, n, &mut rows.gen, &mut rows.kill);
            }
        }
        #[cfg(debug_assertions)]
        {
            let (gen, kill) = crate::dead::dead_transfer(prog, width);
            assert!(
                gen == rows.gen && kill == rows.kill,
                "a kept dead row differs from a cold derivation"
            );
        }
        (&rows.gen, &rows.kill)
    }

    /// `prog`'s local predicates and candidates over `table` (restricted
    /// to `region`, when given), re-derived for the blocks edited since
    /// they were last derived. A run uses one table and one region.
    pub(crate) fn local(
        &mut self,
        prog: &Program,
        edits: &EditLog,
        table: &PatternTable,
        region: Option<&[bool]>,
    ) -> &LocalInfo {
        let (nblocks, width) = (prog.num_blocks(), table.len());
        if !self.local.as_ref().is_some_and(|l| {
            l.info.locdelayed.rows() == nblocks && l.info.locdelayed.width() == width
        }) {
            // Sized as `LocalInfo::compute` sizes its list: at most one
            // candidate per statement.
            let num_stmts = prog.node_ids().map(|n| prog.block(n).stmts.len()).sum();
            self.local = Some(LocalRows {
                info: LocalInfo::empty(nblocks, width),
                seen: vec![STALE; nblocks],
                spare: Vec::with_capacity(num_stmts),
            });
        }
        let rows = self.local.as_mut().expect("local rows just set");
        let seen = &mut rows.seen;
        rows.info.rederive(
            prog,
            table,
            region,
            |n| {
                let at = edits.of(n);
                let stale = std::mem::replace(&mut seen[n.index()], at) != at;
                #[cfg(test)]
                LOCAL_ROWS.with(|c| c.set(c.get() + u64::from(stale)));
                stale
            },
            &mut rows.spare,
        );
        #[cfg(debug_assertions)]
        {
            let mut cold = LocalInfo::compute(prog, table);
            if let Some(allowed) = region {
                cold.restrict_to(allowed);
            }
            assert!(
                cold == rows.info,
                "a kept local row differs from a cold derivation"
            );
        }
        &rows.info
    }

    /// Each of `blocks` with the ascending indices of its assignments
    /// that `analysis` proves removable, omitting blocks with none. A
    /// block is walked only if it was edited since its last walk or its
    /// exit row changed; any other block's walk would plan nothing
    /// again, and is charged only the row compare that skips it.
    pub(crate) fn plan(
        &mut self,
        prog: &Program,
        edits: &EditLog,
        analysis: &ElimAnalysis,
        blocks: impl Iterator<Item = NodeId>,
    ) -> Vec<(NodeId, Vec<usize>)> {
        let (nblocks, width) = (prog.num_blocks(), prog.num_vars());
        if !self
            .walks
            .as_ref()
            .is_some_and(|w| w.exit.rows() == nblocks && w.exit.width() == width)
        {
            self.walks = Some(WalkMemo {
                exit: BitMatrix::zeros(nblocks, width),
                seen: vec![STALE; nblocks],
            });
        }
        let memo = self.walks.as_mut().expect("walk memo just set");
        let mut word_ops = 0;
        let mut plans = Vec::new();
        for n in blocks {
            let i = n.index();
            let exit = analysis.at_exit(n);
            if memo.seen[i] == edits.of(n) && memo.exit.row(i) == exit {
                word_ops += memo.exit.stride() as u64;
                #[cfg(debug_assertions)]
                {
                    let mut doomed = Vec::new();
                    analysis.doomed(prog, n, &mut doomed);
                    assert!(doomed.is_empty(), "a skipped walk would have planned");
                }
                continue;
            }
            let mut doomed = Vec::new();
            word_ops += analysis.doomed(prog, n, &mut doomed);
            memo.exit.row_mut(i).copy_from(exit);
            memo.seen[i] = edits.of(n);
            if !doomed.is_empty() {
                plans.push((n, doomed));
            }
        }
        record_walks(word_ops);
        plans
    }
}

/// How many local rows [`KeptRows::local`] has re-derived on the
/// calling thread.
#[cfg(test)]
pub(crate) fn local_rows_on_this_thread() -> u64 {
    LOCAL_ROWS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::{eliminate_once_run, Mode};
    use pdce_dfa::AnalysisCache;
    use pdce_ir::parser::parse;
    use pdce_ir::printer::print_program;

    /// An elimination pass that edits k blocks leaves exactly those k
    /// blocks' local rows to re-derive; a pass that edits nothing leaves
    /// none.
    #[test]
    fn a_pass_editing_k_blocks_rederives_k_local_rows() {
        let mut p = parse(
            "prog {
               block s  { x := a + 1; out(x); goto b1 }
               block b1 { y := 1; z := x; out(z); goto b2 }
               block b2 { y := 2; out(x); goto b3 }
               block b3 { w := 3; out(a); goto m }
               block m  { out(x); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        let table = PatternTable::build(&p);
        let mut cache = AnalysisCache::new();
        let mut run = Run::new(&p);
        let rows = |run: &mut Run, p: &Program| {
            let before = local_rows_on_this_thread();
            run.rows.local(p, &run.edits, &table, None);
            local_rows_on_this_thread() - before
        };
        assert_eq!(rows(&mut run, &p), p.num_blocks() as u64);
        assert_eq!(rows(&mut run, &p), 0);
        // `y := 1`, `y := 2` and `w := 3` are dead: three blocks edited.
        let removed = eliminate_once_run(&mut p, &mut cache, &mut run, Mode::Dead, None);
        assert_eq!(removed, 3);
        assert_eq!(rows(&mut run, &p), 3);
        assert_eq!(
            eliminate_once_run(&mut p, &mut cache, &mut run, Mode::Dead, None),
            0
        );
        assert_eq!(rows(&mut run, &p), 0);
    }

    /// Figure 12 on one run: the second pass must walk `s` again, which
    /// no pass edited, because removing `y := a + b` changed its exit
    /// row — and it must skip every block whose exit row held.
    #[test]
    fn an_exit_row_change_rewalks_an_unedited_block() {
        let mut p = parse(
            "prog {
               block s  { a := c + 1; nondet n3 n4 }
               block n3 { goto n5 }
               block n4 { y := a + b; goto n5 }
               block n5 { y := c + d; out(y); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        let mut cache = AnalysisCache::new();
        let mut run = Run::new(&p);
        let mut pass = |p: &mut Program| {
            let before = pdce_trace::solver_totals();
            let removed = eliminate_once_run(p, &mut cache, &mut run, Mode::Dead, None);
            (removed, pdce_trace::solver_totals().since(&before).word_ops)
        };
        let (first, all_walked) = pass(&mut p);
        assert_eq!(first, 1);
        let (second, _) = pass(&mut p);
        assert_eq!(second, 1, "`a := c + 1` became dead");
        let (third, none_walked) = pass(&mut p);
        assert_eq!(third, 0);
        assert!(
            none_walked < all_walked,
            "{none_walked} vs {all_walked} word ops"
        );
    }

    /// Undoing a run restores every edited statement list and drops the
    /// run's critical-edge splits, whatever the edits were.
    #[test]
    fn undo_restores_the_program_the_run_began_with() {
        let src = "prog {
               block s  { x := a + b; nondet n1 n2 }
               block n1 { y := x; nondet n1 n3 }
               block n2 { x := 3; goto n3 }
               block n3 { out(y); goto e }
               block e  { halt }
             }";
        let mut p = parse(src).unwrap();
        let original = print_program(&p);
        let mut run = Run::new(&p);
        let split = pdce_ir::edgesplit::split_critical_edges(&mut p);
        assert!(!split.is_empty());
        let s = p.entry();
        let n2 = p.block_by_name("n2").unwrap();
        run.edits.rewrite(&mut p, s, |_, out| out.clear());
        run.edits
            .rewrite(&mut p, s, |old, out| out.extend_from_slice(old));
        run.edits
            .rewrite(&mut p, n2, |old, out| out.extend(old.iter().rev()));
        let first = p.block(s).stmts.first().copied();
        run.edits
            .rewrite(&mut p, split[0], |_, out| out.extend(first));
        assert_ne!(print_program(&p), original);
        run.undo(&mut p);
        assert_eq!(print_program(&p), original);
    }
}
