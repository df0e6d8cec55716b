//! Local predicates of the delayability analysis (Table 2) and sinking
//! candidates (Figure 13).
//!
//! A *sinking candidate* of pattern `α ≡ x := t` in block `n` is an
//! occurrence of `α` that is not followed (within `n`, terminator
//! included) by any instruction blocking `α`: no modification of an
//! operand of `t`, no use of `x`, no modification of `x`. Among several
//! occurrences of the same pattern at most the *last* one can be a
//! candidate, since every occurrence blocks its predecessors (it modifies
//! `x`).

use pdce_dfa::BitMatrix;
use pdce_ir::{NodeId, Program};

use crate::patterns::PatternTable;

/// Per-block local information feeding Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalInfo {
    /// `LOCDELAYED_n(α)`, row per block: block `n` contains a sinking
    /// candidate of `α`.
    pub locdelayed: BitMatrix,
    /// `LOCBLOCKED_n(α)`, row per block: some instruction of `n` blocks
    /// `α`.
    pub locblocked: BitMatrix,
    /// Block `n`'s candidates are `candidates[starts[n]..starts[n + 1]]`.
    starts: Vec<usize>,
    /// Every block's `(stmt index, pattern index)` candidate pairs, in
    /// block order and, within a block, in statement order.
    candidates: Vec<(usize, usize)>,
}

impl LocalInfo {
    /// Computes the local predicates for every block of `prog`.
    ///
    /// One backward scan per block: `blocked` starts from the
    /// terminator's reads, an occurrence of `p` is a candidate iff
    /// `blocked[p]` is still clear when the scan reaches it, and every
    /// statement then ORs in its blocking masks (a later occurrence of
    /// `p` writes `x`, so it blocks every earlier one). What is blocked
    /// when the scan leaves the block is `LOCBLOCKED`. The candidate
    /// list is sized up front (at most one candidate per statement), so
    /// the whole computation allocates four buffers.
    pub fn compute(prog: &Program, table: &PatternTable) -> LocalInfo {
        let mut info = LocalInfo::empty(prog.num_blocks(), table.len());
        let num_stmts = prog.node_ids().map(|n| prog.block(n).stmts.len()).sum();
        info.rederive(
            prog,
            table,
            None,
            |_| true,
            &mut Vec::with_capacity(num_stmts),
        );
        info
    }

    /// `nblocks` blocks with clear rows of `width` patterns and no
    /// candidates.
    pub(crate) fn empty(nblocks: usize, width: usize) -> LocalInfo {
        LocalInfo {
            locdelayed: BitMatrix::zeros(nblocks, width),
            locblocked: BitMatrix::zeros(nblocks, width),
            starts: vec![0; nblocks + 1],
            candidates: Vec::new(),
        }
    }

    /// Re-derives the rows and candidates of the blocks `stale` names
    /// and keeps every other block's. Blocks outside `region` (when
    /// given) are derived as [`LocalInfo::restrict_to`] leaves them. The
    /// candidate list is rebuilt into `spare`, which then swaps with the
    /// old list, so a caller that keeps `spare` allocates nothing once
    /// both lists have grown to the program's size.
    pub(crate) fn rederive(
        &mut self,
        prog: &Program,
        table: &PatternTable,
        region: Option<&[bool]>,
        mut stale: impl FnMut(NodeId) -> bool,
        spare: &mut Vec<(usize, usize)>,
    ) {
        spare.clear();
        for n in prog.node_ids() {
            let i = n.index();
            let start = spare.len();
            if stale(n) {
                self.locdelayed.row_mut(i).fill(false);
                self.locblocked.row_mut(i).fill(false);
                if region.is_none_or(|r| r[i]) {
                    self.scan_block(prog, table, n, spare);
                } else {
                    self.locblocked.row_mut(i).fill(true);
                }
            } else {
                spare.extend_from_slice(&self.candidates[self.starts[i]..self.starts[i + 1]]);
            }
            // Block `i`'s old range was read above; later blocks still
            // read their own.
            self.starts[i] = start;
        }
        self.starts[prog.num_blocks()] = spare.len();
        std::mem::swap(&mut self.candidates, spare);
    }

    /// The backward scan of block `n` (see [`LocalInfo::compute`]) into
    /// its cleared rows, appending its candidates to `candidates`.
    fn scan_block(
        &mut self,
        prog: &Program,
        table: &PatternTable,
        n: NodeId,
        candidates: &mut Vec<(usize, usize)>,
    ) {
        let block = prog.block(n);
        let i = n.index();
        let from = candidates.len();
        let mut blocked = self.locblocked.row_mut(i);
        table.union_terminator_blocks(prog, &block.term, &mut blocked);
        for (k, stmt) in block.stmts.iter().enumerate().rev() {
            if let Some(p) = table.index_of_stmt(stmt) {
                if !blocked.get(p) {
                    self.locdelayed.row_mut(i).set(p, true);
                    candidates.push((k, p));
                }
            }
            table.union_stmt_blocks(prog, stmt, &mut blocked);
        }
        candidates[from..].reverse();
    }

    /// Sinking candidates of block `n` as `(stmt index, pattern index)`.
    pub fn candidates_of(&self, n: NodeId) -> &[(usize, usize)] {
        &self.candidates[self.starts[n.index()]..self.starts[n.index() + 1]]
    }

    /// Restricts sinking to the blocks `allowed` marks (Section 7's hot
    /// region): every other block contributes no candidates and blocks
    /// every pattern, so no instance moves through, out of, or
    /// originates in it.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` does not have one entry per block.
    pub fn restrict_to(&mut self, allowed: &[bool]) {
        let nblocks = self.starts.len() - 1;
        assert_eq!(allowed.len(), nblocks, "region mask length");
        let mut kept = 0;
        for (i, &allow) in allowed.iter().enumerate() {
            let (lo, hi) = (self.starts[i], self.starts[i + 1]);
            self.starts[i] = kept;
            if allow {
                self.candidates.copy_within(lo..hi, kept);
                kept += hi - lo;
            } else {
                self.locdelayed.row_mut(i).fill(false);
                self.locblocked.row_mut(i).fill(true);
            }
        }
        self.starts[nblocks] = kept;
        self.candidates.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    fn info(src: &str) -> (pdce_ir::Program, PatternTable, LocalInfo) {
        let p = parse(src).unwrap();
        let t = PatternTable::build(&p);
        let i = LocalInfo::compute(&p, &t);
        (p, t, i)
    }

    /// Figure 13 (left block): `y := a+b; a := c; x := 3*y` — the
    /// occurrence of `y := a+b` is followed by `a := c` (modifies operand
    /// `a`), so it is *not* a candidate.
    #[test]
    fn fig13_first_block_has_no_y_ab_candidate() {
        let (p, t, i) = info(
            "prog {
               block s { y := a + b; a := c; x := 3 * y; goto e }
               block e { halt }
             }",
        );
        let y_ab = (0..t.len())
            .find(|&k| t.key(&p, k).as_str() == "y := a + b")
            .unwrap();
        assert!(!i.locdelayed.row(p.entry().index()).get(y_ab));
        assert!(i.locblocked.row(p.entry().index()).get(y_ab));
        // `x := 3*y` is a candidate: nothing after it blocks it.
        let x_3y = (0..t.len())
            .find(|&k| t.key(&p, k).as_str() == "x := 3 * y")
            .unwrap();
        assert!(i.locdelayed.row(p.entry().index()).get(x_3y));
    }

    /// Figure 13 (right block): with a second occurrence
    /// `y := a+b; a := c; x := 3*y; y := a+b; a := d`, the trailing
    /// `a := d` modifies operand `a`, blocking even the last occurrence.
    #[test]
    fn fig13_second_block_trailing_mod_blocks_last_occurrence() {
        let (p, t, i) = info(
            "prog {
               block s { y := a + b; a := c; x := 3 * y; y := a + b; a := d; goto e }
               block e { halt }
             }",
        );
        let y_ab = (0..t.len())
            .find(|&k| t.key(&p, k).as_str() == "y := a + b")
            .unwrap();
        assert!(!i.locdelayed.row(p.entry().index()).get(y_ab));
        // `a := d` itself is a trailing candidate.
        let a_d = (0..t.len())
            .find(|&k| t.key(&p, k).as_str() == "a := d")
            .unwrap();
        assert!(i.locdelayed.row(p.entry().index()).get(a_d));
        assert_eq!(
            i.candidates_of(p.entry())
                .iter()
                .map(|&(k, _)| k)
                .collect::<Vec<_>>(),
            vec![4]
        );
    }

    /// Without the trailing modification the last occurrence is the
    /// candidate — "at most the last one" (Figure 13's point).
    #[test]
    fn only_last_occurrence_is_candidate() {
        let (p, t, i) = info(
            "prog {
               block s { y := a + b; skip; y := a + b; goto e }
               block e { halt }
             }",
        );
        let y_ab = (0..t.len())
            .find(|&k| t.key(&p, k).as_str() == "y := a + b")
            .unwrap();
        assert!(i.locdelayed.row(p.entry().index()).get(y_ab));
        assert_eq!(i.candidates_of(p.entry()), &[(2, y_ab)]);
        // The pattern is also locally blocked (the second occurrence
        // blocks the first by modifying y).
        assert!(i.locblocked.row(p.entry().index()).get(y_ab));
    }

    #[test]
    fn terminator_condition_blocks_candidates() {
        let (p, _t, i) = info(
            "prog {
               block s { x := a + b; if x < 3 then t else e }
               block t { goto e }
               block e { halt }
             }",
        );
        assert!(!i.locdelayed.row(p.entry().index()).get(0));
        assert!(i.locblocked.row(p.entry().index()).get(0));
        assert!(i.candidates_of(p.entry()).is_empty());
    }

    #[test]
    fn relevant_statement_blocks() {
        let (p, _t, i) = info("prog { block s { x := a; out(x); goto e } block e { halt } }");
        assert!(!i.locdelayed.row(p.entry().index()).get(0));
        assert!(i.locblocked.row(p.entry().index()).get(0));
    }

    #[test]
    fn independent_patterns_are_both_candidates() {
        let (p, t, i) = info(
            "prog {
               block s { x := a + 1; y := b + 2; goto e }
               block e { halt }
             }",
        );
        assert_eq!(i.candidates_of(p.entry()).len(), 2);
        assert_eq!(i.locdelayed.row(p.entry().index()).count_ones(), 2);
        // Neither blocks the other, but each occurrence blocks its own
        // pattern (it modifies its left-hand side).
        assert_eq!(i.locblocked.row(p.entry().index()).count_ones(), 2);
        let _ = t;
    }

    #[test]
    fn empty_blocks_have_no_predicates() {
        let (p, _t, i) =
            info("prog { block s { goto m } block m { x := 1; goto e } block e { halt } }");
        assert!(i.locdelayed.row(p.entry().index()).none());
        assert!(i.locblocked.row(p.entry().index()).none());
        assert!(i.candidates_of(p.entry()).is_empty());
    }

    #[test]
    fn self_referential_assignment_is_candidate_when_unblocked() {
        // x := x + 1 at the end of a block: candidate (nothing follows).
        let (p, _t, i) = info("prog { block s { x := x + 1; goto e } block e { halt } }");
        assert_eq!(i.candidates_of(p.entry()), &[(0, 0)]);
    }
}
