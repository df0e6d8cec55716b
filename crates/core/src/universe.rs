//! Bounded enumeration of the PDE/PFE universe (Definition 3.5).
//!
//! `G_T` is the set of programs reachable from `G` by admissible
//! assignment sinkings and dead (faint) code eliminations. Theorem 5.2
//! claims the driver's result is *better* (Definition 3.6) than every
//! program in that universe. This module cross-checks the claim by brute
//! force on small programs: it explores the universe with a set of
//! *elementary admissible moves* and verifies that the driver's output
//! dominates every program found.
//!
//! The elementary moves (each a special case of Definitions 3.1–3.4):
//!
//! 1. **Single elimination** — remove one assignment whose left-hand side
//!    is dead (faint) immediately after it.
//! 2. **Branch move** — a sinking candidate in block `n` where every
//!    successor of `n` has `n` as its only predecessor: remove it and
//!    insert an instance at the entry of every successor. (Substitution
//!    and justification hold trivially.)
//! 3. **Join move** — a block `m` all of whose predecessors are
//!    single-successor blocks carrying a sinking candidate of the same
//!    pattern: remove all of them and insert one instance at the entry of
//!    `m`. This is the paper's m-to-n sinking (Figure 7).
//!
//! The closure of these moves is a *subset* of the universe, so any
//! explored program that beats the driver's output disproves optimality;
//! the check is sound, and on the paper's figures it is also sharp
//! enough to cover the interesting competitors.

use std::collections::{HashMap, HashSet, VecDeque};

use pdce_ir::printer::canonical_string;
use pdce_ir::{NodeId, Program, Stmt};

use crate::better::{is_better, BetterOptions};
use crate::elim::{ElimAnalysis, Mode};
use crate::local::LocalInfo;
use crate::patterns::PatternTable;
use crate::run::Run;
use pdce_dfa::AnalysisCache;

/// Options bounding the exploration.
#[derive(Debug, Clone)]
pub struct UniverseOptions {
    /// Elimination mode (mirrors the driver's).
    pub mode: Mode,
    /// Maximum number of distinct programs to enumerate.
    pub max_programs: usize,
    /// Dominance-check options.
    pub better: BetterOptions,
}

impl Default for UniverseOptions {
    fn default() -> UniverseOptions {
        UniverseOptions {
            mode: Mode::Dead,
            max_programs: 2000,
            better: BetterOptions::default(),
        }
    }
}

/// Result of exploring the universe.
#[derive(Debug)]
pub struct UniverseResult {
    /// Distinct programs reached (including the start program).
    pub programs: Vec<Program>,
    /// Whether exploration stopped at the program cap.
    pub truncated: bool,
}

/// Enumerates the bounded universe of `start`.
///
/// `start` must already be critical-edge free (the driver's
/// preprocessing); moves never create new blocks.
pub fn explore(start: &Program, opts: &UniverseOptions) -> UniverseResult {
    let mut seen: HashSet<String> = HashSet::new();
    let mut programs: Vec<Program> = Vec::new();
    let mut queue: VecDeque<Program> = VecDeque::new();
    seen.insert(canonical_string(start));
    programs.push(start.clone());
    queue.push_back(start.clone());
    let mut truncated = false;

    while let Some(prog) = queue.pop_front() {
        for succ in successors(&prog, opts.mode) {
            let key = canonical_string(&succ);
            if seen.contains(&key) {
                continue;
            }
            if programs.len() >= opts.max_programs {
                truncated = true;
                continue;
            }
            seen.insert(key);
            programs.push(succ.clone());
            queue.push_back(succ);
        }
    }
    UniverseResult {
        programs,
        truncated,
    }
}

fn successors(prog: &Program, mode: Mode) -> Vec<Program> {
    // One cache per enumerated program: both move generators need the
    // same CfgView, which is now built once instead of twice.
    let mut cache = AnalysisCache::new();
    let mut out = Vec::new();
    single_eliminations(prog, &mut cache, mode, &mut out);
    sinking_moves(prog, &mut cache, &mut out);
    out
}

fn single_eliminations(
    prog: &Program,
    cache: &mut AnalysisCache,
    mode: Mode,
    out: &mut Vec<Program>,
) {
    let mut run = Run::new(prog);
    let analysis = ElimAnalysis::get(prog, cache, &mut run, mode);
    for (n, doomed) in run.rows.plan(prog, &run.edits, &analysis, prog.node_ids()) {
        for k in doomed {
            let mut next = prog.clone();
            next.block_mut(n).stmts.remove(k);
            out.push(next);
        }
    }
}

fn sinking_moves(prog: &Program, cache: &mut AnalysisCache, out: &mut Vec<Program>) {
    let view = cache.cfg(prog);
    let table = cache.analysis::<PatternTable, _>(prog, |p, _| PatternTable::build(p));
    if table.is_empty() {
        return;
    }
    let local = LocalInfo::compute(prog, &table);

    // Branch moves.
    for n in prog.node_ids() {
        let succs = view.succs(n).to_vec();
        if succs.is_empty() {
            continue;
        }
        let movable = succs
            .iter()
            .all(|&m| view.preds(m) == [n] && m != prog.entry());
        if !movable {
            continue;
        }
        for &(k, p) in local.candidates_of(n) {
            let (lhs, rhs) = table.pattern(p);
            let mut next = prog.clone();
            next.block_mut(n).stmts.remove(k);
            for &m in &succs {
                next.block_mut(m).stmts.insert(0, Stmt::Assign { lhs, rhs });
            }
            out.push(next);
        }
    }

    // Join moves (m-to-n sinking).
    for m in prog.node_ids() {
        let preds = view.preds(m).to_vec();
        if preds.is_empty() || preds.contains(&m) {
            continue;
        }
        if !preds.iter().all(|&p| view.succs(p).len() == 1) {
            continue;
        }
        // Patterns with a candidate in every predecessor.
        let mut by_pattern: HashMap<usize, Vec<(NodeId, usize)>> = HashMap::new();
        for &p in &preds {
            for &(k, pat) in local.candidates_of(p) {
                by_pattern.entry(pat).or_default().push((p, k));
            }
        }
        for (pat, sites) in by_pattern {
            if sites.len() != preds.len() {
                continue;
            }
            let (lhs, rhs) = table.pattern(pat);
            let mut next = prog.clone();
            for &(p, k) in &sites {
                next.block_mut(p).stmts.remove(k);
            }
            next.block_mut(m).stmts.insert(0, Stmt::Assign { lhs, rhs });
            out.push(next);
        }
    }
}

/// A universe program that beats the driver's output on some path.
#[derive(Debug)]
pub struct OptimalityViolation {
    /// The competitor program (canonical form).
    pub competitor: String,
    /// Paths/pattern counts where the competitor wins.
    pub report: crate::better::DominanceReport,
}

/// Summary of a successful optimality check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniverseCheck {
    /// Number of competitor programs compared.
    pub programs_checked: usize,
    /// Whether the exploration hit its cap.
    pub truncated: bool,
}

/// Verifies Theorem 5.2 by brute force: the driver's `optimized` output
/// must dominate every program in the bounded universe of `start`.
///
/// `start` must be the *split* program the driver actually optimized.
///
/// # Errors
///
/// Returns the first competitor that the output fails to dominate.
pub fn assert_optimal_on_universe(
    start: &Program,
    optimized: &Program,
    opts: &UniverseOptions,
) -> Result<UniverseCheck, Box<OptimalityViolation>> {
    let universe = explore(start, opts);
    for competitor in &universe.programs {
        let report = is_better(optimized, competitor, &opts.better);
        if !report.holds() {
            return Err(Box::new(OptimalityViolation {
                competitor: canonical_string(competitor),
                report,
            }));
        }
    }
    Ok(UniverseCheck {
        programs_checked: universe.programs.len(),
        truncated: universe.truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{optimize, PdceConfig};
    use pdce_ir::edgesplit::split_critical_edges;
    use pdce_ir::parser::parse;

    fn check_optimal(src: &str, mode: Mode) -> UniverseCheck {
        let mut start = parse(src).unwrap();
        split_critical_edges(&mut start);
        let mut optimized = start.clone();
        let config = match mode {
            Mode::Dead => PdceConfig::pde(),
            Mode::Faint => PdceConfig::pfe(),
        };
        optimize(&mut optimized, &config).unwrap();
        let opts = UniverseOptions {
            mode,
            ..UniverseOptions::default()
        };
        match assert_optimal_on_universe(&start, &optimized, &opts) {
            Ok(check) => check,
            Err(v) => panic!(
                "pde output is not optimal; beaten by:\n{}\nviolations: {:#?}",
                v.competitor, v.report.violations
            ),
        }
    }

    #[test]
    fn fig1_output_is_optimal_in_bounded_universe() {
        let check = check_optimal(
            "prog {
               block s  { goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { out(y); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
            Mode::Dead,
        );
        assert!(check.programs_checked > 1);
        assert!(!check.truncated);
    }

    #[test]
    fn straight_line_dead_chain_optimal() {
        check_optimal(
            "prog {
               block s { a := 1; b := a + 1; out(b); goto e }
               block e { halt }
             }",
            Mode::Dead,
        );
    }

    #[test]
    fn diamond_with_one_sided_use_optimal() {
        check_optimal(
            "prog {
               block s { x := a + b; nondet l r }
               block l { out(x); goto j }
               block r { goto j }
               block j { out(a); goto e }
               block e { halt }
             }",
            Mode::Dead,
        );
    }

    #[test]
    fn faint_universe_check() {
        check_optimal(
            "prog {
               block s { x := 1; y := x; out(2); goto e }
               block e { halt }
             }",
            Mode::Faint,
        );
    }

    #[test]
    fn explore_finds_branch_and_join_moves() {
        // Figure 7 shape: both arms end with the candidate; the join move
        // must produce the merged program.
        let p = parse(
            "prog {
               block s  { nondet n1 n2 }
               block n1 { a := a + 1; goto n3 }
               block n2 { a := a + 1; goto n3 }
               block n3 { out(a); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        let res = explore(&p, &UniverseOptions::default());
        let merged = parse(
            "prog {
               block s  { nondet n1 n2 }
               block n1 { goto n3 }
               block n2 { goto n3 }
               block n3 { a := a + 1; out(a); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        let key = canonical_string(&merged);
        assert!(
            res.programs.iter().any(|q| canonical_string(q) == key),
            "join move missing; universe size {}",
            res.programs.len()
        );
    }

    #[test]
    fn exploration_cap_reports_truncation() {
        let p = parse(
            "prog {
               block s { a := 1; b := 2; c := 3; d := 4; goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let res = explore(
            &p,
            &UniverseOptions {
                max_programs: 3,
                ..UniverseOptions::default()
            },
        );
        assert!(res.truncated);
        assert_eq!(res.programs.len(), 3);
    }
}
