//! The global algorithm (Section 5.1): repeat dead/faint code
//! elimination and assignment sinking until the program stabilizes.
//!
//! * `pde` = `{dce, ask}` exhaustively (Theorem 5.2.1: optimal in
//!   `G_PDE`),
//! * `pfe` = `{fce, ask}` exhaustively (Theorem 5.2.2: optimal in
//!   `G_PFE`).
//!
//! Critical edges are split up front (Section 2.1). Each global round
//! first drives the elimination step to its own fixpoint and then
//! applies one sinking pass; the loop ends when a full round leaves the
//! program structurally unchanged. `dce` repeats its pass until one
//! removes nothing, capturing the elimination–elimination effects of
//! Figure 12. `fce` runs one pass per round: faint elimination has no
//! such effect (Section 4.4), since removing assignments that are faint
//! after them leaves the faint solution of the rest unchanged, so a
//! second pass could only certify that nothing is left (the argument is
//! in [`eliminate_fixpoint_cached`]'s documentation). Termination is guaranteed by the paper's
//! fixpoint argument (Theorem 3.7); a defensive round cap derived from
//! the Section 6.3 bound (`r ≤ i·b`) turns any implementation bug into an
//! error instead of an endless loop.

use std::error::Error;
use std::fmt;

use pdce_dfa::{AnalysisCache, CacheStats};
use pdce_ir::edgesplit::split_critical_edges;
use pdce_ir::Program;
use pdce_trace::budget::{self, Budget, BudgetExhausted};
use pdce_trace::sandbox::{self, SandboxError};
use pdce_trace::{fault, SolverStats};

use crate::elim::{eliminate_fixpoint_cached, Mode};
use crate::patterns::PatternTable;
use crate::sink::{sink_with_table, CriticalEdgeError};
use crate::tv;

/// Registry handles for the driver/resilience counter families. The
/// degradation counter is labelled by the rung degraded *to* and
/// registered on first use (degradations are rare, so the registration
/// lock is off the hot path by construction).
mod resilience_metrics {
    use pdce_metrics::{global, Counter, Stability};
    use std::sync::{Arc, LazyLock};

    fn counter(name: &'static str, help: &'static str) -> Arc<Counter> {
        global().counter(name, help, Stability::Deterministic, &[])
    }

    pub static ROUNDS: LazyLock<Arc<Counter>> =
        LazyLock::new(|| counter("pdce_rounds_total", "Global optimization rounds executed"));
    pub static TV_CHECKS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_tv_checks_total",
            "Translation-validation round checks",
        )
    });
    pub static TV_ROLLBACKS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_tv_rollbacks_total",
            "Rounds rolled back by translation validation",
        )
    });
    pub static ROLLBACKS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_rollbacks_total",
            "Program snapshots restored after a failed round or rung",
        )
    });
    pub static BUDGET_EXHAUSTIONS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_budget_exhaustions_total",
            "Attempts stopped by a resource budget",
        )
    });

    pub fn degraded_to(rung: &'static str) -> Arc<Counter> {
        global().counter(
            "pdce_degradations_total",
            "Resilience-ladder degradations by destination rung",
            Stability::Deterministic,
            &[("to", rung)],
        )
    }

    pub fn driver_run(driver: &'static str) -> Arc<Counter> {
        global().counter(
            "pdce_driver_runs_total",
            "Driver invocations by mode",
            Stability::Deterministic,
            &[("driver", driver)],
        )
    }
}

/// What to do when the global round cap is reached (the paper's
/// Section 7 suggests "simply cutting the global iteration process
/// after ... a fixed number of iterations" as a practical heuristic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitBehavior {
    /// Treat hitting the cap as a bug (the default: Theorem 3.7 proves
    /// termination, so a correct implementation never needs the cap).
    Error,
    /// Stop gracefully and return the partial result, which is still
    /// semantics-preserving and better than the input (every
    /// intermediate program of the iteration is).
    Truncate,
}

/// Configuration of the optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdceConfig {
    /// Elimination mode: dead (`pde`) or faint (`pfe`).
    pub mode: Mode,
    /// Whether assignment sinking runs at all. With sinking disabled the
    /// driver degenerates to classic (iterated) dead/faint code
    /// elimination — the paper's baseline.
    pub sinking: bool,
    /// Override for the global round cap; `None` uses `4 + i·b` from the
    /// paper's Section 6.3 estimate.
    pub max_rounds: Option<usize>,
    /// Behaviour at the round cap.
    pub on_limit: LimitBehavior,
    /// Section 7's "hot areas" heuristic: restrict candidate collection
    /// and elimination to the named blocks (by block name, so a config
    /// is program-independent). Insertions may land at region-boundary
    /// entries; blocks outside the region are otherwise untouched.
    pub region: Option<std::collections::BTreeSet<String>>,
    /// Work budget for this run: rounds and wall time are checked in
    /// the round loop, worklist pops inside the dfa solvers. Exhaustion
    /// surfaces as [`PdceError::BudgetExhausted`] (round/wall checks)
    /// or as an unwind out of an in-flight solve that
    /// [`optimize_resilient`] converts into ladder degradation.
    pub budget: Budget,
    /// Translation validation: `Some(k)` re-executes the pre- and
    /// post-round programs on `k` seeded input vectors after every
    /// round and rolls the round back on an observable mismatch.
    /// `None` (and `Some(0)`) means off.
    pub validate: Option<u32>,
}

impl PdceConfig {
    /// Restricts optimization effort to the named blocks.
    pub fn with_region<I, S>(mut self, blocks: I) -> PdceConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.region = Some(blocks.into_iter().map(Into::into).collect());
        self
    }

    /// Caps the global iteration at `rounds`, truncating gracefully.
    pub fn truncating_after(mut self, rounds: usize) -> PdceConfig {
        self.max_rounds = Some(rounds);
        self.on_limit = LimitBehavior::Truncate;
        self
    }

    /// Sets the work budget for the run.
    pub fn with_budget(mut self, budget: Budget) -> PdceConfig {
        self.budget = budget;
        self
    }

    /// Enables per-round translation validation on `k` seeded vectors.
    pub fn with_validation(mut self, k: u32) -> PdceConfig {
        self.validate = Some(k);
        self
    }

    /// The effective translation-validation vector count (`0` is off).
    pub fn tv_vectors(&self) -> u32 {
        self.validate.unwrap_or(0)
    }

    /// The default global round cap for `prog` when [`max_rounds`] is
    /// unset: `4 + i·b` from the paper's Section 6.3 estimate (`r ≤ i·b`,
    /// plus slack for the certifying no-change rounds), with both factors
    /// clamped to at least 1 so even an empty program gets a few rounds.
    ///
    /// [`max_rounds`]: PdceConfig::max_rounds
    pub fn default_round_cap(prog: &Program) -> usize {
        4 + prog.num_stmts().max(1) * prog.num_blocks().max(1)
    }
}

impl PdceConfig {
    /// Partial dead code elimination (the paper's `pde`).
    pub fn pde() -> PdceConfig {
        PdceConfig {
            mode: Mode::Dead,
            sinking: true,
            max_rounds: None,
            on_limit: LimitBehavior::Error,
            region: None,
            budget: Budget::UNLIMITED,
            validate: None,
        }
    }

    /// Partial faint code elimination (the paper's `pfe`).
    pub fn pfe() -> PdceConfig {
        PdceConfig {
            mode: Mode::Faint,
            ..PdceConfig::pde()
        }
    }

    /// Plain iterated dead code elimination (no sinking).
    pub fn dce_only() -> PdceConfig {
        PdceConfig {
            sinking: false,
            ..PdceConfig::pde()
        }
    }

    /// Plain iterated faint code elimination (no sinking).
    pub fn fce_only() -> PdceConfig {
        PdceConfig {
            mode: Mode::Faint,
            sinking: false,
            ..PdceConfig::pde()
        }
    }
}

/// Statistics of one optimizer run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PdceStats {
    /// Global rounds executed (the paper's `r`), including the final
    /// no-change round that certifies stability.
    pub rounds: u64,
    /// Elimination passes that removed at least one assignment.
    pub elimination_passes: u64,
    /// Assignments removed by dead/faint code elimination.
    pub eliminated_assignments: u64,
    /// Sinking candidates removed by `ask`.
    pub sunk_assignments: u64,
    /// Pattern instances inserted by `ask`.
    pub inserted_assignments: u64,
    /// Synthetic blocks added by critical-edge splitting.
    pub synthetic_blocks: u64,
    /// Statement count before optimization (after edge splitting).
    pub initial_stmts: u64,
    /// Statement count after optimization.
    pub final_stmts: u64,
    /// Peak statement count during optimization (the paper's code-growth
    /// factor `ω` is `max_stmts / initial_stmts`).
    pub max_stmts: u64,
    /// Whether the run stopped at the round cap (only with
    /// [`LimitBehavior::Truncate`]).
    pub truncated: bool,
    /// Analysis-cache hit/miss counters for this run. Each global round
    /// needs the `CfgView` many times (every elimination pass, the
    /// sinking pass); with the cache it is built at most once per round
    /// — `cache.cfg_hits` counts the avoided rebuilds.
    pub cache: CacheStats,
    /// Data-flow solver telemetry for this run: problems solved,
    /// worklist pops/evaluations, revisits, sweeps to fixpoint, and
    /// bit-vector word operations (deterministic for a fixed input).
    pub solver: SolverStats,
    /// Snapshot restores: failed ladder rungs plus translation-
    /// validation round rollbacks.
    pub rollbacks: u64,
    /// Ladder steps taken by [`optimize_resilient`] (0 = the configured
    /// run succeeded as-is).
    pub degradations: u64,
    /// Translation-validation checks executed (one per round when
    /// validation is enabled).
    pub tv_checks: u64,
    /// Rounds rolled back because translation validation observed a
    /// semantic difference.
    pub tv_rollbacks: u64,
    /// Budget-exhaustion events (round/wall checks and solver-pop
    /// unwinds, including injected `budget:` faults).
    pub budget_exhaustions: u64,
    /// Where on the degradation ladder the result came from; `None`
    /// for a normal, undegraded run.
    pub degraded: Option<DegradedMode>,
    /// Human-readable record of every recovered failure, in order.
    pub failure_log: Vec<String>,
}

/// The documented degradation ladder of [`optimize_resilient`]: each
/// failed attempt falls one rung, trading optimization strength for
/// robustness until the identity rung cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Sinking disabled: pde→dce-only / pfe→fce-only.
    EliminationOnly,
    /// Nothing worked: the input program is returned verbatim.
    Identity,
}

impl DegradedMode {
    /// Stable label used by `--stats`, traces, and BENCH_PDE.json.
    pub fn label(self) -> &'static str {
        match self {
            DegradedMode::EliminationOnly => "elimination-only",
            DegradedMode::Identity => "identity",
        }
    }
}

impl PdceStats {
    /// The code growth factor `ω` (Section 6.2): peak size over initial
    /// size. `1.0` for empty programs.
    pub fn growth_factor(&self) -> f64 {
        if self.initial_stmts == 0 {
            1.0
        } else {
            self.max_stmts as f64 / self.initial_stmts as f64
        }
    }
}

/// Optimization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdceError {
    /// The global loop exceeded its round cap — would indicate an
    /// implementation bug, since the paper proves termination.
    RoundLimitExceeded {
        /// Rounds executed before giving up.
        rounds: u64,
    },
    /// The configured [`Budget`] ran out between rounds.
    BudgetExhausted(BudgetExhausted),
}

impl fmt::Display for PdceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdceError::RoundLimitExceeded { rounds } => {
                write!(f, "optimizer did not stabilize within {rounds} rounds")
            }
            PdceError::BudgetExhausted(b) => write!(f, "{b}"),
        }
    }
}

impl Error for PdceError {}

impl From<CriticalEdgeError> for PdceError {
    fn from(_: CriticalEdgeError) -> PdceError {
        // Unreachable: the driver splits critical edges before sinking.
        PdceError::RoundLimitExceeded { rounds: 0 }
    }
}

/// Runs the configured optimizer on `prog` in place.
///
/// Critical edges are split first (when sinking is enabled), so the
/// block set of the result is the block set of the *split* program.
///
/// # Errors
///
/// [`PdceError::RoundLimitExceeded`] if the program fails to stabilize
/// within the round cap (which the paper's Theorem 3.7 rules out for a
/// correct implementation).
pub fn optimize(prog: &mut Program, config: &PdceConfig) -> Result<PdceStats, PdceError> {
    optimize_with_cache(prog, config, &mut AnalysisCache::new())
}

/// [`optimize`] sharing analyses through a caller-provided
/// [`AnalysisCache`], the driver's integration point with the pass
/// manager: one `CfgView` (and one dead/faint solution, where the
/// program allows it) is shared across all elimination passes and the
/// sinking pass of a round instead of being rebuilt per transform.
/// Stability is detected through [`Program::revision`] — a round that
/// performs no mutation ends the loop — which both transforms guarantee
/// by never writing back unchanged statement lists. With sinking on, one
/// [`PatternTable`] of the split input serves every round's `ask`.
///
/// # Errors
///
/// See [`optimize`].
pub fn optimize_with_cache(
    prog: &mut Program,
    config: &PdceConfig,
    cache: &mut AnalysisCache,
) -> Result<PdceStats, PdceError> {
    let cache_baseline = cache.stats();
    let solver_baseline = pdce_trace::solver_totals();
    let driver_name = match (config.mode, config.sinking) {
        (Mode::Dead, true) => "pde",
        (Mode::Faint, true) => "pfe",
        (Mode::Dead, false) => "dce",
        (Mode::Faint, false) => "fce",
    };
    let driver_span = pdce_trace::span("driver", driver_name);
    resilience_metrics::driver_run(driver_name).inc();
    let _budget = budget::install(config.budget);
    let tv_vectors = config.tv_vectors();
    let mut stats = PdceStats::default();
    if config.sinking {
        stats.synthetic_blocks = split_critical_edges(prog).len() as u64;
    }
    // Elimination removes patterns and sinking re-inserts existing ones,
    // so the split input's table indexes every round's patterns: build it
    // once and pin it for the run.
    let table = config.sinking.then(|| PatternTable::build(prog));
    stats.initial_stmts = prog.num_stmts() as u64;
    stats.max_stmts = stats.initial_stmts;

    let cap = config
        .max_rounds
        .unwrap_or_else(|| PdceConfig::default_round_cap(prog));

    // Resolve the hot region (if any) to a dense block mask.
    let region_mask: Option<Vec<bool>> = config.region.as_ref().map(|names| {
        prog.node_ids()
            .map(|n| names.contains(&prog.block(n).name))
            .collect()
    });
    let region = region_mask.as_deref();

    loop {
        stats.rounds += 1;
        resilience_metrics::ROUNDS.inc();
        if stats.rounds as usize > cap {
            match config.on_limit {
                LimitBehavior::Error => {
                    return Err(PdceError::RoundLimitExceeded {
                        rounds: stats.rounds,
                    });
                }
                LimitBehavior::Truncate => {
                    stats.rounds -= 1;
                    stats.truncated = true;
                    break;
                }
            }
        }
        if let Err(e) = budget::charge_round() {
            stats.budget_exhaustions += 1;
            resilience_metrics::BUDGET_EXHAUSTIONS.inc();
            pdce_trace::instant(
                "resilience",
                "budget-exhausted",
                if pdce_trace::enabled() {
                    vec![("resource", e.resource.into()), ("spent", e.spent.into())]
                } else {
                    Vec::new()
                },
            );
            return Err(PdceError::BudgetExhausted(e));
        }
        let before = prog.revision();
        let _round = pdce_trace::round_scope(stats.rounds);
        // Pre-round snapshot: translation validation compares against
        // it and rolls back to it on a mismatch.
        let last_good = (tv_vectors > 0).then(|| prog.clone());

        fault::fire(match config.mode {
            Mode::Dead => "dce",
            Mode::Faint => "fce",
        });
        let (removed, passes) = eliminate_fixpoint_cached(prog, cache, config.mode, region);
        stats.eliminated_assignments += removed;
        stats.elimination_passes += passes;

        if let Some(table) = &table {
            fault::fire("sink");
            let outcome = sink_with_table(prog, cache, table, region)?;
            stats.sunk_assignments += outcome.removed;
            stats.inserted_assignments += outcome.inserted;
            stats.max_stmts = stats.max_stmts.max(prog.num_stmts() as u64);
        }

        // A round that changed nothing cannot have miscompiled; only
        // validate rounds that touched the program.
        if let Some(last_good) = last_good.filter(|_| prog.revision() != before) {
            stats.tv_checks += 1;
            resilience_metrics::TV_CHECKS.inc();
            let opts = tv::TvOptions {
                vectors: tv_vectors,
                // Bound per-vector interpretation relative to program
                // size: a truncated pair still compares its executed
                // prefix, and the validation tax stays proportional to
                // the optimization work.
                max_block_visits: (last_good.num_blocks() as u64 * 8).max(256),
                ..tv::TvOptions::default()
            };
            let report = tv::validate_pair(&last_good, prog, &opts);
            if let Some(mismatch) = report.mismatch {
                *prog = last_good;
                // Analyses computed for the rolled-back intermediate
                // states must not leak into later queries.
                *cache = AnalysisCache::new();
                stats.tv_rollbacks += 1;
                stats.rollbacks += 1;
                resilience_metrics::TV_ROLLBACKS.inc();
                resilience_metrics::ROLLBACKS.inc();
                stats.failure_log.push(mismatch.to_string());
                pdce_trace::instant(
                    "resilience",
                    "tv-rollback",
                    if pdce_trace::enabled() {
                        vec![
                            ("round", stats.rounds.into()),
                            ("vector", u64::from(mismatch.vector).into()),
                        ]
                    } else {
                        Vec::new()
                    },
                );
                // Re-running the round would reproduce the miscompile;
                // stop here and keep the last-good program.
                break;
            }
        }

        if prog.revision() == before {
            break;
        }
    }
    stats.final_stmts = prog.num_stmts() as u64;
    stats.cache = cache.stats().since(&cache_baseline);
    stats.solver = pdce_trace::solver_totals().since(&solver_baseline);
    driver_span.finish_with(if pdce_trace::enabled() {
        vec![
            ("rounds", stats.rounds.into()),
            ("eliminated", stats.eliminated_assignments.into()),
            ("sunk", stats.sunk_assignments.into()),
            ("inserted", stats.inserted_assignments.into()),
            // Cache telemetry on the span keeps `--trace` output and the
            // metrics registry in agreement (checked by the chrome parity
            // test in tests/observability.rs).
            ("cfg_cache_hits", stats.cache.cfg_hits.into()),
            ("cfg_relayouts", stats.cache.cfg_relayouts.into()),
        ]
    } else {
        Vec::new()
    });
    Ok(stats)
}

/// Convenience: partial dead code elimination in place.
///
/// # Errors
///
/// See [`optimize`].
pub fn pde(prog: &mut Program) -> Result<PdceStats, PdceError> {
    optimize(prog, &PdceConfig::pde())
}

/// Convenience: partial faint code elimination in place.
///
/// # Errors
///
/// See [`optimize`].
pub fn pfe(prog: &mut Program) -> Result<PdceStats, PdceError> {
    optimize(prog, &PdceConfig::pfe())
}

/// Fault-tolerant front door: runs the configured optimizer inside a
/// panic sandbox and, when an attempt fails (panic, budget exhaustion,
/// round-cap bug), restores the input snapshot and retries one rung
/// further down the **degradation ladder**:
///
/// 1. the run as configured,
/// 2. [`DegradedMode::EliminationOnly`] — no sinking (pde degrades to
///    dce-only, pfe to fce-only),
/// 3. [`DegradedMode::Identity`] — the input program verbatim.
///
/// Never fails and never panics (modulo allocation failure): the
/// identity rung always succeeds. Every recovered failure is counted
/// in [`PdceStats::degradations`]/[`PdceStats::rollbacks`] and logged
/// in [`PdceStats::failure_log`]; the winning rung is recorded in
/// [`PdceStats::degraded`]. Each rung gets the configured budget
/// afresh (wall clock included) — a budget sized for the full run
/// therefore bounds each attempt, not their sum.
pub fn optimize_resilient(prog: &mut Program, config: &PdceConfig) -> PdceStats {
    let mut degradations = 0u64;
    let mut rollbacks = 0u64;
    let mut budget_exhaustions = 0u64;
    let mut failure_log: Vec<String> = Vec::new();

    for rung in [None, Some(DegradedMode::EliminationOnly)] {
        let mut attempt = prog.clone();
        let mut cache = AnalysisCache::new();
        let rung_config = PdceConfig {
            sinking: config.sinking && rung.is_none(),
            ..config.clone()
        };
        let outcome =
            sandbox::catch(|| optimize_with_cache(&mut attempt, &rung_config, &mut cache));
        let failure = match outcome {
            Ok(Ok(mut stats)) => {
                *prog = attempt;
                stats.degradations += degradations;
                stats.rollbacks += rollbacks;
                stats.budget_exhaustions += budget_exhaustions;
                failure_log.extend(std::mem::take(&mut stats.failure_log));
                stats.failure_log = failure_log;
                stats.degraded = rung;
                return stats;
            }
            Ok(Err(e)) => {
                if matches!(e, PdceError::BudgetExhausted(_)) {
                    // Already counted in the registry by the inner
                    // `charge_round` site; only the attempt-local stat
                    // moves here.
                    budget_exhaustions += 1;
                }
                e.to_string()
            }
            Err(SandboxError::Budget(b)) => {
                budget_exhaustions += 1;
                resilience_metrics::BUDGET_EXHAUSTIONS.inc();
                b.to_string()
            }
            Err(SandboxError::Panic(msg)) => format!("panic: {msg}"),
        };
        // `attempt` (possibly half-transformed) is discarded; `prog`
        // still holds the pristine input — that *is* the rollback.
        degradations += 1;
        rollbacks += 1;
        resilience_metrics::ROLLBACKS.inc();
        let next = match rung {
            None => DegradedMode::EliminationOnly,
            Some(_) => DegradedMode::Identity,
        };
        resilience_metrics::degraded_to(next.label()).inc();
        failure_log.push(format!(
            "{} failed ({failure}); degrading to {}",
            rung.map_or("configured run", DegradedMode::label),
            next.label()
        ));
        pdce_trace::instant(
            "resilience",
            "degrade",
            if pdce_trace::enabled() {
                vec![("to", next.label().into())]
            } else {
                Vec::new()
            },
        );
    }

    // Identity rung: the input program verbatim, flagged as such.
    let stmts = prog.num_stmts() as u64;
    PdceStats {
        initial_stmts: stmts,
        final_stmts: stmts,
        max_stmts: stmts,
        degradations,
        rollbacks,
        budget_exhaustions,
        degraded: Some(DegradedMode::Identity),
        failure_log,
        ..PdceStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;
    use pdce_ir::printer::{diff, structural_eq};

    fn run(config: &PdceConfig, src: &str) -> (Program, PdceStats) {
        let mut p = parse(src).unwrap();
        let stats = optimize(&mut p, config).unwrap();
        (p, stats)
    }

    fn expect(got: &Program, want_src: &str) {
        let want = parse(want_src).unwrap();
        assert!(structural_eq(got, &want), "mismatch:\n{}", diff(got, &want));
    }

    /// The §6.3 default round cap is `4 + i·b`, clamped so even a
    /// statement-free program gets a few certifying rounds.
    #[test]
    fn default_round_cap_formula() {
        let p = parse(
            "prog {
               block s { x := 1; y := 2; out(y); goto m }
               block m { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert_eq!(p.num_stmts(), 3);
        assert_eq!(p.num_blocks(), 3);
        assert_eq!(PdceConfig::default_round_cap(&p), 4 + 3 * 3);

        let empty = parse("prog { block s { goto e } block e { halt } }").unwrap();
        assert_eq!(PdceConfig::default_round_cap(&empty), 4 + 2);
    }

    /// Figures 1 → 2: the motivating example end to end.
    #[test]
    fn fig1_to_fig2() {
        let (got, stats) = run(
            &PdceConfig::pde(),
            "prog {
               block s  { goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { out(y); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        );
        expect(
            &got,
            "prog {
               block s  { goto n1 }
               block n1 { nondet n2 n3 }
               block n2 { y := a + b; out(y); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        );
        assert_eq!(stats.eliminated_assignments, 1); // the copy at n3
        assert!(stats.sunk_assignments >= 1);
        assert_eq!(stats.synthetic_blocks, 0);
    }

    /// The loop case completed: sinking moves the header assignment to
    /// the synthetic repeat block and the exit; dce then removes the
    /// repeat-block copy (it is dead — x is recomputed at the exit).
    #[test]
    fn loop_invariant_assignment_fully_leaves_loop() {
        let (got, _stats) = run(
            &PdceConfig::pde(),
            "prog {
               block s { goto h }
               block h { x := a + b; nondet h after }
               block after { out(x); goto e }
               block e { halt }
             }",
        );
        expect(
            &got,
            "prog {
               block s { goto h }
               block h { nondet S_h_h after }
               block S_h_h { goto h }
               block after { x := a + b; out(x); goto e }
               block e { halt }
             }",
        );
    }

    /// dce-only (no sinking) cannot touch the partially dead assignment.
    #[test]
    fn dce_only_is_strictly_weaker() {
        let src = "prog {
            block s  { goto n1 }
            block n1 { y := a + b; nondet n2 n3 }
            block n2 { out(y); goto n4 }
            block n3 { y := 4; goto n4 }
            block n4 { out(y); goto e }
            block e  { halt }
        }";
        let (got, stats) = run(&PdceConfig::dce_only(), src);
        expect(&got, src);
        assert_eq!(stats.eliminated_assignments, 0);
    }

    /// pfe subsumes pde: on Figure 9 the faint loop increment disappears.
    #[test]
    fn pfe_removes_faint_loop_increment() {
        let src = "prog {
            block s { goto l }
            block l { x := x + 1; nondet l d }
            block d { goto e }
            block e { halt }
        }";
        let (got_pde, _) = run(&PdceConfig::pde(), src);
        assert_eq!(got_pde.num_assignments(), 1, "pde cannot remove it");
        let (got_pfe, stats) = run(&PdceConfig::pfe(), src);
        assert_eq!(got_pfe.num_assignments(), 0);
        assert_eq!(stats.eliminated_assignments, 1);
    }

    /// Idempotence: running pde on its own output changes nothing.
    #[test]
    fn pde_is_idempotent() {
        let src = "prog {
            block s  { goto n1 }
            block n1 { y := a + b; x := y + 1; nondet n2 n3 }
            block n2 { out(x); goto n4 }
            block n3 { y := 4; out(y); goto n4 }
            block n4 { nondet n1 e }
            block e  { halt }
        }";
        let mut p = parse(src).unwrap();
        optimize(&mut p, &PdceConfig::pde()).unwrap();
        let once = pdce_ir::printer::canonical_string(&p);
        let stats = optimize(&mut p, &PdceConfig::pde()).unwrap();
        assert_eq!(pdce_ir::printer::canonical_string(&p), once);
        assert_eq!(stats.eliminated_assignments, 0);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn stats_track_sizes_and_growth() {
        let (_got, stats) = run(
            &PdceConfig::pde(),
            "prog {
               block s  { goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { out(y); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        );
        assert_eq!(stats.initial_stmts, 4);
        // After sinking, copies exist on both arms (5 statements) before
        // dce removes the dead one: ω = 5/4 transiently.
        assert_eq!(stats.max_stmts, 5);
        assert!(stats.growth_factor() > 1.0);
        assert_eq!(stats.final_stmts, 4);
    }

    #[test]
    fn trivial_program_one_round() {
        let (got, stats) = run(
            &PdceConfig::pde(),
            "prog { block s { out(1); goto e } block e { halt } }",
        );
        assert_eq!(stats.rounds, 1);
        assert_eq!(got.num_stmts(), 1);
    }

    /// Regression: an input may carry unreachable blocks (branch
    /// folding leaves them until simplify_cfg runs). The solvers never
    /// evaluate such blocks, so their optimistic initial state must not
    /// feed the transformations — this used to diverge (the program grew
    /// by two statements per round inside the unreachable block).
    #[test]
    fn unreachable_blocks_do_not_diverge() {
        let mut p = pdce_ir::parser::parse_unvalidated(
            "prog {
               block s { goto a }
               block a { out(v); goto e }
               block zombie { x := v * 2; v := 5 * x; goto a }
               block e { halt }
             }",
        )
        .unwrap();
        let stats = optimize(&mut p, &PdceConfig::pfe()).unwrap();
        assert!(stats.rounds <= 2, "diverged: {} rounds", stats.rounds);
        // The unreachable block is left untouched.
        let zombie = p.block_by_name("zombie").unwrap();
        assert_eq!(p.block(zombie).stmts.len(), 2);
    }

    const FIG1: &str = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { out(y); goto n4 }
        block n3 { y := 4; goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";

    #[test]
    fn round_budget_surfaces_as_error() {
        let mut p = parse(FIG1).unwrap();
        let config = PdceConfig::pde().with_budget(Budget {
            max_rounds: Some(0),
            ..Budget::UNLIMITED
        });
        let err = optimize(&mut p, &config).unwrap_err();
        assert!(matches!(err, PdceError::BudgetExhausted(ref b) if b.resource == "rounds"));
    }

    #[test]
    fn pop_budget_degrades_to_identity() {
        let mut p = parse(FIG1).unwrap();
        let original = pdce_ir::printer::canonical_string(&p);
        let config = PdceConfig::pde().with_budget(Budget {
            max_pops: Some(1),
            ..Budget::UNLIMITED
        });
        let stats = optimize_resilient(&mut p, &config);
        // Both solving rungs still solve data-flow problems, so each
        // exhausts one pop: the prediction is identity.
        assert_eq!(stats.degraded, Some(DegradedMode::Identity));
        assert_eq!(stats.budget_exhaustions, 2);
        assert_eq!(stats.degradations, 2);
        assert_eq!(pdce_ir::printer::canonical_string(&p), original);
    }

    /// Faint's block-worklist pops count against `max_pops` like every
    /// other solve: on Figure 1, pfe fits a budget of exactly its
    /// unlimited run's pops, and one pop fewer exhausts the configured
    /// run so the ladder degrades.
    #[test]
    fn pop_budget_bounds_the_faint_worklist() {
        let unlimited = run(&PdceConfig::pfe(), FIG1).1;
        assert!(unlimited.solver.priority_pops > 0, "faint ran the worklist");
        let with_pops = |max_pops: u64| {
            let config = PdceConfig::pfe().with_budget(Budget {
                max_pops: Some(max_pops),
                ..Budget::UNLIMITED
            });
            let mut p = parse(FIG1).unwrap();
            optimize_resilient(&mut p, &config)
        };
        let fits = with_pops(unlimited.solver.pops());
        assert_eq!(fits.degraded, None, "{:?}", fits.failure_log);
        assert_eq!(fits.budget_exhaustions, 0);
        let short = with_pops(unlimited.solver.pops() - 1);
        assert!(short.degraded.is_some(), "{:?}", short.failure_log);
        assert!(short.budget_exhaustions >= 1);
        assert!(
            short.failure_log[0].starts_with("configured run failed (budget exhausted: pops"),
            "{:?}",
            short.failure_log
        );
    }

    /// pfe never asks the cache for the def-use chain graph: faint runs
    /// on the block worklist, and the graph is kept only for the
    /// benchmark's layer replica.
    #[test]
    fn pfe_builds_no_def_use_graph() {
        let stats = run(&PdceConfig::pfe(), FIG1).1;
        assert!(stats.cache.analysis_misses > 0, "{:?}", stats.cache);
        assert_eq!(
            (stats.cache.du_hits, stats.cache.du_misses),
            (0, 0),
            "{:?}",
            stats.cache
        );
    }

    /// A pde/pfe run builds one pattern table however many rounds it
    /// takes, and dce/fce build none. Every view the run builds is a
    /// cache miss, apart from the one critical-edge splitting builds.
    #[test]
    fn a_sinking_run_builds_one_pattern_table() {
        let src = "prog {
            block s { goto h }
            block h { x := a + b; y := x + 1; nondet h after }
            block after { out(x); goto e }
            block e { halt }
        }";
        for config in [
            PdceConfig::pde(),
            PdceConfig::pfe(),
            PdceConfig::dce_only(),
            PdceConfig::fce_only(),
        ] {
            let mut p = parse(src).unwrap();
            let tables = PatternTable::builds_on_this_thread();
            let views = pdce_ir::CfgView::builds_on_this_thread();
            let stats = optimize(&mut p, &config).unwrap();
            let sinking = u64::from(config.sinking);
            assert_eq!(PatternTable::builds_on_this_thread() - tables, sinking);
            assert_eq!(
                pdce_ir::CfgView::builds_on_this_thread() - views,
                stats.cache.cfg_misses + sinking,
                "{config:?}"
            );
            if config.sinking {
                assert!(stats.rounds >= 3, "{} rounds", stats.rounds);
            }
        }
    }

    #[test]
    fn persistent_sink_panic_degrades_to_elimination_only() {
        let (want, _) = run(&PdceConfig::dce_only(), FIG1);
        let mut p = parse(FIG1).unwrap();
        let stats = pdce_trace::fault::with_faults("panic:sink:*", || {
            optimize_resilient(&mut p, &PdceConfig::pde())
        });
        assert_eq!(stats.degraded, Some(DegradedMode::EliminationOnly));
        assert_eq!(stats.degradations, 1);
        assert_eq!(stats.rollbacks, 1);
        assert!(stats.failure_log.iter().any(|m| m.contains("sink")));
        // The ladder's prediction: pde without sinking is dce-only.
        assert_eq!(
            pdce_ir::printer::canonical_string(&p),
            pdce_ir::printer::canonical_string(&want)
        );
    }

    #[test]
    fn one_shot_panic_recovers_on_next_rung() {
        // The configured run consumes the fault; the next rung runs
        // without sinking, which is dce-only for pde.
        let (want, _) = run(&PdceConfig::dce_only(), FIG1);
        let mut p = parse(FIG1).unwrap();
        let stats = pdce_trace::fault::with_faults("panic:dce:1", || {
            optimize_resilient(&mut p, &PdceConfig::pde())
        });
        assert_eq!(stats.degraded, Some(DegradedMode::EliminationOnly));
        assert_eq!(stats.degradations, 1);
        assert_eq!(
            pdce_ir::printer::canonical_string(&p),
            pdce_ir::printer::canonical_string(&want)
        );
    }

    #[test]
    fn resilient_run_without_faults_is_undegraded() {
        let (want, want_stats) = run(&PdceConfig::pde(), FIG1);
        let mut p = parse(FIG1).unwrap();
        let stats = optimize_resilient(&mut p, &PdceConfig::pde());
        assert_eq!(stats.degraded, None);
        assert_eq!(stats.degradations, 0);
        assert_eq!(
            stats.eliminated_assignments,
            want_stats.eliminated_assignments
        );
        assert_eq!(
            pdce_ir::printer::canonical_string(&p),
            pdce_ir::printer::canonical_string(&want)
        );
    }

    #[test]
    fn tv_accepts_a_correct_run() {
        let (want, _) = run(&PdceConfig::pde(), FIG1);
        let mut p = parse(FIG1).unwrap();
        let stats = optimize(&mut p, &PdceConfig::pde().with_validation(4)).unwrap();
        assert!(stats.tv_checks >= 1);
        assert_eq!(stats.tv_rollbacks, 0);
        assert_eq!(
            pdce_ir::printer::canonical_string(&p),
            pdce_ir::printer::canonical_string(&want)
        );
    }

    #[test]
    fn tv_rolls_back_an_injected_miscompile() {
        let mut p = parse(FIG1).unwrap();
        let original = pdce_ir::printer::canonical_string(&p);
        let stats = pdce_trace::fault::with_faults("bitflip:dead:1", || {
            optimize(&mut p, &PdceConfig::pde().with_validation(8)).unwrap()
        });
        assert_eq!(stats.tv_rollbacks, 1);
        assert_eq!(stats.rollbacks, 1);
        assert!(stats
            .failure_log
            .iter()
            .any(|m| m.contains("translation validation failed")));
        // Rolled back to the pre-round program — the unoptimized input
        // (FIG1 has no critical edges, so no split blocks either).
        assert_eq!(pdce_ir::printer::canonical_string(&p), original);
    }

    #[test]
    fn tv_rollback_under_resilient_driver_keeps_last_good() {
        let mut p = parse(FIG1).unwrap();
        let original = pdce_ir::printer::canonical_string(&p);
        let stats = pdce_trace::fault::with_faults("bitflip:dead:1", || {
            optimize_resilient(&mut p, &PdceConfig::pde().with_validation(8))
        });
        // A TV rollback is a contained recovery, not a rung failure.
        assert_eq!(stats.degraded, None);
        assert_eq!(stats.tv_rollbacks, 1);
        assert_eq!(pdce_ir::printer::canonical_string(&p), original);
    }

    #[test]
    fn round_cap_is_respected() {
        let mut p = parse("prog { block s { x := 1; out(x); goto e } block e { halt } }").unwrap();
        // Cap of zero rounds: the very first round exceeds it.
        let err = optimize(
            &mut p,
            &PdceConfig {
                max_rounds: Some(0),
                ..PdceConfig::pde()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PdceError::RoundLimitExceeded { .. }));
    }
}
