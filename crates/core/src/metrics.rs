//! The optimizer's counter families, rendered from run statistics.
//!
//! [`PdceStats`] is the store of every count a run makes. [`RunTotals`]
//! sums runs and renders them for `pdce opt --metrics-out` (its files),
//! `pdce serve --metrics-out` (its computed answers) and `report` T4.

use std::collections::BTreeMap;

use pdce_trace::metrics::{CounterFamily, Snapshot, Stability};

use crate::driver::{DegradedMode, PdceConfig, PdceStats};

/// The optimizer's counter families, all deterministic: name, the key
/// of the one label its series carry (if any), and help text.
#[rustfmt::skip]
const FAMILIES: [(&str, Option<&str>, &str); 10] = [
    ("pdce_driver_runs_total", Some("driver"), "Driver invocations by mode"),
    ("pdce_degradations_total", Some("to"), "Resilience-ladder degradations by destination rung"),
    ("pdce_rounds_total", None, "Global optimization rounds executed"),
    ("pdce_tv_checks_total", None, "Translation-validation round checks"),
    ("pdce_tv_rollbacks_total", None, "Rounds rolled back by translation validation"),
    ("pdce_rollbacks_total", None, "Program snapshots restored after a failed round or rung"),
    ("pdce_budget_exhaustions_total", None, "Attempts stopped by a resource budget"),
    ("pdce_cache_events_total", Some("kind"), "AnalysisCache events by kind (hits, misses, relayouts)"),
    ("pdce_solver_pops_total", Some("strategy"), "Worklist pops by solver engine (one engine: the priority worklist)"),
    ("pdce_solver_word_ops_total", None, "Bit-vector word operations performed by solvers"),
];

/// Optimizer runs summed, as the non-zero series of the optimizer's
/// families keyed by (family, label value): what [`PdceStats`] counts,
/// plus the driver invocations and ladder degradations its `degraded`
/// rung implies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTotals(BTreeMap<(&'static str, &'static str), u64>);

impl RunTotals {
    /// One [`optimize_resilient`](crate::driver::optimize_resilient)
    /// run of `config` that returned `stats`. A degraded run ran the
    /// configured driver and then the elimination-only one, and an
    /// identity answer degraded twice. The rounds, cache events and
    /// solver work of failed attempts are not in `stats`, so not here.
    pub fn of(config: &PdceConfig, stats: &PdceStats) -> RunTotals {
        let fallback = PdceConfig {
            sinking: false,
            ..config.clone()
        };
        let degraded = u64::from(stats.degraded.is_some());
        let identity = u64::from(stats.degraded == Some(DegradedMode::Identity));
        let (c, s) = (&stats.cache, &stats.solver);
        #[rustfmt::skip]
        let series = [
            ("pdce_driver_runs_total", config.driver_name(), 1),
            ("pdce_driver_runs_total", fallback.driver_name(), degraded),
            ("pdce_degradations_total", DegradedMode::EliminationOnly.label(), degraded),
            ("pdce_degradations_total", DegradedMode::Identity.label(), identity),
            ("pdce_rounds_total", "", stats.rounds),
            ("pdce_tv_checks_total", "", stats.tv_checks),
            ("pdce_tv_rollbacks_total", "", stats.tv_rollbacks),
            ("pdce_rollbacks_total", "", stats.rollbacks),
            ("pdce_budget_exhaustions_total", "", stats.budget_exhaustions),
            ("pdce_cache_events_total", "cfg_hit", c.cfg_hits),
            ("pdce_cache_events_total", "cfg_miss", c.cfg_misses),
            ("pdce_cache_events_total", "cfg_relayout", c.cfg_relayouts),
            ("pdce_cache_events_total", "analysis_hit", c.analysis_hits),
            ("pdce_cache_events_total", "analysis_miss", c.analysis_misses),
            ("pdce_cache_events_total", "du_hit", c.du_hits),
            ("pdce_cache_events_total", "du_miss", c.du_misses),
            ("pdce_solver_pops_total", "priority", s.priority_pops),
            ("pdce_solver_word_ops_total", "", s.word_ops),
        ];
        let mut run = RunTotals::default();
        for (family, label, n) in series.into_iter().filter(|s| s.2 > 0) {
            *run.0.entry((family, label)).or_default() += n;
        }
        run
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &RunTotals) {
        for (&series, &n) in &other.0 {
            *self.0.entry(series).or_default() += n;
        }
    }

    /// Renders the totals into `snap`. A zero count renders no series,
    /// so the families show only what the runs did.
    pub fn render(&self, snap: &mut Snapshot) {
        for (&(name, label), &n) in &self.0 {
            let (_, key, help) = FAMILIES
                .iter()
                .find(|f| f.0 == name)
                .expect("an optimizer family");
            let family = CounterFamily {
                name,
                help,
                stability: Stability::Deterministic,
            };
            match key {
                Some(key) => snap.push_counter(&family, &[(key, label)], n),
                None => snap.push_counter(&family, &[], n),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_identity_answer_ran_both_drivers_and_degraded_twice() {
        let identity = PdceStats {
            rollbacks: 2,
            degraded: Some(DegradedMode::Identity),
            ..PdceStats::default()
        };
        let mut runs = RunTotals::of(&PdceConfig::pde(), &identity);
        runs.add(&RunTotals::of(&PdceConfig::pde(), &PdceStats::default()));
        // Without sinking the configured and the fallback driver coincide.
        runs.add(&RunTotals::of(&PdceConfig::dce_only(), &identity));
        let mut snap = Snapshot::default();
        runs.render(&mut snap);
        let drivers =
            ["pde", "dce"].map(|d| snap.counter("pdce_driver_runs_total", &[("driver", d)]));
        assert_eq!(drivers, [Some(2), Some(3)]);
        let to = ["elimination-only", "identity"]
            .map(|r| snap.counter("pdce_degradations_total", &[("to", r)]));
        assert_eq!(to, [Some(2), Some(2)]);
        assert_eq!(snap.counter("pdce_rollbacks_total", &[]), Some(4));
        assert_eq!(
            snap.counter("pdce_rounds_total", &[]),
            None,
            "zero renders no series"
        );
    }
}
