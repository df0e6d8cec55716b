//! [`Pass`] adapters for the paper's transformations, so that dce, fce,
//! `ask`, and the full `pde`/`pfe` drivers compose in the workspace-wide
//! pass pipeline alongside the baselines, LCM, and the SSA passes.

use pdce_dfa::{AnalysisCache, Pass, PassOutcome, Preserves};
use pdce_ir::edgesplit::split_critical_edges;
use pdce_ir::Program;

use crate::driver::{optimize_with_cache, PdceConfig};
use crate::elim::{eliminate_fixpoint_cached, Mode};
use crate::sink::sink_assignments_cached;

fn elim_outcome(removed: u64) -> PassOutcome {
    if removed == 0 {
        PassOutcome::unchanged()
    } else {
        PassOutcome {
            changed: true,
            removed,
            preserves: Preserves::Cfg,
            ..PassOutcome::default()
        }
    }
}

/// Iterated dead code elimination (`dce` to its fixpoint, capturing the
/// Figure 12 elimination–elimination effects).
pub struct DcePass;

impl Pass for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, prog: &mut Program, cache: &mut AnalysisCache) -> PassOutcome {
        let (removed, _) = eliminate_fixpoint_cached(prog, cache, Mode::Dead, None);
        elim_outcome(removed)
    }
}

/// Faint code elimination (`fce`): one pass reaches its fixpoint,
/// since faint elimination has no elimination–elimination effect.
pub struct FcePass;

impl Pass for FcePass {
    fn name(&self) -> &'static str {
        "fce"
    }

    fn run(&self, prog: &mut Program, cache: &mut AnalysisCache) -> PassOutcome {
        let (removed, _) = eliminate_fixpoint_cached(prog, cache, Mode::Faint, None);
        elim_outcome(removed)
    }
}

/// One assignment-sinking pass (`ask`). Splits critical edges first when
/// necessary, which is the one CFG-shape change in this crate.
pub struct SinkPass;

impl Pass for SinkPass {
    fn name(&self) -> &'static str {
        "sink"
    }

    fn run(&self, prog: &mut Program, cache: &mut AnalysisCache) -> PassOutcome {
        let mut out = PassOutcome::unchanged();
        if !cache.cfg(prog).critical_edges().is_empty() {
            split_critical_edges(prog);
            out.merge(&PassOutcome {
                changed: true,
                preserves: Preserves::Nothing,
                ..PassOutcome::default()
            });
        }
        let sunk =
            sink_assignments_cached(prog, cache, None).expect("critical edges were just split");
        if sunk.changed {
            out.merge(&PassOutcome {
                changed: true,
                removed: sunk.removed,
                inserted: sunk.inserted,
                preserves: Preserves::Cfg,
                ..PassOutcome::default()
            });
        }
        out
    }
}

/// A full driver run as a single pipeline pass.
fn run_driver(config: &PdceConfig, prog: &mut Program, cache: &mut AnalysisCache) -> PassOutcome {
    let before = prog.revision();
    let stats = optimize_with_cache(prog, config, cache)
        .expect("the default driver configuration cannot hit the round cap (Theorem 3.7)");
    if prog.revision() == before {
        return PassOutcome::unchanged();
    }
    PassOutcome {
        changed: true,
        removed: stats.eliminated_assignments + stats.sunk_assignments,
        inserted: stats.inserted_assignments,
        // The driver may have split critical edges; the cache itself was
        // kept consistent internally either way.
        preserves: if stats.synthetic_blocks == 0 {
            Preserves::Cfg
        } else {
            Preserves::Nothing
        },
        ..PassOutcome::default()
    }
}

/// Partial dead code elimination: the full `pde` driver (Section 5.1).
pub struct PdePass;

impl Pass for PdePass {
    fn name(&self) -> &'static str {
        "pde"
    }

    fn run(&self, prog: &mut Program, cache: &mut AnalysisCache) -> PassOutcome {
        run_driver(&PdceConfig::pde(), prog, cache)
    }
}

/// Partial faint code elimination: the full `pfe` driver (Section 5.1).
pub struct PfePass;

impl Pass for PfePass {
    fn name(&self) -> &'static str {
        "pfe"
    }

    fn run(&self, prog: &mut Program, cache: &mut AnalysisCache) -> PassOutcome {
        run_driver(&PdceConfig::pfe(), prog, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    fn fig1() -> Program {
        parse(
            "prog {
               block s  { goto n1 }
               block n1 { y := a + b; nondet n2 n3 }
               block n2 { out(y); goto n4 }
               block n3 { y := 4; goto n4 }
               block n4 { out(y); goto e }
               block e  { halt }
             }",
        )
        .unwrap()
    }

    #[test]
    fn pde_pass_runs_the_driver() {
        let mut p = fig1();
        let mut cache = AnalysisCache::new();
        let out = PdePass.run(&mut p, &mut cache);
        assert!(out.changed);
        assert!(out.removed >= 2); // sunk candidate(s) + the dead copy
        let again = PdePass.run(&mut p, &mut cache);
        assert!(!again.changed);
        assert_eq!(again.preserves, Preserves::All);
    }

    #[test]
    fn sink_pass_splits_edges_when_needed() {
        let mut p = parse(
            "prog {
               block s  { x := 1; nondet a j }
               block a  { goto j }
               block j  { out(x); goto e }
               block e  { halt }
             }",
        )
        .unwrap();
        let blocks = p.num_blocks();
        let mut cache = AnalysisCache::new();
        let out = SinkPass.run(&mut p, &mut cache);
        assert!(out.changed);
        assert!(p.num_blocks() > blocks, "critical edge was split");
        assert_eq!(out.preserves, Preserves::Nothing);
    }

    #[test]
    fn dce_and_fce_report_removals() {
        let src = "prog { block s { x := 1; y := 2; out(y); goto e } block e { halt } }";
        let mut p = parse(src).unwrap();
        let out = DcePass.run(&mut p, &mut AnalysisCache::new());
        assert_eq!(out.removed, 1);
        assert_eq!(out.preserves, Preserves::Cfg);
        let mut p = parse(src).unwrap();
        let out = FcePass.run(&mut p, &mut AnalysisCache::new());
        assert_eq!(out.removed, 1);
    }
}
