//! The revision-keyed [`AnalysisCache`] that lets transforms share
//! control-flow and data-flow analyses instead of rebuilding them from
//! scratch.
//!
//! * the cache memoizes [`CfgView`], the def-use graph and
//!   arbitrary typed analysis solutions, keyed by [`Program::revision`];
//! * a transform that mutates the program declares what survives via
//!   [`Preserves`], so one that only edits statement lists (and leaves
//!   every terminator alone) keeps the CFG-shaped entries alive across
//!   the mutation.
//!
//! Correctness never depends on the declarations: an undeclared mutation
//! bumps the program revision and the next cache access rebuilds
//! everything. Declarations only *retain* entries that a revision bump
//! would otherwise discard.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::rc::Rc;

use pdce_ir::{CfgView, ChangeSet, Program};

use crate::du::DuGraph;

/// Registry handles for the cache counter family
/// (`pdce_cache_events_total{kind=...}`). The per-instance [`CacheStats`]
/// below stay the per-run attribution mechanism; these mirror the same
/// increments into the process-global metrics registry so aggregate hit
/// rates survive across caches and worker threads.
mod cache_metrics {
    use pdce_metrics::{global, Counter, Stability};
    use std::sync::{Arc, LazyLock};

    fn event(kind: &'static str) -> Arc<Counter> {
        global().counter(
            "pdce_cache_events_total",
            "AnalysisCache events by kind (hits, misses, relayouts)",
            Stability::Deterministic,
            &[("kind", kind)],
        )
    }

    pub static CFG_HIT: LazyLock<Arc<Counter>> = LazyLock::new(|| event("cfg_hit"));
    pub static CFG_MISS: LazyLock<Arc<Counter>> = LazyLock::new(|| event("cfg_miss"));
    pub static CFG_RELAYOUT: LazyLock<Arc<Counter>> = LazyLock::new(|| event("cfg_relayout"));
    pub static ANALYSIS_HIT: LazyLock<Arc<Counter>> = LazyLock::new(|| event("analysis_hit"));
    pub static ANALYSIS_MISS: LazyLock<Arc<Counter>> = LazyLock::new(|| event("analysis_miss"));
    pub static DU_HIT: LazyLock<Arc<Counter>> = LazyLock::new(|| event("du_hit"));
    pub static DU_MISS: LazyLock<Arc<Counter>> = LazyLock::new(|| event("du_miss"));
}

/// What a transform guarantees about cached analyses after it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preserves {
    /// Nothing survives: the transform may have rewired the graph
    /// (branch folding, edge splitting, block merging).
    Nothing,
    /// The control-flow shape survives: the transform only edited
    /// statement lists, never terminators or the block set.
    /// [`CfgView`] and its orderings stay valid; data-flow
    /// solutions do not.
    Cfg,
}

/// Cache hit/miss counters, split by the expensive entry kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// [`CfgView`] requests served from cache.
    pub cfg_hits: u64,
    /// [`CfgView`] requests that had to rebuild.
    pub cfg_misses: u64,
    /// Typed analysis solutions served from cache.
    pub analysis_hits: u64,
    /// Typed analysis solutions that had to be recomputed.
    pub analysis_misses: u64,
    /// Cached [`CfgView`]s whose adjacency and orders survived a
    /// statement-local mutation with only the instruction-arena layout
    /// rebuilt ([`CfgView::relayout`]) — cheaper than a full rebuild,
    /// counted separately from both hits and misses.
    pub cfg_relayouts: u64,
    /// [`DuGraph`] requests served from cache.
    pub du_hits: u64,
    /// [`DuGraph`] requests that had to rebuild.
    pub du_misses: u64,
}

impl CacheStats {
    /// Total hits over all entry kinds.
    pub fn hits(&self) -> u64 {
        self.cfg_hits + self.analysis_hits + self.du_hits
    }

    /// Total misses over all entry kinds.
    pub fn misses(&self) -> u64 {
        self.cfg_misses + self.analysis_misses + self.du_misses
    }

    /// The counter delta since an `earlier` snapshot of the same cache
    /// (counters only grow, so plain subtraction is exact).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            cfg_hits: self.cfg_hits - earlier.cfg_hits,
            cfg_misses: self.cfg_misses - earlier.cfg_misses,
            analysis_hits: self.analysis_hits - earlier.analysis_hits,
            analysis_misses: self.analysis_misses - earlier.analysis_misses,
            cfg_relayouts: self.cfg_relayouts - earlier.cfg_relayouts,
            du_hits: self.du_hits - earlier.du_hits,
            du_misses: self.du_misses - earlier.du_misses,
        }
    }
}

/// A revision-keyed memo of analyses for **one** program.
///
/// The cache compares [`Program::revision`] on every access; a mismatch
/// drops every entry (unless the mutating transform called [`retain`] to keep
/// the CFG-shaped ones). A cache must not be shared between different
/// programs — clones included — because revisions of unrelated programs
/// are incomparable.
///
/// [`retain`]: AnalysisCache::retain
///
/// # Example
///
/// ```
/// use pdce_dfa::AnalysisCache;
/// use pdce_ir::parser::parse;
///
/// let mut prog = parse("prog { block s { goto e } block e { halt } }")?;
/// let mut cache = AnalysisCache::new();
/// let a = cache.cfg(&prog);
/// let b = cache.cfg(&prog); // served from cache
/// assert!(std::rc::Rc::ptr_eq(&a, &b));
/// assert_eq!(cache.stats().cfg_hits, 1);
/// prog.touch(); // any mutation invalidates
/// let c = cache.cfg(&prog);
/// assert!(!std::rc::Rc::ptr_eq(&a, &c));
/// # Ok::<(), pdce_ir::ParseError>(())
/// ```
#[derive(Debug, Default)]
pub struct AnalysisCache {
    /// Revision the cached entries are valid for.
    revision: Option<u64>,
    cfg: Option<Rc<CfgView>>,
    /// The def-use chain graph the faint closure propagates over,
    /// revision-cached like the view (DESIGN.md §15).
    du: Option<Rc<DuGraph>>,
    analyses: HashMap<TypeId, Rc<dyn Any>>,
    stats: CacheStats,
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Hit/miss counters since creation (never reset by invalidation).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops entries that are stale for `prog`'s current revision.
    ///
    /// The mutation log makes this finer than all-or-nothing: when
    /// `Program::changes_since` proves every intervening mutation was
    /// statement-local, the cached [`CfgView`]'s adjacency and orders
    /// are still valid — only the instruction-arena layout
    /// may need a [`CfgView::relayout`]. Structural or unexplained
    /// deltas drop the CFG-shaped entries as before.
    fn sync(&mut self, prog: &Program) {
        let cur = prog.revision();
        if self.revision == Some(cur) {
            return;
        }
        let stmt_local = self
            .revision
            .and_then(|rev| prog.changes_since(rev))
            .is_some_and(|delta| !delta.structural());
        if stmt_local {
            self.refresh_cfg_layout(prog);
        } else {
            self.cfg = None;
        }
        self.analyses.clear();
        self.du = None;
        self.revision = Some(cur);
    }

    /// Rebuilds the cached view's instruction layout in place when the
    /// program's statement counts drifted from it. Only sound when the
    /// topology is known to be unchanged (statement-local delta or a
    /// [`Preserves::Cfg`] declaration).
    fn refresh_cfg_layout(&mut self, prog: &Program) {
        if let Some(view) = &self.cfg {
            if !view.layout_matches(prog) {
                self.cfg = Some(Rc::new(view.relayout(prog)));
                self.stats.cfg_relayouts += 1;
                cache_metrics::CFG_RELAYOUT.inc();
            }
        }
    }

    /// The memoized [`CfgView`] of `prog`.
    pub fn cfg(&mut self, prog: &Program) -> Rc<CfgView> {
        self.sync(prog);
        match &self.cfg {
            Some(view) => {
                debug_assert_eq!(
                    view.num_nodes(),
                    prog.num_blocks(),
                    "cache crossed programs"
                );
                self.stats.cfg_hits += 1;
                cache_metrics::CFG_HIT.inc();
                Rc::clone(view)
            }
            None => {
                self.stats.cfg_misses += 1;
                cache_metrics::CFG_MISS.inc();
                let view = Rc::new(CfgView::new(prog));
                self.cfg = Some(Rc::clone(&view));
                view
            }
        }
    }

    /// The memoized [`DuGraph`] of `prog`, rebuilt from scratch on a
    /// miss. No analysis asks for it; it is kept only because the
    /// benchmark's layer replica (`perfbench/src/replica.rs`) times its
    /// build, until the next benchmark change drops that span.
    pub fn du(&mut self, prog: &Program) -> Rc<DuGraph> {
        self.sync(prog);
        if let Some(du) = &self.du {
            self.stats.du_hits += 1;
            cache_metrics::DU_HIT.inc();
            return Rc::clone(du);
        }
        self.stats.du_misses += 1;
        cache_metrics::DU_MISS.inc();
        let view = self.cfg(prog);
        let du = Rc::new(DuGraph::build(prog, &view));
        self.du = Some(Rc::clone(&du));
        du
    }

    /// The memoized analysis solution of type `T`, computing it with
    /// `build` on a miss. The type is the key: one slot per `T`.
    pub fn analysis<T, F>(&mut self, prog: &Program, build: F) -> Rc<T>
    where
        T: Any,
        F: FnOnce(&Program, &CfgView) -> T,
    {
        self.sync(prog);
        if let Some(entry) = self.analyses.get(&TypeId::of::<T>()) {
            self.stats.analysis_hits += 1;
            cache_metrics::ANALYSIS_HIT.inc();
            return Rc::clone(entry).downcast::<T>().expect("typed slot");
        }
        self.stats.analysis_misses += 1;
        cache_metrics::ANALYSIS_MISS.inc();
        let view = self.cfg(prog);
        let value: Rc<T> = Rc::new(build(prog, &view));
        self.analyses
            .insert(TypeId::of::<T>(), Rc::clone(&value) as Rc<dyn Any>);
        value
    }

    /// [`AnalysisCache::analysis`] under the signature of the retired
    /// warm-start entry point: `build` always receives `None` and solves
    /// cold. Kept only because the benchmark's layer replica
    /// (`perfbench/src/replica.rs`) calls it, until the next benchmark
    /// change moves the replica to [`AnalysisCache::analysis`].
    pub fn analysis_seeded<T, F>(&mut self, prog: &Program, build: F) -> Rc<T>
    where
        T: Any,
        F: FnOnce(&Program, &CfgView, Option<(&T, &ChangeSet)>) -> T,
    {
        self.analysis(prog, |p, v| build(p, v, None))
    }

    /// Re-validates entries for the program's *current* revision after a
    /// mutation, keeping what `level` says survived. Call this right
    /// after mutating `prog` when the mutation provably preserved the
    /// corresponding structures (e.g. statement-only edits preserve the
    /// CFG). An overly optimistic level is a correctness bug — the cache
    /// trusts it.
    pub fn retain(&mut self, prog: &Program, level: Preserves) {
        match level {
            Preserves::Nothing => {
                // The graph may have been rewired.
                self.cfg = None;
                self.du = None;
                self.analyses.clear();
                self.revision = Some(prog.revision());
            }
            Preserves::Cfg => {
                // Solutions are invalid but the graph survives. The
                // instruction layout may still have moved (statement
                // edits), so re-derive it from the surviving topology.
                self.refresh_cfg_layout(prog);
                self.du = None;
                self.analyses.clear();
                self.revision = Some(prog.revision());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdce_ir::parser::parse;

    fn prog() -> Program {
        parse(
            "prog {
               block s { x := 1; nondet a b }
               block a { out(x); goto e }
               block b { goto e }
               block e { halt }
             }",
        )
        .unwrap()
    }

    #[test]
    fn cfg_is_cached_until_mutation() {
        let mut p = prog();
        let mut cache = AnalysisCache::new();
        let a = cache.cfg(&p);
        let b = cache.cfg(&p);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().cfg_hits, 1);
        assert_eq!(cache.stats().cfg_misses, 1);
        p.block_mut(p.entry()).stmts.clear();
        let c = cache.cfg(&p);
        assert!(!Rc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().cfg_misses, 2);
    }

    #[test]
    fn retain_cfg_survives_statement_edit() {
        let mut p = prog();
        let mut cache = AnalysisCache::new();
        let a = cache.cfg(&p);
        p.block_mut(p.entry()).stmts.clear(); // statements only
        cache.retain(&p, Preserves::Cfg);
        let b = cache.cfg(&p);
        // The topology survived without a rebuild; only the instruction
        // layout was re-derived (the statement count changed), so the
        // served view is a relayout of `a`, not a cold `CfgView::new`.
        assert_eq!(cache.stats().cfg_hits, 1);
        assert_eq!(cache.stats().cfg_misses, 1);
        assert_eq!(cache.stats().cfg_relayouts, 1);
        assert_eq!(*b, CfgView::new(&p), "relayout must equal a cold rebuild");
        assert_eq!(a.rpo(), b.rpo());
    }

    #[test]
    fn stmt_local_edits_keep_the_view_without_retain() {
        let mut p = prog();
        let mut cache = AnalysisCache::new();
        let a = cache.cfg(&p);
        let entry = p.entry();
        // `stmts_mut` logs a statement-local delta, so even without a
        // `retain` call the next sync keeps the cached topology.
        p.stmts_mut(entry).push(pdce_ir::Stmt::Skip);
        let b = cache.cfg(&p);
        assert_eq!(cache.stats().cfg_misses, 1, "no cold rebuild");
        assert_eq!(cache.stats().cfg_relayouts, 1);
        assert_eq!(*b, CfgView::new(&p));
        // A layout-neutral round-trip (push then pop) relayouts at most
        // once more and never rebuilds.
        p.stmts_mut(entry).pop();
        let c = cache.cfg(&p);
        assert_eq!(cache.stats().cfg_misses, 1);
        assert_eq!(*c, CfgView::new(&p));
        drop((a, b));
    }

    #[test]
    fn typed_analyses_are_keyed_by_type() {
        #[derive(Debug, PartialEq)]
        struct CountA(usize);
        #[derive(Debug, PartialEq)]
        struct CountB(usize);
        let p = prog();
        let mut cache = AnalysisCache::new();
        let a = cache.analysis::<CountA, _>(&p, |p, _| CountA(p.num_stmts()));
        let b = cache.analysis::<CountB, _>(&p, |p, _| CountB(p.num_blocks()));
        assert_eq!(a.0, 2);
        assert_eq!(b.0, 4);
        let a2 = cache.analysis::<CountA, _>(&p, |_, _| panic!("must hit"));
        assert!(Rc::ptr_eq(&a, &a2));
        assert_eq!(cache.stats().analysis_hits, 1);
        assert_eq!(cache.stats().analysis_misses, 2);
    }

    #[test]
    fn retain_cfg_drops_typed_analyses() {
        #[derive(Debug)]
        struct Marker;
        let mut p = prog();
        let mut cache = AnalysisCache::new();
        cache.analysis::<Marker, _>(&p, |_, _| Marker);
        p.block_mut(p.entry()).stmts.clear();
        cache.retain(&p, Preserves::Cfg);
        cache.analysis::<Marker, _>(&p, |_, _| Marker);
        assert_eq!(cache.stats().analysis_misses, 2);
    }

    #[test]
    fn analysis_seeded_builds_cold_after_stmt_edit() {
        #[derive(Debug)]
        struct Count(usize);
        let mut p = prog();
        let mut cache = AnalysisCache::new();
        let entry = p.entry();
        let build = |p: &Program, _: &CfgView, seed: Option<(&Count, &ChangeSet)>| {
            assert!(seed.is_none(), "every build is cold");
            Count(p.num_stmts())
        };
        cache.analysis_seeded::<Count, _>(&p, build);
        p.stmts_mut(entry).pop();
        cache.retain(&p, Preserves::Cfg);
        let rebuilt = cache.analysis_seeded::<Count, _>(&p, build);
        assert_eq!(rebuilt.0, 1);
        // Same revision again: a plain hit, no rebuild.
        cache.analysis_seeded::<Count, _>(&p, |_, _, _| panic!("must hit"));
        assert_eq!(cache.stats().analysis_hits, 1);
        assert_eq!(cache.stats().analysis_misses, 2);
    }

    #[test]
    fn analysis_seeded_builds_cold_after_structural_change() {
        #[derive(Debug)]
        struct Count(usize);
        let mut p = prog();
        let mut cache = AnalysisCache::new();
        let build = |p: &Program, _: &CfgView, seed: Option<(&Count, &ChangeSet)>| {
            assert!(seed.is_none(), "every build is cold");
            Count(p.num_blocks())
        };
        cache.analysis_seeded::<Count, _>(&p, build);
        let exit = p.exit();
        p.add_block(pdce_ir::Block::new(
            "fresh",
            pdce_ir::Terminator::Goto(exit),
        ))
        .unwrap();
        let rebuilt = cache.analysis_seeded::<Count, _>(&p, build);
        assert_eq!(rebuilt.0, 5);
        assert_eq!(cache.stats().analysis_misses, 2);
    }

    #[test]
    fn du_graph_is_cached_and_rebuilt_after_stmt_edit() {
        let mut p = prog();
        let mut cache = AnalysisCache::new();
        let a = cache.du(&p);
        let b = cache.du(&p);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().du_hits, 1);
        assert_eq!(cache.stats().du_misses, 1);
        let entry = p.entry();
        p.stmts_mut(entry).push(pdce_ir::Stmt::Skip);
        let c = cache.du(&p);
        assert_eq!(cache.stats().du_misses, 2);
        assert_eq!(*c, DuGraph::build(&p, &CfgView::new(&p)));
    }

    #[test]
    fn du_graph_is_rebuilt_after_structural_change() {
        let mut p = prog();
        let mut cache = AnalysisCache::new();
        cache.du(&p);
        let exit = p.exit();
        p.add_block(pdce_ir::Block::new(
            "fresh",
            pdce_ir::Terminator::Goto(exit),
        ))
        .unwrap();
        let c = cache.du(&p);
        assert_eq!(cache.stats().du_misses, 2);
        assert_eq!(*c, DuGraph::build(&p, &CfgView::new(&p)));
        // retain(Nothing) drops the fresh graph as well.
        cache.retain(&p, Preserves::Nothing);
        cache.du(&p);
        assert_eq!(cache.stats().du_misses, 3);
    }
}
