//! Structured tracing for the PDCE workspace.
//!
//! The paper's evaluation (Section 6) is about *how much work* the
//! optimizer does — rounds to stabilization, second-order interactions,
//! the worst-case `O(n⁴)` behavior — and every future performance PR
//! needs a window into that work. This crate provides it with zero
//! external dependencies:
//!
//! * a **span/event model**: the [`Tracer`] trait, RAII [`Span`] guards,
//!   and a [`Collector`] that buffers [`Event`]s with both wall-clock
//!   and logical (sequence-number) timestamps;
//! * **solver telemetry**: an always-on, per-thread [`SolverStats`]
//!   accumulator the data-flow solvers feed (worklist pops, node
//!   revisits, bit-vector word operations, iterations to fixpoint);
//! * a **provenance log**: [`ProvenanceRecord`]s tie every statement a
//!   transform eliminated, sank, or inserted to the responsible pass,
//!   global round, and program revision — so a run can answer *"why did
//!   this assignment disappear?"*;
//! * two **exporters**: Chrome `trace_events` JSON ([`chrome`],
//!   loadable in `chrome://tracing`/Perfetto) and a human-readable
//!   rendering ([`explain`]);
//! * the **metrics plane** ([`metrics`]): Prometheus exposition of the
//!   run statistics' counter families plus a small registry of
//!   histograms and pool counters, a run-scoped JSONL event log
//!   ([`events`]) and an optional counting global allocator ([`alloc`],
//!   `--features alloc-metrics`).
//!
//! # Cost model
//!
//! Tracing is **disabled by default** and must stay compile-out cheap:
//! with no collector installed, every instrumentation site reduces to
//! one thread-local flag read and a branch (see [`enabled`]), and no
//! strings are formatted and no events allocated. The bench suite's
//! `tracing` bench prices the modes, and `BENCH_PDE.json` reports the
//! disabled-mode A/A delta with its noise; no bar enforces a bound on
//! it. The [`SolverStats`] accumulator is the one always-on piece: a
//! handful of integer adds per *solver run* (not per operation), which
//! is unmeasurable against the solve itself.
//!
//! The collector is deliberately single-threaded ("lock-free-enough"):
//! one collector per thread, installed via a scoped [`install`] guard,
//! no atomics or locks anywhere on the hot path. Cross-thread
//! aggregation, if ever needed, happens at export time by merging
//! per-thread event buffers.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use pdce_trace as trace;
//!
//! let collector = Rc::new(trace::Collector::new());
//! {
//!     let _guard = trace::install(collector.clone());
//!     let span = trace::span("phase", "demo");
//!     trace::counter("items", 3);
//!     span.finish();
//! }
//! let events = collector.events();
//! assert_eq!(events.len(), 3); // begin, counter, end
//! let json = trace::chrome::chrome_trace(
//!     &events,
//!     &trace::chrome::ChromeOptions::logical(),
//! );
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

pub mod alloc;
pub mod budget;
pub mod chrome;
pub mod events;
pub mod explain;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod sandbox;

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

/// A typed span/event argument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An unsigned counter-like value.
    U64(u64),
    /// A signed value.
    I64(i64),
    /// A short string (pass names, modes, block names).
    Str(String),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::I64(v) => write!(f, "{v}"),
            ArgValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::I64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// Event phase, mirroring the Chrome `trace_events` phases we emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Point-in-time event (`"i"`).
    Instant,
    /// Counter sample (`"C"`).
    Counter,
}

/// One recorded trace event.
///
/// `seq` is a collector-local logical timestamp (events are totally
/// ordered by it); `wall_ns` is nanoseconds since the collector was
/// created. Exporters choose which clock to emit — the logical clock
/// makes traces byte-deterministic for deterministic runs.
#[derive(Debug, Clone)]
pub struct Event {
    /// Logical timestamp: position in the collector's event order.
    pub seq: u64,
    /// Wall-clock nanoseconds since collector creation.
    pub wall_ns: u64,
    /// Event phase.
    pub phase: Phase,
    /// Category (`"pass"`, `"round"`, `"solver"`, `"transform"`, ...).
    pub cat: &'static str,
    /// Event name (empty for bare span ends).
    pub name: Cow<'static, str>,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// What a transform did to a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvAction {
    /// Removed because its left-hand side was dead/faint.
    Eliminated,
    /// Removed as a sinking candidate (it re-materializes at the
    /// matching insertion points, possibly nowhere).
    Sunk,
    /// A pattern instance materialized at an insertion point.
    Inserted,
}

impl ProvAction {
    /// Stable lower-case label used by both exporters.
    pub fn label(self) -> &'static str {
        match self {
            ProvAction::Eliminated => "eliminated",
            ProvAction::Sunk => "sunk",
            ProvAction::Inserted => "inserted",
        }
    }
}

/// One entry of the transformation provenance log: which pass did what
/// to which statement, in which block, at which global round and
/// program revision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// What happened to the statement.
    pub action: ProvAction,
    /// The responsible pass (`"dce"`, `"fce"`, `"sink"`, ...).
    pub pass: &'static str,
    /// The enclosing global round (0 outside any round scope).
    pub round: u64,
    /// `Program::revision()` at record time (pre-mutation).
    pub revision: u64,
    /// Name of the block the statement lived in (or was inserted into).
    pub block: String,
    /// The statement, printed.
    pub stmt: String,
    /// Why / where exactly (`"lhs dead after"`, `"entry insertion"`, ...).
    pub detail: &'static str,
}

/// A sink for trace events and provenance records.
///
/// The instrumentation sites in `pdce-dfa` and `pdce-core` route
/// through the thread-local tracer installed with
/// [`install`]; when none is installed they reduce to a flag check.
/// [`Collector`] is the standard implementation; custom tracers can
/// stream, filter, or drop events instead of buffering them.
pub trait Tracer {
    /// Records one event. The collector assigns `seq`/`wall_ns`; events
    /// passed in carry zeros there.
    fn record(&self, event: Event);

    /// Records one provenance entry.
    fn provenance(&self, record: ProvenanceRecord);
}

/// The buffering [`Tracer`]: appends events and provenance records to
/// growable per-thread buffers (no locks — one collector per thread).
pub struct Collector {
    epoch: Instant,
    seq: Cell<u64>,
    events: RefCell<Vec<Event>>,
    provenance: RefCell<Vec<ProvenanceRecord>>,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// Creates an empty collector; its creation instant is the trace's
    /// time origin.
    pub fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            seq: Cell::new(0),
            events: RefCell::new(Vec::new()),
            provenance: RefCell::new(Vec::new()),
        }
    }

    /// A copy of the recorded events, in order.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// A copy of the provenance log, in order.
    pub fn provenance(&self) -> Vec<ProvenanceRecord> {
        self.provenance.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl Tracer for Collector {
    fn record(&self, mut event: Event) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        event.seq = seq;
        event.wall_ns = self.epoch.elapsed().as_nanos() as u64;
        self.events.borrow_mut().push(event);
    }

    fn provenance(&self, record: ProvenanceRecord) {
        self.provenance.borrow_mut().push(record);
    }
}

/// A [`Tracer`] that drops everything — the explicit form of the
/// "tracing disabled" default, for APIs that want a tracer value.
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record(&self, _event: Event) {}
    fn provenance(&self, _record: ProvenanceRecord) {}
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<dyn Tracer>>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ROUND: Cell<u64> = const { Cell::new(0) };
    static SOLVER: Cell<SolverStats> = const { Cell::new(SolverStats::ZERO) };
}

/// Installs `tracer` as this thread's tracer until the guard drops
/// (the previous tracer, if any, is restored).
pub fn install(tracer: Rc<dyn Tracer>) -> InstallGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(tracer));
    let prev_enabled = ENABLED.with(|e| e.replace(true));
    InstallGuard { prev, prev_enabled }
}

/// Scoped tracer installation; restores the previous state on drop.
pub struct InstallGuard {
    prev: Option<Rc<dyn Tracer>>,
    prev_enabled: bool,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
        ENABLED.with(|e| e.set(self.prev_enabled));
    }
}

/// Whether a tracer is installed on this thread. Instrumentation sites
/// branch on this before formatting names or building events, which is
/// what keeps disabled-mode overhead to a flag read.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

fn with_tracer(f: impl FnOnce(&dyn Tracer)) {
    CURRENT.with(|c| {
        if let Some(tracer) = c.borrow().as_ref() {
            f(tracer.as_ref());
        }
    });
}

/// An RAII span guard: records a [`Phase::Begin`] event on creation and
/// the matching [`Phase::End`] on [`finish`](Span::finish) (or drop).
/// It costs nothing, and reads no clock, when tracing is disabled.
pub struct Span {
    live: bool,
    cat: &'static str,
}

impl Span {
    /// Ends the span.
    pub fn finish(self) {
        self.finish_with(Vec::new())
    }

    /// Ends the span with arguments attached to the end event (Perfetto
    /// merges begin- and end-args into the slice).
    pub fn finish_with(mut self, args: Vec<(&'static str, ArgValue)>) {
        if self.live {
            self.live = false;
            with_tracer(|t| {
                t.record(Event {
                    seq: 0,
                    wall_ns: 0,
                    phase: Phase::End,
                    cat: self.cat,
                    name: Cow::Borrowed(""),
                    args,
                });
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            self.live = false;
            with_tracer(|t| {
                t.record(Event {
                    seq: 0,
                    wall_ns: 0,
                    phase: Phase::End,
                    cat: self.cat,
                    name: Cow::Borrowed(""),
                    args: Vec::new(),
                });
            });
        }
    }
}

/// Opens a span. No-op (and no clock read) when tracing is disabled.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    span_with(cat, name, Vec::new())
}

/// Opens a span with begin-event arguments.
pub fn span_with(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, ArgValue)>,
) -> Span {
    if !enabled() {
        return Span { live: false, cat };
    }
    with_tracer(|t| {
        t.record(Event {
            seq: 0,
            wall_ns: 0,
            phase: Phase::Begin,
            cat,
            name: name.into(),
            args,
        });
    });
    Span { live: true, cat }
}

/// Records a counter sample.
pub fn counter(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_tracer(|t| {
        t.record(Event {
            seq: 0,
            wall_ns: 0,
            phase: Phase::Counter,
            cat: "counter",
            name: Cow::Borrowed(name),
            args: vec![("value", ArgValue::U64(value))],
        });
    });
}

/// Records a point-in-time event.
pub fn instant(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    args: Vec<(&'static str, ArgValue)>,
) {
    if !enabled() {
        return;
    }
    with_tracer(|t| {
        t.record(Event {
            seq: 0,
            wall_ns: 0,
            phase: Phase::Instant,
            cat,
            name: name.into(),
            args,
        });
    });
}

/// Records a provenance entry and mirrors it into the event stream as
/// an instant event (so Chrome traces carry the full log too). Callers
/// should branch on [`enabled`] *before* building the record, to skip
/// statement printing when tracing is off.
pub fn provenance(record: ProvenanceRecord) {
    if !enabled() {
        return;
    }
    with_tracer(|t| {
        t.record(Event {
            seq: 0,
            wall_ns: 0,
            phase: Phase::Instant,
            cat: "provenance",
            name: Cow::Borrowed(record.action.label()),
            args: vec![
                ("pass", ArgValue::Str(record.pass.to_string())),
                ("round", ArgValue::U64(record.round)),
                ("revision", ArgValue::U64(record.revision)),
                ("block", ArgValue::Str(record.block.clone())),
                ("stmt", ArgValue::Str(record.stmt.clone())),
                ("detail", ArgValue::Str(record.detail.to_string())),
            ],
        });
        t.provenance(record);
    });
}

/// The current global-round number (0 outside any round scope).
#[inline]
pub fn round() -> u64 {
    ROUND.with(|r| r.get())
}

/// Enters global round `n`: emits a `round` span and makes `n` the
/// round recorded by provenance entries until the guard drops. Nested
/// scopes shadow and restore correctly.
pub fn round_scope(n: u64) -> RoundScope {
    let prev = ROUND.with(|r| r.replace(n));
    let span = span_with("round", "round", vec![("n", ArgValue::U64(n))]);
    RoundScope { prev, _span: span }
}

/// Scoped round marker; restores the previous round number on drop.
pub struct RoundScope {
    prev: u64,
    _span: Span,
}

impl Drop for RoundScope {
    fn drop(&mut self) {
        ROUND.with(|r| r.set(self.prev));
    }
}

/// Aggregated data-flow solver telemetry.
///
/// Accumulated per-thread and **always on** (a few integer adds per
/// solver run): unlike spans, these counters feed `PdceStats`
/// accounting, which must not depend on whether a tracer is
/// installed. Deterministic for a fixed input: none of the
/// counted quantities depend on timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solver runs of the block worklist (dead, delay, faint and the
    /// baselines); every run starts cold.
    pub problems: u64,
    /// Node evaluations: block-transfer applications.
    pub evaluations: u64,
    /// Re-evaluations beyond the first visit of each node.
    pub revisits: u64,
    /// `u64` word operations on bit vectors (meets, transfers,
    /// convergence compares), the paper's bit-vector cost unit.
    pub word_ops: u64,
    /// Pops of the priority worklist (reverse postorder / postorder),
    /// which solves every analysis.
    pub priority_pops: u64,
    /// Always zero: the faint falsity closure that counted its seeds
    /// here is gone. Kept only because the benchmark
    /// (`perfbench/src/workloads.rs`) reads the solver stats by field,
    /// until the next benchmark change.
    pub sparse_pops: u64,
    /// Always zero, like `sparse_pops`, and kept for the same reason.
    pub sparse_edge_visits: u64,
}

impl SolverStats {
    /// The all-zero value.
    pub const ZERO: SolverStats = SolverStats {
        problems: 0,
        evaluations: 0,
        revisits: 0,
        word_ops: 0,
        priority_pops: 0,
        sparse_pops: 0,
        sparse_edge_visits: 0,
    };

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SolverStats) {
        self.problems += other.problems;
        self.evaluations += other.evaluations;
        self.revisits += other.revisits;
        self.word_ops += other.word_ops;
        self.priority_pops += other.priority_pops;
        self.sparse_pops += other.sparse_pops;
        self.sparse_edge_visits += other.sparse_edge_visits;
    }

    /// The counter delta since an `earlier` snapshot (counters only
    /// grow, so plain subtraction is exact).
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            problems: self.problems - earlier.problems,
            evaluations: self.evaluations - earlier.evaluations,
            revisits: self.revisits - earlier.revisits,
            word_ops: self.word_ops - earlier.word_ops,
            priority_pops: self.priority_pops - earlier.priority_pops,
            sparse_pops: self.sparse_pops - earlier.sparse_pops,
            sparse_edge_visits: self.sparse_edge_visits - earlier.sparse_edge_visits,
        }
    }

    /// Total worklist pops (`sparse_pops` is always zero).
    pub fn pops(&self) -> u64 {
        self.priority_pops + self.sparse_pops
    }

    /// The standard key/value rendering used by span args and exporters.
    pub fn args(&self) -> Vec<(&'static str, ArgValue)> {
        vec![
            ("problems", ArgValue::U64(self.problems)),
            ("evaluations", ArgValue::U64(self.evaluations)),
            ("revisits", ArgValue::U64(self.revisits)),
            ("word_ops", ArgValue::U64(self.word_ops)),
            ("priority_pops", ArgValue::U64(self.priority_pops)),
            ("sparse_pops", ArgValue::U64(self.sparse_pops)),
            ("sparse_edge_visits", ArgValue::U64(self.sparse_edge_visits)),
        ]
    }
}

/// One worker's buffered trace output: the events and provenance
/// records its [`Collector`] accumulated, ready for deterministic
/// merging with [`merge_collected`].
#[derive(Debug, Clone, Default)]
pub struct Collected {
    /// Events in collector order.
    pub events: Vec<Event>,
    /// Provenance records in collector order.
    pub provenance: Vec<ProvenanceRecord>,
}

impl Collected {
    /// Drains `collector` into an owned part (the collector stays
    /// usable but is typically dropped afterwards).
    pub fn from_collector(collector: &Collector) -> Collected {
        Collected {
            events: collector.events(),
            provenance: collector.provenance(),
        }
    }
}

/// Merges per-worker trace buffers into one stream, deterministically.
///
/// The batch driver (`pdce-par`) runs each shard with its own
/// [`Collector`]; merging concatenates the parts **in shard index
/// order** (never in thread completion order) and renumbers the logical
/// clock (`seq`) so the merged stream is totally ordered. Exported with
/// the logical clock ([`chrome::ChromeOptions::logical`]) the result is
/// byte-identical for a fixed input set regardless of worker count or
/// scheduling — the determinism rule the differential oracle checks.
///
/// Wall-clock timestamps are per-collector origins and remain
/// meaningful only within a part; logical exports ignore them.
pub fn merge_collected(parts: Vec<Collected>) -> Collected {
    let mut merged = Collected::default();
    for part in parts {
        merged.provenance.extend(part.provenance);
        for mut event in part.events {
            event.seq = merged.events.len() as u64;
            merged.events.push(event);
        }
    }
    merged
}

/// Adds one solver run's counters into the per-thread accumulator.
pub fn record_solver(delta: SolverStats) {
    SOLVER.with(|s| {
        let mut total = s.get();
        total.add(&delta);
        s.set(total);
    });
}

/// The per-thread solver counter totals since thread start. Snapshot
/// before and [`SolverStats::since`] after a region to attribute work.
pub fn solver_totals() -> SolverStats {
    SOLVER.with(|s| s.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        bucket_index, bucket_upper_edge, CounterFamily, Histogram, Registry, Stability,
    };

    #[test]
    fn disabled_tracing_records_nothing_and_costs_no_clock() {
        assert!(!enabled());
        let s = span("cat", "name");
        assert!(!s.live, "a disabled span owes no end event");
        counter("x", 1);
        instant("cat", "i", Vec::new());
        s.finish();
    }

    #[test]
    fn collector_orders_events_and_restores_previous_tracer() {
        let outer = Rc::new(Collector::new());
        let inner = Rc::new(Collector::new());
        let _g1 = install(outer.clone());
        span("a", "outer-span").finish();
        {
            let _g2 = install(inner.clone());
            assert!(enabled());
            counter("inner", 7);
        }
        counter("outer", 9);
        assert_eq!(inner.len(), 1);
        assert_eq!(outer.len(), 3);
        let events = outer.events();
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events[2].name, "outer");
    }

    #[test]
    fn span_guard_ends_on_drop_and_finish_attaches_args() {
        let c = Rc::new(Collector::new());
        let _g = install(c.clone());
        {
            let _s = span("cat", "dropped");
        }
        let s = span("cat", "finished");
        s.finish_with(vec![("k", ArgValue::U64(5))]);
        let events = c.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].phase, Phase::End);
        assert!(events[1].args.is_empty());
        assert_eq!(events[3].args, vec![("k", ArgValue::U64(5))]);
    }

    #[test]
    fn round_scope_nests_and_restores() {
        assert_eq!(round(), 0);
        {
            let _r1 = round_scope(3);
            assert_eq!(round(), 3);
            {
                let _r2 = round_scope(8);
                assert_eq!(round(), 8);
            }
            assert_eq!(round(), 3);
        }
        assert_eq!(round(), 0);
    }

    #[test]
    fn provenance_routes_to_log_and_event_stream() {
        let c = Rc::new(Collector::new());
        let _g = install(c.clone());
        provenance(ProvenanceRecord {
            action: ProvAction::Eliminated,
            pass: "dce",
            round: 2,
            revision: 17,
            block: "n3".into(),
            stmt: "y := a + b".into(),
            detail: "lhs dead after",
        });
        let log = c.provenance();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].pass, "dce");
        assert_eq!(log[0].round, 2);
        let events = c.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cat, "provenance");
        assert_eq!(events[0].name, "eliminated");
    }

    #[test]
    fn solver_accumulator_adds_and_deltas() {
        let before = solver_totals();
        record_solver(SolverStats {
            problems: 1,
            evaluations: 10,
            revisits: 3,
            word_ops: 40,
            priority_pops: 10,
            sparse_pops: 0,
            sparse_edge_visits: 0,
        });
        record_solver(SolverStats {
            problems: 1,
            priority_pops: 6,
            ..SolverStats::ZERO
        });
        record_solver(SolverStats {
            problems: 1,
            sparse_pops: 4,
            sparse_edge_visits: 25,
            ..SolverStats::ZERO
        });
        let delta = solver_totals().since(&before);
        assert_eq!(delta.problems, 3);
        assert_eq!(delta.evaluations, 10);
        assert_eq!(delta.word_ops, 40);
        assert_eq!(delta.priority_pops, 16);
        assert_eq!(delta.sparse_pops, 4);
        assert_eq!(delta.sparse_edge_visits, 25);
        assert_eq!(delta.pops(), 20);
        assert_eq!(delta.args().len(), 7);
    }

    #[test]
    fn merge_collected_orders_by_part_and_renumbers() {
        let make_part = |names: &[&'static str]| {
            let c = Rc::new(Collector::new());
            {
                let _g = install(c.clone());
                for n in names {
                    instant("merge-test", *n, Vec::new());
                }
            }
            Collected::from_collector(&c)
        };
        let a = make_part(&["a0", "a1"]);
        let b = make_part(&["b0"]);
        let merged = merge_collected(vec![a, b]);
        let names: Vec<&str> = merged.events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(names, vec!["a0", "a1", "b0"]);
        let seqs: Vec<u64> = merged.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    // The metrics plane (`crate::metrics`): buckets, quantiles, the
    // registry and the families rendered from run statistics.

    #[test]
    fn bucket_scheme_is_log2_with_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(10), 1023);
    }

    #[test]
    fn quantiles_are_upper_edges() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 5, 9, 17, 900, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.quantile(0.5), 7); // 4th sample (value 5) -> bucket 3
        assert_eq!(snap.quantile(1.0), 1023);
        assert_eq!(snap.max_estimate(), 1023);
    }

    #[test]
    fn merge_is_commutative_and_since_subtracts() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 100);
        assert_eq!(ab.since(&a.snapshot()), b.snapshot());
    }

    #[test]
    fn registry_snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        let c2 = r.counter("z_total", "z", Stability::Deterministic, &[("k", "b")]);
        let c1 = r.counter("z_total", "z", Stability::Deterministic, &[("k", "a")]);
        let h = r.histogram("a_ns", "a", Stability::Timing, &[]);
        c1.add(1);
        c2.add(2);
        h.observe(1000);
        let snap = r.snapshot();
        let names: Vec<_> = snap
            .series
            .iter()
            .map(|s| (s.name, s.labels.clone()))
            .collect();
        assert_eq!(names[0].0, "a_ns");
        assert_eq!(names[1].1[0].1, "a");
        assert_eq!(names[2].1[0].1, "b");
        assert_eq!(snap.counter("z_total", &[("k", "b")]), Some(2));
        assert_eq!(snap.counter_total("z_total"), 3);
        let det = snap.prometheus_deterministic();
        assert!(det.contains("z_total{k=\"a\"} 1"));
        assert!(!det.contains("a_ns"));
        let full = snap.prometheus();
        assert!(full.contains("# STABILITY a_ns timing"));
        assert!(full.contains("a_ns_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn reregistration_returns_same_series() {
        let r = Registry::new();
        let a = r.counter("dup_total", "d", Stability::Deterministic, &[]);
        let b = r.counter("dup_total", "d", Stability::Deterministic, &[]);
        a.add(3);
        b.add(4);
        assert_eq!(r.snapshot().counter("dup_total", &[]), Some(7));
    }

    #[test]
    fn pushed_counters_keep_the_snapshot_sorted() {
        let r = Registry::new();
        r.counter("a_total", "a", Stability::Deterministic, &[])
            .inc();
        r.counter("z_total", "z", Stability::Timing, &[]).inc();
        let mut snap = r.snapshot();
        let (name, help, stability) = ("m_total", "m", Stability::Deterministic);
        let family = CounterFamily {
            name,
            help,
            stability,
        };
        snap.push_counter(&family, &[("k", "b")], 2);
        snap.push_counter(&family, &[("k", "a")], 0);
        let det = snap.prometheus_deterministic();
        let tail = "# STABILITY m_total deterministic\nm_total{k=\"a\"} 0\nm_total{k=\"b\"} 2\n";
        assert!(
            det.starts_with("# HELP a_total a\n") && det.ends_with(tail),
            "{det}"
        );
        assert_eq!(snap.series.last().map(|s| s.name), Some("z_total"));
    }
}
